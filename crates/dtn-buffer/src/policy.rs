//! The buffer-policy trait and the shared admission/eviction algorithm.

use crate::view::MessageView;
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use dtn_core::units::Bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A buffer-management strategy: ranks buffered messages for scheduling
/// (send order) and for dropping, and may maintain distributed state via
/// the contact/gossip hooks.
///
/// Conventions:
///
/// * **Higher [`send_priority`](Self::send_priority) replicates first**
///   when a contact comes up (paper Algorithm 1, line 7).
/// * **Lower [`keep_priority`](Self::keep_priority) is evicted first**
///   when the buffer overflows (Algorithm 1, line 12). For most policies
///   the two rankings coincide; FIFO is the classic exception (send
///   oldest first *and* drop oldest first).
///
/// Ranking methods take `&mut self` because some policies consult
/// internal state (estimators, RNGs); they must not have side effects
/// that change the ranking of other messages within the same decision.
pub trait BufferPolicy: Send {
    /// Human-readable policy name (used in reports and plots).
    fn name(&self) -> &'static str;

    /// Scheduling priority: the message with the highest value is
    /// replicated first.
    fn send_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64;

    /// Retention priority: the message with the lowest value is dropped
    /// first on overflow. Defaults to the scheduling priority.
    fn keep_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.send_priority(now, msg)
    }

    /// Whether this node is willing to receive `msg` at all (SDSRP
    /// refuses messages in its dropped list). Default: accept.
    ///
    /// **Contract:** the answer may depend only on state that changes
    /// through this trait's hooks (contacts, drops, gossip, reset) or
    /// the node's buffer, never on `now` alone. The simulator retries
    /// an idle link only after one of its endpoints changed; a refusal
    /// that turned into acceptance with the mere passage of time would
    /// go unnoticed until the next change.
    fn accepts(&mut self, _now: SimTime, _msg: MessageId) -> bool {
        true
    }

    /// Called when a contact to `peer` comes up (before any transfers).
    fn on_contact_up(&mut self, _now: SimTime, _peer: NodeId) {}

    /// Called when a contact goes down.
    fn on_contact_down(&mut self, _now: SimTime, _peer: NodeId) {}

    /// Called when this node *drops* a buffered message due to overflow
    /// (not on TTL expiry and not on delivery).
    fn on_drop(&mut self, _now: SimTime, _msg: MessageId) {}

    /// Called when the owning node crashes and reboots cold (fault
    /// injection): all policy-internal distributed state — estimators,
    /// dropped lists, memos — must return to its post-construction
    /// state. Default: no-op (stateless policies have nothing to lose).
    fn on_node_reset(&mut self, _now: SimTime) {}

    /// Serialised control-plane state to offer a newly-met peer (e.g.
    /// SDSRP's dropped-list records). `None` means nothing to exchange.
    fn export_gossip(&mut self, _now: SimTime) -> Option<Vec<u8>> {
        None
    }

    /// Ingest a peer's gossip produced by
    /// [`export_gossip`](Self::export_gossip) of the *same* policy type.
    /// Implementations must tolerate garbage (version skew) gracefully.
    /// Returns the number of records adopted from the peer (telemetry;
    /// `0` when nothing changed).
    fn import_gossip(&mut self, _now: SimTime, _bytes: &[u8]) -> usize {
        0
    }

    /// Optional whole-buffer admission override. Policies that decide
    /// set-wise (e.g. the knapsack strategy) return `Some(plan)`;
    /// `None` (the default) falls back to the greedy Algorithm-1 rule
    /// in [`plan_admission`].
    fn admission_override(
        &mut self,
        _now: SimTime,
        _incoming: &MessageView<'_>,
        _residents: &[MessageView<'_>],
        _free: Bytes,
        _capacity: Bytes,
    ) -> Option<AdmissionPlan> {
        None
    }

    /// Enables or disables the policy's internal priority memoisation,
    /// when it has one (SDSRP). The cached and uncached paths must rank
    /// identically — the differential regression suite runs scenarios
    /// both ways and asserts bit-identical fingerprints. Default: no-op
    /// (stateless policies have nothing to cache).
    fn set_priority_cache(&mut self, _enabled: bool) {}

    /// Hit/miss counters of the policy's priority memoisation, when it
    /// has one. Default: `None`.
    fn priority_cache_stats(&self) -> Option<PriorityCacheStats> {
        None
    }
}

/// Aggregate counters of a policy's priority memoisation (see
/// [`BufferPolicy::priority_cache_stats`]).
///
/// Requests are classified three ways: `hits` returned a stored value
/// verbatim (same evaluation instant), `incremental` finished an
/// evaluation from cached partial results (a new instant whose changed
/// inputs are all pure functions of time), and `misses` rebuilt the
/// entry from scratch. Paths that never consult the memo — the cache
/// disabled, or a policy without one — count in none of the buckets, so
/// an uncached run reports all-zero stats rather than a wall of fake
/// misses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PriorityCacheStats {
    /// Ranking requests answered verbatim from the memo.
    pub hits: u64,
    /// Ranking requests completed from cached partial results.
    pub incremental: u64,
    /// Ranking requests that had to rebuild the entry from scratch.
    pub misses: u64,
}

impl PriorityCacheStats {
    /// Fraction of requests the memo served — verbatim or by finishing
    /// a cached partial evaluation (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.incremental + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.incremental) as f64 / total as f64
        }
    }

    /// Component-wise sum (for aggregating across nodes).
    pub fn merge(&mut self, other: PriorityCacheStats) {
        self.hits += other.hits;
        self.incremental += other.incremental;
        self.misses += other.misses;
    }

    /// Component-wise growth since `earlier`, a snapshot of the same
    /// counters (which only grow between cache toggles).
    pub fn since(self, earlier: PriorityCacheStats) -> PriorityCacheStats {
        PriorityCacheStats {
            hits: self.hits - earlier.hits,
            incremental: self.incremental - earlier.incremental,
            misses: self.misses - earlier.misses,
        }
    }
}

/// Heap key for lazy lowest-keep-priority selection: orders ascending by
/// `(priority, id)` — the exact total order the former full
/// `sort_by` used, so eviction sequences are unchanged — and is consumed
/// through `Reverse` so a max-heap pops the cheapest victim first.
///
/// The `Ord` impl panics on NaN priorities, like the comparator it
/// replaces: a NaN ranking is a policy bug, not an ordering choice.
#[derive(Debug, Clone, Copy)]
pub struct EvictionRank {
    /// The policy's retention priority (lower is evicted first).
    pub priority: f64,
    /// Message id (ascending tie-break: older id evicted first).
    pub id: MessageId,
    /// Message size, carried along for the free-space accounting.
    pub size: Bytes,
}

impl PartialEq for EvictionRank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for EvictionRank {}

impl PartialOrd for EvictionRank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EvictionRank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .partial_cmp(&other.priority)
            .expect("NaN priority")
            .then(self.id.cmp(&other.id))
    }
}

/// Outcome of the overflow algorithm for one incoming message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionPlan {
    /// The message fits (possibly after the listed evictions).
    Admit {
        /// Resident messages to evict, in eviction order.
        evict: Vec<MessageId>,
    },
    /// The incoming message ranks below the would-be victims: refuse it
    /// and keep the buffer unchanged.
    RejectIncoming,
}

/// Reusable backing storage for the amortized top-k victim selection.
///
/// Every admission decision still re-ranks the candidates from the
/// caller's single `now` snapshot — rankings are *never* reused across
/// instants, only the heap's allocation is. Holding one scratch per
/// simulation world turns the former per-decision `Vec` allocation into
/// a clear-and-refill of memory that is already hot in cache.
#[derive(Debug, Default)]
pub struct EvictionScratch {
    ranked: Vec<Reverse<EvictionRank>>,
}

impl EvictionScratch {
    /// Lazy lowest-first selection without a reject rule (forced
    /// admission of newly generated messages): heapifies `candidates`
    /// in O(B), then pops ascending `(keep priority, id)` victims into
    /// `victims` until `free` covers `needed` or the candidates run
    /// out. Returns the resulting free space.
    pub fn select_victims(
        &mut self,
        candidates: impl Iterator<Item = EvictionRank>,
        mut free: Bytes,
        needed: Bytes,
        victims: &mut Vec<(MessageId, Bytes)>,
    ) -> Bytes {
        let mut backing = std::mem::take(&mut self.ranked);
        backing.clear();
        backing.extend(candidates.map(Reverse));
        let mut ranked = BinaryHeap::from(backing);
        while free < needed {
            let Some(Reverse(v)) = ranked.pop() else {
                break;
            };
            victims.push((v.id, v.size));
            free += v.size;
        }
        self.ranked = ranked.into_vec();
        free
    }
}

/// The paper's drop rule (Algorithm 1, lines 8-12), generalised to
/// heterogeneous sizes: evict the lowest-`keep_priority` resident until
/// the newcomer fits, but if at any point the newcomer itself has the
/// lowest priority among the remaining candidates, reject it instead and
/// evict nothing.
///
/// `free` is the buffer space currently available; `residents` the
/// views of messages currently buffered. Convenience wrapper over
/// [`plan_admission_with`] paying a fresh scratch allocation; hot
/// callers keep an [`EvictionScratch`] alive instead.
pub fn plan_admission(
    policy: &mut dyn BufferPolicy,
    now: SimTime,
    incoming: &MessageView<'_>,
    residents: &[MessageView<'_>],
    free: Bytes,
    capacity: Bytes,
) -> AdmissionPlan {
    let mut scratch = EvictionScratch::default();
    plan_admission_with(
        policy,
        now,
        incoming,
        residents,
        free,
        capacity,
        &mut scratch,
    )
}

/// [`plan_admission`] with caller-provided scratch so the per-decision
/// heap allocation is amortized across admissions.
///
/// All rankings are taken at the single `now` snapshot passed in —
/// incoming and every resident alike — so an entry memoised at an
/// earlier tick can never outrank a fresher one (stale-TTL discipline).
#[allow(clippy::too_many_arguments)]
pub fn plan_admission_with(
    policy: &mut dyn BufferPolicy,
    now: SimTime,
    incoming: &MessageView<'_>,
    residents: &[MessageView<'_>],
    free: Bytes,
    capacity: Bytes,
    scratch: &mut EvictionScratch,
) -> AdmissionPlan {
    if incoming.size > capacity {
        // Can never fit, even with an empty buffer.
        return AdmissionPlan::RejectIncoming;
    }
    if let Some(plan) = policy.admission_override(now, incoming, residents, free, capacity) {
        return plan;
    }
    if incoming.size <= free {
        return AdmissionPlan::Admit { evict: Vec::new() };
    }

    let incoming_priority = policy.keep_priority(now, incoming);
    // Lazy select-k instead of a full sort: heapify is O(B) and only the
    // k victims actually popped cost O(log B) each, versus the former
    // O(B log B) `sort_by` over every resident. [`EvictionRank`] orders
    // ascending by `(keep priority, id)` — the same total order the sort
    // used (ties evict the older message id first) — so the victim
    // sequence is bit-identical.
    let mut backing = std::mem::take(&mut scratch.ranked);
    backing.clear();
    backing.extend(residents.iter().map(|m| {
        Reverse(EvictionRank {
            priority: policy.keep_priority(now, m),
            id: m.id,
            size: m.size,
        })
    }));
    let mut ranked = BinaryHeap::from(backing);

    let mut evict = Vec::new();
    let mut freed = free;
    let plan = loop {
        if freed >= incoming.size {
            break AdmissionPlan::Admit { evict };
        }
        let Some(Reverse(victim)) = ranked.pop() else {
            // Even evicting everything cheaper than the newcomer is not
            // enough.
            break AdmissionPlan::RejectIncoming;
        };
        if incoming_priority <= victim.priority {
            // The newcomer is now the lowest-priority candidate: refuse
            // it (Algorithm 1 line 10-11 with the comparison inverted).
            break AdmissionPlan::RejectIncoming;
        }
        evict.push(victim.id);
        freed += victim.size;
    };
    scratch.ranked = ranked.into_vec();
    plan
}

/// Sorts message ids by descending send priority (scheduling order for a
/// fresh contact). Ties broken by ascending id for determinism.
pub fn schedule_order(
    policy: &mut dyn BufferPolicy,
    now: SimTime,
    msgs: &[MessageView<'_>],
) -> Vec<MessageId> {
    let mut ranked: Vec<(f64, MessageId)> = msgs
        .iter()
        .map(|m| (policy.send_priority(now, m), m.id))
        .collect();
    ranked.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("NaN priority")
            .then(a.1.cmp(&b.1))
    });
    ranked.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::TestMessage;

    /// Keep/send priority equal to the message id (higher id = higher
    /// priority) — a transparent policy for exercising the algorithms.
    struct ById;
    impl BufferPolicy for ById {
        fn name(&self) -> &'static str {
            "by-id"
        }
        fn send_priority(&mut self, _now: SimTime, msg: &MessageView<'_>) -> f64 {
            msg.id.0 as f64
        }
    }

    fn msgs(ids: &[u64]) -> Vec<TestMessage> {
        ids.iter().map(|&i| TestMessage::sample(i)).collect()
    }

    #[test]
    fn admit_when_space_available() {
        let mut p = ById;
        let incoming = TestMessage::sample(10);
        let residents = msgs(&[1, 2]);
        let views: Vec<_> = residents.iter().map(|m| m.view()).collect();
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &views,
            Bytes::from_mb(1.0),
            Bytes::from_mb(2.0),
        );
        assert_eq!(plan, AdmissionPlan::Admit { evict: vec![] });
    }

    #[test]
    fn evicts_lowest_priority_first() {
        let mut p = ById;
        let incoming = TestMessage::sample(10); // 0.5 MB
        let residents = msgs(&[3, 1, 2]);
        let views: Vec<_> = residents.iter().map(|m| m.view()).collect();
        // No free space: must evict exactly one 0.5 MB message -> id 1.
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &views,
            Bytes::ZERO,
            Bytes::from_mb(1.5),
        );
        assert_eq!(
            plan,
            AdmissionPlan::Admit {
                evict: vec![MessageId(1)]
            }
        );
    }

    #[test]
    fn rejects_incoming_when_it_ranks_lowest() {
        let mut p = ById;
        let incoming = TestMessage::sample(0); // lowest possible priority
        let residents = msgs(&[1, 2, 3]);
        let views: Vec<_> = residents.iter().map(|m| m.view()).collect();
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &views,
            Bytes::ZERO,
            Bytes::from_mb(1.5),
        );
        assert_eq!(plan, AdmissionPlan::RejectIncoming);
    }

    #[test]
    fn evicts_multiple_small_messages_for_large_incoming() {
        let mut p = ById;
        let mut incoming = TestMessage::sample(10);
        incoming.size = Bytes::from_mb(1.0);
        let mut residents = msgs(&[1, 2, 3]);
        for r in &mut residents {
            r.size = Bytes::from_mb(0.5);
        }
        let views: Vec<_> = residents.iter().map(|m| m.view()).collect();
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &views,
            Bytes::ZERO,
            Bytes::from_mb(1.5),
        );
        assert_eq!(
            plan,
            AdmissionPlan::Admit {
                evict: vec![MessageId(1), MessageId(2)]
            }
        );
    }

    #[test]
    fn rejects_message_larger_than_capacity() {
        let mut p = ById;
        let mut incoming = TestMessage::sample(10);
        incoming.size = Bytes::from_mb(3.0);
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &[],
            Bytes::from_mb(2.5),
            Bytes::from_mb(2.5),
        );
        assert_eq!(plan, AdmissionPlan::RejectIncoming);
    }

    #[test]
    fn rejects_when_evictable_mass_insufficient() {
        // Incoming (high priority) needs 1 MB; only one 0.4 MB resident
        // exists and capacity is 1.2 MB with 0.5 free: evicting all
        // residents frees 0.9 < 1.0 -> reject.
        let mut p = ById;
        let mut incoming = TestMessage::sample(10);
        incoming.size = Bytes::from_mb(1.0);
        let mut resident = TestMessage::sample(1);
        resident.size = Bytes::from_mb(0.4);
        let views = vec![resident.view()];
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &views,
            Bytes::from_mb(0.5),
            Bytes::from_mb(1.2),
        );
        assert_eq!(plan, AdmissionPlan::RejectIncoming);
    }

    #[test]
    fn equal_priority_favours_resident() {
        // Incoming ties with the lowest resident: paper keeps residents
        // (drop the newcomer only when strictly lower? Algorithm 1 drops
        // the newcomer when Priority_m < Priority_l; on a tie the
        // resident wins).
        let mut p = ById;
        let incoming = TestMessage::sample(1);
        let residents = msgs(&[1, 5]);
        let views: Vec<_> = residents.iter().map(|m| m.view()).collect();
        let plan = plan_admission(
            &mut p,
            SimTime::ZERO,
            &incoming.view(),
            &views,
            Bytes::ZERO,
            Bytes::from_mb(1.0),
        );
        assert_eq!(plan, AdmissionPlan::RejectIncoming);
    }

    #[test]
    fn schedule_order_is_descending_priority() {
        let mut p = ById;
        let residents = msgs(&[2, 9, 4]);
        let views: Vec<_> = residents.iter().map(|m| m.view()).collect();
        let order = schedule_order(&mut p, SimTime::ZERO, &views);
        assert_eq!(order, vec![MessageId(9), MessageId(4), MessageId(2)]);
    }

    #[test]
    fn default_hooks_are_noops() {
        let mut p = ById;
        assert!(p.accepts(SimTime::ZERO, MessageId(1)));
        assert_eq!(p.export_gossip(SimTime::ZERO), None);
        assert_eq!(p.import_gossip(SimTime::ZERO, b"garbage"), 0);
        p.on_contact_up(SimTime::ZERO, NodeId(1));
        p.on_contact_down(SimTime::ZERO, NodeId(1));
        p.on_drop(SimTime::ZERO, MessageId(1));
        p.on_node_reset(SimTime::ZERO);
    }
}
