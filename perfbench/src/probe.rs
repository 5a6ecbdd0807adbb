//! The policy-layer probe: a [`BufferPolicy`] decorator that times every
//! call into the wrapped policy from outside.
//!
//! The world is built through the public
//! [`World::build_with_policies`](dtn_sim::World::build_with_policies)
//! hook with each node's real policy wrapped in a [`TimedPolicy`]. The
//! wrapper forwards every trait method unchanged, so a wrapped run must
//! fingerprint exactly like the plain one; the traced run checks that.

use dtn_buffer::policy::{AdmissionPlan, BufferPolicy, PriorityCacheStats};
use dtn_buffer::view::MessageView;
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use dtn_core::units::Bytes;
use sdsrp_core::DroppedList;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Per-run policy-layer counters, shared by every node's wrapper.
/// Times are nanoseconds. The world calls policies from one thread, so
/// the atomics are uncontended; `Relaxed` suffices because each field is
/// a standalone statistic read only after the run.
#[derive(Debug, Default)]
pub struct PolicyStats {
    /// `send_priority` + `keep_priority` (Eq. 10 ranking).
    pub rank_ns: AtomicU64,
    pub rank_calls: AtomicU64,
    /// `accepts` (the dropped-list receive-reject rule).
    pub accepts_ns: AtomicU64,
    pub accepts_calls: AtomicU64,
    /// `export_gossip` / `import_gossip` (Fig. 5 dropped-list gossip).
    pub export_ns: AtomicU64,
    pub import_ns: AtomicU64,
    /// Bytes of every exported payload, and the largest one.
    pub gossip_bytes: AtomicU64,
    pub gossip_bytes_max: AtomicU64,
    /// Origin records in imported payloads, decoded outside the spans.
    pub records_offered: AtomicU64,
    /// Records the importing policy reported as adopted.
    pub records_adopted: AtomicU64,
    /// Every other forwarded call (contact hooks, drops, admission).
    pub other_ns: AtomicU64,
    /// Time spent decoding payloads for `records_offered`: probe work
    /// inside the world's step windows that is no part of the program.
    pub probe_ns: AtomicU64,
}

impl PolicyStats {
    /// Total time inside policy spans.
    pub fn span_ns(&self) -> u64 {
        [
            &self.rank_ns,
            &self.accepts_ns,
            &self.export_ns,
            &self.import_ns,
            &self.other_ns,
        ]
        .iter()
        .map(|a| a.load(Relaxed))
        .sum()
    }
}

/// Times `f` into `acc`.
fn timed<R>(acc: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    acc.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    r
}

/// A forwarding decorator around one node's buffer policy.
pub struct TimedPolicy {
    inner: Box<dyn BufferPolicy>,
    stats: Arc<PolicyStats>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn BufferPolicy>, stats: Arc<PolicyStats>) -> TimedPolicy {
        TimedPolicy { inner, stats }
    }
}

impl BufferPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn send_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.stats.rank_calls.fetch_add(1, Relaxed);
        timed(&self.stats.rank_ns, || self.inner.send_priority(now, msg))
    }

    fn keep_priority(&mut self, now: SimTime, msg: &MessageView<'_>) -> f64 {
        self.stats.rank_calls.fetch_add(1, Relaxed);
        timed(&self.stats.rank_ns, || self.inner.keep_priority(now, msg))
    }

    fn accepts(&mut self, now: SimTime, msg: MessageId) -> bool {
        self.stats.accepts_calls.fetch_add(1, Relaxed);
        timed(&self.stats.accepts_ns, || self.inner.accepts(now, msg))
    }

    fn on_contact_up(&mut self, now: SimTime, peer: NodeId) {
        timed(&self.stats.other_ns, || self.inner.on_contact_up(now, peer))
    }

    fn on_contact_down(&mut self, now: SimTime, peer: NodeId) {
        timed(&self.stats.other_ns, || {
            self.inner.on_contact_down(now, peer)
        })
    }

    fn on_drop(&mut self, now: SimTime, msg: MessageId) {
        timed(&self.stats.other_ns, || self.inner.on_drop(now, msg))
    }

    fn on_node_reset(&mut self, now: SimTime) {
        timed(&self.stats.other_ns, || self.inner.on_node_reset(now))
    }

    fn export_gossip(&mut self, now: SimTime) -> Option<Vec<u8>> {
        let out = timed(&self.stats.export_ns, || self.inner.export_gossip(now));
        if let Some(bytes) = &out {
            let len = bytes.len() as u64;
            self.stats.gossip_bytes.fetch_add(len, Relaxed);
            self.stats.gossip_bytes_max.fetch_max(len, Relaxed);
        }
        out
    }

    fn import_gossip(&mut self, now: SimTime, bytes: &[u8]) -> usize {
        let adopted = timed(&self.stats.import_ns, || {
            self.inner.import_gossip(now, bytes)
        });
        self.stats
            .records_adopted
            .fetch_add(adopted as u64, Relaxed);
        let offered = timed(&self.stats.probe_ns, || {
            DroppedList::decode_records(bytes).map_or(0, |r| r.len())
        });
        self.stats
            .records_offered
            .fetch_add(offered as u64, Relaxed);
        adopted
    }

    fn admission_override(
        &mut self,
        now: SimTime,
        incoming: &MessageView<'_>,
        residents: &[MessageView<'_>],
        free: Bytes,
        capacity: Bytes,
    ) -> Option<AdmissionPlan> {
        timed(&self.stats.other_ns, || {
            self.inner
                .admission_override(now, incoming, residents, free, capacity)
        })
    }

    fn set_priority_cache(&mut self, enabled: bool) {
        self.inner.set_priority_cache(enabled)
    }

    fn priority_cache_stats(&self) -> Option<PriorityCacheStats> {
        self.inner.priority_cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::build_world;
    use dtn_core::units::Bytes;
    use dtn_sim::config::{presets, PolicyKind, ScenarioConfig};
    use dtn_sim::replay::fingerprint;
    use dtn_validate::ReportFingerprint;
    use std::sync::Mutex;

    fn plain(cfg: &ScenarioConfig) -> ReportFingerprint {
        let (report, rec) = build_world(cfg, 1, None).run_with_recorder();
        fingerprint(&report, rec.totals())
    }

    fn wrapped(cfg: &ScenarioConfig, stats: &Arc<PolicyStats>) -> ReportFingerprint {
        let (report, rec) = build_world(cfg, 1, Some(stats)).run_with_recorder();
        fingerprint(&report, rec.totals())
    }

    #[test]
    fn wrapped_smoke_worlds_fingerprint_like_plain_ones() {
        // SDSRP exercises gossip, accepts and drops; FIFO has distinct
        // send and keep rankings; Knapsack decides admission set-wise;
        // faults exercise the reset hook.
        let mut faulty = presets::smoke();
        faulty.faults.crash_rate_per_hour = 2.0;
        faulty.faults.reboot_secs = 60.0;
        let mut cases = vec![faulty];
        for kind in [PolicyKind::Sdsrp, PolicyKind::Fifo, PolicyKind::Knapsack] {
            let mut cfg = presets::smoke();
            cfg.policy = kind;
            cfg.duration_secs = 1800.0;
            cfg.message_size_max = Some(Bytes::from_mb(1.0));
            cases.push(cfg);
        }
        for cfg in cases {
            let stats = Arc::new(PolicyStats::default());
            assert_eq!(wrapped(&cfg, &stats), plain(&cfg), "{:?}", cfg.policy);
            assert!(stats.rank_calls.load(Relaxed) > 0);
        }
    }

    /// A policy that logs which trait methods reached it.
    struct Spy(Arc<Mutex<Vec<&'static str>>>);

    impl BufferPolicy for Spy {
        fn name(&self) -> &'static str {
            self.0.lock().expect("spy log").push("name");
            "spy"
        }
        fn send_priority(&mut self, _: SimTime, _: &MessageView<'_>) -> f64 {
            self.0.lock().expect("spy log").push("send_priority");
            1.0
        }
        fn keep_priority(&mut self, _: SimTime, _: &MessageView<'_>) -> f64 {
            self.0.lock().expect("spy log").push("keep_priority");
            2.0
        }
        fn accepts(&mut self, _: SimTime, _: MessageId) -> bool {
            self.0.lock().expect("spy log").push("accepts");
            false
        }
        fn on_contact_up(&mut self, _: SimTime, _: NodeId) {
            self.0.lock().expect("spy log").push("on_contact_up");
        }
        fn on_contact_down(&mut self, _: SimTime, _: NodeId) {
            self.0.lock().expect("spy log").push("on_contact_down");
        }
        fn on_drop(&mut self, _: SimTime, _: MessageId) {
            self.0.lock().expect("spy log").push("on_drop");
        }
        fn on_node_reset(&mut self, _: SimTime) {
            self.0.lock().expect("spy log").push("on_node_reset");
        }
        fn export_gossip(&mut self, _: SimTime) -> Option<Vec<u8>> {
            self.0.lock().expect("spy log").push("export_gossip");
            Some(vec![1, 2, 3])
        }
        fn import_gossip(&mut self, _: SimTime, _: &[u8]) -> usize {
            self.0.lock().expect("spy log").push("import_gossip");
            4
        }
        fn admission_override(
            &mut self,
            _: SimTime,
            _: &MessageView<'_>,
            _: &[MessageView<'_>],
            _: Bytes,
            _: Bytes,
        ) -> Option<AdmissionPlan> {
            self.0.lock().expect("spy log").push("admission_override");
            Some(AdmissionPlan::RejectIncoming)
        }
        fn set_priority_cache(&mut self, _: bool) {
            self.0.lock().expect("spy log").push("set_priority_cache");
        }
        fn priority_cache_stats(&self) -> Option<PriorityCacheStats> {
            self.0.lock().expect("spy log").push("priority_cache_stats");
            Some(PriorityCacheStats {
                hits: 5,
                incremental: 6,
                misses: 7,
            })
        }
    }

    #[test]
    fn every_trait_method_reaches_the_inner_policy() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let stats = Arc::new(PolicyStats::default());
        let mut p = TimedPolicy::new(Box::new(Spy(log.clone())), stats.clone());
        let now = SimTime::from_secs(1.0);
        let ttl = dtn_core::time::SimDuration::from_secs(10.0);
        let view = MessageView {
            id: MessageId(1),
            size: Bytes(10),
            source: NodeId(0),
            destination: NodeId(1),
            created: SimTime::ZERO,
            received: SimTime::ZERO,
            initial_ttl: ttl,
            remaining_ttl: ttl,
            copies: 2,
            initial_copies: 2,
            hops: 0,
            forward_count: 0,
            spray_times: &[],
            oracle_seen: None,
            oracle_holders: None,
        };

        assert_eq!(p.name(), "spy");
        assert_eq!(p.send_priority(now, &view), 1.0);
        assert_eq!(p.keep_priority(now, &view), 2.0);
        assert!(!p.accepts(now, MessageId(1)));
        p.on_contact_up(now, NodeId(1));
        p.on_contact_down(now, NodeId(1));
        p.on_drop(now, MessageId(1));
        p.on_node_reset(now);
        assert_eq!(p.export_gossip(now), Some(vec![1, 2, 3]));
        assert_eq!(p.import_gossip(now, &[9]), 4);
        assert_eq!(
            p.admission_override(now, &view, &[], Bytes(0), Bytes(10)),
            Some(AdmissionPlan::RejectIncoming)
        );
        p.set_priority_cache(false);
        assert_eq!(p.priority_cache_stats().map(|s| s.misses), Some(7));

        assert_eq!(
            *log.lock().expect("spy log"),
            vec![
                "name",
                "send_priority",
                "keep_priority",
                "accepts",
                "on_contact_up",
                "on_contact_down",
                "on_drop",
                "on_node_reset",
                "export_gossip",
                "import_gossip",
                "admission_override",
                "set_priority_cache",
                "priority_cache_stats",
            ]
        );
        assert_eq!(stats.rank_calls.load(Relaxed), 2);
        assert_eq!(stats.accepts_calls.load(Relaxed), 1);
        assert_eq!(stats.gossip_bytes.load(Relaxed), 3);
        assert_eq!(stats.gossip_bytes_max.load(Relaxed), 3);
        assert_eq!(stats.records_adopted.load(Relaxed), 4);
        assert_eq!(
            stats.records_offered.load(Relaxed),
            0,
            "garbage decodes to nothing"
        );
    }
}
