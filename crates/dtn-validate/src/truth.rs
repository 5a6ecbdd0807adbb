//! Ground-truth state per message: the world's one truth ledger,
//! maintained from its state transitions. The `SdsrpOracle` ablation
//! reads its true `m_i`/`n_i` from it, and the
//! [`Validator`](crate::Validator) judges the distributed estimators and
//! cross-checks the buffers against it.

use dtn_core::ids::{MessageId, NodeId};
use std::collections::HashSet;

/// Everything the simulator truly knows about one message: the
/// quantities SDSRP can only estimate (`m_i`, `n_i`, `d_i`), plus the
/// token ledger backing the copy-conservation check.
#[derive(Debug, Clone)]
pub struct MessageTruth {
    /// Source node.
    pub source: NodeId,
    /// Initial copy tokens `C`.
    pub initial_copies: u32,
    /// Absolute expiry instant, seconds.
    pub expires_at: f64,
    /// Nodes other than the source that have ever received the message
    /// (replication, handoff or delivery) — the true `m_i`.
    pub seen: HashSet<NodeId>,
    /// Buffers currently holding a copy — the true `n_i`, maintained
    /// from the insert/remove hooks (double-entry against the sweep).
    pub holders: u32,
    /// Copy tokens destroyed so far (evictions, rejections, expiry,
    /// immunity purges). Live tokens + destroyed must equal `C` under a
    /// token-conserving routing protocol.
    pub destroyed: u64,
    /// Nodes that made an own-drop decision (eviction or incoming
    /// rejection) for this message — the true `d_i` a perfectly
    /// gossiped dropped-list could report.
    pub droppers: HashSet<NodeId>,
    /// Whether the destination has received the message.
    pub delivered: bool,
}

impl MessageTruth {
    /// Fresh truth for a message generated at `source` with `c` tokens.
    pub fn new(source: NodeId, c: u32, expires_at: f64) -> Self {
        MessageTruth {
            source,
            initial_copies: c,
            expires_at,
            seen: HashSet::new(),
            holders: 0,
            destroyed: 0,
            droppers: HashSet::new(),
            delivered: false,
        }
    }

    /// The true `m_i`: distinct non-source nodes that received a copy.
    pub fn true_m(&self) -> u32 {
        self.seen.len() as u32
    }

    /// The truth Eq. 15's `m_i` estimate is scored against: the true
    /// `m_i` plus one for the source. Eq. 15 counts the spray chain's
    /// endpoint itself (its floor is 1), so the comparable quantity is
    /// every node that ever held a copy, source included.
    pub fn true_m_with_source(&self) -> u32 {
        self.true_m() + 1
    }

    /// The true `d_i`: distinct nodes that dropped the message.
    pub fn true_d(&self) -> u32 {
        self.droppers.len() as u32
    }
}

/// One [`MessageTruth`] per generated message, indexed by message id.
/// The world owns it whenever something reads it (validation, or a
/// policy fed the true `m_i`/`n_i`) and updates it exactly once per
/// state transition through the `on_*` hooks.
#[derive(Debug, Clone, Default)]
pub struct TruthLedger {
    messages: Vec<MessageTruth>,
}

impl TruthLedger {
    /// Every generated message's truth, indexed by message id.
    pub fn messages(&self) -> &[MessageTruth] {
        &self.messages
    }

    /// The truth about `msg`. Panics if it was never generated.
    pub fn of(&self, msg: MessageId) -> &MessageTruth {
        &self.messages[msg.index()]
    }

    /// The true `(m_i, n_i)` of `msg` — what the `SdsrpOracle` ablation
    /// is fed in place of its Eq. 15/14 estimates.
    pub fn m_and_n(&self, msg: MessageId) -> (u32, u32) {
        let t = self.of(msg);
        (t.true_m(), t.holders)
    }

    /// A message was generated. Ids must arrive dense and in order.
    pub fn on_generated(&mut self, msg: MessageId, source: NodeId, copies: u32, expires_at: f64) {
        assert_eq!(
            msg.index(),
            self.messages.len(),
            "the truth ledger must exist before the first generation"
        );
        self.messages
            .push(MessageTruth::new(source, copies, expires_at));
    }

    /// A copy entered a buffer (generation, replication or handoff).
    pub fn on_inserted(&mut self, msg: MessageId, node: NodeId) {
        let t = &mut self.messages[msg.index()];
        t.holders += 1;
        if node != t.source {
            t.seen.insert(node);
        }
    }

    /// A resident copy was evicted by a drop decision.
    pub fn on_evicted(&mut self, msg: MessageId, node: NodeId, tokens: u32) {
        let t = self.remove_holder(msg, tokens);
        t.droppers.insert(node);
    }

    /// An incoming copy was refused admission (its tokens die with it).
    pub fn on_rejected_incoming(&mut self, msg: MessageId, node: NodeId, tokens: u32) {
        let t = &mut self.messages[msg.index()];
        t.destroyed += u64::from(tokens);
        t.droppers.insert(node);
    }

    /// A buffered copy expired (TTL purge; not a drop decision).
    pub fn on_expired(&mut self, msg: MessageId, tokens: u32) {
        self.remove_holder(msg, tokens);
    }

    /// A copy was purged by an immunity mechanism (not a drop decision).
    pub fn on_immunity_purge(&mut self, msg: MessageId, tokens: u32) {
        self.remove_holder(msg, tokens);
    }

    /// A buffered copy was destroyed by an injected node crash. Like
    /// [`Self::on_expired`], this is not a drop *decision* — the node
    /// never chose to drop it, so it must NOT enter `droppers` (a
    /// gossiped dropped-list claiming this drop would be an overcount).
    /// The tokens are charged to `destroyed` so copy conservation holds
    /// *modulo the fault ledger*.
    pub fn on_crash_wipe(&mut self, msg: MessageId, tokens: u32) {
        self.remove_holder(msg, tokens);
    }

    /// A copy left its sender's buffer for a handoff (tokens travel
    /// with it; the receiving side reports admission or rejection).
    pub fn on_handoff_out(&mut self, msg: MessageId) {
        self.remove_holder(msg, 0);
    }

    /// The destination received the message.
    pub fn on_delivered(&mut self, msg: MessageId, dst: NodeId) {
        let t = &mut self.messages[msg.index()];
        t.seen.insert(dst);
        t.delivered = true;
    }

    /// Fault injection for harness self-tests: bumps the holder count
    /// (`n_i` bookkeeping) of the first message still held somewhere,
    /// so the next validation sweep must report a `holder_mismatch`.
    /// Returns whether such a message existed.
    pub fn corrupt_holder_bookkeeping(&mut self) -> bool {
        match self.messages.iter_mut().find(|t| t.holders > 0) {
            Some(t) => {
                t.holders += 1;
                true
            }
            None => false,
        }
    }

    /// One copy of `msg` left a buffer, taking `tokens` out of the
    /// network.
    fn remove_holder(&mut self, msg: MessageId, tokens: u32) -> &mut MessageTruth {
        let t = &mut self.messages[msg.index()];
        t.holders = t.holders.saturating_sub(1);
        t.destroyed += u64::from(tokens);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_clean() {
        let t = MessageTruth::new(NodeId(3), 16, 1800.0);
        assert_eq!(t.true_m(), 0);
        assert_eq!(t.true_d(), 0);
        assert_eq!(t.holders, 0);
        assert_eq!(t.destroyed, 0);
        assert!(!t.delivered);
    }

    #[test]
    fn seen_and_droppers_deduplicate() {
        let mut t = MessageTruth::new(NodeId(0), 8, 600.0);
        t.seen.insert(NodeId(1));
        t.seen.insert(NodeId(1));
        t.droppers.insert(NodeId(2));
        t.droppers.insert(NodeId(2));
        assert_eq!(t.true_m(), 1);
        assert_eq!(t.true_d(), 1);
    }

    /// Walks one message through every transition the world reports and
    /// pins each ledger term after each step: `true_m` (the source never
    /// counts, the destination counts once delivered), `holders` (the
    /// true `n_i`), `true_d` and the destroyed tokens.
    #[test]
    fn every_transition_moves_exactly_its_terms() {
        let msg = MessageId(0);
        let (src, relay, dst, other) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut l = TruthLedger::default();
        let terms = |l: &TruthLedger| {
            let t = l.of(msg);
            (t.true_m(), t.holders, t.true_d(), t.destroyed)
        };

        // Generate: the source's copy is a holder but not a "seen" node.
        l.on_generated(msg, src, 8, 600.0);
        l.on_inserted(msg, src);
        assert_eq!(terms(&l), (0, 1, 0, 0));
        assert_eq!(l.m_and_n(msg), (0, 1));
        assert_eq!(l.of(msg).true_m_with_source(), 1);

        // Replicate to the relay: one more node seen, one more holder.
        l.on_inserted(msg, relay);
        assert_eq!(terms(&l), (1, 2, 0, 0));

        // The relay hands its copy off to `other`: the relay's buffer
        // empties, `other` becomes a holder and a seen node.
        l.on_handoff_out(msg);
        assert_eq!(terms(&l), (1, 1, 0, 0));
        l.on_inserted(msg, other);
        assert_eq!(terms(&l), (2, 2, 0, 0));

        // Deliver: the destination counts in m_i (once, however often
        // it is reported) but holds no copy.
        l.on_delivered(msg, dst);
        l.on_delivered(msg, dst);
        assert_eq!(terms(&l), (3, 2, 0, 0));
        assert!(l.of(msg).delivered);
        assert_eq!(l.of(msg).true_m_with_source(), 4);

        // Evict at `other`: a drop decision, so `other` enters d_i.
        l.on_evicted(msg, other, 2);
        assert_eq!(terms(&l), (3, 1, 1, 2));

        // The relay refuses an incoming copy: a drop decision with no
        // holder change.
        l.on_rejected_incoming(msg, relay, 1);
        assert_eq!(terms(&l), (3, 1, 2, 3));

        // Re-admitting a node already seen leaves m_i alone.
        l.on_inserted(msg, relay);
        assert_eq!(terms(&l), (3, 2, 2, 3));

        // Expiry and a crash wipe remove holders but are not drops.
        l.on_expired(msg, 1);
        assert_eq!(terms(&l), (3, 1, 2, 4));
        l.on_crash_wipe(msg, 4);
        assert_eq!(terms(&l), (3, 0, 2, 8));
        assert_eq!(l.m_and_n(msg), (3, 0));

        // Nothing left to corrupt once no buffer holds a copy.
        assert!(!l.corrupt_holder_bookkeeping());
    }

    #[test]
    fn immunity_purge_and_seeded_corruption_touch_holders_only() {
        let mut l = TruthLedger::default();
        l.on_generated(MessageId(0), NodeId(0), 4, 600.0);
        l.on_generated(MessageId(1), NodeId(1), 4, 600.0);
        l.on_inserted(MessageId(1), NodeId(1));
        l.on_inserted(MessageId(1), NodeId(2));
        l.on_immunity_purge(MessageId(1), 2);
        let t = l.of(MessageId(1));
        assert_eq!((t.holders, t.destroyed, t.true_d()), (1, 2, 0));

        // The corruption skips the message nobody holds.
        assert!(l.corrupt_holder_bookkeeping());
        assert_eq!(l.of(MessageId(0)).holders, 0);
        assert_eq!(l.of(MessageId(1)).holders, 2);
        assert_eq!(l.messages().len(), 2);
    }
}
