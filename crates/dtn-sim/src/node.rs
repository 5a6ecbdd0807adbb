//! A simulated node: buffer + buffer policy + routing protocol.

use crate::message::{BufferedCopy, Message};
use dtn_buffer::policy::BufferPolicy;
use dtn_buffer::view::MessageView;
use dtn_core::ids::{MessageId, NodeId};
use dtn_core::time::SimTime;
use dtn_core::units::Bytes;
use dtn_routing::protocol::RoutingProtocol;
use std::collections::{BTreeMap, HashSet};

/// One DTN node's complete state.
pub struct Node {
    /// The node id.
    pub id: NodeId,
    /// Buffered copies, keyed (and iterated deterministically) by id.
    pub buffer: BTreeMap<MessageId, BufferedCopy>,
    /// Bytes currently buffered.
    pub used: Bytes,
    /// Buffer capacity.
    pub capacity: Bytes,
    /// The buffer-management strategy.
    pub policy: Box<dyn BufferPolicy>,
    /// The routing protocol.
    pub routing: Box<dyn RoutingProtocol>,
    /// Messages this node has received *as destination* (used to refuse
    /// duplicate deliveries; ONE behaves the same).
    pub delivered: HashSet<MessageId>,
    /// Acknowledged message ids this node knows about (antipackets;
    /// only populated under `ImmunityMode::AntipacketGossip`).
    pub acked: HashSet<MessageId>,
}

impl Node {
    /// Creates an empty node.
    pub fn new(
        id: NodeId,
        capacity: Bytes,
        policy: Box<dyn BufferPolicy>,
        routing: Box<dyn RoutingProtocol>,
    ) -> Self {
        Node {
            id,
            buffer: BTreeMap::new(),
            used: Bytes::ZERO,
            capacity,
            policy,
            routing,
            delivered: HashSet::new(),
            acked: HashSet::new(),
        }
    }

    /// Free buffer space.
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Whether the node currently buffers `msg`.
    pub fn has(&self, msg: MessageId) -> bool {
        self.buffer.contains_key(&msg)
    }

    /// Inserts a copy whose size the caller has already cleared through
    /// admission control.
    ///
    /// # Panics
    /// Panics if the copy does not fit or a copy already exists — both
    /// indicate a world-logic bug.
    pub fn insert_copy(&mut self, copy: BufferedCopy, size: Bytes) {
        assert!(
            self.used + size <= self.capacity,
            "{:?}: insert would overflow buffer",
            self.id
        );
        let prev = self.buffer.insert(copy.msg, copy);
        assert!(prev.is_none(), "{:?}: duplicate copy inserted", self.id);
        self.used += size;
    }

    /// Removes a copy, returning it.
    ///
    /// # Panics
    /// Panics if the copy is absent.
    pub fn remove_copy(&mut self, msg: MessageId, size: Bytes) -> BufferedCopy {
        let copy = self
            .buffer
            .remove(&msg)
            .unwrap_or_else(|| panic!("{:?}: removing absent copy {msg:?}", self.id));
        self.used -= size;
        copy
    }

    /// Number of buffered messages.
    pub fn buffered_count(&self) -> usize {
        self.buffer.len()
    }
}

/// Builds the policy-facing view of one buffered copy.
///
/// `oracle` carries the true `(m_i, n_i)` from the world's truth ledger
/// when the policy is `SdsrpOracle`.
pub fn make_view<'a>(
    msg: &Message,
    copy: &'a BufferedCopy,
    now: SimTime,
    oracle: Option<(u32, u32)>,
) -> MessageView<'a> {
    MessageView {
        id: msg.id,
        size: msg.size,
        source: msg.source,
        destination: msg.destination,
        created: msg.created,
        received: copy.received,
        initial_ttl: msg.ttl,
        remaining_ttl: msg.remaining_ttl(now),
        copies: copy.copies,
        initial_copies: msg.initial_copies,
        hops: copy.hops,
        forward_count: copy.forward_count,
        spray_times: &copy.spray_times,
        oracle_seen: oracle.map(|(m, _)| m),
        oracle_holders: oracle.map(|(_, n)| n),
    }
}

/// Borrows two distinct nodes mutably.
///
/// # Panics
/// Panics if `a == b`.
pub fn two_nodes(nodes: &mut [Node], a: NodeId, b: NodeId) -> (&mut Node, &mut Node) {
    assert_ne!(a, b, "cannot borrow the same node twice");
    let (ai, bi) = (a.index(), b.index());
    if ai < bi {
        let (lo, hi) = nodes.split_at_mut(bi);
        (&mut lo[ai], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(ai);
        (&mut hi[0], &mut lo[bi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_buffer::fifo::Fifo;
    use dtn_core::time::SimDuration;
    use dtn_routing::SprayAndWait;

    fn node(id: u32) -> Node {
        Node::new(
            NodeId(id),
            Bytes::from_mb(2.5),
            Box::new(Fifo),
            Box::new(SprayAndWait::binary()),
        )
    }

    fn msg(id: u64) -> Message {
        Message {
            id: MessageId(id),
            source: NodeId(0),
            destination: NodeId(1),
            size: Bytes::from_mb(0.5),
            created: SimTime::ZERO,
            ttl: SimDuration::from_mins(300.0),
            initial_copies: 16,
        }
    }

    #[test]
    fn buffer_accounting() {
        let mut n = node(0);
        let m = msg(1);
        assert_eq!(n.free(), Bytes::from_mb(2.5));
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
        assert!(n.has(MessageId(1)));
        assert_eq!(n.used, Bytes::from_mb(0.5));
        assert_eq!(n.buffered_count(), 1);
        let c = n.remove_copy(MessageId(1), m.size);
        assert_eq!(c.copies, 16);
        assert_eq!(n.used, Bytes::ZERO);
        assert!(!n.has(MessageId(1)));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overfill_panics() {
        let mut n = node(0);
        for i in 0..6 {
            let m = msg(i);
            n.insert_copy(BufferedCopy::at_source(&m), m.size);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate copy")]
    fn duplicate_insert_panics() {
        let mut n = node(0);
        let m = msg(1);
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
        n.insert_copy(BufferedCopy::at_source(&m), m.size);
    }

    #[test]
    fn view_construction() {
        let m = msg(1);
        let mut copy = BufferedCopy::at_source(&m);
        copy.spray_times.push(SimTime::from_secs(5.0));
        let now = SimTime::from_secs(600.0);
        let v = make_view(&m, &copy, now, Some((7, 4)));
        assert_eq!(v.remaining_ttl.as_secs(), 300.0 * 60.0 - 600.0);
        assert_eq!(v.copies, 16);
        assert_eq!(v.oracle_seen, Some(7));
        assert_eq!(v.oracle_holders, Some(4));
        assert_eq!(v.spray_times.len(), 1);
        let v2 = make_view(&m, &copy, now, None);
        assert_eq!(v2.oracle_seen, None);
    }

    #[test]
    fn two_nodes_split() {
        let mut nodes: Vec<Node> = (0..4).map(node).collect();
        let (a, b) = two_nodes(&mut nodes, NodeId(3), NodeId(1));
        assert_eq!(a.id, NodeId(3));
        assert_eq!(b.id, NodeId(1));
        let (x, y) = two_nodes(&mut nodes, NodeId(0), NodeId(2));
        assert_eq!(x.id, NodeId(0));
        assert_eq!(y.id, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "same node")]
    fn two_nodes_rejects_same() {
        let mut nodes: Vec<Node> = (0..2).map(node).collect();
        let _ = two_nodes(&mut nodes, NodeId(1), NodeId(1));
    }
}
