//! The routing-protocol abstraction.

use dtn_buffer::view::MessageView;
use dtn_core::ids::NodeId;
use dtn_core::time::SimTime;

/// How a message moves across one contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// The peer *is* the destination: transfer the payload; the receiver
    /// registers a delivery. The sender keeps its copy (the paper uses
    /// no ACK/immunity mechanism).
    Delivery,
    /// Copy the message; afterwards the sender holds `sender_keeps`
    /// tokens and the receiver `receiver_gets`. A binary spray sets
    /// `⌈C/2⌉ / ⌊C/2⌋`, Epidemic `C / 1`.
    Replicate {
        /// Tokens the sender retains.
        sender_keeps: u32,
        /// Tokens handed to the receiver.
        receiver_gets: u32,
    },
    /// Move the message: the receiver takes all tokens and the sender
    /// deletes its copy (Spray-and-Focus's focus phase).
    Handoff,
}

/// Per-decision context.
#[derive(Debug, Clone, Copy)]
pub struct RoutingCtx {
    /// The sending node.
    pub me: NodeId,
    /// The peer on the other side of the contact.
    pub peer: NodeId,
    /// Decision time.
    pub now: SimTime,
}

/// A DTN routing protocol: per-message transfer eligibility plus optional
/// distributed state maintained through contact hooks and gossip.
///
/// One instance exists per node (protocols may keep per-node state such
/// as last-encounter timers).
pub trait RoutingProtocol: Send {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// May `msg` be sent to `ctx.peer`, and how? `peer_has` tells whether
    /// the peer already holds/knows this message (from the summary-vector
    /// exchange); protocols must not re-send those.
    ///
    /// **Contract:** the answer may depend on the message, `peer_has`
    /// and state changed through this trait's hooks (contacts, gossip),
    /// but must not turn from `None` to `Some` with `ctx.now` alone.
    /// The simulator retries an idle link only after one of its
    /// endpoints changed (buffer, acks, routing or policy state), so
    /// such a transfer would start late or never.
    fn eligibility(
        &self,
        ctx: &RoutingCtx,
        msg: &MessageView<'_>,
        peer_has: bool,
    ) -> Option<TransferKind>;

    /// Contact-up hook (update last-encounter timers and the like).
    fn on_contact_up(&mut self, _now: SimTime, _peer: NodeId) {}

    /// Contact-down hook.
    fn on_contact_down(&mut self, _now: SimTime, _peer: NodeId) {}

    /// Control-plane payload offered to a newly met peer (e.g.
    /// Spray-and-Focus encounter timers).
    fn export_gossip(&mut self, _now: SimTime) -> Option<Vec<u8>> {
        None
    }

    /// Ingests a peer's gossip. `peer` identifies the sender.
    fn import_gossip(&mut self, _now: SimTime, _peer: NodeId, _bytes: &[u8]) {}
}

/// Shared helper: the delivery rule every protocol starts with.
#[inline]
pub(crate) fn delivery_if_destination(
    ctx: &RoutingCtx,
    msg: &MessageView<'_>,
    peer_has: bool,
) -> Option<TransferKind> {
    (!peer_has && msg.destination == ctx.peer).then_some(TransferKind::Delivery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_buffer::view::TestMessage;

    #[test]
    fn delivery_helper() {
        let ctx = RoutingCtx {
            me: NodeId(0),
            peer: NodeId(1),
            now: SimTime::ZERO,
        };
        let mut m = TestMessage::sample(1);
        m.destination = NodeId(1);
        assert_eq!(
            delivery_if_destination(&ctx, &m.view(), false),
            Some(TransferKind::Delivery)
        );
        // Peer already has it (e.g. previously delivered): no resend.
        assert_eq!(delivery_if_destination(&ctx, &m.view(), true), None);
        m.destination = NodeId(5);
        assert_eq!(delivery_if_destination(&ctx, &m.view(), false), None);
    }
}
