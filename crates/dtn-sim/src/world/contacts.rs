//! Contact up/down handlers: link state, control-plane gossip, and the
//! antipacket exchange. Dispatched from the contact phase (and from
//! fault injection, which forces contacts down through the same path).

use super::*;

impl World {
    pub(super) fn on_contact_up(&mut self, pair: NodePair) {
        self.links.insert(pair, LinkState::default());
        for (node, peer) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
            let peers = &mut self.peers[node.index()];
            let at = peers.binary_search(&peer).expect_err("link was down");
            peers.insert(at, peer);
            self.dirty.mark(node);
        }
        let now = self.now;
        let t = now.as_secs();
        let (lo, hi) = (pair.lo().0, pair.hi().0);
        self.recorder
            .record(|| SimEvent::ContactUp { t, a: lo, b: hi });
        let (a, b) = two_nodes(&mut self.nodes, pair.lo(), pair.hi());
        a.policy.on_contact_up(now, b.id);
        b.policy.on_contact_up(now, a.id);
        a.routing.on_contact_up(now, b.id);
        b.routing.on_contact_up(now, a.id);
        // Control-plane gossip, both ways (dropped lists, encounter
        // timers). Export both first so neither side sees the other's
        // merged state.
        let ga = a.policy.export_gossip(now);
        let gb = b.policy.export_gossip(now);
        if let Some(v) = self.validator.as_mut() {
            if let Some(bytes) = ga.as_deref() {
                v.on_gossip_export(now, a.id, bytes);
            }
            if let Some(bytes) = gb.as_deref() {
                v.on_gossip_export(now, b.id, bytes);
            }
        }
        if let Some(bytes) = gb {
            let adopted = a.policy.import_gossip(now, &bytes);
            if adopted > 0 {
                self.recorder.record(|| SimEvent::GossipMerged {
                    t,
                    node: lo,
                    from: hi,
                    records: adopted as u64,
                });
            }
        }
        if let Some(bytes) = ga {
            let adopted = b.policy.import_gossip(now, &bytes);
            if adopted > 0 {
                self.recorder.record(|| SimEvent::GossipMerged {
                    t,
                    node: hi,
                    from: lo,
                    records: adopted as u64,
                });
            }
        }
        let ra = a.routing.export_gossip(now);
        let rb = b.routing.export_gossip(now);
        if let Some(bytes) = rb {
            a.routing.import_gossip(now, b.id, &bytes);
        }
        if let Some(bytes) = ra {
            b.routing.import_gossip(now, a.id, &bytes);
        }
        if self.cfg.immunity == ImmunityMode::AntipacketGossip {
            // Antipacket exchange: union the acknowledged-id sets, then
            // purge newly-learned dead copies on both sides.
            let from_b: Vec<MessageId> = b.acked.difference(&a.acked).copied().collect();
            let from_a: Vec<MessageId> = a.acked.difference(&b.acked).copied().collect();
            a.acked.extend(from_b);
            b.acked.extend(from_a);
            self.purge_acked(pair.lo());
            self.purge_acked(pair.hi());
        }
        self.try_start_transfer(pair);
    }

    pub(super) fn on_contact_down(&mut self, pair: NodePair) {
        if let Some(state) = self.links.remove(&pair) {
            if state.in_flight.is_some() {
                self.report.on_aborted_transfer();
            }
        }
        for (node, peer) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
            let peers = &mut self.peers[node.index()];
            if let Ok(at) = peers.binary_search(&peer) {
                peers.remove(at);
            }
            self.dirty.mark(node);
        }
        let now = self.now;
        let t = now.as_secs();
        let (lo, hi) = (pair.lo().0, pair.hi().0);
        self.recorder
            .record(|| SimEvent::ContactDown { t, a: lo, b: hi });
        let (a, b) = two_nodes(&mut self.nodes, pair.lo(), pair.hi());
        a.policy.on_contact_down(now, b.id);
        b.policy.on_contact_down(now, a.id);
        a.routing.on_contact_down(now, b.id);
        b.routing.on_contact_down(now, a.id);
    }
}
