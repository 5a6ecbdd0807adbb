//! Transfer scheduling and application: candidate selection on idle
//! links, the `TransferComplete` handler, and the immunity purge paths.

use super::*;

impl World {
    /// Picks and starts the best transfer on an idle live link.
    pub(super) fn try_start_transfer(&mut self, pair: NodePair) {
        let Some(state) = self.links.get(&pair) else {
            return;
        };
        if state.in_flight.is_some() {
            return;
        }
        let Some(best) = self.best_candidate(pair) else {
            return;
        };
        let seq = self.next_transfer_seq;
        self.next_transfer_seq += 1;
        let size = self.catalog[best.msg.index()].size;
        let duration = self.cfg.link.transfer_time(size);
        let copies_at_start = self.nodes[best.from.index()]
            .buffer
            .get(&best.msg)
            .expect("candidate came from this buffer")
            .copies;
        self.links
            .get_mut(&pair)
            .expect("link checked above")
            .in_flight = Some(InFlight {
            seq,
            from: best.from,
            to: best.to,
            msg: best.msg,
            kind: best.kind,
            copies_at_start,
        });
        self.queue.push(
            self.now + duration,
            WorldEvent::TransferComplete { pair, seq },
        );
    }

    /// Enumerates eligible transfers in both directions of `pair` and
    /// returns the winner: deliveries first, then the sender's scheduling
    /// priority, ties broken deterministically.
    pub(super) fn best_candidate(&mut self, pair: NodePair) -> Option<Candidate> {
        let now = self.now;
        let oracle = self.truth.as_ref().filter(|_| self.oracle_inputs);
        let mut best: Option<Candidate> = None;
        for (s_id, r_id) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
            let (sender, receiver) = two_nodes(&mut self.nodes, s_id, r_id);
            let stats_before = sender.policy.priority_cache_stats();
            let ctx = RoutingCtx {
                me: s_id,
                peer: r_id,
                now,
            };
            for copy in sender.buffer.values() {
                let msg = &self.catalog[copy.msg.index()];
                if msg.expired(now) {
                    continue;
                }
                if sender.acked.contains(&msg.id) {
                    continue; // dead message awaiting purge
                }
                let peer_has = receiver.has(msg.id)
                    || receiver.delivered.contains(&msg.id)
                    || receiver.acked.contains(&msg.id);
                let oi = oracle.map(|t| t.m_and_n(msg.id));
                let view = make_view(msg, copy, now, oi);
                let Some(kind) = sender.routing.eligibility(&ctx, &view, peer_has) else {
                    continue;
                };
                let is_delivery = matches!(kind, TransferKind::Delivery);
                // Receivers refuse messages on their dropped list (paper
                // Section III-C); deliveries are never refused. Each
                // `(receiver, message)` refusal is reported once even
                // though the candidate recurs every scheduling pass.
                if !is_delivery && !receiver.policy.accepts(now, msg.id) {
                    if self.refused_seen.insert((r_id, msg.id)) {
                        self.report.on_refused_receipt();
                        let mid = msg.id.0;
                        self.recorder.record(|| SimEvent::Refused {
                            t: now.as_secs(),
                            msg: mid,
                            node: r_id.0,
                            from: s_id.0,
                        });
                    }
                    continue;
                }
                let priority = sender.policy.send_priority(now, &view);
                let cand = Candidate {
                    from: s_id,
                    to: r_id,
                    msg: msg.id,
                    kind,
                    is_delivery,
                    priority,
                };
                best = Some(match best.take() {
                    None => cand,
                    Some(cur) => pick_better(cur, cand),
                });
            }
            account_cache(
                &mut self.cache_stats,
                stats_before,
                sender.policy.priority_cache_stats(),
            );
        }
        best
    }

    pub(super) fn on_transfer_complete(&mut self, pair: NodePair, seq: u64) {
        // Stale completion (link re-established or different transfer)?
        let Some(state) = self.links.get_mut(&pair) else {
            return;
        };
        match state.in_flight {
            Some(f) if f.seq == seq => {
                state.in_flight = None;
                // Mid-transfer abort injection: the RNG exists only when
                // `transfer_abort_prob > 0`, and is consulted once per
                // genuinely completing transfer. Nothing has been
                // applied yet, so an abort leaves both buffers exactly
                // as a mobility-caused abort would.
                let injected_abort = match self.abort_rng.as_mut() {
                    Some(rng) => rng.gen_bool(self.cfg.faults.transfer_abort_prob),
                    None => false,
                };
                if injected_abort {
                    self.report.on_aborted_transfer();
                    if let Some(v) = self.validator.as_mut() {
                        v.on_fault_abort();
                    }
                    let t = self.now.as_secs();
                    let (msg, from, to) = (f.msg.0, f.from.0, f.to.0);
                    self.recorder
                        .record(|| SimEvent::TransferAborted { t, msg, from, to });
                } else {
                    self.apply_transfer(f);
                }
            }
            _ => return,
        }
        // Link is free again: keep the contact busy, and buffers changed
        // so other idle links of both endpoints may have work now.
        self.try_start_transfer(pair);
        self.rearm_idle_links(pair.lo());
        self.rearm_idle_links(pair.hi());
    }

    fn apply_transfer(&mut self, f: InFlight) {
        self.dirty.mark(f.from);
        self.dirty.mark(f.to);
        let now = self.now;
        let msg = self.catalog[f.msg.index()];
        // The sender may have lost the copy mid-transfer (eviction or
        // TTL): the transfer never really happened.
        if !self.nodes[f.from.index()].has(f.msg) || msg.expired(now) {
            self.report.on_aborted_transfer();
            return;
        }
        // The receiver may have obtained the message from elsewhere (or
        // been delivered to) meanwhile: drop the duplicate silently.
        {
            let receiver = &self.nodes[f.to.index()];
            if receiver.has(f.msg) || receiver.delivered.contains(&f.msg) {
                return;
            }
        }

        match f.kind {
            TransferKind::Delivery => {
                if !self.uncounted.contains(&f.msg) {
                    self.report.on_transmission();
                    self.observe_transfer_bytes(msg.size);
                }
                let hops;
                {
                    let sender = &mut self.nodes[f.from.index()];
                    let copy = sender.buffer.get_mut(&f.msg).expect("checked above");
                    copy.forward_count += 1;
                    hops = copy.hops + 1;
                }
                let receiver = &mut self.nodes[f.to.index()];
                receiver.delivered.insert(f.msg);
                if let Some(truth) = self.truth.as_mut() {
                    truth.on_delivered(f.msg, f.to);
                }
                if !self.uncounted.contains(&f.msg) {
                    let first = !self.report.is_delivered(f.msg);
                    self.report.on_delivered(f.msg, hops, msg.created, now);
                    let latency = now.as_secs() - msg.created.as_secs();
                    if let Some(m) = self.metrics.as_ref() {
                        self.recorder
                            .metrics_mut()
                            .observe(m.delivery_latency_secs, latency);
                    }
                    self.recorder.record(|| SimEvent::Delivered {
                        t: now.as_secs(),
                        msg: f.msg.0,
                        from: f.from.0,
                        hops,
                        latency,
                        first,
                    });
                }
                match self.cfg.immunity {
                    ImmunityMode::None => {}
                    ImmunityMode::OracleFlood => self.purge_everywhere(f.msg),
                    ImmunityMode::AntipacketGossip => {
                        // The destination mints the antipacket; it
                        // spreads on future contacts.
                        self.nodes[f.to.index()].acked.insert(f.msg);
                        // The delivering node learns immediately (it
                        // just talked to the destination).
                        self.nodes[f.from.index()].acked.insert(f.msg);
                        self.purge_acked(f.from);
                    }
                }
            }
            TransferKind::Replicate {
                sender_keeps,
                receiver_gets,
            } => {
                // The split was derived from the sender's token count at
                // schedule time. If another link completed a split of the
                // same message mid-flight, applying this one would
                // counterfeit copy tokens — abort like any other
                // mid-flight invalidation.
                let copies_now = self.nodes[f.from.index()]
                    .buffer
                    .get(&f.msg)
                    .expect("checked above")
                    .copies;
                if copies_now != f.copies_at_start {
                    self.report.on_aborted_transfer();
                    return;
                }
                if !self.uncounted.contains(&f.msg) {
                    self.report.on_transmission();
                    self.observe_transfer_bytes(msg.size);
                    let copies = receiver_gets.max(1);
                    self.recorder.record(|| SimEvent::Replicated {
                        t: now.as_secs(),
                        msg: f.msg.0,
                        from: f.from.0,
                        to: f.to.0,
                        copies,
                    });
                }
                // Reuse a pooled spray-history allocation for the
                // receiver's copy instead of cloning a fresh one on
                // every replication (the former per-contact hot-path
                // allocation).
                let mut spray = self.spray_pool.pop().unwrap_or_default();
                let stamp = self.skewed_now(f.from);
                let (incoming, before) = {
                    let sender = &mut self.nodes[f.from.index()];
                    let copy = sender.buffer.get_mut(&f.msg).expect("checked above");
                    let before = copy.copies;
                    let splits_tokens = sender_keeps < copy.copies;
                    copy.copies = sender_keeps.max(1);
                    copy.forward_count += 1;
                    if splits_tokens {
                        // A genuine binary-spray event: both halves record
                        // the timestamp (paper Fig. 6) — as read from the
                        // sender's (possibly skewed) local clock.
                        copy.spray_times.push(stamp);
                    }
                    spray.clear();
                    spray.extend_from_slice(&copy.spray_times);
                    let incoming = BufferedCopy {
                        msg: f.msg,
                        received: now,
                        copies: receiver_gets.max(1),
                        hops: copy.hops + 1,
                        forward_count: 0,
                        spray_times: spray,
                    };
                    (incoming, before)
                };
                if let Some(v) = self.validator.as_mut() {
                    v.on_replicate_split(
                        now,
                        f.msg,
                        f.from,
                        before,
                        sender_keeps.max(1),
                        receiver_gets.max(1),
                    );
                }
                self.admit_copy(f.to, f.msg, incoming);
            }
            TransferKind::Handoff => {
                if !self.uncounted.contains(&f.msg) {
                    self.report.on_transmission();
                    self.observe_transfer_bytes(msg.size);
                }
                let incoming = {
                    let sender = &mut self.nodes[f.from.index()];
                    let mut copy = sender.remove_copy(f.msg, msg.size);
                    copy.received = now;
                    copy.hops += 1;
                    copy
                };
                if let Some(truth) = self.truth.as_mut() {
                    truth.on_handoff_out(f.msg);
                }
                if !self.uncounted.contains(&f.msg) {
                    let copies = incoming.copies;
                    self.recorder.record(|| SimEvent::Replicated {
                        t: now.as_secs(),
                        msg: f.msg.0,
                        from: f.from.0,
                        to: f.to.0,
                        copies,
                    });
                }
                self.admit_copy(f.to, f.msg, incoming);
            }
        }
    }

    /// Removes every buffered copy of `msg` network-wide (idealised
    /// VACCINE immunity).
    pub(super) fn purge_everywhere(&mut self, msg: MessageId) {
        let size = self.catalog[msg.index()].size;
        let now = self.now;
        for node in &mut self.nodes {
            // Learning the ack only removes transfer candidates; losing
            // the copy is a copy removal, which marks the node.
            if node.has(msg) {
                self.dirty.mark(node.id);
                let removed = node.remove_copy(msg, size);
                self.report.on_immunity_purge();
                let holder = node.id.0;
                let policy = node.policy.name();
                self.recorder.record(|| SimEvent::Dropped {
                    t: now.as_secs(),
                    msg: msg.0,
                    node: holder,
                    policy,
                    reason: DropReason::ImmunityPurge,
                });
                if let Some(truth) = self.truth.as_mut() {
                    truth.on_immunity_purge(msg, removed.copies);
                }
                recycle_spray(&mut self.spray_pool, removed);
            }
            node.acked.insert(msg);
        }
    }

    /// Purges copies of acknowledged messages from one node's buffer.
    pub(super) fn purge_acked(&mut self, node_id: NodeId) {
        let now = self.now;
        let node = &mut self.nodes[node_id.index()];
        let doomed: Vec<MessageId> = node
            .buffer
            .keys()
            .copied()
            .filter(|id| node.acked.contains(id))
            .collect();
        if !doomed.is_empty() {
            self.dirty.mark(node_id);
        }
        for id in doomed {
            let size = self.catalog[id.index()].size;
            let removed = node.remove_copy(id, size);
            self.report.on_immunity_purge();
            let policy = node.policy.name();
            self.recorder.record(|| SimEvent::Dropped {
                t: now.as_secs(),
                msg: id.0,
                node: node_id.0,
                policy,
                reason: DropReason::ImmunityPurge,
            });
            if let Some(truth) = self.truth.as_mut() {
                truth.on_immunity_purge(id, removed.copies);
            }
            recycle_spray(&mut self.spray_pool, removed);
        }
    }

    /// Feeds one counted transmission's size into the `transfer_bytes`
    /// histogram when metrics are attached.
    fn observe_transfer_bytes(&mut self, size: dtn_core::units::Bytes) {
        if let Some(m) = self.metrics.as_ref() {
            self.recorder
                .metrics_mut()
                .observe(m.transfer_bytes, size.as_u64() as f64);
        }
    }
}
