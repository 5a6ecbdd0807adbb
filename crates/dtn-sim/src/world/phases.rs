//! The tick pipeline: explicit, ordered phases.
//!
//! Every `Tick` event runs the same fixed phase sequence. Phase order
//! is part of the determinism contract — each phase observes exactly
//! the state the previous phases left:
//!
//! 1. **expiry** — purge TTL-dead copies (node-ordered walk), only on
//!    ticks where the expiry frontier advances.
//! 2. **movement** — sample all trajectories into the SoA position
//!    array (*parallel*, per-node RNG substreams).
//! 3. **contacts** — rebuild the spatial grid, query in-range pairs
//!    (*parallel*, row-band reduction), diff against the previous tick
//!    and dispatch ContactDown/ContactUp in sorted-pair order.
//! 4. **telemetry** — gauges and due time-series samples.
//! 5. **rearm** — restart the idle links of nodes whose state changed
//!    since the last rearm, in sorted-pair order.
//! 6. **validation** — the full-state invariant sweep, when enabled.
//!
//! The parallel phases (2 and 3) are the embarrassingly parallel ones:
//! per-item outputs only, merged in band order, so fingerprints are
//! bit-identical at any thread count. Below [`MIN_NODES_TO_FAN_OUT`]
//! nodes they run inline: the fork-join hand-off would cost more than
//! the work it splits.

use super::*;
use dtn_telemetry::TimePoint;

/// Worlds with fewer nodes run the movement and contact phases inline
/// even on a multi-thread pool. A fork-join costs about 20 µs of
/// condvar hand-off, while sampling or scanning a node costs well
/// under a microsecond, so splitting a small world only adds latency
/// (the 100-node paper scenario ran 1.75x slower at 2 threads).
/// Results do not depend on it: the inline path is the serial
/// reference.
pub const MIN_NODES_TO_FAN_OUT: usize = 4096;

impl World {
    pub(super) fn on_tick(&mut self) {
        self.phase_expiry();
        self.phase_movement();
        self.phase_contacts();
        self.phase_telemetry();
        self.phase_rearm();
        self.phase_validation();

        let next = self.now + SimDuration::from_secs(self.cfg.tick_secs);
        if next.as_secs() <= self.cfg.duration_secs {
            self.queue.push(next, WorldEvent::Tick);
        }
    }

    /// Phase 1: drop every TTL-expired copy. Expiry times ascend with
    /// the message id, so the newly expired messages are the ids from
    /// the old frontier up to the first unexpired one; nothing happens
    /// unless that frontier moves. Then every buffered id below the new
    /// frontier has expired. Nodes are walked in index order and each
    /// buffer is a `BTreeMap`, so the drop sequence is node-major with
    /// ids ascending.
    fn phase_expiry(&mut self) {
        let now = self.now;
        let start = self.expiry_frontier;
        let end = start
            + self.catalog[start..]
                .iter()
                .take_while(|m| m.expired(now))
                .count();
        if end == start {
            return;
        }
        self.expiry_frontier = end;
        let frontier = MessageId(end as u64);
        for node in &mut self.nodes {
            if node.buffer.range(..frontier).next().is_none() {
                continue;
            }
            self.dirty.mark(node.id);
            let expired: Vec<MessageId> =
                node.buffer.range(..frontier).map(|(&id, _)| id).collect();
            for id in expired {
                let size = self.catalog[id.index()].size;
                let removed = node.remove_copy(id, size);
                self.report.on_expired();
                let holder = node.id.0;
                self.recorder.record(|| SimEvent::TtlExpired {
                    t: now.as_secs(),
                    msg: id.0,
                    node: holder,
                });
                if let Some(truth) = self.truth.as_mut() {
                    truth.on_expired(id, removed.copies);
                }
                recycle_spray(&mut self.spray_pool, removed);
            }
        }
    }

    /// Phase 2: parallel movement sampling into the SoA position array.
    fn phase_movement(&mut self) {
        let pool = (self.soa.len() >= MIN_NODES_TO_FAN_OUT).then_some(&self.pool);
        self.soa.sample_movement(self.now, pool);
    }

    /// Phase 3: parallel contact-grid query, then the serial diff and
    /// contact handler dispatch (Down before Up, sorted pairs — the
    /// tracker guarantees the order).
    fn phase_contacts(&mut self) {
        let mut events = std::mem::take(&mut self.scratch_events);
        events.clear();
        let pool = (self.soa.len() >= MIN_NODES_TO_FAN_OUT).then_some(&self.pool);
        self.tracker
            .update_pooled(self.now, &self.soa.positions, &mut events, pool);
        for ev in &events {
            if let Some(trace) = self.contact_trace.as_mut() {
                trace.record(*ev);
            }
            match *ev {
                ContactEvent::Down { pair, .. } => self.on_contact_down(pair),
                ContactEvent::Up { pair, .. } => self.on_contact_up(pair),
            }
        }
        self.scratch_events = events;
    }

    /// Phase 4: gauges + due time-series samples.
    fn phase_telemetry(&mut self) {
        if let Some(m) = self.metrics.as_ref() {
            let live = self.links.len() as f64;
            let cache = self.cache_stats;
            let metrics = self.recorder.metrics_mut();
            metrics.set_gauge(m.live_contacts, live);
            metrics.set_gauge(m.priority_cache_hits, cache.hits as f64);
            metrics.set_gauge(m.priority_cache_incremental, cache.incremental as f64);
            metrics.set_gauge(m.priority_cache_misses, cache.misses as f64);
        }
        if self.recorder.timeseries_due(self.now.as_secs()) {
            let point = self.sample_timepoint();
            self.recorder.record_timepoint(point);
        }
    }

    /// Phase 5: catch-all rearm — restart idle live links that may
    /// have work now, in sorted-pair order.
    ///
    /// Only links touching a node marked dirty since
    /// the last rearm are visited. That is exact: every idle link was
    /// tried when it last became idle or when one of its endpoints last
    /// changed, and found nothing to send. A retry can only find work
    /// if an endpoint's buffer, acks, delivered set, dropped list or
    /// routing state changed since — every such path marks the node —
    /// because transfer eligibility and acceptance depend on that state
    /// and not on the clock alone (the passage of time only expires
    /// candidates). See `BufferPolicy::accepts` and
    /// `RoutingProtocol::eligibility` for the contract.
    pub(super) fn phase_rearm(&mut self) {
        let mut links = std::mem::take(&mut self.scratch_links);
        links.clear();
        for node in self.dirty.list.drain(..) {
            self.dirty.marked[node.index()] = false;
            links.extend(
                self.peers[node.index()]
                    .iter()
                    .map(|&peer| NodePair::new(node, peer)),
            );
        }
        links.sort_unstable();
        links.dedup();
        self.try_links(links);
    }

    /// Phase 6: the full-state validation sweep (no-op without a
    /// validator).
    fn phase_validation(&mut self) {
        self.run_validation_sweep();
    }

    /// Re-arms every idle live link of `node`, in sorted-pair order
    /// (its peers are kept ascending, and the pairs `(peer, node)` with
    /// a lower peer sort before the pairs `(node, peer)`). The kick
    /// after a transfer completion or a generation, when one node's
    /// buffer changed.
    pub(super) fn rearm_idle_links(&mut self, node: NodeId) {
        let mut links = std::mem::take(&mut self.scratch_links);
        links.clear();
        links.extend(
            self.peers[node.index()]
                .iter()
                .map(|&peer| NodePair::new(node, peer)),
        );
        self.try_links(links);
    }

    /// Tries every link in `links` (sorted pairs; busy or gone links
    /// are skipped by [`Self::try_start_transfer`]), then returns the
    /// buffer to the scratch slot.
    fn try_links(&mut self, links: Vec<NodePair>) {
        debug_assert!(links.windows(2).all(|w| w[0] < w[1]), "sorted pairs");
        for &pair in &links {
            self.try_start_transfer(pair);
        }
        self.scratch_links = links;
    }

    /// Computes one time-series sample from the current state.
    fn sample_timepoint(&self) -> TimePoint {
        let mut occ_sum = 0.0;
        let mut occ_max = 0.0f64;
        let mut total_copies = 0usize;
        let mut live: HashSet<MessageId> = HashSet::new();
        for node in &self.nodes {
            let frac = node.used.as_u64() as f64 / node.capacity.as_u64().max(1) as f64;
            occ_sum += frac;
            occ_max = occ_max.max(frac);
            total_copies += node.buffer.len();
            live.extend(node.buffer.keys().copied());
        }
        TimePoint {
            t: self.now.as_secs(),
            mean_occupancy: occ_sum / self.nodes.len() as f64,
            max_occupancy: occ_max,
            live_contacts: self.links.len(),
            live_messages: live.len(),
            total_copies,
        }
    }

    /// One full-state validation sweep: walks every buffer and lets the
    /// validator cross-check the truth ledger against reality.
    /// `Node.buffer` is a `BTreeMap`, so the walk (and the float
    /// accumulation inside the estimator statistics) is deterministic.
    pub(super) fn run_validation_sweep(&mut self) {
        let (Some(v), Some(truth)) = (self.validator.as_mut(), self.truth.as_ref()) else {
            return;
        };
        let now = self.now;
        v.begin_sweep(truth, now, self.cfg.tick_secs);
        for node in &self.nodes {
            v.sweep_node(now, node.id, node.used.as_u64(), node.capacity.as_u64());
            for copy in node.buffer.values() {
                let msg = &self.catalog[copy.msg.index()];
                let delivered_here = node.delivered.contains(&copy.msg);
                v.sweep_copy(
                    truth,
                    now,
                    node.id,
                    copy.msg,
                    copy.copies,
                    msg.size.as_u64(),
                    &copy.spray_times,
                    delivered_here,
                );
            }
        }
        let outcome = v.finish_sweep(truth, now);
        self.emit_sweep_outcome(&outcome);
    }

    fn emit_sweep_outcome(&mut self, outcome: &SweepOutcome) {
        for n in &outcome.new_violations {
            let (t, check, msg, node) = (n.t, n.check, n.msg, n.node);
            self.recorder.record(|| SimEvent::InvariantViolation {
                t,
                check,
                msg,
                node,
            });
            if let Some(m) = self.validate_metrics.as_ref() {
                self.recorder.metrics_mut().inc(m.invariant_violations, 1);
            }
        }
        if let Some(s) = outcome.sample {
            if s.samples > 0 {
                let t = self.now.as_secs();
                self.recorder.record(|| SimEvent::EstimatorSample {
                    t,
                    samples: s.samples,
                    mean_err_m: s.mean_err_m,
                    max_err_m: s.max_err_m,
                    mean_err_n: s.mean_err_n,
                    max_err_n: s.max_err_n,
                });
                if let Some(m) = self.validate_metrics.as_ref() {
                    let reg = self.recorder.metrics_mut();
                    reg.observe(m.estimator_m_rel_err, s.mean_err_m);
                    reg.observe(m.estimator_n_rel_err, s.mean_err_n);
                }
            }
        }
    }

    /// Final validation sweep + run-level estimator gauges. Called from
    /// every consuming run path; harmless without a validator.
    pub(super) fn finalize_validation(&mut self) {
        if self.validator.is_none() {
            return;
        }
        self.run_validation_sweep();
        if let (Some(v), Some(m)) = (self.validator.as_ref(), self.validate_metrics.as_ref()) {
            let r = v.report();
            let (m_mean, m_max) = (r.estimator_m.mean(), r.estimator_m.max);
            let (n_mean, n_max) = (r.estimator_n.mean(), r.estimator_n.max);
            let reg = self.recorder.metrics_mut();
            reg.set_gauge(m.estimator_m_mean_rel_err, m_mean);
            reg.set_gauge(m.estimator_m_max_rel_err, m_max);
            reg.set_gauge(m.estimator_n_mean_rel_err, n_mean);
            reg.set_gauge(m.estimator_n_max_rel_err, n_max);
        }
    }
}
