//! The event-driven DTN world: mobility + contacts + routing + buffers.
//!
//! ## Event loop
//!
//! Three event kinds drive the simulation:
//!
//! * **Tick** (every `tick_secs`): a fixed sequence of explicit phases —
//!   expiry, movement sampling, contact-grid detection, telemetry,
//!   link rearm, validation (see `phases`). The embarrassingly
//!   parallel phases (movement integration, grid pair queries) fan out
//!   across the world's [`Pool`] with deterministic band-order
//!   reduction, so fingerprints are bit-identical at any thread count.
//! * **Generate**: create a message at a random source for a random
//!   destination, pass it through the source's admission control, and
//!   schedule the next generation `U(lo, hi)` seconds later.
//! * **TransferComplete**: apply a finished transfer (delivery /
//!   replication / handoff), run the receiver's admission control
//!   (Algorithm 1's drop step), and start the next transfer on the link.
//!
//! ## Module layout
//!
//! The world is one `impl World` split across focused submodules:
//! `phases` (the tick pipeline), `soa` (structure-of-arrays node
//! state), `contacts` (contact up/down + gossip), `transfers`
//! (candidate selection and transfer application), `traffic`
//! (generation + admission), `faults` (crash/blackout injection).
//!
//! ## Contact protocol
//!
//! On ContactUp both sides: exchange buffer-policy gossip (SDSRP dropped
//! lists) and routing gossip (Spray-and-Focus timers), then the link —
//! half-duplex, one transfer at a time — picks the best transfer among
//! both directions: deliverable messages first (ONE's rule), then the
//! sender's buffer-policy scheduling priority (paper Algorithm 1 line 7).
//!
//! ## Determinism contract
//!
//! Every run is a pure function of `(ScenarioConfig, seed)` — threads
//! and telemetry included. The load-bearing rules:
//!
//! * **RNG lanes**: every random decision draws from a dedicated
//!   stream/substream of the master seed (`dtn_core::rng::streams`);
//!   per-node substreams (mobility, fault schedules) make per-node work
//!   order-free and therefore parallelizable.
//! * **Reduction order**: parallel phases partition work into ascending
//!   contiguous index bands and merge outputs in band order, which
//!   reproduces the serial left-to-right order at any thread count.
//! * **Ordered collections on mutation paths**: any map/set whose
//!   iteration feeds world-state mutation, the event queue, or
//!   telemetry is ordered (`BTreeMap`/`BTreeSet`/indexed vecs) —
//!   `HashMap` iteration order would otherwise leak into the run.

mod contacts;
mod faults;
mod phases;
mod soa;
#[cfg(test)]
mod tests;
mod traffic;
mod transfers;

pub use phases::MIN_NODES_TO_FAN_OUT;
pub use soa::NodeArrays;

use crate::config::{ImmunityMode, RoutingKind, ScenarioConfig};
use crate::message::{BufferedCopy, Message};
use crate::node::{make_view, two_nodes, Node};
use crate::report::Report;
use dtn_buffer::policy::{
    plan_admission_with, AdmissionPlan, EvictionRank, EvictionScratch, PriorityCacheStats,
};
use dtn_core::event::EventQueue;
use dtn_core::ids::{MessageId, NodeId, NodePair};
use dtn_core::pool::Pool;
use dtn_core::rng::{exponential, stream_rng, streams, substream_rng, uniform_range};
use dtn_core::time::{SimDuration, SimTime};
use dtn_net::contact::{ContactEvent, ContactTracker};
use dtn_net::trace::ContactTrace;
use dtn_routing::protocol::{RoutingCtx, TransferKind};
use dtn_telemetry::{DropReason, Recorder, SimEvent};
use dtn_validate::{SweepOutcome, ValidateConfig, ValidationReport, Validator};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashSet};

/// Everything a finished [`World::run`] hands back.
pub struct RunOutput {
    /// The paper's metrics and their supporting counters.
    pub report: Report,
    /// The attached recorder, sink flushed: event totals, ring, metrics
    /// and any sampled time series.
    pub recorder: Recorder,
    /// `Some` exactly when [`World::enable_validation`] was called.
    pub validation: Option<ValidationReport>,
    /// `Some` exactly when [`World::enable_contact_recording`] was
    /// called; contacts still open at the end are closed there.
    pub contacts: Option<ContactTrace>,
}

/// World events.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WorldEvent {
    /// Movement / contact-detection tick.
    Tick,
    /// Generate one message.
    Generate,
    /// A transfer scheduled with sequence number `seq` finishes on
    /// `pair`.
    TransferComplete { pair: NodePair, seq: u64 },
    /// Injected fault: `node` crashes, wiping its volatile state.
    NodeCrash { node: NodeId },
    /// Injected fault: `node` comes back up after a crash.
    NodeReboot { node: NodeId },
    /// Injected fault: `node`'s radio goes dark (state intact).
    BlackoutStart { node: NodeId },
    /// Injected fault: `node`'s radio recovers.
    BlackoutEnd { node: NodeId },
}

/// An in-flight transfer on one link.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: MessageId,
    kind: TransferKind,
    /// The sender's copy-token count when the transfer was scheduled.
    /// A `Replicate` split is derived from this count; if another link
    /// completes a split of the same message first, applying this one
    /// would counterfeit tokens, so it aborts instead.
    copies_at_start: u32,
}

/// Per-live-contact link state.
#[derive(Debug, Default)]
struct LinkState {
    in_flight: Option<InFlight>,
}

/// Nodes whose rearm-relevant state changed since the last tick rearm:
/// a flag per node plus the list of marked nodes, so marking is O(1)
/// and the rearm visits only the links of marked nodes.
///
/// Every path that changes what a node may send or receive marks it:
/// its buffer, acks, delivered set, dropped list or routing state.
struct DirtyNodes {
    marked: Vec<bool>,
    list: Vec<NodeId>,
}

impl DirtyNodes {
    fn new(n: usize) -> DirtyNodes {
        DirtyNodes {
            marked: vec![false; n],
            list: Vec::new(),
        }
    }

    fn mark(&mut self, node: NodeId) {
        if !std::mem::replace(&mut self.marked[node.index()], true) {
            self.list.push(node);
        }
    }
}

/// Perfect global knowledge for the oracle ablation.
struct OracleState {
    /// Nodes (excluding the source) that have ever received each message.
    seen: Vec<HashSet<NodeId>>,
    /// Buffers currently holding each message.
    holders: Vec<u32>,
}

impl OracleState {
    fn of(&self, msg: MessageId) -> (u32, u32) {
        (
            self.seen[msg.index()].len() as u32,
            self.holders[msg.index()],
        )
    }
}

/// Metric handles registered on the recorder by
/// [`World::attach_recorder`].
struct WorldMetrics {
    events_processed: dtn_telemetry::CounterId,
    delivery_latency_secs: dtn_telemetry::HistogramId,
    transfer_bytes: dtn_telemetry::HistogramId,
    live_contacts: dtn_telemetry::GaugeId,
    /// Cumulative priority-memo counters aggregated across every node,
    /// refreshed each telemetry phase. Gauges, not counters: the nodes
    /// own the running totals and the world just mirrors them.
    priority_cache_hits: dtn_telemetry::GaugeId,
    priority_cache_incremental: dtn_telemetry::GaugeId,
    priority_cache_misses: dtn_telemetry::GaugeId,
}

/// Metric handles registered when both a recorder and the validator
/// are attached.
struct ValidateMetrics {
    invariant_violations: dtn_telemetry::CounterId,
    estimator_m_rel_err: dtn_telemetry::HistogramId,
    estimator_n_rel_err: dtn_telemetry::HistogramId,
    estimator_m_mean_rel_err: dtn_telemetry::GaugeId,
    estimator_m_max_rel_err: dtn_telemetry::GaugeId,
    estimator_n_mean_rel_err: dtn_telemetry::GaugeId,
    estimator_n_max_rel_err: dtn_telemetry::GaugeId,
}

/// A transfer candidate considered for an idle link.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    from: NodeId,
    to: NodeId,
    msg: MessageId,
    kind: TransferKind,
    is_delivery: bool,
    priority: f64,
}

/// The assembled simulation.
pub struct World {
    cfg: ScenarioConfig,
    nodes: Vec<Node>,
    /// Hot per-tick node state in structure-of-arrays form — positions,
    /// mobility models, radio-down depths, clock skews — the arrays the
    /// parallel phases stream over. Cold per-node protocol state
    /// (buffers, policies, routing) stays in [`Node`].
    soa: NodeArrays,
    tracker: ContactTracker,
    /// Per-live-contact link state. A `BTreeMap` so every iteration —
    /// the rearm sweep in particular — is in sorted-pair order by
    /// construction; a `HashMap` here would leak nondeterministic
    /// iteration order into the event queue (the ordering-hazard class
    /// the insertion-order proptests guard against).
    links: BTreeMap<NodePair, LinkState>,
    /// Per-endpoint index of `links`: each node's live peers, ascending.
    /// A node's links are therefore found, in sorted-pair order, without
    /// walking every link.
    peers: Vec<Vec<NodeId>>,
    /// Nodes whose state changed since the last tick rearm.
    dirty: DirtyNodes,
    /// Every message with a lower id has expired and left every buffer
    /// (ids are issued in creation order and the TTL is one value per
    /// scenario, so expiry times ascend with the id).
    expiry_frontier: usize,
    /// Running world total of the buffer policies' priority-cache
    /// counters, advanced where priorities are requested; equal to
    /// [`Self::priority_cache_stats`] at all times.
    cache_stats: PriorityCacheStats,
    queue: EventQueue<WorldEvent>,
    now: SimTime,
    traffic_rng: StdRng,
    catalog: Vec<Message>,
    report: Report,
    oracle: Option<OracleState>,
    next_transfer_seq: u64,
    /// Messages generated during warm-up: simulated but excluded from
    /// metrics.
    uncounted: HashSet<MessageId>,
    contact_trace: Option<ContactTrace>,
    recorder: Recorder,
    metrics: Option<WorldMetrics>,
    /// Invariant checker + estimator oracle; `None` (the default) costs
    /// one branch per hook site.
    validator: Option<Box<Validator>>,
    validate_metrics: Option<ValidateMetrics>,
    /// `(receiver, message)` pairs whose refusal was already reported —
    /// a refused candidate is re-examined on every scheduling pass.
    refused_seen: HashSet<(NodeId, MessageId)>,
    scratch_events: Vec<ContactEvent>,
    /// Reusable link-list buffer for the rearm paths, which run on
    /// every tick and twice per transfer completion.
    scratch_links: Vec<NodePair>,
    /// Recycled spray-timestamp vectors: replications pop one instead of
    /// allocating a fresh clone, removals push theirs back (bounded by
    /// [`SPRAY_POOL_CAP`]).
    spray_pool: Vec<Vec<SimTime>>,
    /// Reusable eviction-heap backing for both admission paths — every
    /// overflow heapifies the resident set, so the allocation is
    /// hoisted out of the per-admission hot path.
    evict_scratch: EvictionScratch,
    /// Reusable victim list for forced (source-side) admission.
    victim_scratch: Vec<(MessageId, dtn_core::units::Bytes)>,
    /// RNG for mid-transfer abort injection; `None` (never consulted)
    /// when `transfer_abort_prob` is zero, so zero-fault runs draw
    /// nothing from the FAULTS stream.
    abort_rng: Option<StdRng>,
    /// Fork-join pool driving the parallel phases; a single thread
    /// (inline, no workers) by default. A *runtime* knob like
    /// [`Self::set_priority_cache`] — not part of [`ScenarioConfig`],
    /// so config hashes, manifests and checkpoint keys are unaffected —
    /// because results are bit-identical at any thread count.
    pool: Pool,
}

/// Upper bound on [`World::spray_pool`] — enough to cover the buffered
/// copies of a busy node without hoarding memory on large sweeps.
const SPRAY_POOL_CAP: usize = 64;

impl World {
    /// Builds a world from a validated scenario.
    pub fn build(cfg: &ScenarioConfig) -> World {
        let n = cfg.n_nodes;
        let seed = cfg.seed;
        let policy = cfg.policy;
        Self::build_with_policies(cfg, &mut |id| policy.build(id, n, seed))
    }

    /// Builds a world with a caller-supplied buffer policy per node —
    /// the extension point for policies outside
    /// [`PolicyKind`](crate::config::PolicyKind) (the scenario's own
    /// `policy` field is ignored). See `examples/custom_policy.rs`.
    pub fn build_with_policies(
        cfg: &ScenarioConfig,
        make_policy: &mut dyn FnMut(NodeId) -> Box<dyn dtn_buffer::policy::BufferPolicy>,
    ) -> World {
        cfg.validate();
        let mobility = dtn_mobility::build_fleet(&cfg.mobility, cfg.n_nodes, cfg.seed);
        let area = cfg.mobility.area();
        let tracker = ContactTracker::new(area, cfg.link.range);
        let nodes: Vec<Node> = NodeId::all(cfg.n_nodes)
            .map(|id| {
                Node::new(
                    id,
                    cfg.buffer_capacity,
                    make_policy(id),
                    cfg.routing.build(),
                )
            })
            .collect();
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, WorldEvent::Tick);
        queue.push(SimTime::ZERO, WorldEvent::Generate);

        // Fault injection: the whole schedule is precomputed here from
        // dedicated FAULTS-stream substreams, one per node per fault
        // kind, so fault timing is independent of everything else in
        // the run. Every draw is gated on its feature being enabled —
        // an empty `FaultPlan` draws nothing and pushes nothing, which
        // is what keeps zero-fault runs bit-identical to builds that
        // predate fault injection.
        let faults = &cfg.faults;
        let mut clock_skew = Vec::new();
        let mut abort_rng = None;
        if !faults.is_empty() {
            if faults.clock_skew_max_secs > 0.0 {
                let mut rng = substream_rng(cfg.seed, streams::FAULTS, 1);
                let max = faults.clock_skew_max_secs;
                clock_skew = (0..cfg.n_nodes)
                    .map(|_| uniform_range(&mut rng, -max, max))
                    .collect();
            }
            if faults.transfer_abort_prob > 0.0 {
                abort_rng = Some(substream_rng(cfg.seed, streams::FAULTS, 2));
            }
            // Crash/reboot and blackout windows: exponential
            // inter-arrivals per node; the next candidate window starts
            // only after the previous one ends, so a node's windows of
            // the same kind never overlap.
            let mut schedule = |rate_per_hour: f64,
                                down_secs: f64,
                                sub_base: u64,
                                start: fn(NodeId) -> WorldEvent,
                                end: fn(NodeId) -> WorldEvent| {
                if rate_per_hour <= 0.0 {
                    return;
                }
                let rate = rate_per_hour / 3600.0;
                for i in 0..cfg.n_nodes {
                    let node = NodeId(i as u32);
                    let mut rng = substream_rng(cfg.seed, streams::FAULTS, sub_base + i as u64);
                    let mut t = 0.0;
                    loop {
                        t += exponential(&mut rng, rate);
                        if t > cfg.duration_secs {
                            break;
                        }
                        queue.push(SimTime::from_secs(t), start(node));
                        t += down_secs;
                        if t > cfg.duration_secs {
                            break;
                        }
                        queue.push(SimTime::from_secs(t), end(node));
                    }
                }
            };
            schedule(
                faults.crash_rate_per_hour,
                faults.reboot_secs,
                0x1000,
                |node| WorldEvent::NodeCrash { node },
                |node| WorldEvent::NodeReboot { node },
            );
            schedule(
                faults.blackout_rate_per_hour,
                faults.blackout_secs,
                0x2000,
                |node| WorldEvent::BlackoutStart { node },
                |node| WorldEvent::BlackoutEnd { node },
            );
        }

        World {
            cfg: cfg.clone(),
            nodes,
            soa: NodeArrays::new(mobility, clock_skew),
            tracker,
            links: BTreeMap::new(),
            peers: vec![Vec::new(); cfg.n_nodes],
            dirty: DirtyNodes::new(cfg.n_nodes),
            expiry_frontier: 0,
            cache_stats: PriorityCacheStats::default(),
            queue,
            now: SimTime::ZERO,
            traffic_rng: stream_rng(cfg.seed, streams::TRAFFIC),
            catalog: Vec::new(),
            report: Report::new(),
            oracle: cfg.oracle.then(|| OracleState {
                seen: Vec::new(),
                holders: Vec::new(),
            }),
            next_transfer_seq: 0,
            uncounted: HashSet::new(),
            contact_trace: None,
            recorder: Recorder::disabled(),
            metrics: None,
            validator: None,
            validate_metrics: None,
            refused_seen: HashSet::new(),
            scratch_events: Vec::new(),
            scratch_links: Vec::new(),
            spray_pool: Vec::new(),
            evict_scratch: EvictionScratch::default(),
            victim_scratch: Vec::new(),
            abort_rng,
            pool: Pool::new(1),
        }
    }

    /// Installs a telemetry recorder. An enabled recorder receives every
    /// [`SimEvent`] the run produces and gets the world's metrics
    /// (`events_processed`, `delivery_latency_secs`, `transfer_bytes`,
    /// `live_contacts`) registered on it. Call before
    /// [`enable_timeseries`](Self::enable_timeseries) — attaching
    /// replaces the previous recorder, time series included.
    pub fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
        self.metrics = if self.recorder.is_enabled() {
            let m = self.recorder.metrics_mut();
            Some(WorldMetrics {
                events_processed: m.counter("events_processed"),
                delivery_latency_secs: m.histogram(
                    "delivery_latency_secs",
                    &[60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0],
                ),
                transfer_bytes: m.histogram(
                    "transfer_bytes",
                    &[65_536.0, 262_144.0, 524_288.0, 1_048_576.0, 4_194_304.0],
                ),
                live_contacts: m.gauge("live_contacts"),
                priority_cache_hits: m.gauge("priority_cache_hits"),
                priority_cache_incremental: m.gauge("priority_cache_incremental"),
                priority_cache_misses: m.gauge("priority_cache_misses"),
            })
        } else {
            None
        };
        self.refresh_validate_metrics();
    }

    /// Enables invariant checking and the estimator oracle for this
    /// run. Must be called before the first message is generated.
    ///
    /// Every simulator state transition is mirrored into a ground-truth
    /// ledger and every tick ends with a full-state sweep that
    /// cross-checks it (copy-token conservation, holder counts, buffer
    /// accounting, delivery/TTL hygiene, dropped-list gossip). When a
    /// recorder is attached, violations and estimator-error samples are
    /// also emitted as [`SimEvent`]s and metrics. Token conservation is
    /// asserted only for routing protocols that conserve spray tokens
    /// (the Spray-and-Wait family and direct delivery); epidemic and
    /// PRoPHET mint a copy per replication by design.
    pub fn enable_validation(&mut self, cfg: ValidateConfig) {
        assert!(
            self.catalog.is_empty(),
            "enable_validation must be called before any message is generated"
        );
        let conserve = matches!(
            self.cfg.routing,
            RoutingKind::SprayAndWaitBinary
                | RoutingKind::SprayAndWaitSource
                | RoutingKind::SprayAndFocus { .. }
                | RoutingKind::Direct
        );
        self.validator = Some(Box::new(Validator::new(cfg, self.cfg.n_nodes, conserve)));
        self.refresh_validate_metrics();
    }

    /// Whether [`enable_validation`](Self::enable_validation) was
    /// called.
    pub fn validation_enabled(&self) -> bool {
        self.validator.is_some()
    }

    /// Mutable access to the validator — fault injection for harness
    /// self-tests and mid-run report inspection.
    pub fn validator_mut(&mut self) -> Option<&mut Validator> {
        self.validator.as_deref_mut()
    }

    /// Runs a final validation sweep and takes the accumulated report.
    /// For worlds driven via [`step_until`](Self::step_until);
    /// [`run`](Self::run) returns it as [`RunOutput::validation`].
    pub fn take_validation_report(&mut self) -> Option<ValidationReport> {
        self.finalize_validation();
        self.validator.as_mut().map(|v| v.take_report())
    }

    fn refresh_validate_metrics(&mut self) {
        self.validate_metrics = if self.validator.is_some() && self.recorder.is_enabled() {
            let m = self.recorder.metrics_mut();
            Some(ValidateMetrics {
                invariant_violations: m.counter("invariant_violations"),
                estimator_m_rel_err: m
                    .histogram("estimator_m_rel_err", &[0.1, 0.25, 0.5, 1.0, 2.0, 5.0]),
                estimator_n_rel_err: m
                    .histogram("estimator_n_rel_err", &[0.1, 0.25, 0.5, 1.0, 2.0, 5.0]),
                estimator_m_mean_rel_err: m.gauge("estimator_m_mean_rel_err"),
                estimator_m_max_rel_err: m.gauge("estimator_m_max_rel_err"),
                estimator_n_mean_rel_err: m.gauge("estimator_n_mean_rel_err"),
                estimator_n_max_rel_err: m.gauge("estimator_n_max_rel_err"),
            })
        } else {
            None
        };
    }

    /// Read access to the attached recorder (totals, ring, metrics).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Samples occupancy/contact/message time series every
    /// `sample_every` simulated seconds. Call before [`run`](Self::run);
    /// the series comes back inside [`RunOutput::recorder`]
    /// ([`Recorder::take_timeseries`]).
    pub fn enable_timeseries(&mut self, sample_every: f64) {
        self.recorder.enable_timeseries(sample_every);
    }

    /// Records closed contact intervals for intermeeting analysis
    /// (Fig. 3), returned as [`RunOutput::contacts`]. Call before
    /// [`run`](Self::run).
    pub fn enable_contact_recording(&mut self) {
        self.contact_trace = Some(ContactTrace::new());
    }

    /// Advances the simulation to `until` (capped at the scenario
    /// duration), returning the number of events processed. The
    /// simulator's one event loop: [`run`](Self::run) is this to the
    /// scenario end plus the end-of-run bookkeeping. Interleave with
    /// the inspection accessors to watch a run evolve.
    pub fn step_until(&mut self, until: SimTime) -> u64 {
        let end = until.min(SimTime::from_secs(self.cfg.duration_secs));
        let mut processed = 0;
        while let Some((t, ev)) = self.queue.pop_until(end) {
            self.now = t;
            self.handle(ev);
            processed += 1;
        }
        self.now = self.now.max(end);
        processed
    }

    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages currently buffered at `node`.
    pub fn buffered_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()].buffered_count()
    }

    /// Contacts currently up.
    pub fn live_contacts(&self) -> usize {
        self.links.len()
    }

    /// Runs the scenario to completion: steps to the end, runs the
    /// final validation sweep, closes open contacts into the contact
    /// trace and flushes the recorder's sink.
    pub fn run(mut self) -> RunOutput {
        let end = SimTime::from_secs(self.cfg.duration_secs);
        self.step_until(end);
        let validation = self.take_validation_report();
        let contacts = self.contact_trace.take().map(|mut trace| {
            let mut events = Vec::new();
            self.tracker.close_all(end, &mut events);
            for ev in events {
                trace.record(ev);
            }
            trace
        });
        self.recorder.flush();
        RunOutput {
            report: self.report,
            recorder: self.recorder,
            validation,
            contacts,
        }
    }

    /// [`run`](Self::run), keeping only the report and the recorder.
    pub fn run_with_recorder(self) -> (Report, Recorder) {
        let out = self.run();
        (out.report, out.recorder)
    }

    fn handle(&mut self, ev: WorldEvent) {
        if let Some(m) = self.metrics.as_ref() {
            self.recorder.metrics_mut().inc(m.events_processed, 1);
        }
        match ev {
            WorldEvent::Tick => self.on_tick(),
            WorldEvent::Generate => self.on_generate(),
            WorldEvent::TransferComplete { pair, seq } => self.on_transfer_complete(pair, seq),
            WorldEvent::NodeCrash { node } => self.on_node_crash(node),
            WorldEvent::NodeReboot { node } => self.on_node_reboot(node),
            WorldEvent::BlackoutStart { node } => self.on_blackout_start(node),
            WorldEvent::BlackoutEnd { node } => self.on_blackout_end(node),
        }
    }

    /// Read access to the report while building tests.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Number of generated messages so far.
    pub fn catalog_len(&self) -> usize {
        self.catalog.len()
    }

    /// Sets the number of threads the parallel phases (movement
    /// sampling, contact-grid queries) fan out across. A *runtime*
    /// toggle like [`Self::set_priority_cache`] — not part of
    /// [`ScenarioConfig`], so config hashes, manifests and checkpoint
    /// resume keys are unaffected. Results are bit-identical at any
    /// value; the thread-count differential battery
    /// (`tests/parallel_world.rs`) enforces it. Values are clamped to
    /// at least 1; a 1-thread world runs everything inline and spawns
    /// nothing.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        if threads != self.pool.threads() {
            self.pool = Pool::new(threads);
        }
    }

    /// Threads the parallel phases use (1 = the serial reference path).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Enables or disables priority memoisation on every node's buffer
    /// policy. A *runtime* toggle (not part of [`ScenarioConfig`], so
    /// config hashes and manifests are unaffected): the cache is a pure
    /// optimisation and results are bit-identical either way, which the
    /// differential regression suite enforces by running with it off as
    /// the reference path. Call right after `build` — flipping it
    /// mid-run is safe (the cache self-invalidates) but pointless.
    pub fn set_priority_cache(&mut self, enabled: bool) {
        for node in &mut self.nodes {
            node.policy.set_priority_cache(enabled);
        }
        self.cache_stats = self.priority_cache_stats();
    }

    /// Aggregate priority-cache hit/miss counters across every node's
    /// buffer policy. Policies without a cache contribute nothing, so
    /// the result is `(0, 0)`-shaped for non-SDSRP runs. A full walk
    /// over the nodes; the per-tick gauges read the running total
    /// instead, which always equals it.
    pub fn priority_cache_stats(&self) -> PriorityCacheStats {
        let mut total = PriorityCacheStats::default();
        for node in &self.nodes {
            if let Some(stats) = node.policy.priority_cache_stats() {
                total.merge(stats);
            }
        }
        total
    }
}

/// Adds the growth of one policy's priority-cache counters since
/// `before` (a snapshot taken before a ranking call) to `total`.
fn account_cache(
    total: &mut PriorityCacheStats,
    before: Option<PriorityCacheStats>,
    after: Option<PriorityCacheStats>,
) {
    if let (Some(before), Some(after)) = (before, after) {
        total.merge(after.since(before));
    }
}

/// Returns a removed copy's spray-timestamp allocation to the pool so
/// the next replication reuses it instead of allocating a fresh clone.
/// Purely an allocation-recycling measure: the vector is cleared, so
/// simulation state is untouched.
fn recycle_spray(pool: &mut Vec<Vec<SimTime>>, mut copy: BufferedCopy) {
    if pool.len() < SPRAY_POOL_CAP && copy.spray_times.capacity() > 0 {
        copy.spray_times.clear();
        pool.push(std::mem::take(&mut copy.spray_times));
    }
}

/// Deterministic comparison: deliveries beat relays, then higher
/// priority, then lower message id, then lower sender id.
fn pick_better(a: Candidate, b: Candidate) -> Candidate {
    if a.is_delivery != b.is_delivery {
        return if a.is_delivery { a } else { b };
    }
    match a
        .priority
        .partial_cmp(&b.priority)
        .expect("priorities are never NaN")
    {
        std::cmp::Ordering::Less => b,
        std::cmp::Ordering::Greater => a,
        std::cmp::Ordering::Equal => {
            if (b.msg, b.from) < (a.msg, a.from) {
                b
            } else {
                a
            }
        }
    }
}
