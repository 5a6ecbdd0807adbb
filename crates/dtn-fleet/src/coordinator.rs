//! The fleet coordinator: shards a job list across workers and records
//! the results in the same [`CellLedger`] a single-process
//! [`dtn_sim::sweep::run_cells`] uses, so both produce the exact same
//! [`CellsOutput`]. The coordinator adds only supervision.
//!
//! Supervision model:
//!
//! * Every worker envelope refreshes its liveness clock; workers emit
//!   heartbeats from a side thread, so silence longer than
//!   [`FleetOptions::worker_timeout_secs`] means the process is wedged
//!   (not merely busy) and it is torn down.
//! * A cell in flight longer than [`FleetOptions::cell_timeout_secs`]
//!   tears its worker down too — a hung cell keeps heartbeating, and
//!   only this timeout can reclaim it.
//! * A torn-down worker's in-flight cell is re-dispatched at the front
//!   of the queue, at most [`FleetOptions::max_cell_retries`] times;
//!   exhaustion degrades the cell to a structured `CellError` (the
//!   sweep completes without it, exactly like an in-process panic).
//! * Worker slots are respawned with fresh uids, at most
//!   [`FleetOptions::max_worker_restarts`] times each. Late messages
//!   from a torn-down incarnation are recognised by their retired uid:
//!   completed results are still accepted (determinism makes them
//!   interchangeable with a retry's), everything else is dropped.
//! * If every worker is dead and respawns are exhausted, remaining
//!   cells fail structurally instead of hanging the sweep.

use crate::merge::{discover_shards, remove_shards};
use crate::protocol::{CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
use crate::schedule::longest_first;
use crate::transport::{Envelope, FleetError, Transport, WorkerHandle};
use dtn_sim::sweep::{
    aggregate_sweep, materialize_jobs, CellError, CellJob, CellLedger, CellRun, CellsOutput,
    SweepCheckpoint, SweepOutput, SweepProgress, SweepSpec,
};
use dtn_telemetry::SweepEvent;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Knobs of a fleet run.
#[derive(Clone)]
pub struct FleetOptions<'a> {
    /// Worker slots to spawn (clamped to the pending-job count; 0 is
    /// treated as 1).
    pub workers: usize,
    /// Attach a `dtn-validate` validator to every cell.
    pub validate: bool,
    /// Main checkpoint: finished cells stream to it, resume restores
    /// from it *plus* any per-worker shard files found next to it.
    pub checkpoint: Option<SweepCheckpoint>,
    /// Tear a worker down when a single cell runs longer than this
    /// (seconds; 0 disables — a genuinely hung cell then hangs its
    /// worker slot forever, though heartbeats keep the slot "alive").
    pub cell_timeout_secs: f64,
    /// Tear a worker down after this much silence (seconds; 0
    /// disables). Heartbeats default to 0.5 s, so this bounds wedged-
    /// process detection, not cell length.
    pub worker_timeout_secs: f64,
    /// Re-dispatches allowed per cell after worker losses.
    pub max_cell_retries: u32,
    /// Respawns allowed per worker slot.
    pub max_worker_restarts: u32,
    /// Per-cell progress callback (coordinator thread).
    pub progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    /// Structured lifecycle-event callback (coordinator thread).
    pub events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
}

impl Default for FleetOptions<'_> {
    fn default() -> Self {
        FleetOptions {
            workers: 1,
            validate: false,
            checkpoint: None,
            cell_timeout_secs: 0.0,
            worker_timeout_secs: 30.0,
            max_cell_retries: 2,
            max_worker_restarts: 8,
            progress: None,
            events: None,
        }
    }
}

/// Per-slot utilization numbers for [`FleetStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker slot index (stable across respawns).
    pub worker: usize,
    /// Last known OS pid (0 for in-process transports).
    pub pid: u64,
    /// Cells this slot completed.
    pub cells_completed: usize,
    /// Seconds the slot had a cell in flight.
    pub busy_secs: f64,
    /// `busy_secs` over the fleet's wall clock (0..=1).
    pub utilization: f64,
    /// Times this slot was respawned.
    pub restarts: u32,
}

/// What the fleet did, beyond the sweep output itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Transport label (`"subprocess"`).
    pub transport: String,
    /// Worker slots spawned.
    pub workers: usize,
    /// Cells handed to workers (re-dispatches included).
    pub dispatched: u64,
    /// Cells re-dispatched after a worker loss.
    pub retries: u64,
    /// Full config bodies streamed to workers (first-sight pushes plus
    /// `ConfigMissing` re-pushes); every other assignment carried only
    /// the config hash.
    pub config_pushes: u64,
    /// Worker incarnations torn down (timeouts, exits, pipe failures).
    pub workers_lost: u64,
    /// Respawns across all slots.
    pub worker_restarts: u64,
    /// Wall-clock span of the fleet run, seconds.
    pub wall_clock_secs: f64,
    /// Per-slot utilization.
    pub per_worker: Vec<WorkerUtilization>,
}

/// Result of [`run_fleet`].
#[derive(Debug)]
pub struct FleetRun {
    /// Per-job outcomes, identical in shape (and, for completed cells,
    /// bit-identical in content) to an in-process `run_cells`.
    pub output: CellsOutput,
    /// Distribution-layer accounting.
    pub stats: FleetStats,
}

/// Stand-in handle for a slot whose spawn failed: unreachable by
/// construction.
struct DeadHandle;

impl WorkerHandle for DeadHandle {
    fn send(&mut self, _msg: &CoordinatorMsg) -> Result<(), FleetError> {
        Err(FleetError::new("worker never spawned"))
    }
    fn pid(&self) -> u64 {
        0
    }
    fn kill(&mut self) {}
}

struct WorkerSlot {
    handle: Box<dyn WorkerHandle>,
    uid: u64,
    pid: u64,
    dead: bool,
    assigned: Option<usize>,
    assigned_at: Instant,
    last_seen: Instant,
    restarts: u32,
    cells_completed: usize,
    busy_secs: f64,
    /// Config hashes whose bodies this incarnation has been sent.
    /// Respawns start empty — a fresh worker has an empty cache.
    pushed: HashSet<String>,
    /// Consecutive `ConfigMissing` NACKs for the current assignment;
    /// bounded so a pathological worker cannot ping-pong forever.
    nacks: u32,
}

impl WorkerSlot {
    fn new(handle: Box<dyn WorkerHandle>, uid: u64, restarts: u32) -> Self {
        let pid = handle.pid();
        WorkerSlot {
            handle,
            uid,
            pid,
            dead: false,
            assigned: None,
            assigned_at: Instant::now(),
            last_seen: Instant::now(),
            restarts,
            cells_completed: 0,
            busy_secs: 0.0,
            pushed: HashSet::new(),
            nacks: 0,
        }
    }
}

struct Fleet<'a, 'b> {
    jobs: &'a [CellJob],
    ledger: CellLedger<'a>,
    opts: &'a FleetOptions<'b>,
    transport: &'a dyn Transport,
    inbox_tx: Sender<(u64, Envelope)>,
    workers: Vec<WorkerSlot>,
    uid_to_slot: HashMap<u64, usize>,
    next_uid: u64,
    pending: VecDeque<usize>,
    attempts: Vec<u32>,
    retries_left: Vec<u32>,
    dispatched: u64,
    retries: u64,
    config_pushes: u64,
    workers_lost: u64,
    worker_restarts: u64,
}

impl Fleet<'_, '_> {
    fn total(&self) -> usize {
        self.jobs.len()
    }

    fn emit(&self, ev: SweepEvent) {
        if let Some(f) = self.opts.events {
            f(&ev);
        }
    }

    fn spawn_slot(&mut self, slot: usize, restarts: u32) -> bool {
        let uid = self.next_uid;
        self.next_uid += 1;
        match self.transport.spawn(uid, self.inbox_tx.clone()) {
            Ok(handle) => {
                let worker = WorkerSlot::new(handle, uid, restarts);
                self.emit(SweepEvent::WorkerSpawned {
                    worker: slot as u64,
                    pid: worker.pid,
                    restarts: u64::from(restarts),
                });
                self.uid_to_slot.insert(uid, slot);
                if slot == self.workers.len() {
                    self.workers.push(worker);
                } else {
                    self.workers[slot] = worker;
                }
                true
            }
            Err(e) => {
                self.emit(SweepEvent::WorkerLost {
                    worker: slot as u64,
                    reason: format!("spawn failed: {}", e.message),
                });
                if slot == self.workers.len() {
                    // Keep slot indices dense: a never-alive slot still
                    // occupies its position (as a dead placeholder).
                    let mut placeholder = WorkerSlot::new(Box::new(DeadHandle), uid, restarts);
                    placeholder.dead = true;
                    self.workers.push(placeholder);
                } else {
                    self.workers[slot].dead = true;
                }
                false
            }
        }
    }

    /// Hands the next pending job (if any) to live, idle slot `w`.
    fn dispatch_to(&mut self, w: usize) {
        while !self.workers[w].dead && self.workers[w].assigned.is_none() {
            let Some(idx) = self.pending.pop_front() else {
                return;
            };
            if self.ledger.is_recorded(idx) {
                continue; // a late result already filled this cell
            }
            let retry = self.attempts[idx];
            let hash = self.ledger.config_hash(idx).to_string();
            // Config-push by hash: the body streams once per worker
            // incarnation; every Assign carries only the hash.
            if !self.workers[w].pushed.contains(&hash) {
                let push = CoordinatorMsg::Config {
                    config_hash: hash.clone(),
                    config: self.ledger.config(idx).to_string(),
                };
                if let Err(e) = self.workers[w].handle.send(&push) {
                    self.pending.push_front(idx);
                    self.worker_lost(w, format!("config push failed: {}", e.message), true);
                    return;
                }
                self.workers[w].pushed.insert(hash.clone());
                self.config_pushes += 1;
            }
            let msg = CoordinatorMsg::Assign {
                index: idx,
                label: self.jobs[idx].label.clone(),
                policy: self.jobs[idx].policy.clone(),
                seed: self.jobs[idx].cfg.seed,
                config_hash: hash.clone(),
                validate: self.opts.validate,
                retry,
            };
            match self.workers[w].handle.send(&msg) {
                Ok(()) => {
                    self.attempts[idx] += 1;
                    self.dispatched += 1;
                    self.workers[w].nacks = 0;
                    self.workers[w].assigned = Some(idx);
                    self.workers[w].assigned_at = Instant::now();
                    self.emit(SweepEvent::CellDispatched {
                        index: idx as u64,
                        total: self.total() as u64,
                        config_hash: hash,
                        worker: w as u64,
                        retry: u64::from(retry),
                    });
                    return;
                }
                Err(e) => {
                    self.pending.push_front(idx);
                    self.worker_lost(w, format!("assign failed: {}", e.message), true);
                    return;
                }
            }
        }
    }

    /// Dispatches to every idle live worker (idempotent).
    fn pump(&mut self) {
        for w in 0..self.workers.len() {
            if !self.workers[w].dead && self.workers[w].assigned.is_none() {
                self.dispatch_to(w);
            }
        }
    }

    /// Tears slot `w` down, requeues (or fails) its in-flight cell, and
    /// respawns the slot when work remains and the budget allows.
    fn worker_lost(&mut self, w: usize, reason: String, respawn: bool) {
        if self.workers[w].dead {
            return;
        }
        self.workers_lost += 1;
        self.workers[w].dead = true;
        self.workers[w].busy_secs += self.workers[w]
            .assigned
            .map(|_| self.workers[w].assigned_at.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        self.workers[w].handle.kill();
        self.emit(SweepEvent::WorkerLost {
            worker: w as u64,
            reason: reason.clone(),
        });
        if let Some(idx) = self.workers[w].assigned.take() {
            if !self.ledger.is_recorded(idx) {
                if self.retries_left[idx] > 0 {
                    self.retries_left[idx] -= 1;
                    self.retries += 1;
                    self.pending.push_front(idx);
                } else {
                    self.fail(
                        idx,
                        format!("fleet worker lost ({reason}); retry budget exhausted"),
                    );
                }
            }
        }
        let restarts = self.workers[w].restarts;
        if respawn
            && !self.pending.is_empty()
            && restarts < self.opts.max_worker_restarts
            && self.spawn_slot(w, restarts + 1)
        {
            self.worker_restarts += 1;
            self.dispatch_to(w);
        }
    }

    /// Records a result for job `idx` in the ledger (first outcome
    /// wins); a recorded cell leaves the retry queue.
    fn record(&mut self, idx: usize, outcome: Result<CellRun, CellError>) {
        if self.ledger.record(idx, outcome) {
            self.pending.retain(|&i| i != idx);
        }
    }

    /// Records job `idx` as a structured failure.
    fn fail(&mut self, idx: usize, panic: String) {
        let err = self.ledger.cell_error(idx, panic);
        self.record(idx, Err(err));
    }

    /// True when `uid` is the live incarnation of its slot.
    fn is_current(&self, uid: u64) -> Option<usize> {
        let &slot = self.uid_to_slot.get(&uid)?;
        (self.workers[slot].uid == uid && !self.workers[slot].dead).then_some(slot)
    }

    fn handle_envelope(&mut self, uid: u64, envelope: Envelope) {
        let current = self.is_current(uid);
        if let Some(w) = current {
            self.workers[w].last_seen = Instant::now();
        }
        match envelope {
            Envelope::Msg(WorkerMsg::Hello { pid, protocol, .. }) => {
                if let Some(w) = current {
                    self.workers[w].pid = pid;
                    if protocol != PROTOCOL_VERSION {
                        self.worker_lost(
                            w,
                            format!(
                                "protocol mismatch (worker speaks v{protocol}, \
                                 coordinator v{PROTOCOL_VERSION})"
                            ),
                            false, // a respawn would mismatch again
                        );
                    }
                }
            }
            Envelope::Msg(WorkerMsg::Heartbeat { .. })
            | Envelope::Msg(WorkerMsg::Started { .. }) => {
                // Liveness already refreshed above.
            }
            Envelope::Msg(WorkerMsg::ConfigMissing { index, config_hash }) => {
                // The worker has no body for the hash we assigned
                // (fresh incarnation, or evicted after an earlier run
                // of the same cell): re-push and re-assign. Bounded so
                // a worker that keeps NACKing what we keep pushing is
                // torn down instead of ping-ponging forever.
                let Some(w) = current else { return }; // retired uid
                if self.workers[w].assigned != Some(index)
                    || self.ledger.config_hash(index) != config_hash
                {
                    return; // stale NACK for a superseded assignment
                }
                self.workers[w].nacks += 1;
                if self.workers[w].nacks > 3 {
                    self.worker_lost(w, "config re-push loop".to_string(), true);
                    return;
                }
                let push = CoordinatorMsg::Config {
                    config_hash: config_hash.clone(),
                    config: self.ledger.config(index).to_string(),
                };
                let reassign = CoordinatorMsg::Assign {
                    index,
                    label: self.jobs[index].label.clone(),
                    policy: self.jobs[index].policy.clone(),
                    seed: self.jobs[index].cfg.seed,
                    config_hash: config_hash.clone(),
                    validate: self.opts.validate,
                    retry: self.attempts[index].saturating_sub(1),
                };
                self.config_pushes += 1;
                self.workers[w].pushed.insert(config_hash);
                let mut sent = self.workers[w].handle.send(&push);
                if sent.is_ok() {
                    sent = self.workers[w].handle.send(&reassign);
                }
                if let Err(e) = sent {
                    // worker_lost requeues the still-assigned cell.
                    self.worker_lost(w, format!("config re-push failed: {}", e.message), true);
                }
            }
            Envelope::Msg(WorkerMsg::Done { run }) => {
                let idx = run.index;
                // Paranoia gate: the record must be for the cell we
                // think it is (guards against a worker replying out of
                // band after a coordinator restart).
                if idx < self.total() && self.ledger.config_hash(idx) == run.config_hash {
                    self.record(idx, Ok(run));
                }
                if let Some(w) = current {
                    if self.workers[w].assigned == Some(idx) {
                        self.workers[w].assigned = None;
                        self.workers[w].busy_secs +=
                            self.workers[w].assigned_at.elapsed().as_secs_f64();
                        self.workers[w].cells_completed += 1;
                    }
                    self.dispatch_to(w);
                }
            }
            Envelope::Msg(WorkerMsg::Failed {
                index,
                config_hash,
                panic,
            }) => {
                // A cell panic is deterministic — retrying would panic
                // again, so degrade to a CellError exactly like the
                // in-process runner.
                if index < self.total() && self.ledger.config_hash(index) == config_hash {
                    self.fail(index, panic);
                }
                if let Some(w) = current {
                    if self.workers[w].assigned == Some(index) {
                        self.workers[w].assigned = None;
                        self.workers[w].busy_secs +=
                            self.workers[w].assigned_at.elapsed().as_secs_f64();
                    }
                    self.dispatch_to(w);
                }
            }
            Envelope::Gone(code) => {
                if let Some(w) = current {
                    let reason = match code {
                        Some(c) => format!("worker exited with code {c}"),
                        None => "worker stream closed".to_string(),
                    };
                    self.worker_lost(w, reason, true);
                }
            }
        }
    }

    /// Clock-driven supervision: cell timeouts and heartbeat silence.
    fn tick(&mut self) {
        for w in 0..self.workers.len() {
            if self.workers[w].dead {
                continue;
            }
            if self.workers[w].assigned.is_some()
                && self.opts.cell_timeout_secs > 0.0
                && self.workers[w].assigned_at.elapsed().as_secs_f64() > self.opts.cell_timeout_secs
            {
                self.worker_lost(
                    w,
                    format!(
                        "cell timeout: in flight {:.1}s > {:.1}s",
                        self.workers[w].assigned_at.elapsed().as_secs_f64(),
                        self.opts.cell_timeout_secs
                    ),
                    true,
                );
                continue;
            }
            if self.opts.worker_timeout_secs > 0.0
                && self.workers[w].last_seen.elapsed().as_secs_f64() > self.opts.worker_timeout_secs
            {
                self.worker_lost(
                    w,
                    format!("heartbeat silence > {:.1}s", self.opts.worker_timeout_secs),
                    true,
                );
            }
        }
        self.pump();
    }

    /// When no worker is left to run them, pending cells fail
    /// structurally instead of hanging the sweep.
    fn fail_stranded(&mut self) {
        if self.workers.iter().any(|w| !w.dead) {
            return;
        }
        while let Some(idx) = self.pending.pop_front() {
            self.fail(
                idx,
                "fleet stranded: all workers dead and respawn budget exhausted".to_string(),
            );
        }
    }
}

/// Runs an arbitrary job list on a worker fleet. The distributed
/// counterpart of [`dtn_sim::sweep::run_cells`]: the same
/// [`CellLedger`] records every outcome, so the outputs are the same for
/// the same jobs, with cells executed in worker processes instead of a
/// local thread pool.
pub fn run_fleet(
    jobs: &[CellJob],
    transport: &dyn Transport,
    opts: &FleetOptions<'_>,
) -> Result<FleetRun, FleetError> {
    let started = Instant::now();
    let total = jobs.len();

    // Restore the main checkpoint plus any shard files a killed fleet
    // left behind, *before* any spawned worker appends to its shard.
    let shards = match &opts.checkpoint {
        Some(ck) if ck.resume => discover_shards(&ck.path),
        _ => Vec::new(),
    };
    let ledger = CellLedger::open(
        jobs,
        opts.checkpoint.as_ref(),
        &shards,
        opts.progress,
        opts.events,
    );
    if ledger.checkpoint_error().is_none() {
        // Everything the shards held is folded into the main file now;
        // stale shards must not shadow future runs.
        remove_shards(&shards);
    }

    // Longest-job-first over the cells still to run, estimated from
    // restored durations (canonical order on a cold start).
    let pending: VecDeque<usize> =
        longest_first(jobs, &ledger.pending(), &ledger.known_runs()).into();

    let (inbox_tx, inbox_rx) = channel::<(u64, Envelope)>();
    let mut fleet = Fleet {
        jobs,
        ledger,
        opts,
        transport,
        inbox_tx,
        workers: Vec::new(),
        uid_to_slot: HashMap::new(),
        next_uid: 0,
        pending,
        attempts: vec![0; total],
        retries_left: vec![opts.max_cell_retries; total],
        dispatched: 0,
        retries: 0,
        config_pushes: 0,
        workers_lost: 0,
        worker_restarts: 0,
    };

    let n_workers = opts.workers.max(1).min(fleet.pending.len().max(1));
    if !fleet.pending.is_empty() {
        for slot in 0..n_workers {
            fleet.spawn_slot(slot, 0);
        }
        if fleet.workers.iter().all(|w| w.dead) {
            return Err(FleetError::new(format!(
                "no worker could be spawned (transport {})",
                transport.label()
            )));
        }
        fleet.pump();

        let tick = Duration::from_millis(50);
        while !fleet.ledger.all_recorded() {
            match inbox_rx.recv_timeout(tick) {
                Ok((uid, envelope)) => fleet.handle_envelope(uid, envelope),
                Err(RecvTimeoutError::Timeout) => fleet.tick(),
                Err(RecvTimeoutError::Disconnected) => break, // unreachable: we hold a sender
            }
            fleet.fail_stranded();
        }

        // Drain: ask live workers to exit, then tear everything down.
        for w in &mut fleet.workers {
            if !w.dead {
                let _ = w.handle.send(&CoordinatorMsg::Shutdown);
            }
            w.handle.kill();
        }
    }

    let wall_clock_secs = started.elapsed().as_secs_f64();
    let per_worker: Vec<WorkerUtilization> = fleet
        .workers
        .iter()
        .enumerate()
        .map(|(w, slot)| WorkerUtilization {
            worker: w,
            pid: slot.pid,
            cells_completed: slot.cells_completed,
            busy_secs: slot.busy_secs,
            utilization: if wall_clock_secs > 0.0 {
                (slot.busy_secs / wall_clock_secs).clamp(0.0, 1.0)
            } else {
                0.0
            },
            restarts: slot.restarts,
        })
        .collect();
    let stats = FleetStats {
        transport: transport.label().to_string(),
        workers: fleet.workers.len(),
        dispatched: fleet.dispatched,
        retries: fleet.retries,
        config_pushes: fleet.config_pushes,
        workers_lost: fleet.workers_lost,
        worker_restarts: fleet.worker_restarts,
        wall_clock_secs,
        per_worker,
    };
    let output = fleet.ledger.finish();
    if let (None, Some(ck)) = (&output.checkpoint_error, &opts.checkpoint) {
        // Every completed cell is in the main checkpoint; this run's
        // shards are consumed crash insurance.
        remove_shards(&discover_shards(&ck.path));
    }
    Ok(FleetRun { output, stats })
}

/// Runs a [`SweepSpec`] on a worker fleet — the distributed
/// counterpart of [`dtn_sim::sweep::run_sweep_hardened`], with
/// bit-identical [`SweepOutput`] for the same spec.
pub fn run_sweep_fleet(
    spec: &SweepSpec,
    transport: &dyn Transport,
    opts: &FleetOptions<'_>,
) -> Result<(SweepOutput, FleetStats), FleetError> {
    let jobs = materialize_jobs(spec);
    let merged = FleetOptions {
        validate: opts.validate || spec.validate,
        ..opts.clone()
    };
    let fleet = run_fleet(&jobs, transport, &merged)?;
    Ok((aggregate_sweep(spec, fleet.output), fleet.stats))
}
