//! Parallel parameter sweeps — the engine behind every Fig. 8 / Fig. 9
//! series.
//!
//! A sweep is `axis points x policies x seeds` independent simulations.
//! Runs are embarrassingly parallel and fully deterministic, so the
//! runner spreads the job list over a crossbeam scoped-thread pool
//! (guide-recommended for fork-join parallelism without lifetime
//! contortions) and averages the per-seed reports.
//!
//! The runner is *hardened*:
//!
//! * Every job executes under [`std::panic::catch_unwind`]. A panicking
//!   cell becomes a structured [`CellError`] (config hash, axis/policy/
//!   seed, panic payload) in the [`SweepOutput`] instead of killing the
//!   scope — all other cells are always returned.
//! * With a [`SweepCheckpoint`] attached, every finished job is
//!   streamed to a JSONL file as a [`CellRun`] keyed by the canonical
//!   config hash ([`dtn_telemetry::hash_config_json`]). Resuming skips
//!   already-completed jobs and reproduces the uninterrupted run
//!   bit-identically (per-run [`ReportFingerprint`]s): the checkpoint
//!   stores the exact integer digest and the exact `f64` metrics
//!   (shortest-roundtrip JSON), so aggregation over restored runs is
//!   byte-for-byte the same as over live ones.
//! * [`SweepSpec::validate`] attaches a `dtn-validate` `Validator` to
//!   every world and folds invariant-violation counts into each
//!   [`SweepCell`] and [`CellRun`].
//!
//! The runner is also *shard-able*: [`materialize_jobs`] turns a spec
//! into the exact job list, [`run_cell`] runs a single fully-resolved
//! job under panic isolation, [`CellLedger`] does all per-job
//! bookkeeping (checkpoint restore and merge, recording, lifecycle
//! events, output assembly), and [`aggregate_sweep`] folds an arbitrary
//! [`CellsOutput`] back into the per-`(axis, policy)` cells. Executors
//! differ only in how they dispatch cells: [`run_cells`] pulls them on a
//! local thread pool, `dtn-fleet` hands them to supervised workers. Both
//! record into a [`CellLedger`], so a fleet sweep aggregates
//! bit-identically to [`run_sweep_hardened`].
//!
//! Checkpoint I/O failures are *structured*, not fatal: a bad checkpoint
//! path degrades the sweep to an uncheckpointed (but complete) run and
//! surfaces a [`CheckpointError`] in the output instead of aborting.

use crate::config::{PolicyKind, ScenarioConfig};
use crate::report::Report;
use crate::world::World;
use dtn_core::stats::OnlineStats;
use dtn_core::units::Bytes;
use dtn_telemetry::{hash_config_json, EventTotals, Recorder, SweepEvent};
use dtn_validate::ReportFingerprint;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The swept parameter — the paper's three x-axes, plus the churn
/// (fault-injection) axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Initial copies `L` (Fig. 8/9 a-c): 16, 20, ..., 64.
    InitialCopies(Vec<u32>),
    /// Buffer size in MB (Fig. 8/9 d-f): 2, 2.5, ..., 5.
    BufferMb(Vec<f64>),
    /// Message generation interval `[lo, hi]` seconds (Fig. 8/9 g-i):
    /// `[10,15]`, `[15,20]`, ..., `[45,50]`.
    GenInterval(Vec<(f64, f64)>),
    /// Per-node crash rate in crashes/hour (churn robustness). Applying
    /// a non-zero rate to a template whose `reboot_secs` is unset (0)
    /// defaults the down window to 60 s so the point still validates.
    CrashRate(Vec<f64>),
    /// Eq. 13 Taylor truncation depth for the SDSRP priority (`None` =
    /// the exact Eq. 10 closed form) — the Fig. 4 accuracy/compute
    /// ablation as a sweep. Only SDSRP policies are affected: each
    /// point rewrites an `Sdsrp`/`SdsrpCustom` policy's Taylor setting
    /// and leaves every other policy unchanged (flat reference lines).
    TaylorTerms(Vec<Option<u32>>),
    /// Buffer-occupancy threshold for the congestion-adaptive policies:
    /// each point rewrites an `OccupancyGate` or `TieredRetention`
    /// policy's threshold and leaves every other policy unchanged (flat
    /// reference lines), mirroring [`SweepAxis::TaylorTerms`].
    OccupancyThreshold(Vec<f64>),
}

impl SweepAxis {
    /// The paper's initial-copies sweep.
    pub fn paper_copies() -> Self {
        SweepAxis::InitialCopies((16..=64).step_by(4).collect())
    }

    /// The paper's buffer-size sweep.
    pub fn paper_buffers() -> Self {
        SweepAxis::BufferMb(vec![2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])
    }

    /// The paper's generation-rate sweep.
    pub fn paper_gen_rates() -> Self {
        SweepAxis::GenInterval(
            (0..8)
                .map(|i| (10.0 + 5.0 * i as f64, 15.0 + 5.0 * i as f64))
                .collect(),
        )
    }

    /// The standard churn sweep used by the delivery-vs-churn table:
    /// from no faults to four crashes per node-hour.
    pub fn churn_rates() -> Self {
        SweepAxis::CrashRate(vec![0.0, 0.5, 1.0, 2.0, 4.0])
    }

    /// The Fig. 4 Taylor-depth ablation: exact Eq. 10 as the reference
    /// point, then truncations from crude to near-exact.
    pub fn paper_taylor() -> Self {
        SweepAxis::TaylorTerms(vec![None, Some(1), Some(2), Some(4), Some(8), Some(16)])
    }

    /// The standard congestion-adaptation sweep: from aggressive
    /// throttling at half-full buffers to the permissive limit (a
    /// threshold of 1.0 never triggers, giving the un-throttled
    /// reference point on the same axis).
    pub fn occupancy_thresholds() -> Self {
        SweepAxis::OccupancyThreshold(vec![0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::InitialCopies(v) => v.len(),
            SweepAxis::BufferMb(v) => v.len(),
            SweepAxis::GenInterval(v) => v.len(),
            SweepAxis::CrashRate(v) => v.len(),
            SweepAxis::TaylorTerms(v) => v.len(),
            SweepAxis::OccupancyThreshold(v) => v.len(),
        }
    }

    /// True when the axis has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Axis display name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::InitialCopies(_) => "initial copies L",
            SweepAxis::BufferMb(_) => "buffer size (MB)",
            SweepAxis::GenInterval(_) => "generation interval (s)",
            SweepAxis::CrashRate(_) => "crash rate (/node-hour)",
            SweepAxis::TaylorTerms(_) => "Taylor terms k (0 = exact)",
            SweepAxis::OccupancyThreshold(_) => "occupancy threshold",
        }
    }

    /// Label of point `i`.
    pub fn label(&self, i: usize) -> String {
        match self {
            SweepAxis::InitialCopies(v) => v[i].to_string(),
            SweepAxis::BufferMb(v) => format!("{}", v[i]),
            SweepAxis::GenInterval(v) => format!("{}-{}", v[i].0, v[i].1),
            SweepAxis::CrashRate(v) => format!("{}", v[i]),
            SweepAxis::TaylorTerms(v) => match v[i] {
                None => "exact".to_string(),
                Some(k) => format!("k={k}"),
            },
            SweepAxis::OccupancyThreshold(v) => format!("{}", v[i]),
        }
    }

    /// Numeric x value of point `i` (for plotting).
    pub fn value(&self, i: usize) -> f64 {
        match self {
            SweepAxis::InitialCopies(v) => v[i] as f64,
            SweepAxis::BufferMb(v) => v[i],
            SweepAxis::GenInterval(v) => (v[i].0 + v[i].1) / 2.0,
            SweepAxis::CrashRate(v) => v[i],
            // Exact mode plots at 0 (a k-axis has no natural slot for
            // it; the label carries the distinction).
            SweepAxis::TaylorTerms(v) => v[i].map_or(0.0, |k| k as f64),
            SweepAxis::OccupancyThreshold(v) => v[i],
        }
    }

    /// Applies point `i` to a scenario. Called *after* the job's policy
    /// is assigned (see [`materialize_jobs`]), so policy-rewriting axes
    /// ([`SweepAxis::TaylorTerms`]) see the final policy.
    pub fn apply(&self, cfg: &mut ScenarioConfig, i: usize) {
        match self {
            SweepAxis::InitialCopies(v) => cfg.initial_copies = v[i],
            SweepAxis::BufferMb(v) => cfg.buffer_capacity = Bytes::from_mb(v[i]),
            SweepAxis::GenInterval(v) => cfg.gen_interval = v[i],
            SweepAxis::CrashRate(v) => {
                cfg.faults.crash_rate_per_hour = v[i];
                if v[i] > 0.0 && cfg.faults.reboot_secs <= 0.0 {
                    cfg.faults.reboot_secs = 60.0;
                }
            }
            SweepAxis::TaylorTerms(v) => {
                let terms = v[i].map(|k| k as usize);
                cfg.policy = match cfg.policy {
                    // The paper preset keeps its online-λ estimation and
                    // gossip settings (`SdsrpConfig::paper`), only the
                    // priority form changes.
                    PolicyKind::Sdsrp => PolicyKind::SdsrpCustom {
                        lambda: sdsrp_core::LambdaMode::Online {
                            prior: 1.0 / 2000.0,
                            min_samples: 5,
                        },
                        taylor_terms: terms,
                        reject_dropped: true,
                        gossip: true,
                    },
                    PolicyKind::SdsrpCustom {
                        lambda,
                        reject_dropped,
                        gossip,
                        ..
                    } => PolicyKind::SdsrpCustom {
                        lambda,
                        taylor_terms: terms,
                        reject_dropped,
                        gossip,
                    },
                    other => other,
                };
            }
            SweepAxis::OccupancyThreshold(v) => {
                cfg.policy = match cfg.policy {
                    PolicyKind::OccupancyGate { .. } => {
                        PolicyKind::OccupancyGate { threshold: v[i] }
                    }
                    PolicyKind::TieredRetention { tiers, .. } => PolicyKind::TieredRetention {
                        tiers,
                        threshold: v[i],
                    },
                    other => other,
                };
            }
        }
    }
}

/// A full sweep specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The scenario template (its `policy`, `seed` and the swept field
    /// are overwritten per run).
    pub base: ScenarioConfig,
    /// The x-axis.
    pub axis: SweepAxis,
    /// The strategies to compare.
    pub policies: Vec<PolicyKind>,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Attach a `dtn-validate` `Validator` to every run and fold the
    /// violation counts into the cells.
    #[serde(default)]
    pub validate: bool,
}

/// Averaged metrics for one `(axis point, policy)` cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Axis point index.
    pub axis_index: usize,
    /// Axis point label (e.g. "2.5" or "25-35").
    pub axis_label: String,
    /// Numeric axis value for plotting.
    pub axis_value: f64,
    /// Policy legend label.
    pub policy: String,
    /// Mean delivery ratio across seeds.
    pub delivery_ratio: f64,
    /// Std-dev of delivery ratio across seeds (0 for one seed).
    pub delivery_ratio_std: f64,
    /// Mean average hopcount.
    pub avg_hopcount: f64,
    /// Mean overhead ratio.
    pub overhead_ratio: f64,
    /// Mean delivery latency in seconds over the cell's runs that
    /// delivered at least one message; `None` when no run did (a cell
    /// with zero deliveries has no latency, not a zero one). Serialises
    /// as `null`; legacy checkpoints carrying the old `0.0` sentinel
    /// deserialize as `Some(0.0)`.
    pub avg_latency: Option<f64>,
    /// Mean generated messages per run.
    pub created: f64,
    /// Seeds aggregated (fewer than requested if some runs panicked).
    pub runs: usize,
    /// Total invariant violations across the cell's runs (0 unless
    /// [`SweepSpec::validate`] was set).
    #[serde(default)]
    pub violations: u64,
    /// Compact fault-plan label of the cell's resolved scenario
    /// (`"none"` for fault-free cells; pre-fault checkpoints
    /// deserialize to an empty string).
    #[serde(default)]
    pub faults: String,
}

/// Live progress of a sweep, reported once per finished run (panicked
/// runs included).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepProgress {
    /// Runs finished so far (this one included; restored checkpoint
    /// runs are pre-counted).
    pub completed: usize,
    /// Total runs in the sweep.
    pub total: usize,
    /// Axis label of the finished run.
    pub axis_label: String,
    /// Policy legend label of the finished run.
    pub policy: String,
}

/// One job for the generic cell runner: a label pair for progress
/// reporting plus the fully-resolved scenario.
#[derive(Debug, Clone)]
pub struct CellJob {
    /// Axis label (sweeps) or scenario name (fuzzing).
    pub label: String,
    /// Policy legend label.
    pub policy: String,
    /// The exact configuration to run.
    pub cfg: ScenarioConfig,
}

/// The scalar per-run metrics a sweep aggregates. Stored in checkpoint
/// records as raw `f64`s — JSON rendering is shortest-roundtrip, so a
/// restored run aggregates bit-identically to a live one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Delivery ratio.
    pub delivery_ratio: f64,
    /// Average hopcount over first deliveries.
    pub avg_hopcount: f64,
    /// Overhead ratio.
    pub overhead_ratio: f64,
    /// Average delivery latency in seconds; `None` when the run
    /// delivered nothing.
    pub avg_latency: Option<f64>,
    /// Messages generated after warm-up.
    pub created: f64,
}

impl CellMetrics {
    /// Extracts the aggregation inputs from a run's report.
    pub fn from_report(report: &Report) -> Self {
        CellMetrics {
            delivery_ratio: report.delivery_ratio(),
            avg_hopcount: report.avg_hopcount(),
            overhead_ratio: report.overhead_ratio(),
            avg_latency: report.avg_latency(),
            created: report.created() as f64,
        }
    }
}

/// One finished job — the checkpoint JSONL record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRun {
    /// Position in the materialised job list.
    pub index: usize,
    /// FNV-1a hash of the job's canonical config JSON — the resume key.
    pub config_hash: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Scalar metrics the sweep aggregates.
    pub metrics: CellMetrics,
    /// Integer digest of the run, for bit-identical resume checks.
    pub fingerprint: ReportFingerprint,
    /// Invariant violations observed (0 when validation is off).
    pub violations: u64,
    /// Wall-clock execution time of the run, seconds. Observational
    /// metadata: a restored run keeps the duration it was recorded
    /// with, the fleet coordinator uses it for longest-job-first
    /// scheduling, and it is *excluded* from equality so resumed
    /// outputs still compare bit-identical to uninterrupted ones.
    /// Pre-duration checkpoints deserialize to `0.0`.
    #[serde(default)]
    pub duration_secs: f64,
}

// Manual equality: everything deterministic, minus the wall clock.
impl PartialEq for CellRun {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.config_hash == other.config_hash
            && self.seed == other.seed
            && self.metrics == other.metrics
            && self.fingerprint == other.fingerprint
            && self.violations == other.violations
    }
}

/// A job that panicked: everything needed to triage and replay it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellError {
    /// Position in the materialised job list.
    pub index: usize,
    /// FNV-1a hash of the job's canonical config JSON.
    pub config_hash: String,
    /// Axis label (sweeps) or scenario name (fuzzing).
    pub label: String,
    /// Policy legend label.
    pub policy: String,
    /// RNG seed of the failed run.
    pub seed: u64,
    /// The panic payload, stringified.
    pub panic: String,
    /// The canonical config JSON of the failed job, embedded so the
    /// cell can be replayed directly (`dtn-scenario --config`).
    pub config: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} ({} @ {}, seed {}, config {}) panicked: {}",
            self.index, self.policy, self.label, self.seed, self.config_hash, self.panic
        )
    }
}

/// Checkpoint configuration for a hardened run.
#[derive(Debug, Clone)]
pub struct SweepCheckpoint {
    /// JSONL file finished cells stream to (one [`CellRun`] per line).
    pub path: PathBuf,
    /// Restore completed cells from `path` instead of truncating it.
    pub resume: bool,
}

/// A checkpoint I/O failure, recorded in the output instead of aborting
/// the sweep: the run completes uncheckpointed.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointError {
    /// Path of the checkpoint file that failed.
    pub path: String,
    /// The underlying I/O error, stringified.
    pub error: String,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint {} unavailable ({}); sweep continued uncheckpointed",
            self.path, self.error
        )
    }
}

/// A streaming checkpoint writer that degrades instead of panicking: the
/// first write failure disables further appends and is surfaced as a
/// [`CheckpointError`].
struct CheckpointSink {
    path: PathBuf,
    file: Option<File>,
    error: Option<CheckpointError>,
}

impl CheckpointSink {
    /// Appends one finished run, flushing per cell so the file survives
    /// a kill right up to the last finished job. A write failure
    /// disables the sink (the sweep continues uncheckpointed).
    fn append(&mut self, run: &CellRun) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let line = serde_json::to_string(run).expect("cell run serialises");
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            self.file = None;
            self.error = Some(CheckpointError {
                path: self.path.display().to_string(),
                error: e.to_string(),
            });
        }
    }
}

/// Result of [`open_checkpoint`]: restored per-job runs plus a live
/// append sink (absent when the file could not be opened or rewritten).
struct CheckpointRestore {
    /// Append sink for newly finished runs (`None` after an open or
    /// rewrite failure — the sweep still runs, uncheckpointed).
    sink: Option<CheckpointSink>,
    /// The open/rewrite failure, if any.
    error: Option<CheckpointError>,
    /// Restored runs, indexed like the job list (reindexed to it).
    restored: Vec<Option<CellRun>>,
}

/// Restores finished cells for a job list (identified by its canonical
/// config hashes) from a checkpoint file plus any number of extra
/// partial sources (e.g. per-worker shard checkpoints left behind by a
/// killed fleet), then rewrites the main file from the parsed entries
/// and keeps it open for appending.
///
/// The rewrite repairs a torn final line a mid-write kill may have left
/// behind in *any* source, folds every source into the one main file
/// (job-matched entries first, in job order, then leftover entries from
/// other job sets in hash order so the rewrite is deterministic), and
/// guarantees the file ends with a newline before appends begin.
/// Entries for the same config hash are deduplicated (first source
/// wins; the main checkpoint is read first).
///
/// I/O failures never panic: restored entries are still returned (so
/// resume works even from an unwritable file) and the error is recorded
/// in [`CheckpointRestore::error`].
fn open_checkpoint(
    ck: &SweepCheckpoint,
    hashes: &[String],
    merge_sources: &[PathBuf],
) -> CheckpointRestore {
    let mut prior: HashMap<String, CellRun> = HashMap::new();
    if ck.resume {
        prior = load_checkpoint(&ck.path);
        for source in merge_sources {
            for (hash, run) in load_checkpoint(source) {
                prior.entry(hash).or_insert(run);
            }
        }
    }
    let mut restored: Vec<Option<CellRun>> = vec![None; hashes.len()];
    for (i, hash) in hashes.iter().enumerate() {
        if let Some(mut run) = prior.remove(hash) {
            run.index = i;
            restored[i] = Some(run);
        }
    }

    let mut file = match OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&ck.path)
    {
        Ok(file) => file,
        Err(e) => {
            return CheckpointRestore {
                sink: None,
                error: Some(CheckpointError {
                    path: ck.path.display().to_string(),
                    error: e.to_string(),
                }),
                restored,
            };
        }
    };
    let rewrite = (|| -> std::io::Result<()> {
        for run in restored.iter().flatten() {
            let line = serde_json::to_string(run).expect("cell run serialises");
            writeln!(file, "{line}")?;
        }
        let mut leftovers: Vec<&CellRun> = prior.values().collect();
        leftovers.sort_by(|a, b| a.config_hash.cmp(&b.config_hash));
        for run in leftovers {
            let line = serde_json::to_string(run).expect("cell run serialises");
            writeln!(file, "{line}")?;
        }
        file.flush()
    })();
    match rewrite {
        Ok(()) => CheckpointRestore {
            sink: Some(CheckpointSink {
                path: ck.path.clone(),
                file: Some(file),
                error: None,
            }),
            error: None,
            restored,
        },
        Err(e) => CheckpointRestore {
            sink: None,
            error: Some(CheckpointError {
                path: ck.path.display().to_string(),
                error: e.to_string(),
            }),
            restored,
        },
    }
}

/// Options for [`run_cells`] / [`run_sweep_hardened`].
#[derive(Default)]
pub struct SweepOptions<'a> {
    /// Worker threads; 0 uses the available parallelism.
    pub threads: usize,
    /// Attach a `dtn-validate` `Validator` to every run.
    pub validate: bool,
    /// Stream finished cells to (and optionally resume from) a JSONL
    /// checkpoint file.
    pub checkpoint: Option<SweepCheckpoint>,
    /// Per-run progress callback (called from worker threads).
    pub progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    /// Structured lifecycle-event callback (called from worker
    /// threads): completions, failures, skips, resumes.
    pub events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
    /// Intra-run world threads per job (the parallel tick phases);
    /// 0 or 1 keeps every world serial. Orthogonal to `threads`, which
    /// fans *jobs* out across workers. Fingerprints are thread-count
    /// invariant, so this is purely a wall-clock knob.
    pub world_threads: usize,
}

/// Result of a hardened cell-list run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellsOutput {
    /// Per-job outcome, job-ordered; `None` marks a panicked job (its
    /// [`CellError`] is in `errors`).
    pub runs: Vec<Option<CellRun>>,
    /// The panicked jobs.
    pub errors: Vec<CellError>,
    /// Event totals folded over all successful runs (restored ones
    /// included, so totals match an uninterrupted run).
    pub totals: EventTotals,
    /// Total invariant violations across all successful runs.
    pub violations: u64,
    /// Jobs restored from the checkpoint instead of executed.
    pub resumed: usize,
    /// Jobs executed in this invocation.
    pub executed: usize,
    /// Set when the checkpoint file could not be opened or written; the
    /// run completed, uncheckpointed from that point on.
    pub checkpoint_error: Option<CheckpointError>,
}

/// Result of a hardened sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOutput {
    /// One aggregated cell per `(axis point, policy)`, axis-major then
    /// policy — always complete, even when some runs panicked.
    pub cells: Vec<SweepCell>,
    /// The panicked runs, if any.
    pub errors: Vec<CellError>,
    /// Event totals folded over all successful runs.
    pub totals: EventTotals,
    /// Total invariant violations across all runs.
    pub violations: u64,
    /// Runs restored from the checkpoint instead of executed.
    pub resumed: usize,
    /// Runs executed in this invocation.
    pub executed: usize,
    /// Per-run records, job-ordered (`None` marks a panicked run).
    pub runs: Vec<Option<CellRun>>,
    /// Set when the checkpoint file could not be opened or written; the
    /// sweep completed, uncheckpointed from that point on.
    pub checkpoint_error: Option<CheckpointError>,
}

/// Runs the sweep on `opts.threads` worker threads (0 uses the
/// available parallelism) and returns one cell per `(axis point,
/// policy)`, axis-major then policy. Every run executes under
/// `catch_unwind`: a panicking cell becomes a [`CellError`] in
/// [`SweepOutput::errors`] and all other cells are still returned, so
/// callers that need all-or-nothing results check `errors.is_empty()`.
/// Per-cell validation ([`SweepSpec::validate`] or
/// [`SweepOptions::validate`]) and checkpoint/resume are optional.
///
/// # Example
///
/// A miniature Fig. 8-style comparison — two initial-copy points, two
/// policies, one seed — produces one [`SweepCell`] per
/// `(axis point, policy)` pair:
///
/// ```
/// use dtn_sim::config::{presets, PolicyKind};
/// use dtn_sim::sweep::{run_sweep_hardened, SweepAxis, SweepOptions, SweepSpec};
///
/// let mut base = presets::smoke();
/// base.n_nodes = 8;
/// base.duration_secs = 120.0;
/// let spec = SweepSpec {
///     base,
///     axis: SweepAxis::InitialCopies(vec![4, 8]),
///     policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
///     seeds: vec![1],
///     validate: false,
/// };
/// let opts = SweepOptions { threads: 1, ..SweepOptions::default() };
/// let out = run_sweep_hardened(&spec, &opts);
/// assert!(out.errors.is_empty());
/// assert_eq!(out.cells.len(), 4); // 2 axis points x 2 policies
/// assert!(out
///     .cells
///     .iter()
///     .all(|c| (0.0..=1.0).contains(&c.delivery_ratio)));
/// ```
pub fn run_sweep_hardened(spec: &SweepSpec, opts: &SweepOptions<'_>) -> SweepOutput {
    let jobs = materialize_jobs(spec);
    let out = run_cells(
        jobs,
        &SweepOptions {
            threads: opts.threads,
            validate: opts.validate || spec.validate,
            checkpoint: opts.checkpoint.clone(),
            progress: opts.progress,
            events: opts.events,
            world_threads: opts.world_threads,
        },
    );
    aggregate_sweep(spec, out)
}

/// Materialises a spec's exact job list: `(axis i, policy j, seed)` ->
/// fully-resolved config, axis-major, then policy, then seed — cell
/// `(ai, pi)` owns jobs `[ (ai*P + pi)*S , +S )`. This is the canonical
/// ordering every runner (in-process and fleet) shards and aggregates
/// by.
///
/// # Panics
/// Panics if the axis, policy list or seed list is empty.
pub fn materialize_jobs(spec: &SweepSpec) -> Vec<CellJob> {
    assert!(!spec.axis.is_empty(), "sweep axis has no points");
    assert!(!spec.policies.is_empty(), "sweep needs at least one policy");
    assert!(!spec.seeds.is_empty(), "sweep needs at least one seed");

    let mut jobs = Vec::new();
    for ai in 0..spec.axis.len() {
        for policy in &spec.policies {
            for &seed in &spec.seeds {
                let mut cfg = spec.base.clone();
                cfg.policy = *policy;
                cfg.seed = seed;
                // Axis after policy: policy-rewriting axes (TaylorTerms)
                // must see the job's final policy; no axis reads the
                // seed, and none of the field-setting axes is affected
                // by the order.
                spec.axis.apply(&mut cfg, ai);
                jobs.push(CellJob {
                    label: spec.axis.label(ai),
                    policy: policy.label().to_string(),
                    cfg,
                });
            }
        }
    }
    jobs
}

/// Folds the per-job outcomes of a [`materialize_jobs`] job list back
/// into aggregated `(axis point, policy)` cells. Panicked runs simply
/// contribute nothing: their cell still appears, with fewer `runs`.
pub fn aggregate_sweep(spec: &SweepSpec, out: CellsOutput) -> SweepOutput {
    let n_seeds = spec.seeds.len();
    let n_policies = spec.policies.len();
    let mut agg: Vec<Vec<CellAgg>> = vec![vec![CellAgg::default(); n_policies]; spec.axis.len()];
    for run in out.runs.iter().flatten() {
        let ai = run.index / (n_policies * n_seeds);
        let pi = (run.index / n_seeds) % n_policies;
        let a = &mut agg[ai][pi];
        a.delivery.push(run.metrics.delivery_ratio);
        a.hops.push(run.metrics.avg_hopcount);
        a.overhead.push(run.metrics.overhead_ratio);
        // Zero-delivery runs contribute no latency sample: averaging in
        // the old `0.0` sentinel would drag the cell mean toward zero.
        if let Some(lat) = run.metrics.avg_latency {
            a.latency.push(lat);
        }
        a.created.push(run.metrics.created);
        a.violations += run.violations;
    }

    let mut cells = Vec::with_capacity(spec.axis.len() * n_policies);
    for (ai, row) in agg.into_iter().enumerate() {
        let faults_label = {
            let mut cfg = spec.base.clone();
            spec.axis.apply(&mut cfg, ai);
            cfg.faults.label()
        };
        for (pi, a) in row.into_iter().enumerate() {
            cells.push(SweepCell {
                axis_index: ai,
                axis_label: spec.axis.label(ai),
                axis_value: spec.axis.value(ai),
                policy: spec.policies[pi].label().to_string(),
                delivery_ratio: a.delivery.mean().unwrap_or(0.0),
                delivery_ratio_std: a.delivery.std_dev().unwrap_or(0.0),
                avg_hopcount: a.hops.mean().unwrap_or(0.0),
                overhead_ratio: a.overhead.mean().unwrap_or(0.0),
                avg_latency: a.latency.mean(),
                created: a.created.mean().unwrap_or(0.0),
                runs: a.delivery.count() as usize,
                violations: a.violations,
                faults: faults_label.clone(),
            });
        }
    }
    SweepOutput {
        cells,
        errors: out.errors,
        totals: out.totals,
        violations: out.violations,
        resumed: out.resumed,
        executed: out.executed,
        runs: out.runs,
        checkpoint_error: out.checkpoint_error,
    }
}

/// The per-job bookkeeping every sweep executor shares: canonical config
/// JSON and hash per job, checkpoint restore (main file plus any merge
/// sources), per-cell recording (checkpoint append, event totals,
/// `CellCompleted`/`CellFailed`, progress), and the final
/// [`CellsOutput`]. Executors own only dispatch: [`run_cells`] records
/// from its pool threads, the `dtn-fleet` coordinator from its
/// supervision loop. Recording takes `&self`, so the ledger can be
/// shared across threads; callbacks run under its lock, one at a time.
pub struct CellLedger<'a> {
    jobs: &'a [CellJob],
    /// Canonical config JSON per job: the replay payload, and (hashed)
    /// the checkpoint resume key.
    configs: Vec<String>,
    hashes: Vec<String>,
    progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
    events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
    open_error: Option<CheckpointError>,
    resumed: usize,
    state: Mutex<LedgerState>,
}

struct LedgerState {
    slots: Vec<Option<Result<CellRun, CellError>>>,
    totals: EventTotals,
    completed: usize,
    sink: Option<CheckpointSink>,
}

impl<'a> CellLedger<'a> {
    /// Opens the ledger for `jobs`. With a checkpoint, finished cells are
    /// restored from it plus `merge_sources` (e.g. per-worker shard
    /// files), each emitting `CellSkipped` (and `CheckpointResumed` once
    /// on resume); the file is then rewritten and kept for appending
    /// (torn-tail repair and degradation semantics live in
    /// `open_checkpoint`).
    pub fn open(
        jobs: &'a [CellJob],
        checkpoint: Option<&SweepCheckpoint>,
        merge_sources: &[PathBuf],
        progress: Option<&'a (dyn Fn(SweepProgress) + Sync)>,
        events: Option<&'a (dyn Fn(&SweepEvent) + Sync)>,
    ) -> Self {
        let configs: Vec<String> = jobs
            .iter()
            .map(|j| serde_json::to_string(&j.cfg).expect("config serialises"))
            .collect();
        let hashes: Vec<String> = configs.iter().map(|c| hash_config_json(c)).collect();
        let mut ledger = CellLedger {
            jobs,
            configs,
            hashes,
            progress,
            events,
            open_error: None,
            resumed: 0,
            state: Mutex::new(LedgerState {
                slots: (0..jobs.len()).map(|_| None).collect(),
                totals: EventTotals::default(),
                completed: 0,
                sink: None,
            }),
        };
        let Some(ck) = checkpoint else {
            return ledger;
        };
        let restore = open_checkpoint(ck, &ledger.hashes, merge_sources);
        let state = ledger.state.get_mut();
        for (i, run) in restore.restored.into_iter().enumerate() {
            let Some(run) = run else { continue };
            state.totals.absorb(&run.fingerprint.events);
            if let Some(ev) = events {
                ev(&SweepEvent::CellSkipped {
                    index: i as u64,
                    total: jobs.len() as u64,
                    config_hash: run.config_hash.clone(),
                    label: jobs[i].label.clone(),
                    seed: jobs[i].cfg.seed,
                });
            }
            state.slots[i] = Some(Ok(run));
            state.completed += 1;
        }
        state.sink = restore.sink;
        ledger.resumed = state.completed;
        if let (true, Some(ev)) = (ck.resume, events) {
            ev(&SweepEvent::CheckpointResumed {
                path: ck.path.display().to_string(),
                cells: ledger.resumed as u64,
            });
        }
        ledger.open_error = restore.error;
        ledger
    }

    /// Canonical config hash of job `i` (the resume key).
    pub fn config_hash(&self, i: usize) -> &str {
        &self.hashes[i]
    }

    /// Canonical config JSON of job `i`.
    pub fn config(&self, i: usize) -> &str {
        &self.configs[i]
    }

    /// Whether job `i` already has an outcome (restored or recorded).
    pub fn is_recorded(&self, i: usize) -> bool {
        self.state.lock().slots[i].is_some()
    }

    /// Whether every job has an outcome.
    pub fn all_recorded(&self) -> bool {
        self.state.lock().completed == self.jobs.len()
    }

    /// Indices of the jobs without an outcome, in job order.
    pub fn pending(&self) -> Vec<usize> {
        let state = self.state.lock();
        (0..self.jobs.len())
            .filter(|&i| state.slots[i].is_none())
            .collect()
    }

    /// The successful runs recorded so far, job-indexed (right after
    /// [`CellLedger::open`]: the restored ones).
    pub fn known_runs(&self) -> Vec<Option<CellRun>> {
        let state = self.state.lock();
        state
            .slots
            .iter()
            .map(|slot| slot.as_ref().and_then(|s| s.as_ref().ok()).cloned())
            .collect()
    }

    /// A structured failure of job `i` with the given panic message.
    pub fn cell_error(&self, i: usize, panic: String) -> CellError {
        let job = &self.jobs[i];
        CellError {
            index: i,
            config_hash: self.hashes[i].clone(),
            label: job.label.clone(),
            policy: job.policy.clone(),
            seed: job.cfg.seed,
            panic,
            config: self.configs[i].clone(),
        }
    }

    /// Records the outcome of job `i`: a success is appended to the
    /// checkpoint and folded into the totals, then `CellCompleted` or
    /// `CellFailed` and the progress callback fire. The first outcome
    /// per job wins; a later one (a late result racing a retry) is
    /// dropped and `false` returned.
    pub fn record(&self, i: usize, outcome: Result<CellRun, CellError>) -> bool {
        let mut state = self.state.lock();
        if state.slots[i].is_some() {
            return false;
        }
        let total = self.jobs.len() as u64;
        match &outcome {
            Ok(run) => {
                if let Some(sink) = &mut state.sink {
                    sink.append(run);
                }
                state.totals.absorb(&run.fingerprint.events);
                if let Some(ev) = self.events {
                    ev(&SweepEvent::CellCompleted {
                        index: i as u64,
                        total,
                        config_hash: run.config_hash.clone(),
                        label: self.jobs[i].label.clone(),
                        seed: run.seed,
                        violations: run.violations,
                        duration_ms: (run.duration_secs * 1_000.0) as u64,
                    });
                }
            }
            Err(err) => {
                if let Some(ev) = self.events {
                    ev(&SweepEvent::CellFailed {
                        index: i as u64,
                        total,
                        config_hash: err.config_hash.clone(),
                        label: err.label.clone(),
                        seed: err.seed,
                        panic: err.panic.clone(),
                    });
                }
            }
        }
        state.slots[i] = Some(outcome);
        state.completed += 1;
        if let Some(progress) = self.progress {
            progress(SweepProgress {
                completed: state.completed,
                total: self.jobs.len(),
                axis_label: self.jobs[i].label.clone(),
                policy: self.jobs[i].policy.clone(),
            });
        }
        true
    }

    /// The checkpoint failure so far: the open/rewrite error, else the
    /// first append error.
    pub fn checkpoint_error(&self) -> Option<CheckpointError> {
        self.open_error.clone().or_else(|| {
            let state = self.state.lock();
            state.sink.as_ref().and_then(|s| s.error.clone())
        })
    }

    /// Assembles the job-ordered output, emitting `CheckpointFailed` if
    /// the checkpoint degraded.
    ///
    /// # Panics
    /// Panics if a job has no outcome.
    pub fn finish(self) -> CellsOutput {
        let checkpoint_error = self.checkpoint_error();
        if let (Some(err), Some(ev)) = (&checkpoint_error, self.events) {
            ev(&SweepEvent::CheckpointFailed {
                path: err.path.clone(),
                error: err.error.clone(),
            });
        }
        let state = self.state.into_inner();
        let mut runs = Vec::with_capacity(state.slots.len());
        let mut errors = Vec::new();
        let mut violations = 0u64;
        for slot in state.slots {
            match slot.expect("job not executed") {
                Ok(run) => {
                    violations += run.violations;
                    runs.push(Some(run));
                }
                Err(err) => {
                    errors.push(err);
                    runs.push(None);
                }
            }
        }
        CellsOutput {
            runs,
            errors,
            totals: state.totals,
            violations,
            resumed: self.resumed,
            executed: self.jobs.len() - self.resumed,
            checkpoint_error,
        }
    }
}

/// Runs an arbitrary list of fully-resolved scenarios (the generic core
/// behind [`run_sweep_hardened`] and the `dtn-fuzz` bin) with panic
/// isolation and optional validation + checkpoint/resume: a
/// [`CellLedger`] plus a pull loop over a crossbeam scoped-thread pool.
pub fn run_cells(jobs: Vec<CellJob>, opts: &SweepOptions<'_>) -> CellsOutput {
    let ledger = CellLedger::open(
        &jobs,
        opts.checkpoint.as_ref(),
        &[],
        opts.progress,
        opts.events,
    );
    let pending = ledger.pending();
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        opts.threads
    };
    let cursor = AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..threads.min(pending.len().max(1)) {
            scope.spawn(|_| {
                while let Some(&i) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let outcome = run_cell(
                        i,
                        &jobs[i].cfg,
                        ledger.config_hash(i),
                        opts.validate,
                        opts.world_threads,
                    )
                    .map_err(|panic| ledger.cell_error(i, panic));
                    ledger.record(i, outcome);
                }
            });
        }
    })
    // The workers themselves cannot panic (jobs run under
    // catch_unwind); only callback panics propagate here.
    .expect("sweep observer panicked");
    ledger.finish()
}

/// Runs job `index` — the one panic-isolated, timed cell runner every
/// executor (the in-process pool, `dtn-fleet` workers) calls. A panic
/// becomes `Err` with its message, so a failing cell never takes down
/// the sweep or the worker running it.
pub fn run_cell(
    index: usize,
    cfg: &ScenarioConfig,
    config_hash: &str,
    validate: bool,
    world_threads: usize,
) -> Result<CellRun, String> {
    let started = std::time::Instant::now();
    let (metrics, fingerprint, violations) = catch_unwind(AssertUnwindSafe(|| {
        execute_job(cfg, validate, world_threads)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))?;
    Ok(CellRun {
        index,
        config_hash: config_hash.to_string(),
        seed: cfg.seed,
        metrics,
        fingerprint,
        violations,
        duration_secs: started.elapsed().as_secs_f64(),
    })
}

/// Builds and runs one world — the single shard-able unit of work every
/// runner (in-process threads, `dtn-fleet` workers) executes. Returns
/// the aggregation inputs, the run's integer fingerprint, and the
/// invariant-violation count. Results are bit-identical at any
/// `world_threads` (the parallel tick phases); the knob only trades
/// wall-clock for cores.
pub fn execute_job(
    cfg: &ScenarioConfig,
    validate: bool,
    world_threads: usize,
) -> (CellMetrics, ReportFingerprint, u64) {
    let mut world = World::build(cfg);
    world.set_threads(world_threads);
    // Counting-only telemetry: no ring, no sink.
    world.attach_recorder(Recorder::enabled(0));
    if validate {
        world.enable_validation(dtn_validate::ValidateConfig::default());
    }
    let out = world.run();
    let fp = crate::replay::fingerprint(&out.report, out.recorder.totals());
    let violations = out.validation.map_or(0, |v| v.violation_count);
    (CellMetrics::from_report(&out.report), fp, violations)
}

/// Stringifies a panic payload (the two standard payload types, then a
/// generic fallback).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Loads a checkpoint file into a `config hash -> CellRun` map. Lines
/// that fail to parse are skipped: a process killed mid-write leaves a
/// truncated tail, which resuming must tolerate (that cell simply
/// re-runs). A missing file is an empty checkpoint.
pub fn load_checkpoint(path: &Path) -> HashMap<String, CellRun> {
    let mut map = HashMap::new();
    let Ok(body) = std::fs::read_to_string(path) else {
        return map;
    };
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Ok(run) = serde_json::from_str::<CellRun>(line) {
            map.insert(run.config_hash.clone(), run);
        }
    }
    map
}

#[derive(Clone, Default)]
struct CellAgg {
    delivery: OnlineStats,
    hops: OnlineStats,
    overhead: OnlineStats,
    latency: OnlineStats,
    created: OnlineStats,
    violations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;

    fn quick_spec() -> SweepSpec {
        let mut base = presets::smoke();
        base.duration_secs = 600.0;
        base.n_nodes = 20;
        SweepSpec {
            base,
            axis: SweepAxis::InitialCopies(vec![8, 16]),
            policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
            seeds: vec![1, 2],
            validate: false,
        }
    }

    fn sweep(spec: &SweepSpec, threads: usize) -> SweepOutput {
        run_sweep_hardened(
            spec,
            &SweepOptions {
                threads,
                ..SweepOptions::default()
            },
        )
    }

    #[test]
    fn axis_accessors() {
        let a = SweepAxis::paper_copies();
        assert_eq!(a.len(), 13);
        assert_eq!(a.label(0), "16");
        assert_eq!(a.value(12), 64.0);
        let b = SweepAxis::paper_buffers();
        assert_eq!(b.len(), 7);
        assert_eq!(b.label(1), "2.5");
        let g = SweepAxis::paper_gen_rates();
        assert_eq!(g.len(), 8);
        assert_eq!(g.label(0), "10-15");
        assert_eq!(g.label(7), "45-50");
        assert_eq!(g.value(0), 12.5);
        assert!(!a.is_empty());
    }

    #[test]
    fn axis_apply() {
        let mut cfg = presets::smoke();
        SweepAxis::paper_copies().apply(&mut cfg, 2);
        assert_eq!(cfg.initial_copies, 24);
        SweepAxis::paper_buffers().apply(&mut cfg, 0);
        assert_eq!(cfg.buffer_capacity, Bytes::from_mb(2.0));
        SweepAxis::paper_gen_rates().apply(&mut cfg, 3);
        assert_eq!(cfg.gen_interval, (25.0, 30.0));
    }

    #[test]
    fn sweep_runs_and_aggregates() {
        let spec = quick_spec();
        let out = sweep(&spec, 4);
        assert!(out.errors.is_empty());
        let cells = out.cells;
        assert_eq!(cells.len(), 2 * 2);
        for c in &cells {
            assert_eq!(c.runs, 2);
            assert!(c.created > 0.0);
            assert!((0.0..=1.0).contains(&c.delivery_ratio));
            assert_eq!(c.violations, 0);
        }
        // Ordering: axis-major, then policy.
        assert_eq!(cells[0].axis_label, "8");
        assert_eq!(cells[0].policy, "SprayAndWait");
        assert_eq!(cells[1].policy, "SDSRP");
        assert_eq!(cells[2].axis_label, "16");
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let spec = quick_spec();
        let a = sweep(&spec, 1);
        let b = sweep(&spec, 8);
        assert!(a.errors.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn observed_sweep_reports_progress_and_totals() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = quick_spec();
        let seen = AtomicUsize::new(0);
        let max_completed = AtomicUsize::new(0);
        let progress = |p: SweepProgress| {
            seen.fetch_add(1, Ordering::Relaxed);
            max_completed.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, 8); // 2 axis points x 2 policies x 2 seeds
            assert!(!p.axis_label.is_empty());
            assert!(!p.policy.is_empty());
        };
        let out = run_sweep_hardened(
            &spec,
            &SweepOptions {
                threads: 2,
                progress: Some(&progress),
                ..SweepOptions::default()
            },
        );
        assert_eq!(out.cells.len(), 4);
        assert_eq!(seen.load(Ordering::Relaxed), 8);
        assert_eq!(max_completed.load(Ordering::Relaxed), 8);
        assert!(out.errors.is_empty());
        assert_eq!(out.executed, 8);
        assert_eq!(out.resumed, 0);
        assert_eq!(out.runs.iter().flatten().count(), 8);
        // The aggregate totals reconcile with the aggregated reports:
        // every counted generation produced one MessageGenerated event.
        let created: f64 = out.cells.iter().map(|c| c.created * c.runs as f64).sum();
        assert_eq!(out.totals.generated, created.round() as u64);
        assert!(out.totals.contacts_up > 0);
    }

    #[test]
    fn panicking_cell_is_isolated_and_other_cells_unchanged() {
        // Axis point 1 asks for a negative buffer: every run at that
        // point fails `ScenarioConfig::validate` inside the worker.
        let clean = quick_spec();
        let mut poisoned = clean.clone();
        poisoned.axis = SweepAxis::InitialCopies(vec![8, 16, 0]);

        let good = sweep(&clean, 2);
        let out = sweep(&poisoned, 2);

        // Both seeds of both policies at the poisoned point failed,
        // as structured errors carrying the panic payload.
        assert_eq!(out.errors.len(), 4);
        for err in &out.errors {
            assert_eq!(err.label, "0");
            assert!(err.panic.contains("at least one copy"));
            assert_eq!(err.config_hash.len(), 16);
            assert!(err.config.contains("\"initial_copies\":0"));
            assert!(!err.to_string().is_empty());
        }
        // All healthy cells are returned, bit-identical to a sweep
        // that never contained the poisoned point.
        assert_eq!(out.cells.len(), 3 * 2);
        assert_eq!(&out.cells[..4], &good.cells[..]);
        // The poisoned cells still appear, with zero aggregated runs.
        for c in &out.cells[4..] {
            assert_eq!(c.runs, 0);
            assert_eq!(c.axis_label, "0");
        }
        assert_eq!(out.runs.iter().flatten().count(), 8);
    }

    #[test]
    fn validated_sweep_counts_violations() {
        let mut spec = quick_spec();
        spec.validate = true;
        let out = sweep(&spec, 2);
        assert!(out.errors.is_empty());
        // A healthy simulator has zero violations; the count is folded
        // into every cell either way.
        assert_eq!(out.violations, 0);
        assert!(out.cells.iter().all(|c| c.violations == 0));
        assert!(out.runs.iter().flatten().all(|r| r.violations == 0));
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_policies_rejected() {
        let mut spec = quick_spec();
        spec.policies.clear();
        let _ = sweep(&spec, 1);
    }

    #[test]
    fn bad_checkpoint_path_degrades_instead_of_aborting() {
        // A checkpoint path in a directory that does not exist used to
        // panic the whole sweep; now the sweep completes and surfaces a
        // structured CheckpointError.
        let spec = quick_spec();
        let bad = std::path::PathBuf::from("/nonexistent-dir-sdsrp/ck.jsonl");
        let opts = SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: bad.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        };
        let out = run_sweep_hardened(&spec, &opts);
        assert!(out.errors.is_empty());
        assert_eq!(out.executed, 8);
        let err = out.checkpoint_error.expect("open failure recorded");
        assert_eq!(err.path, bad.display().to_string());
        assert!(!err.error.is_empty());
        assert!(err.to_string().contains("uncheckpointed"));
        // The degraded sweep still produced the same results as a
        // checkpoint-free run.
        let clean = sweep(&spec, 2);
        assert_eq!(out.cells, clean.cells);
    }

    #[test]
    fn bad_checkpoint_path_emits_checkpoint_failed_event() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let spec = quick_spec();
        let seen = AtomicBool::new(false);
        let events = |ev: &SweepEvent| {
            if let SweepEvent::CheckpointFailed { path, error } = ev {
                assert!(path.contains("nonexistent"));
                assert!(!error.is_empty());
                seen.store(true, Ordering::Relaxed);
            }
        };
        let opts = SweepOptions {
            checkpoint: Some(SweepCheckpoint {
                path: "/nonexistent-dir-sdsrp/ck.jsonl".into(),
                resume: false,
            }),
            events: Some(&events),
            ..SweepOptions::default()
        };
        let _ = run_sweep_hardened(&spec, &opts);
        assert!(seen.load(Ordering::Relaxed));
    }

    #[test]
    fn cell_runs_record_wall_clock_durations() {
        let spec = quick_spec();
        let out = sweep(&spec, 2);
        for run in out.runs.iter().flatten() {
            assert!(run.duration_secs > 0.0, "duration recorded");
        }
        // Durations are observational: two runs of the same cell are
        // equal even though their wall clocks differ.
        let again = sweep(&spec, 1);
        assert_eq!(out.runs, again.runs);
        // ...and survive a JSON round trip (serde default tolerates
        // pre-duration checkpoints).
        let run = out.runs[0].clone().unwrap();
        let json = serde_json::to_string(&run).unwrap();
        assert!(json.contains("duration_secs"));
        let back: CellRun = serde_json::from_str(&json).unwrap();
        assert_eq!(back, run);
        assert_eq!(back.duration_secs, run.duration_secs);
    }

    #[test]
    fn completed_cell_events_carry_durations() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = quick_spec();
        let with_duration = AtomicUsize::new(0);
        let events = |ev: &SweepEvent| {
            if let SweepEvent::CellCompleted { .. } = ev {
                with_duration.fetch_add(1, Ordering::Relaxed);
            }
        };
        let opts = SweepOptions {
            events: Some(&events),
            ..SweepOptions::default()
        };
        let out = run_sweep_hardened(&spec, &opts);
        assert_eq!(with_duration.load(Ordering::Relaxed), 8);
        assert!(out.errors.is_empty());
    }

    #[test]
    fn materialized_jobs_match_hardened_ordering() {
        let spec = quick_spec();
        let jobs = materialize_jobs(&spec);
        assert_eq!(jobs.len(), 8);
        // Axis-major, then policy, then seed.
        assert_eq!(jobs[0].label, "8");
        assert_eq!(jobs[0].policy, "SprayAndWait");
        assert_eq!(jobs[0].cfg.seed, 1);
        assert_eq!(jobs[1].cfg.seed, 2);
        assert_eq!(jobs[2].policy, "SDSRP");
        assert_eq!(jobs[4].label, "16");
        // Aggregating a run_cells output reproduces run_sweep_hardened
        // exactly.
        let out = run_cells(jobs, &SweepOptions::default());
        let agg = aggregate_sweep(&spec, out);
        let direct = sweep(&spec, 2);
        assert_eq!(agg.cells, direct.cells);
        assert_eq!(agg.runs, direct.runs);
        assert_eq!(agg.totals, direct.totals);
    }

    #[test]
    fn taylor_axis_rewrites_only_sdsrp_policies() {
        let a = SweepAxis::paper_taylor();
        assert_eq!(a.len(), 6);
        assert_eq!(a.label(0), "exact");
        assert_eq!(a.label(3), "k=4");
        assert_eq!(a.value(0), 0.0);
        assert_eq!(a.value(5), 16.0);
        assert_eq!(a.name(), "Taylor terms k (0 = exact)");

        // SDSRP becomes the paper-configured custom variant with the
        // point's truncation; non-SDSRP policies pass through intact.
        let mut cfg = presets::smoke();
        cfg.policy = PolicyKind::Sdsrp;
        a.apply(&mut cfg, 3);
        match cfg.policy {
            PolicyKind::SdsrpCustom {
                taylor_terms,
                reject_dropped,
                gossip,
                ..
            } => {
                assert_eq!(taylor_terms, Some(4));
                assert!(reject_dropped && gossip);
            }
            other => panic!("unexpected policy {other:?}"),
        }
        // Custom variants keep their λ/gossip settings.
        cfg.policy = PolicyKind::SdsrpCustom {
            lambda: sdsrp_core::LambdaMode::Oracle(1e-3),
            taylor_terms: Some(64),
            reject_dropped: false,
            gossip: false,
        };
        a.apply(&mut cfg, 0);
        assert_eq!(
            cfg.policy,
            PolicyKind::SdsrpCustom {
                lambda: sdsrp_core::LambdaMode::Oracle(1e-3),
                taylor_terms: None,
                reject_dropped: false,
                gossip: false,
            }
        );
        cfg.policy = PolicyKind::Fifo;
        a.apply(&mut cfg, 2);
        assert_eq!(cfg.policy, PolicyKind::Fifo);
        cfg.validate();

        // End to end: the ablation sweep runs and the exact point
        // reproduces the plain-SDSRP fingerprint (same config modulo
        // the equivalent policy encoding).
        let mut base = presets::smoke();
        base.duration_secs = 400.0;
        base.n_nodes = 16;
        let spec = SweepSpec {
            base,
            axis: SweepAxis::TaylorTerms(vec![None, Some(2)]),
            policies: vec![PolicyKind::Sdsrp],
            seeds: vec![7],
            validate: false,
        };
        let out = sweep(&spec, 2);
        assert!(out.errors.is_empty());
        assert_eq!(out.cells.len(), 2);
        assert!(out.cells.iter().all(|c| c.runs == 1));
    }

    #[test]
    fn occupancy_axis_rewrites_only_congestion_policies() {
        let a = SweepAxis::occupancy_thresholds();
        assert_eq!(a.len(), 6);
        assert_eq!(a.name(), "occupancy threshold");
        assert_eq!(a.label(0), "0.5");
        assert_eq!(a.value(5), 1.0);

        // Both congestion-adaptive kinds pick up the point's threshold;
        // TieredRetention keeps its tier count.
        let mut cfg = presets::smoke();
        cfg.policy = PolicyKind::OccupancyGate { threshold: 0.8 };
        a.apply(&mut cfg, 0);
        assert_eq!(cfg.policy, PolicyKind::OccupancyGate { threshold: 0.5 });
        cfg.policy = PolicyKind::TieredRetention {
            tiers: 4,
            threshold: 0.9,
        };
        a.apply(&mut cfg, 2);
        assert_eq!(
            cfg.policy,
            PolicyKind::TieredRetention {
                tiers: 4,
                threshold: 0.7,
            }
        );
        // Non-congestion policies pass through intact (reference rows).
        cfg.policy = PolicyKind::Sdsrp;
        a.apply(&mut cfg, 1);
        assert_eq!(cfg.policy, PolicyKind::Sdsrp);
        cfg.validate();
    }

    #[test]
    fn crash_rate_axis_accessors_and_apply() {
        let a = SweepAxis::churn_rates();
        assert_eq!(a.len(), 5);
        assert_eq!(a.name(), "crash rate (/node-hour)");
        assert_eq!(a.label(1), "0.5");
        assert_eq!(a.value(4), 4.0);
        let mut cfg = presets::smoke();
        a.apply(&mut cfg, 0);
        assert!(cfg.faults.is_empty(), "rate 0 keeps the plan empty");
        a.apply(&mut cfg, 2);
        assert_eq!(cfg.faults.crash_rate_per_hour, 1.0);
        assert_eq!(cfg.faults.reboot_secs, 60.0, "unset down window defaults");
        cfg.validate();
        // An explicit template down window is respected.
        let mut cfg = presets::smoke();
        cfg.faults.reboot_secs = 120.0;
        a.apply(&mut cfg, 2);
        assert_eq!(cfg.faults.reboot_secs, 120.0);
    }

    #[test]
    fn validated_churn_sweep_holds_invariants_and_labels_faults() {
        // The acceptance sweep: crashes and blackouts injected at every
        // non-zero axis point, full validation on — the fault ledger
        // must keep every invariant green.
        let mut spec = quick_spec();
        spec.base.faults.blackout_rate_per_hour = 4.0;
        spec.base.faults.blackout_secs = 30.0;
        spec.axis = SweepAxis::CrashRate(vec![0.0, 2.0, 6.0]);
        spec.validate = true;
        let out = sweep(&spec, 4);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!(out.violations, 0, "churn broke an invariant");
        assert_eq!(out.cells.len(), 3 * 2);
        assert!(out.cells[0].faults.contains("blackout=4/h+30s"));
        assert!(!out.cells[0].faults.contains("crash="));
        assert!(out.cells[2].faults.contains("crash=2/h+60s"));
        // Faults actually fired: the injected-fault events show up in
        // the folded totals.
        assert!(out.totals.node_crashes > 0);
        assert!(out.totals.blackouts > 0);
    }
}
