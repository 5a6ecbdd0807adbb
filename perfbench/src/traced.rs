//! The traced run: per-layer metrics, each layer timed from outside by
//! the spans this benchmark puts around calls into public functions.
//!
//! * world: `World::build`, every one-tick `World::step_until` window;
//! * policy: the [`TimedPolicy`](crate::probe::TimedPolicy) wrapper on
//!   every node of the real run;
//! * mobility, grid, contact, pool: the exact replay in
//!   [`crate::replay`];
//! * sweep: the executor entry point `run_sweep_hardened`, over the
//!   workload's world under the paper's four policies.
//!
//! Three replay-fidelity gates fail the run on mismatch: the replay's
//! contact ups equal the world's, the wrapped run's fingerprint equals
//! the plain one, and the records the policies adopted equal the
//! recorder's `gossip_records`.

use crate::drive::{
    build_world, calib_ms, golden_check, paper_four_sweep, step_world, Stepped, SWEEP_WORKERS,
};
use crate::outcome::{same_fingerprint, Budget, Outcome};
use crate::probe::PolicyStats;
use crate::replay::{check_fidelity, replay, ReplayStats};
use crate::stats::median;
use dtn_sim::config::ScenarioConfig;
use dtn_sim::sweep::{materialize_jobs, run_sweep_hardened, SweepOptions};
use dtn_validate::ReportFingerprint;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// One policy-wrapped world run and what its probes counted.
struct TracedWorld {
    run: Stepped,
    stats: Arc<PolicyStats>,
}

impl TracedWorld {
    /// Step time outside policy spans and probe work.
    fn step_self_s(&self) -> f64 {
        let ns = self.stats.span_ns() + self.stats.probe_ns.load(Relaxed);
        self.run.run_s() - ns as f64 * 1e-9
    }
}

/// Runs `cfg` with every policy wrapped, gated on the plain run's
/// fingerprint and on the adopted-records count.
fn traced_world(cfg: &ScenarioConfig, plain: &ReportFingerprint) -> Result<TracedWorld, String> {
    let stats = Arc::new(PolicyStats::default());
    let run = step_world(build_world(cfg, 1, Some(&stats)), cfg, true);
    if &run.fingerprint != plain {
        return Err(format!(
            "the policy-wrapped run differs from the plain run:\n{}",
            plain.diff(&run.fingerprint).join("\n")
        ));
    }
    let adopted = stats.records_adopted.load(Relaxed);
    let recorded = run.fingerprint.events.gossip_records;
    if adopted != recorded {
        return Err(format!(
            "policies adopted {adopted} gossip records, the recorder counted {recorded}"
        ));
    }
    Ok(TracedWorld { run, stats })
}

/// Sweep-layer metrics of one executor call that took `wall` seconds on
/// `workers` workers, from the durations of its cells.
fn sweep_metrics(out: &mut Outcome, wall: f64, cell_s: &[f64], workers: usize, errors: usize) {
    let busy: f64 = cell_s.iter().sum();
    let (p50, max) = if cell_s.is_empty() {
        (0.0, 0.0)
    } else {
        (median(cell_s), cell_s.iter().cloned().fold(0.0, f64::max))
    };
    out.put("sweep.cell_s_p50", p50, "s");
    out.put("sweep.cell_s_max", max, "s");
    out.put(
        "sweep.worker_idle_frac",
        1.0 - busy / (workers as f64 * wall),
        "ratio",
    );
    out.put("sweep.overhead_s", wall - busy / workers as f64, "s");
    out.put("sweep.cell_errors", errors as f64, "count");
}

/// World, replay-layer, policy and tracing metrics. Times are medians
/// over the repetitions; counts, which every repetition repeats, come
/// from the last one.
fn put_layers(
    out: &mut Outcome,
    plain_s: &[f64],
    traced: &[TracedWorld],
    replays: &[ReplayStats],
    calib_ms: &[f64],
) {
    let med = |f: &dyn Fn(&TracedWorld) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let last = &traced[traced.len() - 1];
    let count = |a: &std::sync::atomic::AtomicU64| a.load(Relaxed) as f64;
    let plain = median(plain_s);

    out.put("world.events", last.run.events as f64, "count");
    out.put(
        "world.us_per_event",
        plain / last.run.events.max(1) as f64 * 1e6,
        "us",
    );
    out.put("world.step_self_s", med(&|t| t.step_self_s()), "s");
    out.put("world.live_links_mean", last.run.live_links_mean, "count");
    out.put(
        "world.buffered_copies_mean",
        last.run.buffered_copies_mean,
        "count",
    );

    let r = median_replay(replays);
    out.put("mobility.sample_s", r.sample_s, "s");
    out.put("mobility.sample_2t_s", r.sample_2t_s, "s");
    out.put("mobility.samples", r.samples as f64, "count");
    out.put("grid.rebuild_s", r.rebuild_s, "s");
    out.put("grid.scan_s", r.scan_s, "s");
    out.put("grid.scan_2t_s", r.scan_2t_s, "s");
    out.put("grid.pairs_in_range", r.pairs_in_range as f64, "count");
    out.put("grid.cells_per_node", r.cells_per_node, "ratio");
    out.put("contact.update_s", r.update_s, "s");
    out.put("contact.diff_s", r.diff_s(), "s");
    out.put("contact.ups", r.ups as f64, "count");
    out.put("contact.downs", r.downs as f64, "count");
    out.put("contact.change_ratio", r.change_ratio(), "ratio");
    out.put("pool.scaling_2t", r.scaling_2t(), "x");

    let secs =
        |f: fn(&PolicyStats) -> &std::sync::atomic::AtomicU64| med(&|t| count(f(&t.stats)) * 1e-9);
    let st = &last.stats;
    let offered = count(&st.records_offered);
    let adopted = count(&st.records_adopted);
    out.put("policy.rank_s", secs(|s| &s.rank_ns), "s");
    out.put("policy.rank_calls", count(&st.rank_calls), "count");
    out.put("policy.accepts_s", secs(|s| &s.accepts_ns), "s");
    out.put("policy.accepts_calls", count(&st.accepts_calls), "count");
    out.put("policy.gossip_export_s", secs(|s| &s.export_ns), "s");
    out.put("policy.gossip_import_s", secs(|s| &s.import_ns), "s");
    out.put("policy.gossip_bytes", count(&st.gossip_bytes), "bytes");
    out.put(
        "policy.gossip_bytes_max",
        count(&st.gossip_bytes_max),
        "bytes",
    );
    out.put("policy.gossip_records_offered", offered, "count");
    out.put("policy.gossip_records_adopted", adopted, "count");
    out.put(
        "policy.gossip_useful_ratio",
        if offered > 0.0 {
            adopted / offered
        } else {
            0.0
        },
        "ratio",
    );
    let cache = last.run.priority;
    out.put(
        "priority.requests",
        (cache.hits + cache.incremental + cache.misses) as f64,
        "count",
    );
    out.put("priority.hit_rate", cache.hit_rate(), "ratio");
    out.put(
        "trace.overhead_frac",
        med(&|t| t.run.run_s()) / plain - 1.0,
        "ratio",
    );
    out.put("host.calib_ms", median(calib_ms), "ms");
}

/// Element-wise median of replay times over repetitions; counts are
/// the same in every repetition.
fn median_replay(reps: &[ReplayStats]) -> ReplayStats {
    let m = |f: fn(&ReplayStats) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    ReplayStats {
        sample_s: m(|r| r.sample_s),
        sample_2t_s: m(|r| r.sample_2t_s),
        rebuild_s: m(|r| r.rebuild_s),
        scan_s: m(|r| r.scan_s),
        scan_2t_s: m(|r| r.scan_2t_s),
        update_s: m(|r| r.update_s),
        ..reps[0].clone()
    }
}

/// A single-world workload. Each repetition runs the world plain and
/// then wrapped, and replays its contact process; the world's config
/// then goes once through the sweep executor under the paper's four
/// policies.
pub fn single_world(cfg: &ScenarioConfig, root: &Path, budget: &Budget) -> Option<Outcome> {
    let mut out = Outcome::default();
    out.checks.attempt("golden headline", || golden_check(root));
    let mut reference = None;
    let (mut calib, mut plain_s, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut replays = Vec::new();
    let (mut reps, mut longest) = (0, 0.0f64);
    while budget.another(reps, 1, longest) {
        let start = Instant::now();
        calib.push(calib_ms());
        let plain = out.checks.attempt(&format!("rep {reps}: plain run"), || {
            let run = step_world(build_world(cfg, 1, None), cfg, false);
            same_fingerprint(&mut reference, &run.fingerprint)?;
            Ok(run)
        });
        let Some(plain) = plain else { break };
        plain_s.push(plain.run_s());
        let fp = plain.fingerprint;
        if let Some(t) = out.checks.attempt(&format!("rep {reps}: traced run"), || {
            traced_world(cfg, &fp)
        }) {
            println!(
                "rep {reps}: plain {:.4} s, traced {:.4} s",
                plain_s[plain_s.len() - 1],
                t.run.run_s()
            );
            traced.push(t);
        }
        if let Some(r) = out.checks.attempt(&format!("rep {reps}: replay"), || {
            let r = replay(cfg)?;
            check_fidelity(r.ups, fp.events.contacts_up)?;
            Ok(r)
        }) {
            replays.push(r);
        }
        reps += 1;
        longest = longest.max(start.elapsed().as_secs_f64());
    }

    // The sweep layer: the world under the paper's four policies through
    // the executor; the cell with the workload's own policy must
    // reproduce the plain run.
    let spec = paper_four_sweep(cfg);
    let jobs = materialize_jobs(&spec);
    let start = Instant::now();
    let swept = run_sweep_hardened(
        &spec,
        &SweepOptions {
            threads: SWEEP_WORKERS,
            world_threads: 1,
            ..SweepOptions::default()
        },
    );
    let wall = start.elapsed().as_secs_f64();
    let mut failed = swept.errors.len() as u64;
    for e in &swept.errors {
        eprintln!("FAILED {e}");
    }
    for run in swept.runs.iter().flatten() {
        if jobs[run.index].cfg.policy == cfg.policy {
            if let Err(e) = same_fingerprint(&mut reference, &run.fingerprint) {
                eprintln!("FAILED sweep cell #{}: {e}", run.index);
                failed += 1;
            }
        }
    }
    out.checks.record(jobs.len() as u64, failed);
    println!("sweep of {} cells in {wall:.4} s", jobs.len());

    if traced.is_empty() || replays.is_empty() {
        eprintln!("no successful traced repetition; no result");
        return None;
    }
    let cell_s: Vec<f64> = swept
        .runs
        .iter()
        .flatten()
        .map(|r| r.duration_secs)
        .collect();
    put_layers(&mut out, &plain_s, &traced, &replays, &calib);
    sweep_metrics(&mut out, wall, &cell_s, SWEEP_WORKERS, swept.errors.len());
    Some(out)
}
