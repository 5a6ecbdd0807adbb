//! `dtn-bench` — the macro-benchmark harness that seeds the
//! `BENCH_*.json` performance trajectory.
//!
//! Times three macro scenarios end-to-end (single-threaded worlds):
//!
//! * **headline** — the pinned golden scenario (smoke preset, SDSRP,
//!   seed 42, 3600 s), exactly the config behind
//!   `tests/golden/headline_smoke.json`;
//! * **buffer-pressure** — 80 nodes, 5400 s, one 100 kB message every
//!   3–5 s into 1.5 MB buffers (~15 residents per node): the paper's
//!   small-buffer regime where the per-contact drop ranking dominates
//!   runtime;
//! * **contact-dense** — 120 nodes in the smoke playground: contact
//!   churn (and therefore send scheduling + λ updates) dominates.
//!
//! Each scenario also runs with the SDSRP priority cache disabled (the
//! pre-optimisation algorithm) so every report carries its own
//! cached-vs-uncached speedup, and a sweep-scaling section times the
//! buffer-pressure cell batch on the in-process thread pool (baseline)
//! and on the `dtn-fleet` coordinator at 1/2/4 subprocess workers,
//! asserting every fleet row is bit-identical to the baseline. A
//! thread-scaling section runs one large world (10k nodes; 2k with
//! `--quick`) with the parallel tick phases on 1/2/4/8 intra-run
//! threads, gating on bit-identical fingerprints across all counts.
//! A Taylor-ablation section times the exact Eq. 10 priority against
//! the cheapest Eq. 13 truncation (`k = 1`) on the buffer-pressure
//! scenario, next to the analytic worst-case relative error of the
//! truncation (swept over a dense delivery-probability grid). Deeper
//! truncations gave the same delivery and drops as `k = 1` there, and
//! `tests/sdsrp_behaviour.rs` pins that every depth decides alike on a
//! congested smoke scenario; the error-vs-`k` curve of Fig. 4 is the
//! `fig4` binary's analytic table.
//! A congestion section runs the paper's four baseline policies plus
//! the two congestion-adaptive variants (occupancy-gated admission,
//! tiered retention) on the buffer-pressure scenario, recording
//! delivery, latency, drops and incoming rejects per policy.
//! The whole report — wall clock, contacts/sec, events/sec, peak RSS,
//! config hash, cache hit rates, fingerprints — is written as
//! `BENCH_sdsrp.json` (schema `dtn-bench/v6`; see EXPERIMENTS.md
//! §Benchmarking for how to read and compare trajectories).
//!
//! Correctness gate: the headline fingerprint is compared against the
//! committed golden snapshot — at one world thread and again at four —
//! and the process exits non-zero on any mismatch, so a perf "win"
//! that changes behaviour cannot land a trajectory point.
//!
//! ```text
//! cargo run --release -p dtn-bench --bin dtn-bench            # full
//! cargo run --release -p dtn-bench --bin dtn-bench -- --quick # CI smoke
//! dtn-bench [--quick] [--out FILE] [--iters N]
//! ```

use dtn_fleet::{locate_worker, run_fleet, FleetOptions, SubprocessTransport};
use dtn_sim::config::{presets, PolicyKind, ScenarioConfig};
use dtn_sim::replay::fingerprint;
use dtn_sim::sweep::{run_cells, CellJob, CellRun, SweepOptions};
use dtn_sim::world::World;
use dtn_telemetry::{hash_config_json, peak_rss_bytes, Recorder};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One timed macro-scenario entry in the JSON report.
#[derive(Serialize)]
struct ScenarioResult {
    name: String,
    config_hash: String,
    sim_duration_secs: f64,
    n_nodes: usize,
    /// Best-of-`iters` wall clock with the priority cache on.
    wall_clock_secs: f64,
    /// Best-of-`iters` wall clock with the cache off (the pre-PR
    /// per-contact recompute path).
    wall_clock_uncached_secs: f64,
    /// `wall_clock_uncached_secs / wall_clock_secs`.
    speedup: f64,
    events_processed: u64,
    events_per_sec: f64,
    contacts_up: u64,
    contacts_per_sec: f64,
    /// Same-instant cache hits (repeated rankings inside one contact).
    cache_hits: u64,
    /// Cross-instant incremental refreshes: only the cheap TTL tail of
    /// Eq. 10 recomputed, everything else reused from the entry.
    cache_incremental: u64,
    /// Full rebuilds (first sight, or an Eq. 10 input changed).
    cache_misses: u64,
    /// `(hits + incremental) / (hits + incremental + misses)`.
    cache_hit_rate: f64,
    /// Process-wide peak RSS after this scenario (monotone high-water
    /// mark — see [`dtn_telemetry::peak_rss_bytes`]).
    peak_rss_bytes: Option<u64>,
    /// Canonical fingerprint JSON of the cached run; the uncached run
    /// must render identically or the harness aborts.
    fingerprint: String,
}

/// One sweep-scaling entry: the buffer-pressure cell batch on `workers`
/// workers of the given transport (`"in-process"` = `run_cells` thread
/// pool, `"subprocess"` = `dtn-fleet` coordinator with stdio
/// `dtn-fleet-worker` children).
#[derive(Serialize)]
struct ScalingResult {
    workers: usize,
    transport: String,
    cells: usize,
    wall_clock_secs: f64,
    events_total: u64,
    events_per_sec: f64,
    /// Every per-cell result (metrics + fingerprint) is bit-identical
    /// to the in-process baseline row. A scaling "win" that changes
    /// behaviour fails the harness.
    fingerprints_match_baseline: bool,
}

/// One intra-run thread-scaling entry: the `parallel-scale` world run
/// to completion with the parallel tick phases (movement sampling,
/// contact-grid query) on `threads` pool threads.
#[derive(Serialize)]
struct ThreadScalingResult {
    threads: usize,
    n_nodes: usize,
    sim_duration_secs: f64,
    wall_clock_secs: f64,
    events_processed: u64,
    events_per_sec: f64,
    /// `wall_clock(1 thread) / wall_clock(this row)`.
    speedup_vs_serial: f64,
    /// The run's fingerprint rendered identically to the 1-thread row.
    /// Any divergence aborts the harness: parallelism must be invisible
    /// in results.
    fingerprint_matches_serial: bool,
}

/// One Fig. 4 ablation row: Eq. 13 truncated to `terms` Taylor terms
/// (`0` = the exact closed form) on the buffer-pressure scenario.
#[derive(Serialize)]
struct TaylorAblationResult {
    /// Taylor truncation depth; `0` means exact Eq. 10.
    terms: usize,
    /// Analytic worst-case relative error of the truncated priority
    /// against the exact closed form, over a dense `pr` grid.
    max_rel_err: f64,
    wall_clock_secs: f64,
    delivery_ratio: f64,
    buffer_drops: u64,
}

/// One congestion-section row: a buffer policy on the buffer-pressure
/// scenario — the paper's four baselines plus the two
/// congestion-adaptive variants (occupancy-gated admission and tiered
/// retention).
#[derive(Serialize)]
struct CongestionResult {
    policy: String,
    wall_clock_secs: f64,
    delivery_ratio: f64,
    /// Mean delivery latency in seconds; `null` when no run delivered.
    avg_latency_secs: Option<f64>,
    buffer_drops: u64,
    incoming_rejects: u64,
}

/// Top-level `BENCH_sdsrp.json` schema.
#[derive(Serialize)]
struct BenchReport {
    schema: String,
    quick: bool,
    iters: usize,
    threads_available: usize,
    /// Headline fingerprint matches the committed golden at one world
    /// thread AND at four.
    golden_fingerprint_ok: bool,
    scenarios: Vec<ScenarioResult>,
    sweep_scaling: Vec<ScalingResult>,
    thread_scaling: Vec<ThreadScalingResult>,
    taylor_ablation: Vec<TaylorAblationResult>,
    congestion: Vec<CongestionResult>,
    peak_rss_bytes: Option<u64>,
}

/// The exact pinned config behind `tests/golden/headline_smoke.json`
/// (keep in sync with `tests/golden_headline.rs`).
fn headline_cfg() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.duration_secs = 3_600.0;
    cfg
}

/// Small buffers + fast generation: drop ranking dominates. 100 kB
/// messages into 1.5 MB buffers give ~15 residents per node, so every
/// overflow ranks a real population instead of the 3 residents the
/// 0.5 MB smoke sizing allowed.
fn buffer_pressure_cfg(quick: bool) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "buffer-pressure".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 80;
    // The quick variant still needs enough simulated time for the
    // dropped lists to grow: the optimised-vs-reference gap is mostly
    // the streaming gossip merge, whose win scales with list size (and
    // is what the CI `speedup > 1.0` gate measures).
    cfg.duration_secs = if quick { 2_400.0 } else { 5_400.0 };
    cfg.gen_interval = (3.0, 5.0);
    cfg.message_size = dtn_core::units::Bytes::new(100_000);
    cfg.buffer_capacity = dtn_core::units::Bytes::new(1_500_000);
    cfg
}

/// Many nodes in the smoke playground: contact churn dominates.
fn contact_dense_cfg(quick: bool) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "contact-dense".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 120;
    cfg.duration_secs = if quick { 900.0 } else { 3_600.0 };
    cfg
}

/// Large world at smoke-playground node density where the parallel
/// phases (movement sampling + grid query) dominate the tick.
fn parallel_scale_cfg(quick: bool) -> ScenarioConfig {
    use dtn_mobility::random_waypoint::RandomWaypointConfig;
    let mut cfg = presets::smoke();
    cfg.name = "parallel-scale".into();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = if quick { 2_000 } else { 10_000 };
    // Keep density constant (40 nodes per 2000 x 1500 m) so contact
    // rates per node match the smoke playground.
    let scale = (cfg.n_nodes as f64 / 40.0).sqrt();
    cfg.mobility = dtn_mobility::MobilityConfig::RandomWaypoint(RandomWaypointConfig {
        area: dtn_core::geometry::Rect::from_size(2_000.0 * scale, 1_500.0 * scale),
        min_speed: 2.0,
        max_speed: 2.0,
        min_pause: 0.0,
        max_pause: 0.0,
    });
    cfg.duration_secs = if quick { 120.0 } else { 600.0 };
    cfg.gen_interval = (30.0, 40.0);
    cfg
}

/// Times the `parallel-scale` world once per thread count, gating on
/// bit-identical fingerprints across every row.
fn bench_thread_scaling(quick: bool) -> Vec<ThreadScalingResult> {
    let cfg = parallel_scale_cfg(quick);
    let mut rows: Vec<ThreadScalingResult> = Vec::new();
    let mut serial_wall = 0.0;
    let mut serial_fp = String::new();
    for threads in [1usize, 2, 4, 8] {
        let mut world = World::build(&cfg);
        world.set_threads(threads);
        world.attach_recorder(Recorder::enabled(16));
        let started = Instant::now();
        let events = world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
        let wall = started.elapsed().as_secs_f64();
        let totals = world.recorder().totals().clone();
        let fp = fingerprint(world.report(), &totals).to_canonical_json();
        if threads == 1 {
            serial_wall = wall;
            serial_fp = fp.clone();
        }
        let matches = fp == serial_fp;
        if !matches {
            eprintln!(
                "FATAL: parallel-scale fingerprint diverged at {threads} thread(s):\n  serial: {serial_fp}\n  now:    {fp}"
            );
            std::process::exit(1);
        }
        eprintln!(
            "thread-scaling   {threads:>2} world thread(s): {} nodes, {:7.3}s wall ({:.2}x vs serial)",
            cfg.n_nodes,
            wall,
            serial_wall / wall,
        );
        rows.push(ThreadScalingResult {
            threads,
            n_nodes: cfg.n_nodes,
            sim_duration_secs: cfg.duration_secs,
            wall_clock_secs: wall,
            events_processed: events,
            events_per_sec: events as f64 / wall,
            speedup_vs_serial: serial_wall / wall,
            fingerprint_matches_serial: matches,
        });
    }
    rows
}

/// Runs `cfg` once to completion on a fresh world; returns wall clock,
/// events processed, contact count, cache counters and the fingerprint.
fn run_once(
    cfg: &ScenarioConfig,
    cache: bool,
) -> (
    f64,
    u64,
    u64,
    dtn_buffer::policy::PriorityCacheStats,
    String,
) {
    let mut world = World::build(cfg);
    world.set_priority_cache(cache);
    world.attach_recorder(Recorder::enabled(16));
    let started = Instant::now();
    let events = world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
    let wall = started.elapsed().as_secs_f64();
    let totals = world.recorder().totals().clone();
    let stats = world.priority_cache_stats();
    let fp = fingerprint(world.report(), &totals).to_canonical_json();
    (wall, events, totals.contacts_up, stats, fp)
}

/// Benchmarks one scenario: best-of-`iters` cached and uncached runs,
/// asserting their fingerprints are bit-identical.
fn bench_scenario(cfg: &ScenarioConfig, iters: usize) -> ScenarioResult {
    let mut cached_best = f64::INFINITY;
    let mut uncached_best = f64::INFINITY;
    let mut events = 0;
    let mut contacts = 0;
    let mut stats = dtn_buffer::policy::PriorityCacheStats::default();
    let mut fp_cached = String::new();
    for _ in 0..iters {
        let (wall, ev, cu, st, fp) = run_once(cfg, true);
        cached_best = cached_best.min(wall);
        (events, contacts, stats, fp_cached) = (ev, cu, st, fp);
    }
    let mut fp_uncached = String::new();
    for _ in 0..iters {
        let (wall, _, _, _, fp) = run_once(cfg, false);
        uncached_best = uncached_best.min(wall);
        fp_uncached = fp;
    }
    if fp_cached != fp_uncached {
        eprintln!(
            "FATAL: {} fingerprint diverged between cached and uncached paths:\n  cached:   {fp_cached}\n  uncached: {fp_uncached}",
            cfg.name
        );
        std::process::exit(1);
    }
    let config_json = serde_json::to_string(cfg).expect("config serialises");
    eprintln!(
        "{:<16} cached {:7.3}s  uncached {:7.3}s  speedup {:.2}x  ({} events, {} contacts, {:.1}% cache hits)",
        cfg.name,
        cached_best,
        uncached_best,
        uncached_best / cached_best,
        events,
        contacts,
        100.0 * stats.hit_rate(),
    );
    ScenarioResult {
        name: cfg.name.clone(),
        config_hash: hash_config_json(&config_json),
        sim_duration_secs: cfg.duration_secs,
        n_nodes: cfg.n_nodes,
        wall_clock_secs: cached_best,
        wall_clock_uncached_secs: uncached_best,
        speedup: uncached_best / cached_best,
        events_processed: events,
        events_per_sec: events as f64 / cached_best,
        contacts_up: contacts,
        contacts_per_sec: contacts as f64 / cached_best,
        cache_hits: stats.hits,
        cache_incremental: stats.incremental,
        cache_misses: stats.misses,
        cache_hit_rate: stats.hit_rate(),
        peak_rss_bytes: peak_rss_bytes(),
        fingerprint: fp_cached,
    }
}

/// The buffer-pressure cell batch (4 seeds x the paper's four
/// policies) every sweep-scaling row runs.
fn scaling_jobs(quick: bool) -> Vec<CellJob> {
    let seeds: &[u64] = if quick { &[1, 2] } else { &[1, 2, 3, 4] };
    seeds
        .iter()
        .flat_map(|&seed| {
            PolicyKind::paper_four().into_iter().map(move |policy| {
                let mut cfg = buffer_pressure_cfg(quick);
                cfg.policy = policy;
                cfg.seed = seed;
                CellJob {
                    label: format!("seed{seed}"),
                    policy: policy.label().to_string(),
                    cfg,
                }
            })
        })
        .collect()
}

/// Times the cell batch on the in-process `run_cells` thread pool; the
/// returned runs are the fingerprint baseline for the fleet rows.
fn bench_scaling_inprocess(quick: bool, threads: usize) -> (ScalingResult, Vec<Option<CellRun>>) {
    let jobs = scaling_jobs(quick);
    let cells = jobs.len();
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let started = Instant::now();
    let out = run_cells(jobs, &opts);
    let wall = started.elapsed().as_secs_f64();
    if !out.errors.is_empty() {
        for err in &out.errors {
            eprintln!("{err}");
        }
        std::process::exit(1);
    }
    let events_total = out.totals.total();
    eprintln!(
        "sweep-scaling    {threads:>2} in-process thread(s): {cells} cells in {wall:7.3}s ({:.0} events/s)",
        events_total as f64 / wall
    );
    let row = ScalingResult {
        workers: threads,
        transport: "in-process".into(),
        cells,
        wall_clock_secs: wall,
        events_total,
        events_per_sec: events_total as f64 / wall,
        fingerprints_match_baseline: true,
    };
    (row, out.runs)
}

/// Times the cell batch through the `dtn-fleet` coordinator on
/// `workers` subprocess workers and checks the per-cell results are
/// bit-identical to the in-process baseline.
fn bench_scaling_fleet(
    quick: bool,
    workers: usize,
    worker_bin: &Path,
    baseline: &[Option<CellRun>],
) -> ScalingResult {
    let jobs = scaling_jobs(quick);
    let cells = jobs.len();
    let transport = SubprocessTransport::new(worker_bin.to_path_buf());
    let opts = FleetOptions {
        workers,
        ..FleetOptions::default()
    };
    let started = Instant::now();
    let run = run_fleet(&jobs, &transport, &opts).unwrap_or_else(|e| {
        eprintln!("FATAL: fleet scaling row ({workers} subprocess workers) failed: {e}");
        std::process::exit(1);
    });
    let wall = started.elapsed().as_secs_f64();
    if !run.output.errors.is_empty() {
        for err in &run.output.errors {
            eprintln!("{err}");
        }
        std::process::exit(1);
    }
    // CellRun equality covers metrics + fingerprint (duration excluded),
    // so this is the same bit-identical gate the fleet tests enforce.
    let fingerprints_match_baseline = run.output.runs == baseline;
    if !fingerprints_match_baseline {
        eprintln!(
            "FATAL: fleet scaling row ({workers} subprocess workers) diverged from the in-process baseline"
        );
    }
    let events_total = run.output.totals.total();
    eprintln!(
        "sweep-scaling    {workers:>2} subprocess worker(s): {cells} cells in {wall:7.3}s ({:.0} events/s)",
        events_total as f64 / wall
    );
    ScalingResult {
        workers,
        transport: "subprocess".into(),
        cells,
        wall_clock_secs: wall,
        events_total,
        events_per_sec: events_total as f64 / wall,
        fingerprints_match_baseline,
    }
}

/// Analytic worst-case relative error of the `k`-term Eq. 13 Taylor
/// priority against the exact Eq. 11 closed form, swept over a dense
/// delivery-probability grid (`pt = 0`, one holder — both scale the
/// two forms identically, so they cancel in the relative error).
fn taylor_max_rel_err(terms: usize) -> f64 {
    use sdsrp_core::priority::PriorityModel;
    let mut worst = 0.0f64;
    for i in 1..1_000 {
        let pr = i as f64 / 1_000.0;
        let exact = PriorityModel::priority_from_probabilities(0.0, pr, 1);
        let approx = PriorityModel::priority_taylor(0.0, pr, 1, terms);
        if exact > 0.0 {
            worst = worst.max((exact - approx).abs() / exact);
        }
    }
    worst
}

/// The Fig. 4 timing rows: the exact closed form and the `k = 1`
/// truncation on the buffer-pressure scenario — analytic error next to
/// measured wall clock and delivery ratio. Deeper truncations are not
/// run: on this scenario they gave the same delivery and drops as
/// `k = 1`.
fn bench_taylor_ablation(quick: bool) -> Vec<TaylorAblationResult> {
    [0, 1]
        .into_iter()
        .map(|terms| {
            let mut cfg = buffer_pressure_cfg(quick);
            cfg.policy = PolicyKind::SdsrpCustom {
                lambda: sdsrp_core::LambdaMode::Online {
                    prior: 1.0 / 2000.0,
                    min_samples: 5,
                },
                taylor_terms: (terms > 0).then_some(terms),
                reject_dropped: true,
                gossip: true,
            };
            let mut world = World::build(&cfg);
            world.attach_recorder(Recorder::enabled(16));
            let started = Instant::now();
            world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
            let wall = started.elapsed().as_secs_f64();
            let report = world.report();
            let max_rel_err = if terms == 0 {
                0.0
            } else {
                taylor_max_rel_err(terms)
            };
            eprintln!(
                "taylor-ablation  k={:<2} ({}): {:7.3}s wall, delivery {:.4}, max rel err {:.2e}",
                terms,
                if terms == 0 { "exact" } else { "taylor" },
                wall,
                report.delivery_ratio(),
                max_rel_err,
            );
            TaylorAblationResult {
                terms,
                max_rel_err,
                wall_clock_secs: wall,
                delivery_ratio: report.delivery_ratio(),
                buffer_drops: report.buffer_drops(),
            }
        })
        .collect()
}

/// The congestion section: every paper baseline plus the two
/// congestion-adaptive variants on the buffer-pressure scenario, where
/// admission throttling actually has something to throttle. One run per
/// policy (the section tracks behaviour, not best-of-N timing noise).
fn bench_congestion(quick: bool) -> Vec<CongestionResult> {
    let mut lineup = PolicyKind::paper_four().to_vec();
    lineup.push(PolicyKind::OccupancyGate { threshold: 0.8 });
    lineup.push(PolicyKind::TieredRetention {
        tiers: 4,
        threshold: 0.9,
    });
    lineup
        .into_iter()
        .map(|policy| {
            let mut cfg = buffer_pressure_cfg(quick);
            cfg.policy = policy;
            let started = Instant::now();
            let report = World::build(&cfg).run().report;
            let wall = started.elapsed().as_secs_f64();
            eprintln!(
                "congestion       {:<16}: {:7.3}s wall, delivery {:.4}, drops {}, rejects {}",
                policy.label(),
                wall,
                report.delivery_ratio(),
                report.buffer_drops(),
                report.incoming_rejects(),
            );
            CongestionResult {
                policy: policy.label().to_string(),
                wall_clock_secs: wall,
                delivery_ratio: report.delivery_ratio(),
                avg_latency_secs: report.avg_latency(),
                buffer_drops: report.buffer_drops(),
                incoming_rejects: report.incoming_rejects(),
            }
        })
        .collect()
}

/// Re-runs the pinned headline scenario on four world threads and
/// checks the fingerprint still matches the committed golden — the
/// incremental cache must be invisible under the parallel tick phases.
fn golden_check_parallel() -> bool {
    let cfg = headline_cfg();
    let mut world = World::build(&cfg);
    world.set_threads(4);
    world.attach_recorder(Recorder::enabled(16));
    world.step_until(dtn_core::time::SimTime::from_secs(cfg.duration_secs));
    let totals = world.recorder().totals().clone();
    let fp = fingerprint(world.report(), &totals).to_canonical_json();
    let ok = golden_check(&fp);
    if !ok {
        eprintln!("FATAL: headline fingerprint diverged from golden at 4 world threads");
    }
    ok
}

/// Re-runs the pinned headline scenario and compares its canonical
/// fingerprint against the committed golden snapshot.
fn golden_check(headline_fp: &str) -> bool {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/headline_smoke.json");
    match std::fs::read_to_string(&path) {
        Ok(committed) => {
            let ok = committed == headline_fp;
            if !ok {
                eprintln!(
                    "FATAL: headline fingerprint drifted from {}:\n  golden: {committed}\n  bench:  {headline_fp}",
                    path.display()
                );
            }
            ok
        }
        Err(e) => {
            eprintln!("FATAL: cannot read golden snapshot {}: {e}", path.display());
            false
        }
    }
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_sdsrp.json".to_string();
    let mut iters: Option<usize> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--iters" => {
                i += 1;
                iters = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--iters needs a count"),
                );
            }
            other => {
                eprintln!("unknown argument {other:?} (usage: dtn-bench [--quick] [--out FILE] [--iters N])");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let iters = iters.unwrap_or(if quick { 1 } else { 3 });
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());

    let scenarios: Vec<ScenarioResult> = [
        headline_cfg(),
        buffer_pressure_cfg(quick),
        contact_dense_cfg(quick),
    ]
    .iter()
    .map(|cfg| bench_scenario(cfg, iters))
    .collect();

    let golden_fingerprint_ok = golden_check(&scenarios[0].fingerprint) && golden_check_parallel();

    // Scaling curve: the in-process single-thread baseline, then the
    // dtn-fleet curve at 1/2/4 subprocess workers. Fleet rows gate on
    // bit-identical per-cell results against the baseline.
    let (baseline_row, baseline_runs) = bench_scaling_inprocess(quick, 1);
    let mut sweep_scaling = vec![baseline_row];
    match locate_worker() {
        Ok(worker_bin) => {
            for workers in [1, 2, 4] {
                sweep_scaling.push(bench_scaling_fleet(
                    quick,
                    workers,
                    &worker_bin,
                    &baseline_runs,
                ));
            }
        }
        Err(e) => eprintln!(
            "warning: skipping fleet scaling rows ({e}); build the whole workspace to include them"
        ),
    }
    let fleet_scaling_ok = sweep_scaling.iter().all(|r| r.fingerprints_match_baseline);

    // Intra-run thread scaling on one large world (aborts on any
    // fingerprint divergence, so reaching here means all rows agree).
    let thread_scaling = bench_thread_scaling(quick);

    // Fig. 4 as data: exact vs k = 1 accuracy and compute.
    let taylor_ablation = bench_taylor_ablation(quick);

    // Congestion-adaptive variants vs the paper's four under pressure.
    let congestion = bench_congestion(quick);

    let report = BenchReport {
        schema: "dtn-bench/v6".into(),
        quick,
        iters,
        threads_available,
        golden_fingerprint_ok,
        scenarios,
        sweep_scaling,
        thread_scaling,
        taylor_ablation,
        congestion,
        peak_rss_bytes: peak_rss_bytes(),
    };
    let body = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, body).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!("bench report written to {out_path}");
    if !golden_fingerprint_ok || !fleet_scaling_ok {
        std::process::exit(1);
    }
}
