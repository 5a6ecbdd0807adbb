//! `dtn-scenario` — run a DTN simulation scenario from the command line.
//!
//! ```text
//! # run a preset
//! dtn-scenario --preset rwp --policy sdsrp --seed 3
//!
//! # dump a preset's JSON, edit it, run it
//! dtn-scenario --preset epfl --emit-config > my.json
//! dtn-scenario --config my.json --json
//!
//! # sample a buffer-occupancy time series alongside
//! dtn-scenario --preset smoke --timeseries occupancy.csv
//!
//! # export a structured event log (JSONL) plus a run manifest
//! dtn-scenario --preset smoke --telemetry events.jsonl
//! ```
//!
//! Flags: `--preset rwp|epfl|smoke`, `--config FILE`, `--policy NAME`,
//! `--routing NAME`, `--seed N`, `--duration SECS`, `--copies L`,
//! `--buffer-mb X`, `--immunity none|oracle|gossip`, `--json`,
//! `--emit-config`, `--timeseries FILE`, `--telemetry FILE`,
//! `--validate`, `--no-priority-cache`, `--taylor-terms K`,
//! `--replay MANIFEST`.
//!
//! `--telemetry FILE` streams every simulation event as one JSON object
//! per line to `FILE` and writes a run manifest (config hash, seed,
//! event totals, metrics) to `FILE.manifest.json`.
//!
//! `--validate` runs the simulation with invariant checking and the
//! estimator oracle enabled; any violation makes the process exit
//! non-zero. `--replay FILE.manifest.json` re-runs the scenario a
//! manifest records and fails unless the re-run reproduces it exactly.
//!
//! `--no-priority-cache` disables the SDSRP priority memoisation cache
//! (the reference path used by the differential regression suite).
//! Results are bit-identical either way; this flag only changes speed.
//!
//! `--taylor-terms K` truncates SDSRP's Eq. 13 priority to a K-term
//! Taylor series (the paper's Fig. 4 ablation axis); `0` means the
//! exact closed form. Applies to `sdsrp` and custom SDSRP policies.
//!
//! `--sweep copies|buffer|genrate|occupancy` sweeps the axis of that
//! name over the resolved base scenario, through the hardened runner: a
//! panicking cell is reported and the rest of the sweep still
//! completes. The paper axes run the paper's four policies; the
//! `occupancy` axis sweeps the congestion threshold of the two
//! congestion-adaptive policies (`OccupancyGate`, `TieredRetention`)
//! with plain Spray and Wait and SDSRP as flat reference lines.
//! `--validate-cells` attaches the invariant checkers to every cell,
//! `--checkpoint FILE` streams finished cells as JSONL, and `--resume`
//! skips cells already in the checkpoint (bit-identical to an
//! uninterrupted run).
//!
//! `--delay-oracle` runs the scenario once with contact recording, fits
//! the pairwise intermeeting rate λ, and scores the simulated
//! first-delivery delays against the closed-form binary Spray and Wait
//! delay CDF (Diana & Lochin): predicted-vs-simulated CDF rows with
//! 95 % error bands and the KS max deviation, as a table or (with
//! `--json`) a machine-checkable object. See EXPERIMENTS.md, "Analytic
//! delay validation".
//!
//! `--workers N` distributes the sweep over N `dtn-fleet-worker`
//! subprocesses instead of in-process threads (same output,
//! bit-identical fingerprints). The fleet flags are parsed and run by
//! `dtn_fleet::FleetCli`, shared with the figure binaries. The
//! coordinator heartbeat-monitors workers, re-dispatches cells lost to
//! dead or hung workers (`--cell-timeout`, `--worker-timeout`,
//! `--retries`), and merges leftover per-worker shard checkpoints on
//! `--resume`. `--worker-bin` overrides the worker binary (default:
//! `dtn-fleet-worker` next to this executable, or `$DTN_FLEET_WORKER`);
//! `--worker-arg ARG` (repeatable) passes ARG to every worker. Fleet
//! workers run each cell on one thread, so `--workers` rejects
//! `--threads` and `--world-threads` (exit 2).

use sdsrp::fleet::{FleetCli, FLEET_USAGE};
use sdsrp::sim::config::{presets, ImmunityMode, PolicyKind, RoutingKind, ScenarioConfig};
use sdsrp::sim::output::{Metric, SeriesTable};
use sdsrp::sim::replay::{manifest_for_run, replay_manifest};
use sdsrp::sim::sweep::{SweepAxis, SweepCheckpoint, SweepOptions, SweepSpec};
use sdsrp::sim::world::{RunOutput, World};
use sdsrp::telemetry::{JsonlSink, Recorder, RunManifest};
use sdsrp::validate::ValidateConfig;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: dtn-scenario [--preset rwp|epfl|smoke] [--config FILE]\n\
         \t[--policy fifo|lifo|ttl|copies|mofo|shli|random|knapsack|sdsrp|\n\
         \t\tocc-gate|tiered]\n\
         \t[--routing saw|saw-source|epidemic|direct|focus|prophet]\n\
         \t[--seed N] [--duration SECS] [--copies L] [--buffer-mb X]\n\
         \t[--immunity none|oracle|gossip] [--warmup SECS] [--json] [--emit-config]\n\
         \t[--timeseries FILE] [--telemetry FILE] [--validate] [--delay-oracle]\n\
         \t[--no-priority-cache] [--taylor-terms K] [--replay MANIFEST.json]\n\
         \t[--threads N] [--world-threads N]\n\
         \t[--sweep copies|buffer|genrate|occupancy [--seeds N]\n\
         \t\t[--validate-cells] [--checkpoint FILE [--resume]]\n\
         \t\t{FLEET_USAGE}]\n\
         \n\
         --threads N: single runs execute the world's parallel tick phases\n\
         on N threads; in --sweep mode it fans cells out across N workers\n\
         (use --world-threads for intra-run threading there). Results are\n\
         bit-identical at any thread count. --workers runs every cell on one\n\
         thread in a worker process and cannot be combined with either."
    );
    exit(2);
}

/// `--sweep` mode: one paper axis x the paper's four policies through
/// the hardened runner (in-process threads, or a worker fleet with
/// `--workers N`). Prints the three paper metrics as markdown.
#[allow(clippy::too_many_arguments)]
fn run_sweep_mode(
    base: ScenarioConfig,
    axis_name: &str,
    n_seeds: u64,
    threads: usize,
    world_threads: usize,
    validate_cells: bool,
    checkpoint: Option<String>,
    resume: bool,
    fleet: FleetCli,
) -> ! {
    let (axis, policies) = match axis_name {
        "copies" => (SweepAxis::paper_copies(), PolicyKind::paper_four().to_vec()),
        "buffer" => (
            SweepAxis::paper_buffers(),
            PolicyKind::paper_four().to_vec(),
        ),
        "genrate" => (
            SweepAxis::paper_gen_rates(),
            PolicyKind::paper_four().to_vec(),
        ),
        // Congestion-threshold sweep: the axis rewrites the two
        // congestion-adaptive policies' thresholds; the baselines
        // ignore it and plot as flat reference lines.
        "occupancy" => (
            SweepAxis::occupancy_thresholds(),
            vec![
                PolicyKind::Fifo,
                PolicyKind::Sdsrp,
                PolicyKind::OccupancyGate { threshold: 0.8 },
                PolicyKind::TieredRetention {
                    tiers: 4,
                    threshold: 0.9,
                },
            ],
        ),
        other => {
            eprintln!("unknown sweep axis {other:?}");
            usage()
        }
    };
    let spec = SweepSpec {
        base,
        axis,
        policies,
        seeds: (1..=n_seeds).collect(),
        validate: validate_cells,
    };
    let xlabel = spec.axis.name().to_string();
    let progress = |p: sdsrp::sim::sweep::SweepProgress| {
        eprint!("\rsweep: {}/{} runs done    ", p.completed, p.total);
        use std::io::Write as _;
        let _ = std::io::stderr().flush();
    };
    let sweep_checkpoint = checkpoint.map(|path| SweepCheckpoint {
        path: path.into(),
        resume,
    });
    let out = fleet
        .run_sweep(
            &spec,
            SweepOptions {
                threads,
                world_threads,
                checkpoint: sweep_checkpoint,
                progress: Some(&progress),
                ..SweepOptions::default()
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
    eprintln!(
        "\rsweep: {} runs ({} executed, {} resumed), {} events",
        out.runs.len(),
        out.executed,
        out.resumed,
        out.totals.total()
    );
    if let Some(err) = &out.checkpoint_error {
        eprintln!("warning: {err}");
    }
    for metric in [
        Metric::DeliveryRatio,
        Metric::AvgHopcount,
        Metric::OverheadRatio,
        Metric::AvgLatency,
    ] {
        let title = format!("{} vs {xlabel}", metric.name());
        let table = SeriesTable::from_cells(&title, &xlabel, &out.cells, metric);
        println!("{}", table.to_markdown());
    }
    for err in &out.errors {
        eprintln!("{err}");
    }
    if validate_cells && out.violations > 0 {
        eprintln!("{} invariant violation(s) across cells", out.violations);
    }
    if out.errors.is_empty() && (!validate_cells || out.violations == 0) {
        exit(0);
    }
    exit(1);
}

/// `--delay-oracle` mode: run the scenario once with contact recording,
/// estimate the pairwise intermeeting rate λ, and score the simulated
/// first-delivery delays against the Diana & Lochin closed-form delay
/// CDF for binary Spray and Wait. Prints predicted-vs-simulated CDF
/// rows with 95 % error bands plus the KS max deviation; `--json` emits
/// the same as one machine-checkable object (the CI gate reads
/// `.ks_deviation`). Exits non-zero only when there is no data to score
/// (no contacts or no deliveries) — judging the deviation is the
/// caller's policy, not ours.
///
/// λ is the count-based Poisson rate MLE, contacts / (pairs × T): the
/// per-pair gap fit (`fit_exponential` over `intermeeting_times`) only
/// sees gaps short enough to close inside the observation window, so it
/// over-estimates λ badly when E(I) is within an order of magnitude of
/// the run length (the gap fit is still reported as a diagnostic).
fn run_delay_oracle_mode(cfg: ScenarioConfig, threads: usize, json_out: bool) -> ! {
    use sdsrp::analysis::{fit_exponential, mean_ci95};
    use sdsrp::validate::DelayModel;

    if !matches!(cfg.routing, RoutingKind::SprayAndWaitBinary) {
        eprintln!("--delay-oracle models binary Spray and Wait; use --routing saw");
        exit(2);
    }
    let mut world = World::build(&cfg);
    world.set_threads(threads.max(1));
    world.enable_contact_recording();
    let out = world.run();
    let (report, trace) = (out.report, out.contacts.expect("contact recording enabled"));

    if trace.is_empty() {
        eprintln!("no contacts recorded: cannot estimate λ");
        exit(1);
    }
    let n_pairs = cfg.n_nodes * (cfg.n_nodes - 1) / 2;
    let lambda = trace.len() as f64 / (n_pairs as f64 * cfg.duration_secs);
    let intermeetings = trace.intermeeting_times();
    let lambda_gap_fit = fit_exponential(&intermeetings).map(|f| f.lambda);
    let delays = report.latency_samples();
    if delays.is_empty() {
        eprintln!("no deliveries: nothing to score against the delay model");
        exit(1);
    }
    let model = DelayModel::new(cfg.n_nodes, cfg.initial_copies, lambda);
    let mut sorted = delays.to_vec();
    let ks = model.ks_deviation(&mut sorted);

    // CDF rows on a fixed decile grid of the observed delay range, each
    // with a 95 % CI over the per-message Bernoulli indicator
    // 1[delay <= t] (the empirical CDF is a mean of indicators).
    #[derive(serde::Serialize)]
    struct CdfRow {
        t_secs: f64,
        predicted: f64,
        simulated: f64,
        ci_half_width: f64,
    }
    let t_max = *sorted.last().expect("non-empty");
    let rows: Vec<CdfRow> = (1..=10)
        .map(|k| {
            let t = t_max * k as f64 / 10.0;
            let indicators: Vec<f64> = sorted
                .iter()
                .map(|&d| if d <= t { 1.0 } else { 0.0 })
                .collect();
            let ci = mean_ci95(&indicators).expect("non-empty");
            CdfRow {
                t_secs: t,
                predicted: model.predicted_delay_cdf(t),
                simulated: ci.mean,
                ci_half_width: ci.half_width,
            }
        })
        .collect();

    let simulated_mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    if json_out {
        #[derive(serde::Serialize)]
        struct Out<'a> {
            scenario: &'a str,
            policy: &'a str,
            seed: u64,
            n_nodes: usize,
            copies: u32,
            lambda: f64,
            lambda_gap_fit: Option<f64>,
            contacts: usize,
            intermeeting_samples: usize,
            delay_samples: usize,
            delivery_ratio: f64,
            ks_deviation: f64,
            predicted_mean_delay_secs: f64,
            simulated_mean_delay_secs: f64,
            cdf: Vec<CdfRow>,
        }
        let out = Out {
            scenario: &cfg.name,
            policy: cfg.policy.label(),
            seed: cfg.seed,
            n_nodes: cfg.n_nodes,
            copies: cfg.initial_copies,
            lambda,
            lambda_gap_fit,
            contacts: trace.len(),
            intermeeting_samples: intermeetings.len(),
            delay_samples: sorted.len(),
            delivery_ratio: report.delivery_ratio(),
            ks_deviation: ks,
            predicted_mean_delay_secs: model.mean_delay(),
            simulated_mean_delay_secs: simulated_mean,
            cdf: rows,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serialises")
        );
    } else {
        println!("scenario          : {}", cfg.name);
        println!("policy            : {}", cfg.policy.label());
        println!(
            "model             : binary SnW, N = {}, L = {}",
            cfg.n_nodes, cfg.initial_copies
        );
        println!(
            "estimated λ       : {:.3e} /s ({} contacts over {} pairs)",
            lambda,
            trace.len(),
            n_pairs
        );
        if let Some(gap) = lambda_gap_fit {
            println!(
                "gap-fit λ (diag.) : {:.3e} /s ({} intermeeting samples)",
                gap,
                intermeetings.len()
            );
        }
        println!(
            "delay samples     : {} (delivery ratio {:.3})",
            sorted.len(),
            report.delivery_ratio()
        );
        println!("predicted E[T]    : {:.0} s", model.mean_delay());
        println!("simulated E[T]    : {:.0} s", simulated_mean);
        println!("KS max deviation  : {ks:.4}");
        println!();
        println!("| t (s) | predicted F(t) | simulated F(t) | ±95% |");
        println!("|---|---|---|---|");
        for r in &rows {
            println!(
                "| {:.0} | {:.4} | {:.4} | {:.4} |",
                r.t_secs, r.predicted, r.simulated, r.ci_half_width
            );
        }
    }
    exit(0);
}

/// Re-runs the scenario recorded in a manifest file and reports whether
/// the re-run reproduced it bit-for-bit. Exits non-zero on divergence.
fn replay_from_file(path: &str) -> ! {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let original: RunManifest = serde_json::from_str(&body).unwrap_or_else(|e| {
        eprintln!("{path} is not a run manifest: {e:?}");
        exit(1);
    });
    match replay_manifest(&original) {
        Ok(outcome) if outcome.identical => {
            println!(
                "replay OK: {} (seed {}, policy {}) reproduced bit-identically",
                original.scenario, original.seed, original.policy
            );
            exit(0);
        }
        Ok(outcome) => {
            eprintln!(
                "replay DIVERGED on {} fields:\n{}",
                outcome.diff.len(),
                outcome.diff.join("\n")
            );
            exit(1);
        }
        Err(e) => {
            eprintln!("cannot replay {path}: {e}");
            exit(1);
        }
    }
}

fn parse_policy(s: &str) -> PolicyKind {
    match s {
        "fifo" => PolicyKind::Fifo,
        "lifo" => PolicyKind::Lifo,
        "ttl" => PolicyKind::TtlRatio,
        "copies" => PolicyKind::CopiesRatio,
        "mofo" => PolicyKind::Mofo,
        "shli" => PolicyKind::Shli,
        "random" => PolicyKind::Random,
        "knapsack" => PolicyKind::Knapsack,
        "sdsrp" => PolicyKind::Sdsrp,
        "occ-gate" => PolicyKind::OccupancyGate { threshold: 0.8 },
        "tiered" => PolicyKind::TieredRetention {
            tiers: 4,
            threshold: 0.9,
        },
        _ => {
            eprintln!("unknown policy {s:?}");
            usage()
        }
    }
}

fn parse_routing(s: &str) -> RoutingKind {
    match s {
        "saw" => RoutingKind::SprayAndWaitBinary,
        "saw-source" => RoutingKind::SprayAndWaitSource,
        "epidemic" => RoutingKind::Epidemic,
        "direct" => RoutingKind::Direct,
        "focus" => RoutingKind::SprayAndFocus {
            handoff_threshold: 60.0,
        },
        "prophet" => RoutingKind::Prophet,
        _ => {
            eprintln!("unknown routing {s:?}");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg: Option<ScenarioConfig> = None;
    let mut json_out = false;
    let mut emit_config = false;
    let mut timeseries_path: Option<String> = None;
    let mut telemetry_path: Option<String> = None;
    let mut validate = false;
    let mut delay_oracle = false;
    let mut priority_cache = true;
    let mut replay_path: Option<String> = None;
    let mut sweep_axis: Option<String> = None;
    let mut sweep_seeds: u64 = 3;
    let mut sweep_threads: usize = 0;
    let mut world_threads: usize = 1;
    // The last thread-count flag given, if any (`--workers` rejects it).
    let mut threads_flag: Option<&str> = None;
    let mut validate_cells = false;
    let mut checkpoint: Option<String> = None;
    let mut resume = false;
    let mut fleet = FleetCli::default();
    type Override = Box<dyn Fn(&mut ScenarioConfig)>;
    let mut overrides: Vec<Override> = Vec::new();

    let mut i = 0;
    let next = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--preset" => {
                let name = next(&args, &mut i);
                cfg = Some(match name.as_str() {
                    "rwp" => presets::random_waypoint_paper(),
                    "epfl" => presets::epfl_paper(),
                    "smoke" => presets::smoke(),
                    _ => {
                        eprintln!("unknown preset {name:?}");
                        usage()
                    }
                });
            }
            "--config" => {
                let path = next(&args, &mut i);
                let body = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1);
                });
                cfg = Some(serde_json::from_str(&body).unwrap_or_else(|e| {
                    eprintln!("invalid scenario JSON: {e}");
                    exit(1);
                }));
            }
            "--policy" => {
                let p = parse_policy(&next(&args, &mut i));
                overrides.push(Box::new(move |c| c.policy = p));
            }
            "--routing" => {
                let r = parse_routing(&next(&args, &mut i));
                overrides.push(Box::new(move |c| c.routing = r));
            }
            "--seed" => {
                let s: u64 = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                overrides.push(Box::new(move |c| c.seed = s));
            }
            "--duration" => {
                let d: f64 = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                overrides.push(Box::new(move |c| c.duration_secs = d));
            }
            "--copies" => {
                let l: u32 = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                overrides.push(Box::new(move |c| c.initial_copies = l));
            }
            "--buffer-mb" => {
                let b: f64 = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                overrides.push(Box::new(move |c| {
                    c.buffer_capacity = sdsrp::core::units::Bytes::from_mb(b)
                }));
            }
            "--immunity" => {
                let m = match next(&args, &mut i).as_str() {
                    "none" => ImmunityMode::None,
                    "oracle" => ImmunityMode::OracleFlood,
                    "gossip" => ImmunityMode::AntipacketGossip,
                    other => {
                        eprintln!("unknown immunity {other:?}");
                        usage()
                    }
                };
                overrides.push(Box::new(move |c| c.immunity = m));
            }
            "--warmup" => {
                let w: f64 = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                overrides.push(Box::new(move |c| c.warmup_secs = w));
            }
            "--no-priority-cache" => priority_cache = false,
            "--taylor-terms" => {
                let k: usize = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                let terms = (k > 0).then_some(k);
                overrides.push(Box::new(move |c| {
                    c.policy = match c.policy {
                        PolicyKind::Sdsrp => PolicyKind::SdsrpCustom {
                            lambda: sdsrp::sdsrp::LambdaMode::Online {
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
                }));
            }
            "--json" => json_out = true,
            "--emit-config" => emit_config = true,
            "--timeseries" => timeseries_path = Some(next(&args, &mut i)),
            "--telemetry" => telemetry_path = Some(next(&args, &mut i)),
            "--validate" => validate = true,
            "--delay-oracle" => delay_oracle = true,
            "--replay" => replay_path = Some(next(&args, &mut i)),
            "--sweep" => sweep_axis = Some(next(&args, &mut i)),
            "--seeds" => {
                sweep_seeds = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
            }
            "--threads" => {
                sweep_threads = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                threads_flag = Some("--threads");
            }
            "--world-threads" => {
                world_threads = next(&args, &mut i).parse().unwrap_or_else(|_| usage());
                threads_flag = Some("--world-threads");
            }
            "--validate-cells" => validate_cells = true,
            "--checkpoint" => checkpoint = Some(next(&args, &mut i)),
            "--resume" => resume = true,
            "--help" | "-h" => usage(),
            other => match fleet.parse_flag(&args, &mut i) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("unknown argument {other:?}");
                    usage()
                }
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            },
        }
        i += 1;
    }
    if let Some(flag) = threads_flag.filter(|_| fleet.options.workers > 0) {
        eprintln!(
            "--workers cannot be combined with {flag}: fleet workers run each cell on one thread"
        );
        exit(2);
    }

    if let Some(path) = &replay_path {
        replay_from_file(path);
    }

    let mut cfg = cfg.unwrap_or_else(presets::smoke);
    for f in &overrides {
        f(&mut cfg);
    }

    if let Some(axis) = &sweep_axis {
        run_sweep_mode(
            cfg,
            axis,
            sweep_seeds,
            sweep_threads,
            world_threads,
            validate_cells,
            checkpoint,
            resume,
            fleet,
        );
    }

    if emit_config {
        println!(
            "{}",
            serde_json::to_string_pretty(&cfg).expect("config serialises")
        );
        return;
    }

    if delay_oracle {
        run_delay_oracle_mode(cfg, world_threads.max(sweep_threads), json_out);
    }

    let mut world = World::build(&cfg);
    // Single runs have no sweep to fan out, so --threads means the
    // world's intra-run thread count here (--world-threads also works).
    world.set_threads(world_threads.max(sweep_threads).max(1));
    if !priority_cache {
        world.set_priority_cache(false);
    }
    if let Some(path) = &telemetry_path {
        let sink = JsonlSink::create(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(1);
        });
        world.attach_recorder(Recorder::enabled(4096).with_sink(Box::new(sink)));
    }
    if timeseries_path.is_some() {
        world.enable_timeseries(cfg.tick_secs.max(1.0) * 10.0);
    }
    if validate {
        world.enable_validation(ValidateConfig::default());
    }
    let run_started = std::time::Instant::now();
    let RunOutput {
        report,
        mut recorder,
        validation,
        ..
    } = world.run();
    let wall_clock_secs = run_started.elapsed().as_secs_f64();
    let timeseries = recorder.take_timeseries();

    if let (Some(path), Some(ts)) = (&timeseries_path, &timeseries) {
        std::fs::write(path, ts.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        eprintln!("time series written to {path}");
    }

    if let Some(path) = &telemetry_path {
        if let Some(err) = recorder.sink_error() {
            eprintln!("telemetry export to {path} failed: {err}");
            exit(1);
        }
        let manifest = manifest_for_run(&cfg, &report, &recorder, wall_clock_secs);
        let manifest_path = format!("{path}.manifest.json");
        std::fs::write(&manifest_path, manifest.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {manifest_path}: {e}");
            exit(1);
        });
        eprintln!("telemetry written to {path} (manifest: {manifest_path})");
    }

    if json_out {
        #[derive(serde::Serialize)]
        struct Out<'a> {
            scenario: &'a str,
            policy: &'a str,
            seed: u64,
            created: u64,
            delivered: u64,
            delivery_ratio: f64,
            avg_hopcount: f64,
            overhead_ratio: f64,
            /// `null` when nothing was delivered (no latency data).
            avg_latency: Option<f64>,
            buffer_drops: u64,
            incoming_rejects: u64,
            expirations: u64,
            immunity_purges: u64,
        }
        let out = Out {
            scenario: &cfg.name,
            policy: cfg.policy.label(),
            seed: cfg.seed,
            created: report.created(),
            delivered: report.delivered(),
            delivery_ratio: report.delivery_ratio(),
            avg_hopcount: report.avg_hopcount(),
            overhead_ratio: report.overhead_ratio(),
            avg_latency: report.avg_latency(),
            buffer_drops: report.buffer_drops(),
            incoming_rejects: report.incoming_rejects(),
            expirations: report.expirations(),
            immunity_purges: report.immunity_purges(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serialises")
        );
    } else {
        println!("scenario        : {}", cfg.name);
        println!("policy          : {}", cfg.policy.label());
        println!("seed            : {}", cfg.seed);
        println!("created         : {}", report.created());
        println!("delivered       : {}", report.delivered());
        println!("delivery ratio  : {:.4}", report.delivery_ratio());
        println!("avg hopcounts   : {:.2}", report.avg_hopcount());
        println!("overhead ratio  : {:.2}", report.overhead_ratio());
        match report.avg_latency() {
            Some(lat) => println!("avg latency (s) : {lat:.0}"),
            None => println!("avg latency (s) : —"),
        }
        println!("buffer drops    : {}", report.buffer_drops());
        println!("incoming rejects: {}", report.incoming_rejects());
        println!("expirations     : {}", report.expirations());
        println!("immunity purges : {}", report.immunity_purges());
    }

    if let Some(validation) = &validation {
        eprintln!("{}", validation.summary());
        if !validation.ok() {
            for v in &validation.violations {
                eprintln!("  {v}");
            }
            exit(1);
        }
    }
}
