//! Ablation experiments beyond the paper's figures — each isolates one
//! design choice called out in DESIGN.md. All run at the paper's centre
//! operating point (Table II, L = 32, buffer 2.5 MB, one message per
//! 25-35 s) averaged over the `--seeds` seeds.
//!
//! 1. **λ source** — online estimation (the paper's deployable setting)
//!    vs oracle rates, quantifying estimator error.
//! 2. **Dropped-list gossip** — with vs without record exchange (without
//!    it `d_i` only counts local drops) and with vs without the
//!    receive-reject rule.
//! 3. **Taylor truncation** — Eq. 13 with k = 1/3/8 terms vs the exact
//!    Eq. 10 closed form.
//! 4. **Global knowledge** — SDSRP fed perfect `m_i`/`n_i` by the
//!    simulator (GBSD-style upper bound) vs distributed estimation.
//! 5. **Extra drop policies** — MOFO, SHLI, LIFO and Random against the
//!    paper's four.
//! 6. **Routing substrate** — binary vs source spray, Spray-and-Focus
//!    and Epidemic under both FIFO and SDSRP buffers.
//! 10. **Congestion-adaptive admission** — occupancy-gated acceptance
//!     and tiered retention against the paper's four under buffer
//!     pressure.
//!
//! ```text
//! cargo run -p dtn-bench --release --bin ablations [-- --quick] [--seeds N]
//! ```

use dtn_bench::{apply_quick, run_checked, Cli};
use dtn_core::stats::OnlineStats;
use dtn_sim::config::{presets, PolicyKind, RoutingKind, ScenarioConfig};
use dtn_sim::world::World;
use sdsrp_core::LambdaMode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Set by `--validate`: the first seed of every variant runs with
/// invariant checking + the estimator oracle (aborting on violations),
/// the remaining seeds run plain.
static VALIDATE: AtomicBool = AtomicBool::new(false);

/// Set by `--validate-cells`: **every** seed of **every** variant runs
/// with invariant checking; violations accumulate (reported at exit,
/// failing the process) instead of aborting mid-table.
static VALIDATE_CELLS: AtomicBool = AtomicBool::new(false);
static CELL_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

fn run_avg(cfg: &ScenarioConfig, seeds: &[u64]) -> (f64, f64, f64) {
    let mut d = OnlineStats::new();
    let mut h = OnlineStats::new();
    let mut o = OnlineStats::new();
    for (k, &seed) in seeds.iter().enumerate() {
        let mut c = cfg.clone();
        c.seed = seed;
        let r = if VALIDATE_CELLS.load(Ordering::Relaxed) {
            let mut world = World::build(&c);
            world.enable_validation(dtn_validate::ValidateConfig::default());
            let out = world.run();
            let validation = out.validation.expect("validation enabled");
            if !validation.ok() {
                CELL_VIOLATIONS.fetch_add(validation.violation_count, Ordering::Relaxed);
                eprintln!(
                    "[validate-cells] {} seed {}: {}",
                    c.name,
                    c.seed,
                    validation.summary()
                );
            }
            out.report
        } else if k == 0 && VALIDATE.load(Ordering::Relaxed) {
            run_checked(&c)
        } else {
            World::build(&c).run().report
        };
        d.push(r.delivery_ratio());
        h.push(r.avg_hopcount());
        o.push(r.overhead_ratio());
    }
    (
        d.mean().unwrap_or(0.0),
        h.mean().unwrap_or(0.0),
        o.mean().unwrap_or(0.0),
    )
}

fn row(label: &str, cfg: &ScenarioConfig, seeds: &[u64]) {
    let (d, h, o) = run_avg(cfg, seeds);
    println!("| {label} | {d:.4} | {h:.2} | {o:.2} |");
}

fn header(title: &str) {
    println!("\n### {title}\n");
    println!("| variant | delivery | hops | overhead |");
    println!("|---|---|---|---|");
}

fn main() {
    let cli = Cli::parse();
    VALIDATE.store(cli.validate, Ordering::Relaxed);
    VALIDATE_CELLS.store(cli.validate_cells, Ordering::Relaxed);
    let mut base = presets::random_waypoint_paper();
    apply_quick(&mut base, cli.quick);
    let seeds = &cli.seeds;

    println!(
        "# SDSRP ablations (RWP, {} nodes, {} s, seeds {:?})",
        base.n_nodes, base.duration_secs, seeds
    );

    // 1. Lambda source.
    header("1. intermeeting-rate (λ) source");
    for (label, lambda) in [
        (
            "online (paper)",
            LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 5,
            },
        ),
        ("oracle 1/500s", LambdaMode::Oracle(1.0 / 500.0)),
        ("oracle 1/2000s", LambdaMode::Oracle(1.0 / 2000.0)),
        ("oracle 1/8000s", LambdaMode::Oracle(1.0 / 8000.0)),
    ] {
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::SdsrpCustom {
            lambda,
            taylor_terms: None,
            reject_dropped: true,
            gossip: true,
        };
        row(label, &cfg, seeds);
    }

    // 2. Dropped-list machinery.
    header("2. dropped-list gossip and receive-reject");
    for (label, gossip, reject) in [
        ("gossip + reject (paper)", true, true),
        ("gossip, no reject", true, false),
        ("no gossip, reject own", false, true),
        ("neither", false, false),
    ] {
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::SdsrpCustom {
            lambda: LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 5,
            },
            taylor_terms: None,
            reject_dropped: reject,
            gossip,
        };
        row(label, &cfg, seeds);
    }

    // 3. Taylor truncation.
    header("3. Eq. 13 Taylor truncation vs exact Eq. 10");
    for (label, terms) in [
        ("exact closed form", None),
        ("k = 8", Some(8)),
        ("k = 3", Some(3)),
        ("k = 1", Some(1)),
    ] {
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::SdsrpCustom {
            lambda: LambdaMode::Online {
                prior: 1.0 / 2000.0,
                min_samples: 5,
            },
            taylor_terms: terms,
            reject_dropped: true,
            gossip: true,
        };
        row(label, &cfg, seeds);
    }

    // 4. Global knowledge.
    header("4. estimated vs oracle m_i / n_i (GBSD-style upper bound)");
    {
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::Sdsrp;
        row("distributed estimation (paper)", &cfg, seeds);
        let mut cfg = base.clone();
        cfg.policy = PolicyKind::SdsrpOracle {
            lambda: 1.0 / 2000.0,
        };
        row("oracle m_i/n_i", &cfg, seeds);
    }

    // 5. Extra drop policies.
    header("5. additional buffer policies");
    for policy in [
        PolicyKind::Sdsrp,
        PolicyKind::Fifo,
        PolicyKind::TtlRatio,
        PolicyKind::CopiesRatio,
        PolicyKind::Mofo,
        PolicyKind::Shli,
        PolicyKind::Lifo,
        PolicyKind::Random,
        PolicyKind::Knapsack,
    ] {
        let mut cfg = base.clone();
        cfg.policy = policy;
        row(policy.label(), &cfg, seeds);
    }

    // 6. Routing substrate.
    header("6. routing substrate under FIFO and SDSRP buffers");
    for (rlabel, routing) in [
        ("binary spray", RoutingKind::SprayAndWaitBinary),
        ("source spray", RoutingKind::SprayAndWaitSource),
        (
            "spray-and-focus",
            RoutingKind::SprayAndFocus {
                handoff_threshold: 60.0,
            },
        ),
        ("prophet", RoutingKind::Prophet),
        ("epidemic", RoutingKind::Epidemic),
        ("direct", RoutingKind::Direct),
    ] {
        for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
            let mut cfg = base.clone();
            cfg.routing = routing;
            cfg.policy = policy;
            row(&format!("{rlabel} + {}", policy.label()), &cfg, seeds);
        }
    }

    // 7. Immunity / acknowledgement mechanisms (the paper assumes none).
    header("7. delivery acknowledgements (extension; paper = none)");
    for (label, immunity) in [
        ("none (paper)", dtn_sim::config::ImmunityMode::None),
        (
            "antipacket gossip",
            dtn_sim::config::ImmunityMode::AntipacketGossip,
        ),
        (
            "oracle flood (VACCINE)",
            dtn_sim::config::ImmunityMode::OracleFlood,
        ),
    ] {
        for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
            let mut cfg = base.clone();
            cfg.immunity = immunity;
            cfg.policy = policy;
            row(&format!("{label} + {}", policy.label()), &cfg, seeds);
        }
    }

    // 8. Heterogeneous message sizes (knapsack vs greedy TTL ranking).
    header("8. heterogeneous message sizes 0.2-1.0 MB (extension)");
    for policy in [
        PolicyKind::Knapsack,
        PolicyKind::TtlRatio,
        PolicyKind::Fifo,
        PolicyKind::Sdsrp,
    ] {
        let mut cfg = base.clone();
        cfg.message_size = dtn_core::units::Bytes::from_mb(0.2);
        cfg.message_size_max = Some(dtn_core::units::Bytes::from_mb(1.0));
        cfg.policy = policy;
        row(policy.label(), &cfg, seeds);
    }

    // 9. SDSRP-H: per-destination λ under community mobility, where
    // Eq. 3's single-λ assumption genuinely breaks.
    header("9. SDSRP-H: per-destination λ under clustered-community mobility");
    {
        let clustered = dtn_mobility::MobilityConfig::ClusteredWaypoint(
            dtn_mobility::clustered::ClusteredWaypointConfig::default_communities(),
        );
        for (label, lambda) in [
            (
                "pooled λ (paper)",
                LambdaMode::Online {
                    prior: 1.0 / 2000.0,
                    min_samples: 5,
                },
            ),
            (
                "per-destination λ (SDSRP-H)",
                LambdaMode::OnlinePerDestination {
                    prior: 1.0 / 2000.0,
                    min_samples: 3,
                },
            ),
        ] {
            let mut cfg = base.clone();
            cfg.mobility = clustered.clone();
            cfg.policy = PolicyKind::SdsrpCustom {
                lambda,
                taylor_terms: None,
                reject_dropped: true,
                gossip: true,
            };
            row(label, &cfg, seeds);
        }
        // FIFO reference on the same mobility.
        let mut cfg = base.clone();
        cfg.mobility = clustered;
        cfg.policy = PolicyKind::Fifo;
        row("FIFO reference", &cfg, seeds);
    }

    // 10. Congestion-adaptive admission (occupancy gate and tiered
    // retention) against the paper's four, under buffer pressure:
    // same operating point but 1.5 MB buffers so the thresholds bite.
    header("10. congestion-adaptive variants under buffer pressure (1.5 MB)");
    {
        let mut pressured = base.clone();
        pressured.buffer_capacity = dtn_core::units::Bytes::from_mb(1.5);
        let mut lineup = PolicyKind::paper_four().to_vec();
        lineup.push(PolicyKind::OccupancyGate { threshold: 0.8 });
        lineup.push(PolicyKind::TieredRetention {
            tiers: 4,
            threshold: 0.9,
        });
        for policy in lineup {
            let mut cfg = pressured.clone();
            cfg.policy = policy;
            row(policy.label(), &cfg, seeds);
        }
    }

    let cell_violations = CELL_VIOLATIONS.load(Ordering::Relaxed);
    if cell_violations > 0 {
        eprintln!("{cell_violations} invariant violation(s) across ablation cells — failing");
        std::process::exit(1);
    }
}
