//! Shared infrastructure for the figure-regeneration binaries and
//! Criterion benches.
//!
//! Each binary regenerates one paper artefact:
//!
//! | binary      | artefact            | what it prints                                   |
//! |-------------|---------------------|--------------------------------------------------|
//! | `fig3`      | Fig. 3 (a, b)       | intermeeting-time distribution + exponential fit |
//! | `fig4`      | Fig. 4              | priority vs `P(R)` for Taylor k and idealisation |
//! | `fig8`      | Fig. 8 (a–i)        | three RWP sweeps x three metrics                 |
//! | `fig9`      | Fig. 9 (a–i)        | three EPFL-substitute sweeps x three metrics     |
//! | `ablations` | extensions          | estimator/gossip/Taylor/oracle ablations         |
//!
//! All binaries accept `--quick` (reduced duration/points/seeds for a
//! laptop-minutes smoke pass), `--seeds N`, and `--out DIR` to also
//! write CSVs, plus the fleet flags of `dtn-scenario` (parsed by
//! [`dtn_fleet::FleetCli`]). An unknown flag or a malformed value exits
//! 2 with a usage line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use dtn_fleet::{FleetCli, FLEET_USAGE};
use dtn_sim::config::{PolicyKind, ScenarioConfig};
use dtn_sim::output::{Metric, SeriesTable};
use dtn_sim::sweep::{SweepAxis, SweepCell, SweepCheckpoint, SweepOptions, SweepSpec};
use std::io::Write;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Clone)]
pub struct Cli {
    /// Reduced-scale run for smoke checks.
    pub quick: bool,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Optional CSV output directory.
    pub out: Option<PathBuf>,
    /// Optional sweep filter (`copies`, `buffer`, `genrate`).
    pub sweep: Option<String>,
    /// Also print the supplementary delivery-latency panel.
    pub latency: bool,
    /// Run invariant checking + the estimator oracle on (a subset of)
    /// the runs; abort non-zero on any violation.
    pub validate: bool,
    /// Attach the dtn-validate checkers to **every** sweep cell and
    /// fold violation counts into the per-cell results.
    pub validate_cells: bool,
    /// Stream finished sweep cells to a JSONL checkpoint file (one
    /// file per figure group, derived from this stem).
    pub checkpoint: Option<PathBuf>,
    /// Reload the checkpoint and skip already-completed cells.
    pub resume: bool,
    /// Fleet flags (`--workers N` and friends, as in `dtn-scenario`);
    /// without `--workers` sweeps run in-process.
    pub fleet: FleetCli,
}

impl Cli {
    /// Parses `std::env::args`. An unknown flag, a missing or malformed
    /// value prints a usage line and exits 2.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse_from(&args).unwrap_or_else(|e| {
            let bin = std::env::args().next().unwrap_or_default();
            eprintln!(
                "{e}\nusage: {bin} [--quick] [--seeds N] [--out DIR] [--sweep NAME] \
                 [--latency] [--validate] [--validate-cells] [--checkpoint FILE [--resume]]\n\
                 \t{FLEET_USAGE}"
            );
            std::process::exit(2);
        })
    }

    /// Parses `args` (without the program name).
    fn parse_from(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            quick: false,
            seeds: vec![1, 2, 3],
            out: None,
            sweep: None,
            latency: false,
            validate: false,
            validate_cells: false,
            checkpoint: None,
            resume: false,
            fleet: FleetCli::default(),
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let mut value = || {
                i += 1;
                args.get(i)
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag {
                "--quick" => cli.quick = true,
                "--latency" => cli.latency = true,
                "--validate" => cli.validate = true,
                "--validate-cells" => cli.validate_cells = true,
                "--resume" => cli.resume = true,
                "--checkpoint" => cli.checkpoint = Some(value()?.into()),
                "--seeds" => {
                    let v = value()?;
                    let n: u64 = v
                        .parse()
                        .map_err(|_| format!("--seeds: invalid value {v:?}"))?;
                    cli.seeds = (1..=n).collect();
                }
                "--out" => cli.out = Some(value()?.into()),
                "--sweep" => cli.sweep = Some(value()?),
                _ => {
                    if !cli.fleet.parse_flag(args, &mut i)? {
                        return Err(format!("unknown argument {flag:?}"));
                    }
                }
            }
            i += 1;
        }
        Ok(cli)
    }

    /// Whether a sweep named `name` should run under the `--sweep`
    /// filter.
    pub fn wants(&self, name: &str) -> bool {
        self.sweep.as_deref().is_none_or(|s| s == name)
    }
}

/// Runs one scenario with invariant checking and the estimator oracle
/// enabled, printing the validation summary to stderr. Exits non-zero
/// on any violation, so `--validate` runs cannot silently pass on a
/// broken simulator.
pub fn run_checked(cfg: &ScenarioConfig) -> dtn_sim::Report {
    let mut world = dtn_sim::world::World::build(cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    let out = world.run();
    let validation = out.validation.expect("validation enabled");
    eprintln!(
        "[validate] {} seed {}: {}",
        cfg.name,
        cfg.seed,
        validation.summary()
    );
    if !validation.ok() {
        for v in &validation.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    out.report
}

/// One of the paper's three sweep groups, at full or `--quick` scale.
pub fn paper_axis(kind: &str, quick: bool) -> SweepAxis {
    match (kind, quick) {
        ("copies", false) => SweepAxis::paper_copies(),
        ("copies", true) => SweepAxis::InitialCopies(vec![16, 32, 64]),
        ("buffer", false) => SweepAxis::paper_buffers(),
        ("buffer", true) => SweepAxis::BufferMb(vec![2.0, 3.5, 5.0]),
        ("genrate", false) => SweepAxis::paper_gen_rates(),
        ("genrate", true) => SweepAxis::GenInterval(vec![(10.0, 15.0), (25.0, 30.0), (45.0, 50.0)]),
        _ => panic!("unknown sweep kind {kind:?}"),
    }
}

/// Applies `--quick` shrinkage to a base scenario (shorter run, fewer
/// nodes) while keeping the congestion character.
pub fn apply_quick(cfg: &mut ScenarioConfig, quick: bool) {
    if quick {
        cfg.duration_secs = 3_600.0;
        cfg.n_nodes = (cfg.n_nodes / 2).max(20);
    }
}

/// Derives a per-figure-group checkpoint path from the user's
/// `--checkpoint` stem, so binaries that run several sweep groups
/// (fig8/fig9 run three) never interleave two groups in one file.
pub fn group_checkpoint_path(stem: &std::path::Path, fig: &str, axis: &str) -> PathBuf {
    let sanitize = |s: &str| {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect::<String>()
            .trim_matches('-')
            .to_string()
    };
    let stem_str = stem.to_string_lossy();
    let base = stem_str.strip_suffix(".jsonl").unwrap_or(&stem_str);
    PathBuf::from(format!("{base}-{}-{}.jsonl", sanitize(fig), sanitize(axis)))
}

/// Runs one sweep group and prints the three paper metrics as markdown
/// tables (optionally writing CSVs).
pub fn run_figure_group(
    fig: &str,
    panel_ids: [&str; 3],
    base: &ScenarioConfig,
    axis: SweepAxis,
    policies: Vec<PolicyKind>,
    cli: &Cli,
) -> Vec<SweepCell> {
    let spec = SweepSpec {
        base: base.clone(),
        axis,
        policies,
        seeds: cli.seeds.clone(),
        validate: cli.validate_cells,
    };
    let xlabel = spec.axis.name().to_string();
    let progress = |p: dtn_sim::sweep::SweepProgress| {
        eprint!(
            "\r{fig}: {}/{} runs done (last: {} @ {})    ",
            p.completed, p.total, p.policy, p.axis_label
        );
        let _ = std::io::stderr().flush();
    };
    // Live progress on stderr (stdout carries the markdown tables).
    let checkpoint = cli.checkpoint.as_ref().map(|stem| SweepCheckpoint {
        path: group_checkpoint_path(stem, fig, &xlabel),
        resume: cli.resume,
    });
    let opts = SweepOptions {
        checkpoint,
        progress: Some(&progress),
        ..SweepOptions::default()
    };
    // Figure regeneration never silently falls back to a mode the
    // operator did not ask for: a fleet that cannot start exits 2.
    let out = cli.fleet.run_sweep(&spec, opts).unwrap_or_else(|e| {
        eprintln!("{fig}: fleet failed: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "\r{fig}: {} runs ({} resumed), {} events ({} delivered, {} dropped, {} contacts)",
        out.cells.iter().map(|c| c.runs).sum::<usize>(),
        out.resumed,
        out.totals.total(),
        out.totals.delivered,
        out.totals.dropped(),
        out.totals.contacts_up,
    );
    if cli.validate_cells && out.violations > 0 {
        eprintln!(
            "{fig}: {} invariant violation(s) across cells",
            out.violations
        );
    }
    for err in &out.errors {
        eprintln!("{fig}: {err}");
    }
    if !out.errors.is_empty() {
        eprintln!(
            "{fig}: {} cell run(s) panicked; their seeds are excluded from the tables",
            out.errors.len()
        );
    }
    let cells = out.cells;
    let mut panels = vec![
        (Metric::DeliveryRatio, panel_ids[0].to_string()),
        (Metric::AvgHopcount, panel_ids[1].to_string()),
        (Metric::OverheadRatio, panel_ids[2].to_string()),
    ];
    if cli.latency {
        // Supplementary panel beyond the paper's three metrics.
        panels.push((Metric::AvgLatency, format!("{}-latency", panel_ids[0])));
    }
    for (metric, panel) in panels {
        let title = format!("{fig}({panel}) {} vs {}", metric.name(), xlabel);
        let table = SeriesTable::from_cells(&title, &xlabel, &cells, metric);
        println!("{}", table.to_markdown());
        if let Some(dir) = &cli.out {
            std::fs::create_dir_all(dir).expect("create out dir");
            let fname = format!("{}_{}.csv", fig.replace(['.', ' '], ""), panel);
            std::fs::write(dir.join(fname), table.to_csv()).expect("write csv");
        }
    }
    cells
}

/// Quick qualitative check used by fig8/fig9: prints whether the
/// paper's headline ordering (SDSRP best delivery, lowest overhead;
/// SAW-C worst delivery) holds on the mean across the sweep.
pub fn print_ordering_summary(cells: &[SweepCell]) {
    use std::collections::HashMap;
    let mut delivery: HashMap<&str, (f64, usize)> = HashMap::new();
    let mut overhead: HashMap<&str, (f64, usize)> = HashMap::new();
    for c in cells {
        let d = delivery.entry(c.policy.as_str()).or_default();
        d.0 += c.delivery_ratio;
        d.1 += 1;
        let o = overhead.entry(c.policy.as_str()).or_default();
        o.0 += c.overhead_ratio;
        o.1 += 1;
    }
    println!("\n#### sweep-mean summary");
    let mut rows: Vec<(&str, f64, f64)> = delivery
        .iter()
        .map(|(&p, &(d, n))| {
            let (o, m) = overhead[&p];
            (p, d / n as f64, o / m as f64)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (p, d, o) in &rows {
        println!("  {p:<16} delivery {d:.4}  overhead {o:.2}");
    }
    println!();
}
