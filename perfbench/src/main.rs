//! The SDSRP simulator benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <paper-rwp|urban-100k> --seed <n>
//!           --seconds <s> --trace <0|1> [--root <repository root>]
//! ```
//!
//! Prints one line per repetition, then the result as one JSON object
//! on the last line of stdout. Exits 1 when any output check failed.

mod drive;
mod e2e;
mod outcome;
mod probe;
mod replay;
mod stats;
mod traced;

use drive::Workload;
use outcome::Budget;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut root = PathBuf::from(".");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--root" => root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        root,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget::new(args.seconds);
    // Six inputs per plain run leave each at least two repetitions in
    // a run of half a minute or more.
    let seeds = drive::input_seeds(args.seed, 6);
    let cfgs = match args.workload {
        Workload::PaperRwp => Ok(seeds.iter().map(|&s| drive::paper_rwp(s)).collect()),
        Workload::Urban100k => seeds
            .iter()
            .map(|&s| drive::urban_100k(&args.root, s))
            .collect::<Result<Vec<_>, _>>(),
    };
    // Small worlds build in microseconds: time ten extra builds per
    // repetition so set-up has enough samples.
    let extra_builds = match args.workload {
        Workload::PaperRwp => 10,
        Workload::Urban100k => 0,
    };
    let outcome = match cfgs {
        Ok(cfgs) if args.trace => traced::single_world(&cfgs[0], &args.root, &budget),
        Ok(cfgs) => e2e::single_world(&cfgs, &args.root, &budget, extra_builds),
        Err(e) => {
            eprintln!("perfbench: {e}");
            None
        }
    };
    let Some(outcome) = outcome else {
        return ExitCode::FAILURE;
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    match outcome.to_json() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
