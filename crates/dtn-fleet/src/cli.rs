//! The fleet flags of every sweep front end, parsed in one place.
//!
//! `dtn-scenario --sweep` and the figure binaries hand each flag they do
//! not know to [`FleetCli::parse_flag`], then run every sweep through
//! [`FleetCli::run_sweep`]. That stays in-process
//! ([`run_sweep_hardened`]) unless `--workers N` asked for a fleet, in
//! which case it runs the sweep on `dtn-fleet-worker` subprocesses.

use crate::coordinator::{run_sweep_fleet, FleetOptions};
use crate::subprocess::{locate_worker, SubprocessTransport};
use crate::transport::FleetError;
use dtn_sim::sweep::{run_sweep_hardened, SweepOptions, SweepOutput, SweepSpec};
use dtn_telemetry::SweepEvent;
use std::path::PathBuf;
use std::str::FromStr;

/// Usage text of the fleet flags, for the front ends' usage messages.
pub const FLEET_USAGE: &str = "[--workers N [--worker-bin FILE] [--cell-timeout SECS]\n\
     \t[--worker-timeout SECS] [--retries N] [--worker-arg ARG]...]";

/// Parsed fleet flags.
#[derive(Clone)]
pub struct FleetCli {
    /// `--workers` (0, the default, runs in-process), `--cell-timeout`,
    /// `--worker-timeout` and `--retries`. Everything else keeps
    /// [`FleetOptions::default`].
    pub options: FleetOptions<'static>,
    /// `--worker-bin`: the worker binary (default: [`locate_worker`]).
    pub worker_bin: Option<PathBuf>,
    /// `--worker-arg`, repeatable: extra arguments for every subprocess
    /// worker (e.g. the `--fail-once` fault hook).
    pub worker_args: Vec<String>,
}

impl Default for FleetCli {
    fn default() -> Self {
        FleetCli {
            options: FleetOptions {
                workers: 0,
                ..FleetOptions::default()
            },
            worker_bin: None,
            worker_args: Vec::new(),
        }
    }
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

impl FleetCli {
    /// Parses `args[*i]` if it is a fleet flag: its value is consumed
    /// too (`*i` ends on it) and `Ok(true)` returned. Any other argument
    /// returns `Ok(false)` with `*i` untouched. A missing or malformed
    /// value is an `Err` naming the flag.
    pub fn parse_flag(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        let flag = args[*i].as_str();
        let mut value = || {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workers" => self.options.workers = number(flag, &value()?)?,
            "--cell-timeout" => self.options.cell_timeout_secs = number(flag, &value()?)?,
            "--worker-timeout" => self.options.worker_timeout_secs = number(flag, &value()?)?,
            "--retries" => self.options.max_cell_retries = number(flag, &value()?)?,
            "--worker-bin" => self.worker_bin = Some(value()?.into()),
            "--worker-arg" => self.worker_args.push(value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs `spec` in-process with `opts`, or, with `--workers N`, on the
    /// fleet these flags describe, carrying over `opts`' validation,
    /// checkpoint and callbacks (its thread counts are in-process only).
    /// A fleet run logs worker spawns and losses as JSONL events on
    /// stderr, then a stats line and one line per worker.
    pub fn run_sweep(
        &self,
        spec: &SweepSpec,
        opts: SweepOptions<'_>,
    ) -> Result<SweepOutput, FleetError> {
        if self.options.workers == 0 {
            return Ok(run_sweep_hardened(spec, &opts));
        }
        let worker_bin = match &self.worker_bin {
            Some(path) => path.clone(),
            None => locate_worker()?,
        };
        let transport = SubprocessTransport {
            checkpoint: opts.checkpoint.as_ref().map(|ck| ck.path.clone()),
            extra_args: self.worker_args.clone(),
            ..SubprocessTransport::new(worker_bin)
        };
        let events = |ev: &SweepEvent| {
            if matches!(
                ev,
                SweepEvent::WorkerSpawned { .. } | SweepEvent::WorkerLost { .. }
            ) {
                eprintln!("\r{}    ", ev.to_jsonl());
            }
            if let Some(forward) = opts.events {
                forward(ev);
            }
        };
        let (out, stats) = run_sweep_fleet(
            spec,
            &transport,
            &FleetOptions {
                validate: opts.validate,
                checkpoint: opts.checkpoint.clone(),
                progress: opts.progress,
                events: Some(&events),
                ..self.options.clone()
            },
        )?;
        eprintln!(
            "\rfleet: {} workers ({}), {} dispatched, {} retries, {} lost, {:.1}s wall",
            stats.workers,
            stats.transport,
            stats.dispatched,
            stats.retries,
            stats.workers_lost,
            stats.wall_clock_secs
        );
        for w in &stats.per_worker {
            eprintln!(
                "fleet: worker {} (pid {}) {} cells, {:.1}% busy{}",
                w.worker,
                w.pid,
                w.cells_completed,
                w.utilization * 100.0,
                if w.restarts > 0 {
                    format!(", {} restarts", w.restarts)
                } else {
                    String::new()
                }
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FleetCli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut cli = FleetCli::default();
        let mut i = 0;
        while i < args.len() {
            if !cli.parse_flag(&args, &mut i)? {
                return Err(format!("not a fleet flag: {}", args[i]));
            }
            i += 1;
        }
        Ok(cli)
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let cli = parse(&[
            "--workers",
            "3",
            "--cell-timeout",
            "600",
            "--worker-timeout",
            "12.5",
            "--retries",
            "4",
            "--worker-bin",
            "/opt/w",
            "--worker-arg",
            "--fail-once",
            "--worker-arg",
            "*:/tmp/m",
        ])
        .expect("parses");
        assert_eq!(cli.options.workers, 3);
        assert_eq!(cli.options.cell_timeout_secs, 600.0);
        assert_eq!(cli.options.worker_timeout_secs, 12.5);
        assert_eq!(cli.options.max_cell_retries, 4);
        assert_eq!(cli.worker_bin, Some(PathBuf::from("/opt/w")));
        assert_eq!(cli.worker_args, ["--fail-once", "*:/tmp/m"]);
    }

    #[test]
    fn defaults_match_fleet_options_and_run_in_process() {
        let cli = parse(&[]).expect("parses");
        let defaults = FleetOptions::default();
        assert_eq!(cli.options.workers, 0, "no --workers: in-process");
        assert_eq!(cli.options.worker_timeout_secs, 30.0);
        assert_eq!(cli.options.max_cell_retries, 2);
        assert_eq!(cli.options.cell_timeout_secs, 0.0);
        assert_eq!(
            cli.options.worker_timeout_secs,
            defaults.worker_timeout_secs
        );
        assert_eq!(cli.options.max_cell_retries, defaults.max_cell_retries);
        assert_eq!(cli.options.cell_timeout_secs, defaults.cell_timeout_secs);
        assert_eq!(
            cli.options.max_worker_restarts,
            defaults.max_worker_restarts
        );
        assert!(cli.worker_bin.is_none());
        assert!(cli.worker_args.is_empty());
    }

    #[test]
    fn bad_values_are_errors_naming_the_flag() {
        for (flag, value) in [
            ("--workers", "two"),
            ("--cell-timeout", "soon"),
            ("--worker-timeout", "x"),
            ("--retries", "-1"),
        ] {
            let err = parse(&[flag, value]).err().expect("rejected");
            assert!(err.starts_with(flag), "{flag}: {err}");
        }
        let err = parse(&["--workers"]).err().expect("missing value");
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn other_flags_are_left_to_the_caller() {
        // The TCP transport's flags are among them, so a front end
        // rejects them as unknown instead of ignoring them.
        for flag in [
            "--seeds",
            "--transport",
            "--listen",
            "--token",
            "--accept-timeout",
        ] {
            let args = vec![flag.to_string(), "3".to_string()];
            let mut cli = FleetCli::default();
            let mut i = 0;
            assert_eq!(cli.parse_flag(&args, &mut i), Ok(false), "{flag}");
            assert_eq!(i, 0, "{flag}");
        }
    }
}
