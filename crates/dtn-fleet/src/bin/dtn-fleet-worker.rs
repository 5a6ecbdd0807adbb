//! The thin fleet-worker shell: parse a handful of flags, then hand
//! stdio to [`dtn_fleet::worker::worker_main`]. All protocol and
//! execution logic lives in the library so the tests share it.
//!
//! Flags:
//!
//! * `--heartbeat SECS` — heartbeat period (default 0.5, 0 disables).
//! * `--shard PATH` — private JSONL shard checkpoint for finished
//!   cells (crash insurance the coordinator merges on resume).
//! * `--fail-once HASH:MARKER` — test hook: exit(17) the first time
//!   cell `HASH` is assigned and `MARKER` does not exist.
//! * `--hang-once HASH:MARKER` — test hook: hang instead (heartbeats
//!   keep flowing; only the coordinator's per-cell timeout fires).

use dtn_fleet::worker::{worker_main, FaultHook, WorkerConfig};
use std::path::PathBuf;

fn main() {
    let mut cfg = WorkerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--heartbeat" => {
                let v = value("--heartbeat");
                cfg.heartbeat_secs = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--heartbeat: not a number: {v}")));
            }
            "--shard" => cfg.shard = Some(PathBuf::from(value("--shard"))),
            "--fail-once" => {
                let v = value("--fail-once");
                cfg.fail_once = Some(FaultHook::parse(&v).unwrap_or_else(|| {
                    die(&format!("--fail-once: expected HASH:MARKER, got {v}"))
                }));
            }
            "--hang-once" => {
                let v = value("--hang-once");
                cfg.hang_once = Some(FaultHook::parse(&v).unwrap_or_else(|| {
                    die(&format!("--hang-once: expected HASH:MARKER, got {v}"))
                }));
            }
            "--help" | "-h" => {
                println!(
                    "dtn-fleet-worker: sweep-cell executor driven by a dtn-fleet coordinator\n\
                     (length-prefixed frames over stdin/stdout)\n\n\
                     --heartbeat SECS       heartbeat period (default 0.5, 0 disables)\n\
                     --shard PATH           private shard checkpoint JSONL\n\
                     --fail-once HASH:MARK  test hook: crash on first assignment of HASH\n\
                     --hang-once HASH:MARK  test hook: hang on first assignment of HASH"
                );
                return;
            }
            other => die(&format!("unknown flag {other} (try --help)")),
        }
    }
    let stdin = std::io::stdin();
    std::process::exit(worker_main(cfg, stdin.lock(), std::io::stdout()));
}

fn die(msg: &str) -> ! {
    eprintln!("dtn-fleet-worker: {msg}");
    std::process::exit(2);
}
