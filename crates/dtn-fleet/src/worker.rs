//! The worker side of the protocol: a blocking loop that executes one
//! assignment at a time.
//!
//! This module is transport-neutral plumbing: the `dtn-fleet-worker`
//! binary calls [`worker_main`] over real stdio. Each
//! cell runs through [`dtn_sim::sweep::run_cell`], the same
//! panic-isolated runner the in-process sweep uses, so a worker's
//! [`dtn_sim::sweep::CellRun`] records are bit-identical to
//! `run_cells`' for the same job.

use crate::protocol::{read_frame, write_frame, CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
use dtn_sim::config::ScenarioConfig;
use dtn_sim::sweep::run_cell;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic fault hook for tests and CI: when the worker is
/// assigned `config_hash` and `marker` does not exist yet, it creates
/// the marker and misbehaves *once* (subsequent assignments of the same
/// cell run normally — including after a respawn, since the marker is
/// on disk).
///
/// `config_hash` may be the wildcard `*`, matching any cell; because
/// the marker latch is a shared file, a fleet whose workers all carry a
/// wildcard hook still misbehaves exactly once in total. CI uses this
/// to kill one worker without knowing cell hashes in advance.
#[derive(Debug, Clone)]
pub struct FaultHook {
    /// The cell to sabotage (`*` = any cell).
    pub config_hash: String,
    /// First-trigger latch file.
    pub marker: PathBuf,
}

impl FaultHook {
    /// Parses the `HASH:MARKER_PATH` CLI form.
    pub fn parse(s: &str) -> Option<FaultHook> {
        let (hash, marker) = s.split_once(':')?;
        if hash.is_empty() || marker.is_empty() {
            return None;
        }
        Some(FaultHook {
            config_hash: hash.to_string(),
            marker: PathBuf::from(marker),
        })
    }

    /// True (and latches the marker) on the first sighting of `hash`.
    fn triggers(&self, hash: &str) -> bool {
        let matches = self.config_hash == "*" || hash == self.config_hash;
        if !matches || self.marker.exists() {
            return false;
        }
        // Latch *before* misbehaving so a killed worker doesn't retrigger.
        std::fs::File::create(&self.marker).is_ok()
    }
}

/// Configuration of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Heartbeat period, seconds (0 disables the heartbeat thread).
    pub heartbeat_secs: f64,
    /// Private shard checkpoint this worker streams finished cells to
    /// (crash insurance merged by the coordinator on resume).
    pub shard: Option<PathBuf>,
    /// Test hook: exit with code 17 instead of running the cell.
    pub fail_once: Option<FaultHook>,
    /// Test hook: hang (sleep ~1h) instead of running the cell.
    pub hang_once: Option<FaultHook>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_secs: 0.5,
            shard: None,
            fail_once: None,
            hang_once: None,
        }
    }
}

/// Executes one assignment through [`run_cell`], the runner the
/// in-process sweep uses: a config that does not parse or a cell that
/// panics becomes [`WorkerMsg::Failed`].
pub fn run_assignment(index: usize, config_hash: &str, config: &str, validate: bool) -> WorkerMsg {
    let outcome = serde_json::from_str::<ScenarioConfig>(config)
        .map_err(|e| format!("config does not parse: {e}"))
        .and_then(|cfg| run_cell(index, &cfg, config_hash, validate, 1));
    match outcome {
        Ok(run) => WorkerMsg::Done { run },
        Err(panic) => WorkerMsg::Failed {
            index,
            config_hash: config_hash.to_string(),
            panic,
        },
    }
}

/// The worker main loop: `Hello`, then heartbeats from a side thread
/// while assignments stream in on `input` and replies stream out on
/// `output`, every message one length-prefixed frame ([`write_frame`]).
/// Returns the process exit code: 0 on clean shutdown, EOF or a framing
/// violation, 1 when the coordinator became unreachable, 17 on the
/// `fail_once` test hook.
///
/// Since protocol v2 assignments reference configs by hash; bodies
/// arrive in `Config` frames and are cached until the referencing cell
/// completes, after which they are evicted (in-flight memory stays
/// bounded, and any surprise reference NACKs via
/// [`WorkerMsg::ConfigMissing`] for a re-push).
///
/// Output is a mutex-guarded writer because the heartbeat thread and
/// the assignment loop interleave frames; each frame is written and
/// flushed atomically under the lock, so frames never tear.
pub fn worker_main(
    cfg: WorkerConfig,
    mut input: impl BufRead,
    output: impl Write + Send + 'static,
) -> i32 {
    let out = Arc::new(Mutex::new(output));
    let emit = |msg: &WorkerMsg| -> bool {
        let mut guard = out.lock();
        write_frame(&mut *guard, &msg.to_line()).is_ok()
    };

    if !emit(&WorkerMsg::Hello {
        pid: std::process::id() as u64,
        protocol: PROTOCOL_VERSION,
    }) {
        return 1; // coordinator already gone
    }

    let busy = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = if cfg.heartbeat_secs > 0.0 {
        let out = Arc::clone(&out);
        let busy = Arc::clone(&busy);
        let stop = Arc::clone(&stop);
        let period = Duration::from_secs_f64(cfg.heartbeat_secs);
        Some(std::thread::spawn(move || loop {
            std::thread::sleep(period);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let msg = WorkerMsg::Heartbeat {
                busy: busy.load(Ordering::Relaxed),
            };
            let mut guard = out.lock();
            if write_frame(&mut *guard, &msg.to_line()).is_err() {
                break; // coordinator gone; the main loop will see EOF too
            }
        }))
    } else {
        None
    };

    // Append, never truncate: the coordinator deletes shards itself
    // once merged, so a file that is still here holds cells it has not
    // read yet (e.g. a resume whose checkpoint could not be restored).
    let mut shard = cfg.shard.as_ref().and_then(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .ok()
    });

    // Config bodies keyed by canonical hash, pushed by the coordinator.
    let mut configs: HashMap<String, String> = HashMap::new();

    let mut code = 0;
    // EOF and framing violations both end the session: a stream that
    // loses frame sync cannot be re-synchronised.
    while let Ok(Some(line)) = read_frame(&mut input) {
        // A well-framed but unknown message is skipped, not fatal: a
        // newer coordinator may speak additional message kinds.
        let Ok(msg) = serde_json::from_str::<CoordinatorMsg>(&line) else {
            continue;
        };
        match msg {
            CoordinatorMsg::Config {
                config_hash,
                config,
            } => {
                configs.insert(config_hash, config);
            }
            CoordinatorMsg::Assign {
                index,
                config_hash,
                validate,
                ..
            } => {
                if cfg
                    .fail_once
                    .as_ref()
                    .is_some_and(|h| h.triggers(&config_hash))
                {
                    code = 17; // simulated crash mid-cell
                    break;
                }
                if cfg
                    .hang_once
                    .as_ref()
                    .is_some_and(|h| h.triggers(&config_hash))
                {
                    // Simulated wedge: heartbeats keep flowing (the side
                    // thread is alive), so only the per-cell timeout can
                    // catch this — exactly what it exists for.
                    busy.store(true, Ordering::Relaxed);
                    let _ = emit(&WorkerMsg::Started {
                        index,
                        config_hash: config_hash.clone(),
                    });
                    std::thread::sleep(Duration::from_secs(3600));
                    break;
                }
                let Some(config) = configs.get(&config_hash).cloned() else {
                    // NACK: we never saw (or already evicted) the body.
                    // The coordinator re-pushes and re-assigns.
                    if !emit(&WorkerMsg::ConfigMissing { index, config_hash }) {
                        code = 1;
                        break;
                    }
                    continue;
                };
                busy.store(true, Ordering::Relaxed);
                let _ = emit(&WorkerMsg::Started {
                    index,
                    config_hash: config_hash.clone(),
                });
                let reply = run_assignment(index, &config_hash, &config, validate);
                if let (WorkerMsg::Done { run }, Some(file)) = (&reply, shard.as_mut()) {
                    let line = serde_json::to_string(run).expect("cell run serialises");
                    let _ = writeln!(file, "{line}").and_then(|()| file.flush());
                }
                // Evict after completion: in-flight memory stays
                // bounded to the configs of cells not yet run, and a
                // (rare) re-assignment exercises the NACK/re-push path.
                configs.remove(&config_hash);
                busy.store(false, Ordering::Relaxed);
                if !emit(&reply) {
                    code = 1;
                    break;
                }
            }
            CoordinatorMsg::Shutdown => break,
        }
    }

    stop.store(true, Ordering::Relaxed);
    if let Some(handle) = heartbeat {
        let _ = handle.join();
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::config::presets;
    use dtn_telemetry::hash_config_json;

    fn smoke_assignment() -> (String, String) {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 200.0;
        cfg.n_nodes = 10;
        let config = serde_json::to_string(&cfg).expect("config serialises");
        let hash = hash_config_json(&config);
        (config, hash)
    }

    #[test]
    fn run_assignment_matches_in_process_execution() {
        let (config, hash) = smoke_assignment();
        let cfg: ScenarioConfig = serde_json::from_str(&config).expect("parse");
        let (metrics, fingerprint, violations) = dtn_sim::sweep::execute_job(&cfg, false, 1);
        match run_assignment(4, &hash, &config, false) {
            WorkerMsg::Done { run } => {
                assert_eq!(run.index, 4);
                assert_eq!(run.config_hash, hash);
                assert_eq!(run.metrics, metrics);
                assert_eq!(run.fingerprint, fingerprint);
                assert_eq!(run.violations, violations);
                assert!(run.duration_secs > 0.0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn unparseable_config_fails_soft() {
        match run_assignment(0, "cafe", "not json", false) {
            WorkerMsg::Failed { panic, .. } => assert!(panic.contains("config does not parse")),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    struct SharedSink(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn assign(index: usize, hash: &str) -> CoordinatorMsg {
        CoordinatorMsg::Assign {
            index,
            label: "smoke".into(),
            policy: "SDSRP".into(),
            seed: 7,
            config_hash: hash.to_string(),
            validate: false,
            retry: 0,
        }
    }

    /// `frames`, each written as one length-prefixed frame.
    fn framed(frames: &[String]) -> Vec<u8> {
        let mut input = Vec::new();
        for frame in frames {
            write_frame(&mut input, frame).unwrap();
        }
        input
    }

    /// Runs [`worker_main`] (no heartbeat) over `input` and returns its
    /// exit code and the decoded reply frames.
    fn serve(cfg: WorkerConfig, input: &[u8]) -> (i32, Vec<WorkerMsg>) {
        let out: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let code = worker_main(
            WorkerConfig {
                heartbeat_secs: 0.0,
                ..cfg
            },
            std::io::BufReader::new(input),
            SharedSink(Arc::clone(&out)),
        );
        let mut r = std::io::Cursor::new(out.lock().clone());
        let mut msgs = Vec::new();
        while let Some(line) = read_frame(&mut r).expect("well-framed output") {
            msgs.push(serde_json::from_str(&line).expect("worker frame parses"));
        }
        (code, msgs)
    }

    #[test]
    fn worker_loop_answers_assignments_over_buffers() {
        let (config, hash) = smoke_assignment();
        let push = CoordinatorMsg::Config {
            config_hash: hash.clone(),
            config,
        };
        let (code, msgs) = serve(
            WorkerConfig::default(),
            &framed(&[
                push.to_line(),
                "not a protocol message".into(),
                assign(0, &hash).to_line(),
                CoordinatorMsg::Shutdown.to_line(),
            ]),
        );
        assert_eq!(code, 0);
        assert!(
            matches!(
                &msgs[0],
                WorkerMsg::Hello {
                    protocol: PROTOCOL_VERSION,
                    ..
                }
            ),
            "Hello carries the version"
        );
        assert!(matches!(&msgs[1], WorkerMsg::Started { config_hash, .. } if *config_hash == hash));
        assert!(matches!(&msgs[2], WorkerMsg::Done { run } if run.config_hash == hash));
    }

    #[test]
    fn assign_without_config_body_nacks_config_missing() {
        let (config, hash) = smoke_assignment();
        // Assign before any Config push → NACK; then push + re-assign
        // (what the coordinator does on ConfigMissing) → normal run.
        let push = CoordinatorMsg::Config {
            config_hash: hash.clone(),
            config,
        };
        let (code, msgs) = serve(
            WorkerConfig::default(),
            &framed(&[
                assign(2, &hash).to_line(),
                push.to_line(),
                assign(2, &hash).to_line(),
                CoordinatorMsg::Shutdown.to_line(),
            ]),
        );
        assert_eq!(code, 0);
        assert!(
            matches!(&msgs[1], WorkerMsg::ConfigMissing { index: 2, config_hash } if *config_hash == hash)
        );
        assert!(matches!(&msgs[2], WorkerMsg::Started { .. }));
        assert!(matches!(&msgs[3], WorkerMsg::Done { run } if run.config_hash == hash));
    }

    #[test]
    fn framing_violation_ends_the_session() {
        let (config, hash) = smoke_assignment();
        let push = CoordinatorMsg::Config {
            config_hash: hash.clone(),
            config,
        };
        let mut input = framed(&[push.to_line()]);
        // A bare NDJSON line is not a frame: nothing after it is read.
        input.extend_from_slice(format!("{}\n", assign(0, &hash).to_line()).as_bytes());
        input.extend(framed(&[assign(1, &hash).to_line()]));
        let (code, msgs) = serve(WorkerConfig::default(), &input);
        assert_eq!(code, 0);
        assert_eq!(msgs.len(), 1, "only the Hello, no cell ran: {msgs:?}");
    }

    #[test]
    fn fault_hook_latches_once() {
        let marker =
            std::env::temp_dir().join(format!("dtn-fleet-hook-{}.marker", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let hook = FaultHook {
            config_hash: "aa".into(),
            marker: marker.clone(),
        };
        assert!(!hook.triggers("bb"), "other cells unaffected");
        assert!(hook.triggers("aa"), "first sighting trips");
        assert!(!hook.triggers("aa"), "latched after that");
        let wildcard = FaultHook {
            config_hash: "*".into(),
            marker: marker.clone(),
        };
        assert!(!wildcard.triggers("cc"), "wildcard shares the latch");
        let _ = std::fs::remove_file(&marker);
        assert!(wildcard.triggers("cc"), "wildcard matches any cell");
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn fault_hook_parses_cli_form() {
        let hook = FaultHook::parse("deadbeef:/tmp/m.marker").expect("parses");
        assert_eq!(hook.config_hash, "deadbeef");
        assert_eq!(hook.marker, PathBuf::from("/tmp/m.marker"));
        assert!(FaultHook::parse("nocolon").is_none());
        assert!(FaultHook::parse(":/tmp/x").is_none());
    }
}
