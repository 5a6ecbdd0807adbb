//! The subprocess transport: one `dtn-fleet-worker` child process per
//! worker slot, length-prefixed frames over stdin/stdout (see
//! [`crate::protocol::write_frame`]).
//!
//! Each spawn attaches a reader thread that pumps the child's stdout
//! frames into the coordinator inbox as [`Envelope::Msg`]s and delivers
//! a final [`Envelope::Gone`] at EOF or on a framing violation (the
//! coordinator then retries the in-flight cell elsewhere). A
//! well-framed but unknown message is skipped. Stderr is inherited, so
//! worker panic traces land in the operator's terminal/CI log.

use crate::merge::shard_path;
use crate::protocol::{read_frame, write_frame, CoordinatorMsg};
use crate::transport::{Envelope, FleetError, Transport, WorkerHandle};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::Sender;
use std::time::Duration;

/// Finds the worker binary: the `DTN_FLEET_WORKER` environment variable
/// (absolute override, e.g. in tests and CI), then a `dtn-fleet-worker`
/// sibling of the current executable, then one directory up (cargo
/// puts integration-test binaries in `target/<profile>/deps/`).
pub fn locate_worker() -> Result<PathBuf, FleetError> {
    if let Ok(path) = std::env::var("DTN_FLEET_WORKER") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        return Err(FleetError::new(format!(
            "DTN_FLEET_WORKER points at {}, which does not exist",
            path.display()
        )));
    }
    let exe = std::env::current_exe()
        .map_err(|e| FleetError::new(format!("cannot locate current executable: {e}")))?;
    let name = format!("dtn-fleet-worker{}", std::env::consts::EXE_SUFFIX);
    let mut dirs: Vec<&Path> = Vec::new();
    if let Some(dir) = exe.parent() {
        dirs.push(dir);
        if let Some(up) = dir.parent() {
            dirs.push(up);
        }
    }
    for dir in &dirs {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(FleetError::new(format!(
        "cannot find {name} next to {} (set DTN_FLEET_WORKER or `cargo build -p dtn-fleet`)",
        exe.display()
    )))
}

/// Spawns `dtn-fleet-worker` subprocesses.
///
/// ```no_run
/// use dtn_fleet::{locate_worker, run_sweep_fleet, FleetOptions, SubprocessTransport};
/// # fn spec() -> dtn_sim::sweep::SweepSpec { unimplemented!() }
///
/// let transport = SubprocessTransport::new(locate_worker()?);
/// let (out, stats) = run_sweep_fleet(
///     &spec(),
///     &transport,
///     &FleetOptions { workers: 4, ..FleetOptions::default() },
/// )?;
/// assert_eq!(stats.transport, "subprocess");
/// # Ok::<(), dtn_fleet::FleetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SubprocessTransport {
    /// Path of the worker binary.
    pub worker_bin: PathBuf,
    /// Main checkpoint path; workers get a `--shard` file derived from
    /// it (slot-indexed) for crash insurance. `None` disables shards.
    pub checkpoint: Option<PathBuf>,
    /// Heartbeat period passed to workers, seconds.
    pub heartbeat_secs: f64,
    /// Extra CLI arguments appended to every worker (test fault hooks).
    pub extra_args: Vec<String>,
}

impl SubprocessTransport {
    /// A transport with default knobs for `worker_bin`.
    pub fn new(worker_bin: PathBuf) -> Self {
        SubprocessTransport {
            worker_bin,
            checkpoint: None,
            heartbeat_secs: 0.5,
            extra_args: Vec::new(),
        }
    }
}

impl Transport for SubprocessTransport {
    fn spawn(
        &self,
        uid: u64,
        inbox: Sender<(u64, Envelope)>,
    ) -> Result<Box<dyn WorkerHandle>, FleetError> {
        let mut argv: Vec<String> = vec!["--heartbeat".into(), format!("{}", self.heartbeat_secs)];
        if let Some(main) = &self.checkpoint {
            // Shard names derive from the spawn uid. Uids are never
            // reused within a run, so a respawn gets a fresh shard and
            // the dead incarnation's file survives untouched as crash
            // insurance; merge-on-resume discovers *all* shards
            // regardless of numbering, and the coordinator removes
            // them once consumed.
            argv.push("--shard".into());
            argv.push(shard_path(main, uid as usize).display().to_string());
        }
        argv.extend(self.extra_args.iter().cloned());
        let mut cmd = Command::new(&self.worker_bin);
        cmd.args(&argv)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn().map_err(|e| {
            FleetError::spawn_failure(format!("spawn worker: {e}"), &self.worker_bin, argv.clone())
        })?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let pid = u64::from(child.id());

        // Reader pump: child stdout → coordinator inbox. Exits at EOF
        // (child died or closed stdout), on a framing violation, or
        // when the coordinator drops its receiver.
        std::thread::Builder::new()
            .name(format!("dtn-fleet-pump-{uid}"))
            .spawn(move || {
                let mut reader = BufReader::new(stdout);
                while let Ok(Some(line)) = read_frame(&mut reader) {
                    let Ok(msg) = serde_json::from_str(&line) else {
                        continue; // well-framed but unknown: skip
                    };
                    if inbox.send((uid, Envelope::Msg(msg))).is_err() {
                        return; // coordinator gone
                    }
                }
                let _ = inbox.send((uid, Envelope::Gone(None)));
            })
            .map_err(|e| FleetError::new(format!("spawn reader thread: {e}")))?;

        Ok(Box::new(SubprocessWorker {
            child,
            stdin: Some(stdin),
            pid,
        }))
    }

    fn label(&self) -> &'static str {
        "subprocess"
    }
}

struct SubprocessWorker {
    child: Child,
    stdin: Option<ChildStdin>,
    pid: u64,
}

impl WorkerHandle for SubprocessWorker {
    fn send(&mut self, msg: &CoordinatorMsg) -> Result<(), FleetError> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| FleetError::new("worker stdin already closed"))?;
        write_frame(stdin, &msg.to_line()).map_err(|e| FleetError::new(format!("worker pipe: {e}")))
    }

    fn pid(&self) -> u64 {
        self.pid
    }

    fn kill(&mut self) {
        // Closing stdin asks the worker to drain and exit (EOF ==
        // shutdown); give it a short grace period, then hard-kill. The
        // grace period keeps clean shutdowns signal-free while a
        // wedged worker (hung cell) still dies promptly.
        self.stdin = None;
        for _ in 0..20 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for SubprocessWorker {
    fn drop(&mut self) {
        // Reap unconditionally — a leaked child would outlive the
        // sweep and keep burning CPU on a cell nobody will collect.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
