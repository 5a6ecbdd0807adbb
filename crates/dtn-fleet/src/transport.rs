//! Transport abstraction: how the coordinator spawns workers and
//! exchanges [`crate::protocol`] messages with them.
//!
//! The coordinator never touches processes or pipes directly — it
//! drives [`Transport`] / [`WorkerHandle`] trait objects and reads a
//! single mpsc channel of `(worker uid, Envelope)` pairs. The one
//! production backend is [`crate::subprocess`]; the seam exists so
//! tests can put an in-process fake worker behind the same coordinator
//! (`tests/fleet.rs` drives a worker that NACKs its first assignment)
//! and exercise supervision paths a well-behaved worker binary never
//! takes.

use crate::protocol::{CoordinatorMsg, WorkerMsg};
use std::sync::mpsc::Sender;

/// What a worker's receive pump delivers to the coordinator channel.
// The size skew mirrors `WorkerMsg` (a boxed `Done` would tax every
// result frame to slim down transient liveness frames).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// A parsed protocol message from the worker.
    Msg(WorkerMsg),
    /// The worker's stream ended (process exit or pipe closed). Carries the exit code when the transport knows it.
    Gone(Option<i32>),
}

/// A live worker the coordinator can send assignments to. Receiving is
/// push-based: the transport pumps every inbound message into the
/// channel handed to [`Transport::spawn`].
pub trait WorkerHandle: Send {
    /// Sends one coordinator message. An error means the worker is
    /// unreachable (the coordinator treats it as lost).
    fn send(&mut self, msg: &CoordinatorMsg) -> Result<(), FleetError>;
    /// OS process id, 0 when the backend has none.
    fn pid(&self) -> u64;
    /// Tears the worker down (kill the process).
    /// Idempotent; called on loss, shutdown and drop.
    fn kill(&mut self);
}

/// A worker-spawning backend.
pub trait Transport {
    /// Spawns one worker. `uid` is a coordinator-unique id echoed on
    /// every envelope the worker's pump sends to `inbox` — respawns get
    /// fresh uids, so late messages from a torn-down worker are
    /// recognisable (and its results still accepted) instead of being
    /// misattributed to its replacement.
    fn spawn(
        &self,
        uid: u64,
        inbox: Sender<(u64, Envelope)>,
    ) -> Result<Box<dyn WorkerHandle>, FleetError>;
    /// Stable backend label for stats and logs.
    fn label(&self) -> &'static str;
}

/// A fleet-level failure: the coordinator could not run the sweep at
/// all (as opposed to per-cell failures, which are `CellError`s in the
/// output). Worker deaths are *not* fleet errors — they are retried,
/// and exhaustion degrades to per-cell errors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetError {
    /// What failed.
    pub message: String,
    /// The worker binary a failed spawn attempted to execute, when the
    /// failure was a spawn. Triage ("is the path wrong, or the binary
    /// broken?") needs this without rerunning under strace.
    pub worker_bin: Option<std::path::PathBuf>,
    /// Full argv of the failed spawn attempt (excluding argv\[0\]).
    pub argv: Vec<String>,
}

impl FleetError {
    /// Convenience constructor.
    pub fn new(message: impl Into<String>) -> Self {
        FleetError {
            message: message.into(),
            ..FleetError::default()
        }
    }

    /// A spawn failure, carrying the attempted binary path and argv so
    /// the error is actionable as printed.
    pub fn spawn_failure(
        message: impl Into<String>,
        worker_bin: impl Into<std::path::PathBuf>,
        argv: Vec<String>,
    ) -> Self {
        FleetError {
            message: message.into(),
            worker_bin: Some(worker_bin.into()),
            argv,
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet error: {}", self.message)?;
        if let Some(bin) = &self.worker_bin {
            write!(f, " (worker-bin: {}", bin.display())?;
            if !self.argv.is_empty() {
                write!(f, ", argv: {:?}", self.argv)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::new(e.to_string())
    }
}
