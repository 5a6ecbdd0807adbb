//! Distributed sweep fan-out: a transport-agnostic coordinator that
//! shards the canonical [`dtn_sim::sweep`] job list across workers and
//! folds their results back into the exact output a single-process
//! [`dtn_sim::sweep::run_sweep_hardened`] run would produce.
//!
//! # Architecture
//!
//! The crate follows the transport-agnostic-core-plus-thin-shell split:
//!
//! * [`coordinator`] owns all policy — cell assignment (longest-job
//!   first from restored durations), heartbeat and per-cell timeout
//!   supervision, bounded re-dispatch of cells lost with their worker,
//!   worker respawn budgets, checkpoint streaming and shard merge.
//!   It only ever talks to [`transport::Transport`] /
//!   [`transport::WorkerHandle`] trait objects.
//!   Per-cell bookkeeping (checkpoint restore and merge, recording,
//!   output assembly) is the same [`dtn_sim::sweep::CellLedger`] the
//!   in-process [`dtn_sim::sweep::run_cells`] uses; the in-process
//!   reference every transport is tested against is
//!   [`dtn_sim::sweep::run_sweep_hardened`].
//! * [`subprocess`] spawns the thin `dtn-fleet-worker` binary per
//!   worker slot and carries [`protocol`] messages as length-prefixed
//!   frames over the child's stdin/stdout. It is the only backend: the
//!   fleet runs on one host, and the trait seam lets tests drive the
//!   coordinator with an in-process fake worker.
//! * [`worker`] is the worker loop the `dtn-fleet-worker` binary runs;
//!   each cell goes through [`dtn_sim::sweep::run_cell`].
//! * [`cli`] parses the fleet flags every sweep front end shares and
//!   runs a sweep in-process or on the fleet they describe.
//!
//! See DESIGN.md ("Fleet wire protocol") for the full message state
//! machine and failure→retry semantics.
//!
//! # Determinism
//!
//! Cells are identified by the FNV-1a hash of their canonical config
//! JSON ([`dtn_telemetry::hash_config_json`]) — the same resume key the
//! single-process checkpoint uses. Workers return the exact
//! [`dtn_sim::sweep::CellRun`] record (shortest-roundtrip `f64`
//! metrics, integer [`dtn_validate::ReportFingerprint`]), so a fleet
//! sweep — killed at any point, with any mix of main-checkpoint and
//! per-worker shard survivors — resumes and aggregates bit-identically
//! to an uninterrupted single-process run.

pub mod cli;
pub mod coordinator;
pub mod merge;
pub mod protocol;
pub mod schedule;
pub mod subprocess;
pub mod transport;
pub mod worker;

pub use cli::{FleetCli, FLEET_USAGE};
pub use coordinator::{
    run_fleet, run_sweep_fleet, FleetOptions, FleetRun, FleetStats, WorkerUtilization,
};
pub use merge::{discover_shards, shard_path};
pub use protocol::{CoordinatorMsg, WorkerMsg, PROTOCOL_VERSION};
pub use subprocess::{locate_worker, SubprocessTransport};
pub use transport::{Envelope, FleetError, Transport, WorkerHandle};
pub use worker::{worker_main, FaultHook, WorkerConfig};
