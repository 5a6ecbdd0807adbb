//! # dtn-core
//!
//! Foundation crate of the SDSRP reproduction: the deterministic event
//! queue the simulator's event loop runs on, plus the geometric,
//! statistical and identifier primitives every other crate builds on.
//!
//! The crate deliberately contains **no DTN semantics** — it only knows
//! about time, events, 2-D space and numbers. The delay-tolerant-network
//! model (nodes, messages, buffers, contacts) lives in the crates layered
//! on top (`dtn-mobility`, `dtn-net`, `dtn-buffer`, `sdsrp-core`,
//! `dtn-routing`, `dtn-sim`).
//!
//! ## Modules
//!
//! * [`time`] — [`SimTime`](time::SimTime) / [`SimDuration`](time::SimDuration):
//!   simulation clock arithmetic with total ordering.
//! * [`ids`] — [`NodeId`](ids::NodeId) and [`MessageId`](ids::MessageId)
//!   newtypes.
//! * [`event`] — deterministic [`EventQueue`](event::EventQueue) with
//!   stable FIFO tie-breaking at equal timestamps.
//! * [`geometry`] — [`Point2`](geometry::Point2), [`Vec2`](geometry::Vec2),
//!   [`Rect`](geometry::Rect).
//! * [`grid`] — a uniform spatial hash grid for radius queries in amortised
//!   O(1) per node.
//! * [`pool`] — a deterministic fork-join thread pool (contiguous band
//!   partitioning, band-order merges) for the parallel world phases.
//! * [`rng`] — reproducible per-stream RNG derivation from a master seed.
//! * [`stats`] — online (Welford) statistics, histograms and summaries.
//! * [`units`] — byte counts and bit-rates with transfer-time arithmetic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod geometry;
pub mod grid;
pub mod ids;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

/// Convenience re-exports of the items used by practically every
/// downstream crate.
pub mod prelude {
    pub use crate::event::EventQueue;
    pub use crate::geometry::{Point2, Rect, Vec2};
    pub use crate::ids::{MessageId, NodeId};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::units::{Bytes, DataRate};
}
