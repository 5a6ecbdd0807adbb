//! # dtn-validate
//!
//! Simulation invariants, the ground-truth ledger and run fingerprints
//! for the SDSRP reproduction.
//!
//! * [`truth`] — the world's one ground-truth ledger
//!   ([`truth::TruthLedger`] of [`truth::MessageTruth`]): the true
//!   `m_i`/`n_i`/`d_i` and token balance per message, updated once per
//!   state transition. The `SdsrpOracle` ablation reads its inputs
//!   from it.
//! * [`validator`] — the [`validator::Validator`], a checker over that
//!   ledger the world drives via a few hooks and per-tick sweeps:
//!   copy-token conservation across the spray tree, holder counts
//!   against the buffers, buffer-capacity and usage accounting,
//!   delivered messages never resident at their destination,
//!   dropped-list gossip monotonicity and soundness, and TTL-expiry
//!   timeliness. It also scores the paper's Eq. 14/15 estimates
//!   against the ledger.
//! * [`violation`] — the invariant vocabulary
//!   ([`violation::ViolationKind`], [`violation::Violation`]).
//! * [`report`] — the per-run [`report::ValidationReport`].
//! * [`oracle`] — closed-form analytic models, currently the binary
//!   Spray and Wait delivery-delay CDF
//!   ([`oracle::delay::DelayModel`]) with a KS-style deviation
//!   statistic against simulated delays.
//! * [`fingerprint`] — integer-only
//!   [`fingerprint::ReportFingerprint`]s for bit-identical replay
//!   comparison and golden snapshots.
//!
//! Validation is strictly opt-in: the simulator holds an
//! `Option<TruthLedger>` and an `Option<Box<Validator>>`, and every
//! hook sits behind one branch, so a run that neither validates nor
//! runs `SdsrpOracle` pays nothing.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fingerprint;
pub mod oracle;
pub mod report;
pub mod truth;
pub mod validator;
pub mod violation;

pub use fingerprint::ReportFingerprint;
pub use oracle::delay::DelayModel;
pub use report::{ErrStats, FaultLedger, ValidationReport};
pub use truth::{MessageTruth, TruthLedger};
pub use validator::{EstimatorSweepSample, SweepOutcome, ValidateConfig, Validator, ViolationNote};
pub use violation::{Violation, ViolationKind};
