//! The structured simulation event vocabulary.
//!
//! Events carry primitive fields only (`u32` node indices, `u64`
//! message ids, `f64` seconds): the simulator converts its typed ids at
//! the emission site, and this crate stays free of upstream
//! dependencies. Every event starts with the simulation time `t` in
//! seconds.

use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Why a buffered or incoming message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// A resident was evicted to make room (Algorithm 1's drop step).
    Evicted,
    /// The incoming message itself was refused admission.
    RejectedIncoming,
    /// A copy of an acknowledged message was purged (immunity
    /// extension).
    ImmunityPurge,
}

impl DropReason {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Evicted => "evicted",
            DropReason::RejectedIncoming => "rejected_incoming",
            DropReason::ImmunityPurge => "immunity_purge",
        }
    }
}

/// One structured simulation event.
///
/// Emission sites mirror the [`crate::manifest::RunManifest`]
/// accounting: message-level events (`MessageGenerated`, `Replicated`,
/// `Delivered`) fire only for messages counted by the run's report
/// (i.e. generated after warm-up), so event totals reconcile exactly
/// with the report's counters.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A new message entered the network at its source.
    MessageGenerated {
        /// Simulation time, seconds.
        t: f64,
        /// Message id.
        msg: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Message size, bytes.
        size: u64,
        /// Initial spray copies `L`.
        copies: u32,
    },
    /// A copy was replicated (or handed off) to a peer.
    Replicated {
        /// Simulation time, seconds.
        t: f64,
        /// Message id.
        msg: u64,
        /// Sending node.
        from: u32,
        /// Receiving node.
        to: u32,
        /// Copy tokens the receiver obtained.
        copies: u32,
    },
    /// The destination received the message.
    Delivered {
        /// Simulation time, seconds.
        t: f64,
        /// Message id.
        msg: u64,
        /// The node that performed the final hop.
        from: u32,
        /// Hop count of the delivering copy (final hop included).
        hops: u32,
        /// Creation-to-delivery latency, seconds.
        latency: f64,
        /// Whether this is the first delivery of the message.
        first: bool,
    },
    /// A message was dropped by a buffer-management decision.
    Dropped {
        /// Simulation time, seconds.
        t: f64,
        /// Message id.
        msg: u64,
        /// The node that dropped it.
        node: u32,
        /// Name of the buffer policy that decided.
        policy: &'static str,
        /// What kind of drop decision it was.
        reason: DropReason,
    },
    /// A receiver refused a message on its dropped list (paper
    /// Section III-C). Deduplicated per `(node, msg)` pair.
    Refused {
        /// Simulation time, seconds.
        t: f64,
        /// Message id.
        msg: u64,
        /// The refusing node.
        node: u32,
        /// The would-be sender.
        from: u32,
    },
    /// A node merged a peer's dropped-list gossip.
    GossipMerged {
        /// Simulation time, seconds.
        t: f64,
        /// The merging node.
        node: u32,
        /// The peer whose records were offered.
        from: u32,
        /// Records adopted (new or newer than the local copy).
        records: u64,
    },
    /// Two nodes came into radio range.
    ContactUp {
        /// Simulation time, seconds.
        t: f64,
        /// Lower node id of the pair.
        a: u32,
        /// Higher node id of the pair.
        b: u32,
    },
    /// A contact closed.
    ContactDown {
        /// Simulation time, seconds.
        t: f64,
        /// Lower node id of the pair.
        a: u32,
        /// Higher node id of the pair.
        b: u32,
    },
    /// A buffered copy expired (TTL) and was purged.
    TtlExpired {
        /// Simulation time, seconds.
        t: f64,
        /// Message id.
        msg: u64,
        /// The node holding the expired copy.
        node: u32,
    },
    /// Aggregated estimator-vs-ground-truth errors from one validation
    /// sampling sweep (emitted only when validation is enabled).
    EstimatorSample {
        /// Simulation time, seconds.
        t: f64,
        /// Buffered copies sampled in this sweep.
        samples: u64,
        /// Mean relative error of the Eq. 15 `m_i` estimate.
        mean_err_m: f64,
        /// Max relative error of the Eq. 15 `m_i` estimate.
        max_err_m: f64,
        /// Mean relative error of the Eq. 14 `n_i` estimate.
        mean_err_n: f64,
        /// Max relative error of the Eq. 14 `n_i` estimate.
        max_err_n: f64,
    },
    /// A simulation invariant was violated (emitted only when
    /// validation is enabled; a correct simulator never produces one).
    InvariantViolation {
        /// Simulation time, seconds.
        t: f64,
        /// Stable label of the failed check.
        check: &'static str,
        /// The message involved, for per-message checks.
        msg: Option<u64>,
        /// The node involved, for per-node checks.
        node: Option<u32>,
    },
    /// An injected fault crashed a node: its buffer, dropped-list and
    /// estimator state were wiped and its radio went down.
    NodeCrashed {
        /// Simulation time, seconds.
        t: f64,
        /// The crashed node.
        node: u32,
        /// Buffered copies wiped by the crash.
        wiped: u64,
    },
    /// A crashed node finished rebooting (radio back up, state cold).
    NodeRebooted {
        /// Simulation time, seconds.
        t: f64,
        /// The rebooted node.
        node: u32,
    },
    /// An injected radio blackout started (state intact, radio down).
    BlackoutStarted {
        /// Simulation time, seconds.
        t: f64,
        /// The silenced node.
        node: u32,
    },
    /// A radio blackout ended.
    BlackoutEnded {
        /// Simulation time, seconds.
        t: f64,
        /// The node whose radio came back.
        node: u32,
    },
    /// An injected fault aborted a scheduled transfer mid-flight.
    TransferAborted {
        /// Simulation time, seconds.
        t: f64,
        /// The message in flight.
        msg: u64,
        /// Sending node.
        from: u32,
        /// Intended receiving node.
        to: u32,
    },
}

impl SimEvent {
    /// Stable lower-snake-case event-kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::MessageGenerated { .. } => "message_generated",
            SimEvent::Replicated { .. } => "replicated",
            SimEvent::Delivered { .. } => "delivered",
            SimEvent::Dropped { .. } => "dropped",
            SimEvent::Refused { .. } => "refused",
            SimEvent::GossipMerged { .. } => "gossip_merged",
            SimEvent::ContactUp { .. } => "contact_up",
            SimEvent::ContactDown { .. } => "contact_down",
            SimEvent::TtlExpired { .. } => "ttl_expired",
            SimEvent::EstimatorSample { .. } => "estimator_sample",
            SimEvent::InvariantViolation { .. } => "invariant_violation",
            SimEvent::NodeCrashed { .. } => "node_crashed",
            SimEvent::NodeRebooted { .. } => "node_rebooted",
            SimEvent::BlackoutStarted { .. } => "blackout_started",
            SimEvent::BlackoutEnded { .. } => "blackout_ended",
            SimEvent::TransferAborted { .. } => "transfer_aborted",
        }
    }

    /// Simulation time of the event, seconds.
    pub fn time(&self) -> f64 {
        match *self {
            SimEvent::MessageGenerated { t, .. }
            | SimEvent::Replicated { t, .. }
            | SimEvent::Delivered { t, .. }
            | SimEvent::Dropped { t, .. }
            | SimEvent::Refused { t, .. }
            | SimEvent::GossipMerged { t, .. }
            | SimEvent::ContactUp { t, .. }
            | SimEvent::ContactDown { t, .. }
            | SimEvent::TtlExpired { t, .. }
            | SimEvent::EstimatorSample { t, .. }
            | SimEvent::InvariantViolation { t, .. }
            | SimEvent::NodeCrashed { t, .. }
            | SimEvent::NodeRebooted { t, .. }
            | SimEvent::BlackoutStarted { t, .. }
            | SimEvent::BlackoutEnded { t, .. }
            | SimEvent::TransferAborted { t, .. } => t,
        }
    }

    /// Flat JSON value: `{"kind": "...", "t": ..., ...}` — the JSONL
    /// line schema.
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("kind".into(), Value::String(self.kind().into())),
            ("t".into(), f64_value(self.time())),
        ];
        let push_u64 = |fields: &mut Vec<(String, Value)>, name: &str, v: u64| {
            fields.push((name.into(), Value::Number(serde::value::Number::U64(v))));
        };
        match *self {
            SimEvent::MessageGenerated {
                msg,
                src,
                dst,
                size,
                copies,
                ..
            } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "src", src as u64);
                push_u64(&mut fields, "dst", dst as u64);
                push_u64(&mut fields, "size", size);
                push_u64(&mut fields, "copies", copies as u64);
            }
            SimEvent::Replicated {
                msg,
                from,
                to,
                copies,
                ..
            } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "from", from as u64);
                push_u64(&mut fields, "to", to as u64);
                push_u64(&mut fields, "copies", copies as u64);
            }
            SimEvent::Delivered {
                msg,
                from,
                hops,
                latency,
                first,
                ..
            } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "from", from as u64);
                push_u64(&mut fields, "hops", hops as u64);
                fields.push(("latency".into(), f64_value(latency)));
                fields.push(("first".into(), Value::Bool(first)));
            }
            SimEvent::Dropped {
                msg,
                node,
                policy,
                reason,
                ..
            } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "node", node as u64);
                fields.push(("policy".into(), Value::String(policy.into())));
                fields.push(("reason".into(), Value::String(reason.label().into())));
            }
            SimEvent::Refused {
                msg, node, from, ..
            } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "node", node as u64);
                push_u64(&mut fields, "from", from as u64);
            }
            SimEvent::GossipMerged {
                node,
                from,
                records,
                ..
            } => {
                push_u64(&mut fields, "node", node as u64);
                push_u64(&mut fields, "from", from as u64);
                push_u64(&mut fields, "records", records);
            }
            SimEvent::ContactUp { a, b, .. } | SimEvent::ContactDown { a, b, .. } => {
                push_u64(&mut fields, "a", a as u64);
                push_u64(&mut fields, "b", b as u64);
            }
            SimEvent::TtlExpired { msg, node, .. } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "node", node as u64);
            }
            SimEvent::EstimatorSample {
                samples,
                mean_err_m,
                max_err_m,
                mean_err_n,
                max_err_n,
                ..
            } => {
                push_u64(&mut fields, "samples", samples);
                fields.push(("mean_err_m".into(), f64_value(mean_err_m)));
                fields.push(("max_err_m".into(), f64_value(max_err_m)));
                fields.push(("mean_err_n".into(), f64_value(mean_err_n)));
                fields.push(("max_err_n".into(), f64_value(max_err_n)));
            }
            SimEvent::InvariantViolation {
                check, msg, node, ..
            } => {
                fields.push(("check".into(), Value::String(check.into())));
                if let Some(m) = msg {
                    push_u64(&mut fields, "msg", m);
                }
                if let Some(n) = node {
                    push_u64(&mut fields, "node", n as u64);
                }
            }
            SimEvent::NodeCrashed { node, wiped, .. } => {
                push_u64(&mut fields, "node", node as u64);
                push_u64(&mut fields, "wiped", wiped);
            }
            SimEvent::NodeRebooted { node, .. }
            | SimEvent::BlackoutStarted { node, .. }
            | SimEvent::BlackoutEnded { node, .. } => {
                push_u64(&mut fields, "node", node as u64);
            }
            SimEvent::TransferAborted { msg, from, to, .. } => {
                push_u64(&mut fields, "msg", msg);
                push_u64(&mut fields, "from", from as u64);
                push_u64(&mut fields, "to", to as u64);
            }
        }
        Value::Object(fields)
    }

    /// One JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("event serialises")
    }
}

fn f64_value(v: f64) -> Value {
    Value::Number(serde::value::Number::F64(v))
}

/// Per-kind event counters — cheap to bump on every emission, cheap to
/// aggregate across runs, and the accounting backbone of the
/// [`crate::manifest::RunManifest`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventTotals {
    /// `MessageGenerated` events.
    pub generated: u64,
    /// `Replicated` events (replications and handoffs).
    pub replicated: u64,
    /// `Delivered` events, duplicates included.
    pub delivered: u64,
    /// `Delivered` events with `first == true` (unique deliveries).
    pub delivered_first: u64,
    /// `Dropped` events with reason `Evicted`.
    pub dropped_evicted: u64,
    /// `Dropped` events with reason `RejectedIncoming`.
    pub dropped_rejected: u64,
    /// `Dropped` events with reason `ImmunityPurge`.
    pub dropped_immunity: u64,
    /// `Refused` events.
    pub refused: u64,
    /// `GossipMerged` events.
    pub gossip_merges: u64,
    /// Sum of adopted records over all `GossipMerged` events.
    pub gossip_records: u64,
    /// `ContactUp` events.
    pub contacts_up: u64,
    /// `ContactDown` events.
    pub contacts_down: u64,
    /// `TtlExpired` events.
    pub ttl_expired: u64,
    /// `EstimatorSample` events (validated runs only).
    #[serde(default)]
    pub estimator_samples: u64,
    /// `InvariantViolation` events (validated runs only; zero on a
    /// correct simulator).
    #[serde(default)]
    pub invariant_violations: u64,
    /// `NodeCrashed` events (fault-injected runs only).
    #[serde(default)]
    pub node_crashes: u64,
    /// `NodeRebooted` events (fault-injected runs only).
    #[serde(default)]
    pub node_reboots: u64,
    /// `BlackoutStarted` events (fault-injected runs only).
    #[serde(default)]
    pub blackouts: u64,
    /// `BlackoutEnded` events (fewer than `blackouts` when a blackout
    /// outlives the run).
    #[serde(default)]
    pub blackout_ends: u64,
    /// Buffered copies wiped across all `NodeCrashed` events.
    #[serde(default)]
    pub crash_wiped_copies: u64,
    /// `TransferAborted` events (injected mid-flight aborts only;
    /// mobility-caused aborts are counted by the run report).
    #[serde(default)]
    pub fault_aborts: u64,
}

impl EventTotals {
    /// Counts one event.
    pub fn bump(&mut self, ev: &SimEvent) {
        match ev {
            SimEvent::MessageGenerated { .. } => self.generated += 1,
            SimEvent::Replicated { .. } => self.replicated += 1,
            SimEvent::Delivered { first, .. } => {
                self.delivered += 1;
                if *first {
                    self.delivered_first += 1;
                }
            }
            SimEvent::Dropped { reason, .. } => match reason {
                DropReason::Evicted => self.dropped_evicted += 1,
                DropReason::RejectedIncoming => self.dropped_rejected += 1,
                DropReason::ImmunityPurge => self.dropped_immunity += 1,
            },
            SimEvent::Refused { .. } => self.refused += 1,
            SimEvent::GossipMerged { records, .. } => {
                self.gossip_merges += 1;
                self.gossip_records += records;
            }
            SimEvent::ContactUp { .. } => self.contacts_up += 1,
            SimEvent::ContactDown { .. } => self.contacts_down += 1,
            SimEvent::TtlExpired { .. } => self.ttl_expired += 1,
            SimEvent::EstimatorSample { .. } => self.estimator_samples += 1,
            SimEvent::InvariantViolation { .. } => self.invariant_violations += 1,
            SimEvent::NodeCrashed { wiped, .. } => {
                self.node_crashes += 1;
                self.crash_wiped_copies += wiped;
            }
            SimEvent::NodeRebooted { .. } => self.node_reboots += 1,
            SimEvent::BlackoutStarted { .. } => self.blackouts += 1,
            SimEvent::BlackoutEnded { .. } => self.blackout_ends += 1,
            SimEvent::TransferAborted { .. } => self.fault_aborts += 1,
        }
    }

    /// Adds another totals block (sweep aggregation).
    pub fn absorb(&mut self, other: &EventTotals) {
        self.generated += other.generated;
        self.replicated += other.replicated;
        self.delivered += other.delivered;
        self.delivered_first += other.delivered_first;
        self.dropped_evicted += other.dropped_evicted;
        self.dropped_rejected += other.dropped_rejected;
        self.dropped_immunity += other.dropped_immunity;
        self.refused += other.refused;
        self.gossip_merges += other.gossip_merges;
        self.gossip_records += other.gossip_records;
        self.contacts_up += other.contacts_up;
        self.contacts_down += other.contacts_down;
        self.ttl_expired += other.ttl_expired;
        self.estimator_samples += other.estimator_samples;
        self.invariant_violations += other.invariant_violations;
        self.node_crashes += other.node_crashes;
        self.node_reboots += other.node_reboots;
        self.blackouts += other.blackouts;
        self.blackout_ends += other.blackout_ends;
        self.crash_wiped_copies += other.crash_wiped_copies;
        self.fault_aborts += other.fault_aborts;
    }

    /// All drop decisions (evictions + rejections + immunity purges).
    pub fn dropped(&self) -> u64 {
        self.dropped_evicted + self.dropped_rejected + self.dropped_immunity
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.generated
            + self.replicated
            + self.delivered
            + self.dropped()
            + self.refused
            + self.gossip_merges
            + self.contacts_up
            + self.contacts_down
            + self.ttl_expired
            + self.estimator_samples
            + self.invariant_violations
            + self.node_crashes
            + self.node_reboots
            + self.blackouts
            + self.blackout_ends
            + self.fault_aborts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SimEvent> {
        vec![
            SimEvent::MessageGenerated {
                t: 1.0,
                msg: 7,
                src: 0,
                dst: 3,
                size: 500_000,
                copies: 16,
            },
            SimEvent::Replicated {
                t: 2.0,
                msg: 7,
                from: 0,
                to: 1,
                copies: 8,
            },
            SimEvent::Delivered {
                t: 3.5,
                msg: 7,
                from: 1,
                hops: 2,
                latency: 2.5,
                first: true,
            },
            SimEvent::Delivered {
                t: 4.0,
                msg: 7,
                from: 0,
                hops: 1,
                latency: 3.0,
                first: false,
            },
            SimEvent::Dropped {
                t: 5.0,
                msg: 9,
                node: 2,
                policy: "SDSRP",
                reason: DropReason::Evicted,
            },
            SimEvent::Refused {
                t: 6.0,
                msg: 9,
                node: 2,
                from: 1,
            },
            SimEvent::GossipMerged {
                t: 7.0,
                node: 1,
                from: 2,
                records: 3,
            },
            SimEvent::ContactUp { t: 8.0, a: 0, b: 1 },
            SimEvent::ContactDown { t: 9.0, a: 0, b: 1 },
            SimEvent::TtlExpired {
                t: 10.0,
                msg: 7,
                node: 0,
            },
            SimEvent::EstimatorSample {
                t: 11.0,
                samples: 42,
                mean_err_m: 0.12,
                max_err_m: 0.5,
                mean_err_n: 0.2,
                max_err_n: 0.75,
            },
            SimEvent::InvariantViolation {
                t: 12.0,
                check: "copy_conservation",
                msg: Some(7),
                node: None,
            },
            SimEvent::NodeCrashed {
                t: 13.0,
                node: 4,
                wiped: 3,
            },
            SimEvent::NodeRebooted { t: 14.0, node: 4 },
            SimEvent::BlackoutStarted { t: 15.0, node: 2 },
            SimEvent::BlackoutEnded { t: 16.0, node: 2 },
            SimEvent::TransferAborted {
                t: 17.0,
                msg: 9,
                from: 0,
                to: 2,
            },
        ]
    }

    #[test]
    fn jsonl_lines_carry_kind_and_time() {
        for ev in sample() {
            let line = ev.to_jsonl();
            let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
            assert_eq!(v["kind"].as_str().unwrap(), ev.kind());
            assert_eq!(v["t"].as_f64().unwrap(), ev.time());
        }
    }

    #[test]
    fn jsonl_field_fidelity() {
        let ev = SimEvent::Delivered {
            t: 3.5,
            msg: 7,
            from: 1,
            hops: 2,
            latency: 2.5,
            first: true,
        };
        let v: serde_json::Value = serde_json::from_str(&ev.to_jsonl()).unwrap();
        assert_eq!(v["msg"].as_u64(), Some(7));
        assert_eq!(v["hops"].as_u64(), Some(2));
        assert_eq!(v["latency"].as_f64(), Some(2.5));
        assert_eq!(v["first"].as_bool(), Some(true));
    }

    #[test]
    fn totals_reconcile() {
        let mut t = EventTotals::default();
        for ev in sample() {
            t.bump(&ev);
        }
        assert_eq!(t.generated, 1);
        assert_eq!(t.replicated, 1);
        assert_eq!(t.delivered, 2);
        assert_eq!(t.delivered_first, 1);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.refused, 1);
        assert_eq!(t.gossip_merges, 1);
        assert_eq!(t.gossip_records, 3);
        assert_eq!(t.contacts_up, 1);
        assert_eq!(t.contacts_down, 1);
        assert_eq!(t.ttl_expired, 1);
        assert_eq!(t.estimator_samples, 1);
        assert_eq!(t.invariant_violations, 1);
        assert_eq!(t.node_crashes, 1);
        assert_eq!(t.node_reboots, 1);
        assert_eq!(t.blackouts, 1);
        assert_eq!(t.blackout_ends, 1);
        assert_eq!(t.crash_wiped_copies, 3);
        assert_eq!(t.fault_aborts, 1);
        assert_eq!(t.total(), 17);

        let mut u = t.clone();
        u.absorb(&t);
        assert_eq!(u.total(), 34);
        assert_eq!(u.gossip_records, 6);
        assert_eq!(u.crash_wiped_copies, 6);
    }

    #[test]
    fn totals_serde_roundtrip() {
        let mut t = EventTotals::default();
        for ev in sample() {
            t.bump(&ev);
        }
        let json = serde_json::to_string(&t).unwrap();
        let back: EventTotals = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
