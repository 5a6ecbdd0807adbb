//! Scenario configuration and the paper's presets.

use dtn_buffer::congestion::{OccupancyGate, TieredRetention};
use dtn_buffer::copies::CopiesRatio;
use dtn_buffer::fifo::{Fifo, Lifo};
use dtn_buffer::knapsack::Knapsack;
use dtn_buffer::mofo::Mofo;
use dtn_buffer::policy::BufferPolicy;
use dtn_buffer::random::RandomDrop;
use dtn_buffer::ttl::{Shli, TtlRatio};
use dtn_core::ids::NodeId;
use dtn_core::rng::{streams, substream_rng};
use dtn_core::time::SimDuration;
use dtn_core::units::Bytes;
use dtn_mobility::MobilityConfig;
use dtn_net::LinkConfig;
use dtn_routing::direct::DirectDelivery;
use dtn_routing::epidemic::Epidemic;
use dtn_routing::prophet::{Prophet, ProphetConfig};
use dtn_routing::protocol::RoutingProtocol;
use dtn_routing::spray_and_focus::SprayAndFocus;
use dtn_routing::SprayAndWait;
use sdsrp_core::{LambdaMode, PriorityMode, Sdsrp, SdsrpConfig};
use serde::{Deserialize, Serialize};

/// Which buffer-management strategy a scenario runs — the paper's four
/// contenders plus the extra ablation baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Plain Spray and Wait: FIFO service, drop-oldest.
    Fifo,
    /// LIFO (ablation extra).
    Lifo,
    /// Spray and Wait-O: remaining/initial TTL priority.
    TtlRatio,
    /// Spray and Wait-C: held/initial copies priority.
    CopiesRatio,
    /// MOFO: evict most-forwarded first (ablation extra).
    Mofo,
    /// SHLI: evict shortest-remaining-lifetime first (ablation extra).
    Shli,
    /// Uniformly random ranking (ablation floor).
    Random,
    /// Knapsack set-wise admission (the authors' EWSN 2015 companion
    /// strategy; interesting with heterogeneous message sizes).
    Knapsack,
    /// The paper's SDSRP with distributed estimation.
    Sdsrp,
    /// SDSRP variants for ablations.
    SdsrpCustom {
        /// λ source.
        lambda: LambdaMode,
        /// Taylor truncation (None = exact closed form).
        taylor_terms: Option<usize>,
        /// Refuse messages on the dropped list.
        reject_dropped: bool,
        /// Exchange dropped lists on contact.
        gossip: bool,
    },
    /// SDSRP fed perfect `m_i`/`n_i` by the simulator (GBSD-style
    /// global-knowledge upper bound), read from the world's truth
    /// ledger.
    SdsrpOracle {
        /// Oracle intermeeting rate λ.
        lambda: f64,
    },
    /// Congestion-adaptive admission (Congestion Aware Spray and Wait):
    /// TTL-ratio ranking plus an occupancy gate that rejects newcomers
    /// outright once the buffer is fuller than `threshold`.
    OccupancyGate {
        /// Occupancy fraction in `(0, 1]` above which incoming messages
        /// are refused; `1.0` never triggers (pure TTL-ratio reference).
        threshold: f64,
    },
    /// Tiered retention with priority-based purging: messages are binned
    /// into remaining-lifetime tiers, stale tiers are purged first, and
    /// above the occupancy `threshold` newcomers landing in the stalest
    /// tier are refused.
    TieredRetention {
        /// Number of remaining-lifetime tiers (≥ 1).
        tiers: u32,
        /// Occupancy fraction above which stalest-tier newcomers are
        /// refused; `1.0` never refuses (pure tiered eviction).
        threshold: f64,
    },
}

impl PolicyKind {
    /// Instantiates the policy for one node.
    pub fn build(&self, node: NodeId, n_nodes: usize, seed: u64) -> Box<dyn BufferPolicy> {
        match *self {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::Lifo => Box::new(Lifo),
            PolicyKind::TtlRatio => Box::new(TtlRatio),
            PolicyKind::CopiesRatio => Box::new(CopiesRatio),
            PolicyKind::Mofo => Box::new(Mofo),
            PolicyKind::Shli => Box::new(Shli),
            PolicyKind::Random => Box::new(RandomDrop::new(substream_rng(
                seed,
                streams::BUFFER,
                node.0 as u64,
            ))),
            PolicyKind::Knapsack => Box::new(Knapsack::default()),
            PolicyKind::Sdsrp => Box::new(Sdsrp::new(node, SdsrpConfig::paper(n_nodes))),
            PolicyKind::SdsrpCustom {
                lambda,
                taylor_terms,
                reject_dropped,
                gossip,
            } => Box::new(Sdsrp::new(
                node,
                SdsrpConfig {
                    n_nodes,
                    lambda,
                    mode: PriorityMode::from_terms(taylor_terms),
                    reject_dropped,
                    gossip,
                },
            )),
            PolicyKind::SdsrpOracle { lambda } => Box::new(Sdsrp::new(
                node,
                SdsrpConfig {
                    n_nodes,
                    lambda: LambdaMode::Oracle(lambda),
                    mode: PriorityMode::Exact,
                    reject_dropped: true,
                    gossip: true,
                },
            )),
            PolicyKind::OccupancyGate { threshold } => Box::new(OccupancyGate::new(threshold)),
            PolicyKind::TieredRetention { tiers, threshold } => {
                Box::new(TieredRetention::new(tiers, threshold))
            }
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "SprayAndWait",
            PolicyKind::Lifo => "LIFO",
            PolicyKind::TtlRatio => "SprayAndWait-O",
            PolicyKind::CopiesRatio => "SprayAndWait-C",
            PolicyKind::Mofo => "MOFO",
            PolicyKind::Shli => "SHLI",
            PolicyKind::Random => "Random",
            PolicyKind::Knapsack => "Knapsack",
            PolicyKind::Sdsrp => "SDSRP",
            PolicyKind::SdsrpCustom { .. } => "SDSRP-custom",
            PolicyKind::SdsrpOracle { .. } => "SDSRP-oracle",
            PolicyKind::OccupancyGate { .. } => "OccupancyGate",
            PolicyKind::TieredRetention { .. } => "TieredRetention",
        }
    }

    /// The four strategies the paper's Figs. 8-9 compare.
    pub fn paper_four() -> [PolicyKind; 4] {
        [
            PolicyKind::Fifo,
            PolicyKind::TtlRatio,
            PolicyKind::CopiesRatio,
            PolicyKind::Sdsrp,
        ]
    }
}

/// Which routing protocol a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoutingKind {
    /// Binary Spray-and-Wait (the paper's router).
    SprayAndWaitBinary,
    /// Source Spray-and-Wait.
    SprayAndWaitSource,
    /// Epidemic flooding.
    Epidemic,
    /// Direct delivery.
    Direct,
    /// Spray-and-Focus with the given handoff threshold (seconds).
    SprayAndFocus {
        /// Required last-encounter freshness advantage.
        handoff_threshold: f64,
    },
    /// PRoPHET delivery-predictability routing (extension).
    Prophet,
}

impl RoutingKind {
    /// Instantiates the protocol for one node.
    pub fn build(&self) -> Box<dyn RoutingProtocol> {
        match *self {
            RoutingKind::SprayAndWaitBinary => Box::new(SprayAndWait::binary()),
            RoutingKind::SprayAndWaitSource => Box::new(SprayAndWait::source()),
            RoutingKind::Epidemic => Box::new(Epidemic),
            RoutingKind::Direct => Box::new(DirectDelivery),
            RoutingKind::SprayAndFocus { handoff_threshold } => {
                Box::new(SprayAndFocus::new(handoff_threshold))
            }
            RoutingKind::Prophet => Box::new(Prophet::new(ProphetConfig::default())),
        }
    }
}

/// Message inter-arrival process (extension; the paper's generator is
/// `Uniform`: one message every `U[lo, hi]` seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TrafficModel {
    /// One message per uniform draw from `gen_interval` (the paper and
    /// ONE's default event generator).
    #[default]
    Uniform,
    /// Poisson arrivals with the same mean rate as the uniform setting
    /// (`rate = 2 / (lo + hi)`), i.e. exponential inter-arrival times —
    /// burstier, a stress test for the drop policies.
    Poisson,
}

/// Delivery-acknowledgement (immunity) mechanism — an *extension*: the
/// paper explicitly assumes "neither an immunization strategy nor an
/// acknowledgment mechanism" (Section III-A), so `None` is the paper's
/// setting and the others quantify what such a mechanism would add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ImmunityMode {
    /// The paper's setting: delivered messages keep circulating until
    /// TTL expiry.
    #[default]
    None,
    /// Idealised VACCINE: the instant a message is delivered, every
    /// buffered copy network-wide is purged (an upper bound on what any
    /// antipacket scheme can achieve).
    OracleFlood,
    /// Distributed antipackets: the destination records the delivery;
    /// nodes exchange their acknowledged-id sets on contact, purge
    /// buffered copies of acknowledged messages and refuse to receive
    /// them again.
    AntipacketGossip,
}

/// Deterministic, seeded fault-injection and churn plan (extension).
///
/// All fault randomness derives from the dedicated
/// `dtn_core::rng::streams::FAULTS` stream of the scenario's master
/// seed: the same `(config, seed)` pair always produces the same crash
/// schedule, blackout windows, abort coin flips and clock skews, and an
/// [empty](Self::is_empty) plan draws *nothing* from any stream, so
/// fault-free runs are bit-identical to builds without this subsystem.
///
/// Semantics:
///
/// * **Crashes** — each node crashes as a Poisson process with rate
///   [`crash_rate_per_hour`](Self::crash_rate_per_hour); a crash wipes
///   the node's buffer, dropped-list and λ-estimator state (delivered /
///   acknowledged sets survive, modelling durable application storage),
///   takes its radio down, and the node reboots cold after
///   [`reboot_secs`](Self::reboot_secs).
/// * **Blackouts** — an independent per-node Poisson process with rate
///   [`blackout_rate_per_hour`](Self::blackout_rate_per_hour) takes the
///   radio down for [`blackout_secs`](Self::blackout_secs) without
///   touching any state.
/// * **Transfer aborts** — each scheduled transfer completion fails
///   with probability [`transfer_abort_prob`](Self::transfer_abort_prob)
///   (lossy radios; the copy split never happens).
/// * **Clock skew** — each node's wall clock is offset by a fixed
///   amount drawn uniformly from `±clock_skew_max_secs`; the skewed
///   clock stamps the Eq. 15 spray timestamps, degrading `m_i`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Mean node crashes per hour (per node); 0 disables crashes.
    #[serde(default)]
    pub crash_rate_per_hour: f64,
    /// Downtime between a crash and the cold reboot, seconds.
    #[serde(default)]
    pub reboot_secs: f64,
    /// Mean radio blackouts per hour (per node); 0 disables blackouts.
    #[serde(default)]
    pub blackout_rate_per_hour: f64,
    /// Duration of each radio blackout, seconds.
    #[serde(default)]
    pub blackout_secs: f64,
    /// Probability that a scheduled transfer aborts mid-flight.
    #[serde(default)]
    pub transfer_abort_prob: f64,
    /// Half-width of the per-node clock-skew interval, seconds; 0
    /// disables skew.
    #[serde(default)]
    pub clock_skew_max_secs: f64,
}

impl FaultPlan {
    /// Whether the plan injects nothing (the default). Empty plans draw
    /// zero values from the FAULTS RNG stream.
    pub fn is_empty(&self) -> bool {
        self.crash_rate_per_hour == 0.0
            && self.blackout_rate_per_hour == 0.0
            && self.transfer_abort_prob == 0.0
            && self.clock_skew_max_secs == 0.0
    }

    /// Short human-readable label for sweep tables and checkpoints,
    /// e.g. `crash=0.5/h+60s blackout=2/h+30s abort=0.05 skew=10s`
    /// (or `none`).
    pub fn label(&self) -> String {
        if self.is_empty() {
            return "none".into();
        }
        let mut parts = Vec::new();
        if self.crash_rate_per_hour > 0.0 {
            parts.push(format!(
                "crash={}/h+{}s",
                self.crash_rate_per_hour, self.reboot_secs
            ));
        }
        if self.blackout_rate_per_hour > 0.0 {
            parts.push(format!(
                "blackout={}/h+{}s",
                self.blackout_rate_per_hour, self.blackout_secs
            ));
        }
        if self.transfer_abort_prob > 0.0 {
            parts.push(format!("abort={}", self.transfer_abort_prob));
        }
        if self.clock_skew_max_secs > 0.0 {
            parts.push(format!("skew={}s", self.clock_skew_max_secs));
        }
        parts.join(" ")
    }

    /// Validates the plan (called from [`ScenarioConfig::validate`]).
    pub fn validate(&self) {
        assert!(
            self.crash_rate_per_hour >= 0.0 && self.crash_rate_per_hour.is_finite(),
            "crash rate must be finite and non-negative"
        );
        assert!(
            self.blackout_rate_per_hour >= 0.0 && self.blackout_rate_per_hour.is_finite(),
            "blackout rate must be finite and non-negative"
        );
        if self.crash_rate_per_hour > 0.0 {
            assert!(
                self.reboot_secs > 0.0 && self.reboot_secs.is_finite(),
                "crashes need a positive reboot time"
            );
        }
        if self.blackout_rate_per_hour > 0.0 {
            assert!(
                self.blackout_secs > 0.0 && self.blackout_secs.is_finite(),
                "blackouts need a positive duration"
            );
        }
        assert!(
            (0.0..1.0).contains(&self.transfer_abort_prob),
            "transfer abort probability must be in [0, 1)"
        );
        assert!(
            self.clock_skew_max_secs >= 0.0 && self.clock_skew_max_secs.is_finite(),
            "clock skew must be finite and non-negative"
        );
    }
}

/// A complete simulation scenario. Every run is a pure function of
/// `(ScenarioConfig, seed)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Scenario label for reports.
    pub name: String,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Movement-sampling tick, seconds.
    pub tick_secs: f64,
    /// Mobility model.
    pub mobility: MobilityConfig,
    /// Radio parameters.
    pub link: LinkConfig,
    /// Per-node buffer capacity.
    pub buffer_capacity: Bytes,
    /// Payload size of every generated message.
    pub message_size: Bytes,
    /// Message generation interval `[lo, hi]` seconds (one new message
    /// network-wide per interval, like ONE's event generator).
    pub gen_interval: (f64, f64),
    /// Initial TTL of every message.
    pub ttl: SimDuration,
    /// Initial copy tokens `L`.
    pub initial_copies: u32,
    /// Buffer-management strategy under test.
    pub policy: PolicyKind,
    /// Routing protocol.
    pub routing: RoutingKind,
    /// Master seed.
    pub seed: u64,
    /// Delivery-acknowledgement mechanism (extension; the paper uses
    /// [`ImmunityMode::None`]).
    #[serde(default)]
    pub immunity: ImmunityMode,
    /// Draw each message's size uniformly from `[message_size,
    /// message_size_max]` instead of the fixed Table II 0.5 MB
    /// (extension; exercises size-aware policies such as
    /// [`PolicyKind::Knapsack`]).
    #[serde(default)]
    pub message_size_max: Option<Bytes>,
    /// Message inter-arrival process (extension; the paper uses
    /// [`TrafficModel::Uniform`]).
    #[serde(default)]
    pub traffic: TrafficModel,
    /// Warm-up period, seconds (extension; ONE-style): messages
    /// generated before this instant are simulated normally but excluded
    /// from every reported metric, removing cold-start bias. The paper
    /// uses 0 (no warm-up).
    #[serde(default)]
    pub warmup_secs: f64,
    /// Deterministic fault-injection plan (extension; empty by default,
    /// which reproduces fault-free runs bit-identically).
    #[serde(default)]
    pub faults: FaultPlan,
}

impl ScenarioConfig {
    /// Basic validation; called by the world builder.
    pub fn validate(&self) {
        assert!(self.n_nodes >= 2, "need at least two nodes");
        assert!(self.duration_secs > 0.0, "duration must be positive");
        assert!(self.tick_secs > 0.0, "tick must be positive");
        assert!(
            self.gen_interval.0 > 0.0 && self.gen_interval.1 >= self.gen_interval.0,
            "invalid generation interval"
        );
        assert!(self.initial_copies >= 1, "need at least one copy token");
        assert!(
            self.message_size <= self.buffer_capacity,
            "a single message must fit in the buffer"
        );
        assert!(
            self.warmup_secs >= 0.0 && self.warmup_secs < self.duration_secs,
            "warm-up must lie within the run"
        );
        if let Some(max) = self.message_size_max {
            assert!(
                max >= self.message_size,
                "message_size_max below message_size"
            );
            assert!(
                max <= self.buffer_capacity,
                "the largest message must fit in the buffer"
            );
        }
        self.faults.validate();
    }
}

/// The paper's scenario presets (Tables II and III).
pub mod presets {
    use super::*;

    /// Table II: random waypoint, 100 nodes, 4500 m x 3400 m, 2 m/s,
    /// 250 kbps, 100 m range, 2.5 MB buffers, 0.5 MB messages, one
    /// message per 25-35 s, TTL 300 min, L = 32, 18 000 s.
    pub fn random_waypoint_paper() -> ScenarioConfig {
        ScenarioConfig {
            name: "rwp-paper".into(),
            n_nodes: 100,
            duration_secs: 18_000.0,
            tick_secs: 1.0,
            mobility: MobilityConfig::paper_random_waypoint(),
            link: LinkConfig::paper(),
            buffer_capacity: Bytes::from_mb(2.5),
            message_size: Bytes::from_mb(0.5),
            gen_interval: (25.0, 35.0),
            ttl: SimDuration::from_mins(300.0),
            initial_copies: 32,
            policy: PolicyKind::Sdsrp,
            routing: RoutingKind::SprayAndWaitBinary,
            seed: 1,
            immunity: ImmunityMode::None,
            message_size_max: None,
            traffic: TrafficModel::Uniform,
            warmup_secs: 0.0,
            faults: Default::default(),
        }
    }

    /// Table III: the EPFL-taxi substitute — 200 taxis over a hotspot
    /// city, same radio/buffer/traffic parameters as Table II.
    pub fn epfl_paper() -> ScenarioConfig {
        ScenarioConfig {
            name: "epfl-paper".into(),
            n_nodes: 200,
            mobility: MobilityConfig::paper_taxi(),
            ..random_waypoint_paper()
        }
    }

    /// A laptop-fast smoke scenario used by tests and examples: the
    /// Table II physics in a quarter-size playground with 40 nodes and
    /// 3600 s.
    pub fn smoke() -> ScenarioConfig {
        use dtn_mobility::random_waypoint::RandomWaypointConfig;
        ScenarioConfig {
            name: "smoke".into(),
            n_nodes: 40,
            duration_secs: 3600.0,
            tick_secs: 1.0,
            mobility: MobilityConfig::RandomWaypoint(RandomWaypointConfig {
                area: dtn_core::geometry::Rect::from_size(2000.0, 1500.0),
                min_speed: 2.0,
                max_speed: 2.0,
                min_pause: 0.0,
                max_pause: 0.0,
            }),
            link: LinkConfig::paper(),
            buffer_capacity: Bytes::from_mb(2.5),
            message_size: Bytes::from_mb(0.5),
            gen_interval: (25.0, 35.0),
            ttl: SimDuration::from_mins(60.0),
            initial_copies: 16,
            policy: PolicyKind::Sdsrp,
            routing: RoutingKind::SprayAndWaitBinary,
            seed: 1,
            immunity: ImmunityMode::None,
            message_size_max: None,
            traffic: TrafficModel::Uniform,
            warmup_secs: 0.0,
            faults: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_tables() {
        let rwp = presets::random_waypoint_paper();
        assert_eq!(rwp.n_nodes, 100);
        assert_eq!(rwp.duration_secs, 18_000.0);
        assert_eq!(rwp.buffer_capacity, Bytes::from_mb(2.5));
        assert_eq!(rwp.message_size, Bytes::from_mb(0.5));
        assert_eq!(rwp.ttl, SimDuration::from_mins(300.0));
        assert_eq!(rwp.initial_copies, 32);
        assert_eq!(rwp.gen_interval, (25.0, 35.0));
        rwp.validate();

        let epfl = presets::epfl_paper();
        assert_eq!(epfl.n_nodes, 200);
        assert_eq!(epfl.link, LinkConfig::paper());
        epfl.validate();

        presets::smoke().validate();
    }

    #[test]
    fn policy_factory_builds_all_kinds() {
        let kinds = [
            PolicyKind::Fifo,
            PolicyKind::Lifo,
            PolicyKind::TtlRatio,
            PolicyKind::CopiesRatio,
            PolicyKind::Mofo,
            PolicyKind::Shli,
            PolicyKind::Random,
            PolicyKind::Sdsrp,
            PolicyKind::SdsrpOracle { lambda: 1e-4 },
            PolicyKind::SdsrpCustom {
                lambda: LambdaMode::Oracle(1e-4),
                taylor_terms: Some(3),
                reject_dropped: false,
                gossip: false,
            },
            PolicyKind::OccupancyGate { threshold: 0.8 },
            PolicyKind::TieredRetention {
                tiers: 4,
                threshold: 0.9,
            },
        ];
        for k in kinds {
            let p = k.build(NodeId(0), 100, 1);
            assert!(!p.name().is_empty());
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn routing_factory_builds_all_kinds() {
        for r in [
            RoutingKind::SprayAndWaitBinary,
            RoutingKind::SprayAndWaitSource,
            RoutingKind::Epidemic,
            RoutingKind::Direct,
            RoutingKind::SprayAndFocus {
                handoff_threshold: 60.0,
            },
            RoutingKind::Prophet,
        ] {
            assert!(!r.build().name().is_empty());
        }
    }

    #[test]
    fn paper_four_lineup() {
        let four = PolicyKind::paper_four();
        let labels: Vec<_> = four.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec!["SprayAndWait", "SprayAndWait-O", "SprayAndWait-C", "SDSRP"]
        );
    }

    #[test]
    #[should_panic(expected = "single message must fit")]
    fn oversized_message_rejected() {
        let mut cfg = presets::smoke();
        cfg.message_size = Bytes::from_mb(99.0);
        cfg.validate();
    }

    #[test]
    fn serde_roundtrip() {
        let cfg = presets::random_waypoint_paper();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
