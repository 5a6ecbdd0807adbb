use super::*;
use crate::config::{presets, PolicyKind, RoutingKind};
use dtn_core::units::Bytes;
use dtn_mobility::MobilityConfig;

/// Two stationary nodes in range: a message generated at one must be
/// delivered to the other by direct contact.
fn tiny_two_node(policy: PolicyKind) -> ScenarioConfig {
    ScenarioConfig {
        name: "two-node".into(),
        n_nodes: 2,
        duration_secs: 300.0,
        tick_secs: 1.0,
        mobility: MobilityConfig::Stationary {
            positions: vec![(0.0, 0.0), (50.0, 0.0)],
        },
        link: dtn_net::LinkConfig::paper(),
        buffer_capacity: Bytes::from_mb(2.5),
        message_size: Bytes::from_mb(0.5),
        gen_interval: (50.0, 50.0),
        ttl: SimDuration::from_mins(300.0),
        initial_copies: 4,
        policy,
        routing: RoutingKind::SprayAndWaitBinary,
        seed: 7,
        immunity: crate::config::ImmunityMode::None,
        message_size_max: None,
        traffic: Default::default(),
        warmup_secs: 0.0,
        faults: Default::default(),
    }
}

#[test]
fn two_nodes_in_range_deliver_everything() {
    let report = World::build(&tiny_two_node(PolicyKind::Fifo)).run().report;
    assert!(report.created() >= 5, "created {}", report.created());
    // Source and destination are drawn from {0, 1}: every message's
    // destination is the other node and is permanently in range. A
    // message generated in the last 16 s (one transfer time) may not
    // finish before the simulation ends.
    assert!(
        report.delivered() >= report.created() - 1,
        "delivered {} of {}",
        report.delivered(),
        report.created()
    );
    assert_eq!(report.avg_hopcount(), 1.0);
}

#[test]
fn out_of_range_nodes_never_deliver() {
    let mut cfg = tiny_two_node(PolicyKind::Fifo);
    cfg.mobility = MobilityConfig::Stationary {
        positions: vec![(0.0, 0.0), (5000.0, 0.0)],
    };
    let report = World::build(&cfg).run().report;
    assert!(report.created() > 0);
    assert_eq!(report.delivered(), 0);
    assert_eq!(report.transmissions(), 0);
}

#[test]
fn delivery_ratio_reasonable_on_smoke_scenario() {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    let report = World::build(&cfg).run().report;
    assert!(report.created() > 50, "created {}", report.created());
    let ratio = report.delivery_ratio();
    assert!(
        (0.05..=1.0).contains(&ratio),
        "implausible delivery ratio {ratio}"
    );
    assert!(report.transmissions() > 0);
    assert!(report.avg_hopcount() >= 1.0);
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 1200.0;
        cfg.seed = seed;
        let r = World::build(&cfg).run().report;
        (
            r.created(),
            r.delivered(),
            r.transmissions(),
            r.buffer_drops(),
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn all_policies_run_the_smoke_scenario() {
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::Lifo,
        PolicyKind::TtlRatio,
        PolicyKind::CopiesRatio,
        PolicyKind::Mofo,
        PolicyKind::Shli,
        PolicyKind::Random,
        PolicyKind::Sdsrp,
    ] {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 900.0;
        cfg.policy = policy;
        let report = World::build(&cfg).run().report;
        assert!(report.created() > 0, "{policy:?} created nothing");
    }
}

#[test]
fn oracle_mode_runs_and_matches_structure() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 900.0;
    cfg.policy = PolicyKind::SdsrpOracle { lambda: 1e-3 };
    let report = World::build(&cfg).run().report;
    assert!(report.created() > 0);
}

/// The truth ledger exists exactly when something reads it, and only
/// `SdsrpOracle` feeds it to the policies: validation alone never does.
#[test]
fn truth_ledger_is_kept_for_validation_or_the_oracle_policy_only() {
    let mut cfg = presets::smoke();
    let ledger_of = |cfg: &ScenarioConfig, validate: bool| {
        let mut world = World::build(cfg);
        if validate {
            world.enable_validation(dtn_validate::ValidateConfig::default());
        }
        (world.truth.is_some(), world.oracle_inputs)
    };
    assert_eq!(ledger_of(&cfg, false), (false, false));
    assert_eq!(ledger_of(&cfg, true), (true, false));
    cfg.policy = PolicyKind::SdsrpOracle { lambda: 1e-3 };
    assert_eq!(ledger_of(&cfg, false), (true, true));
    assert_eq!(ledger_of(&cfg, true), (true, true));
}

#[test]
fn epidemic_and_direct_bracket_spray_and_wait() {
    // Multi-copy schemes beat direct delivery, and epidemic floods
    // far more transmissions. (Epidemic vs Spray-and-Wait delivery
    // can go either way here because the 250 kbps link — 16 s per
    // message — makes contact *bandwidth* the bottleneck, which is
    // exactly the congestion regime the paper targets.)
    let mk = |routing: RoutingKind| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 2400.0;
        cfg.buffer_capacity = Bytes::from_mb(50.0);
        cfg.policy = PolicyKind::Fifo;
        cfg.routing = routing;
        World::build(&cfg).run().report
    };
    let epidemic = mk(RoutingKind::Epidemic);
    let saw = mk(RoutingKind::SprayAndWaitBinary);
    let direct = mk(RoutingKind::Direct);
    assert!(
        epidemic.delivery_ratio() > direct.delivery_ratio(),
        "flooding should beat direct delivery: {} vs {}",
        epidemic.delivery_ratio(),
        direct.delivery_ratio()
    );
    assert!(
        saw.delivery_ratio() > direct.delivery_ratio(),
        "spray-and-wait should beat direct delivery"
    );
    assert!(
        epidemic.transmissions() > saw.transmissions(),
        "epidemic should transmit more than token-limited SAW"
    );
    assert_eq!(direct.overhead_ratio(), 0.0, "direct has zero overhead");
}

#[test]
fn constrained_buffers_force_drops() {
    let mut cfg = presets::smoke();
    cfg.buffer_capacity = Bytes::from_mb(1.0); // two messages max
    cfg.gen_interval = (5.0, 10.0);
    cfg.policy = PolicyKind::Fifo;
    let report = World::build(&cfg).run().report;
    assert!(
        report.buffer_drops() + report.incoming_rejects() > 0,
        "no buffer pressure despite tiny buffers"
    );
}

#[test]
fn contact_trace_recording() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    let mut world = World::build(&cfg);
    world.enable_contact_recording();
    let trace = world.run().contacts.expect("contact recording enabled");
    assert!(!trace.is_empty(), "no contacts recorded");
    assert_eq!(trace.open_count(), 0, "unclosed contacts at end");
}

#[test]
fn ttl_expiry_purges_copies() {
    let mut cfg = tiny_two_node(PolicyKind::Fifo);
    // Nodes out of range: copies can only die by TTL.
    cfg.mobility = MobilityConfig::Stationary {
        positions: vec![(0.0, 0.0), (5000.0, 0.0)],
    };
    cfg.ttl = SimDuration::from_secs(60.0);
    cfg.duration_secs = 600.0;
    let report = World::build(&cfg).run().report;
    assert!(report.expirations() > 0);
}

#[test]
fn spray_and_focus_runs() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    cfg.routing = RoutingKind::SprayAndFocus {
        handoff_threshold: 60.0,
    };
    let report = World::build(&cfg).run().report;
    assert!(report.created() > 0);
}

#[test]
fn flapping_contact_aborts_transfers() {
    // Node 0 parked at the origin; node 1 oscillates between x = 60
    // (in range) and x = 150 (out of range) every 30 s, so contacts
    // last ~27 s against a 16 s transfer time: some transfers finish,
    // others are cut off mid-flight and must abort cleanly.
    let mut body = String::from("0 0 0 0\n");
    for k in 0..100 {
        let t = k as f64 * 30.0;
        let x = if k % 2 == 0 { 60.0 } else { 150.0 };
        body.push_str(&format!("1 {t} {x} 0\n"));
    }
    let mut cfg = presets::smoke();
    cfg.name = "flapping".into();
    cfg.n_nodes = 2;
    cfg.duration_secs = 2900.0;
    cfg.mobility = MobilityConfig::TraceText { body };
    cfg.gen_interval = (20.0, 30.0);
    cfg.initial_copies = 2;
    cfg.policy = PolicyKind::Fifo;
    cfg.seed = 5;
    let r = World::build(&cfg).run().report;
    assert!(r.created() > 50);
    assert!(r.delivered() > 0, "no delivery despite periodic contact");
    assert!(
        r.aborted_transfers() > 0,
        "no transfer was ever cut off by the flapping contact"
    );
    // Aborted transfers never count as transmissions.
    assert!(r.transmissions() >= r.delivered());
}

#[test]
fn single_slot_buffers_still_deliver() {
    // Buffer = exactly one message: every admission is an eviction
    // battle. The system must stay consistent and still deliver.
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2000.0;
    cfg.buffer_capacity = Bytes::from_mb(0.5);
    cfg.message_size = Bytes::from_mb(0.5);
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 9;
    let r = World::build(&cfg).run().report;
    assert!(r.created() > 0);
    assert!(
        r.buffer_drops() + r.incoming_rejects() > 0,
        "single-slot buffers must churn"
    );
    assert!(r.delivery_ratio() > 0.0, "nothing delivered at all");
}

#[test]
fn warmup_excludes_early_messages_from_metrics() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2000.0;
    cfg.seed = 3;
    let cold = World::build(&cfg).run().report;

    let mut warm_cfg = cfg.clone();
    warm_cfg.warmup_secs = 600.0;
    let warm = World::build(&warm_cfg).run().report;

    // Warm-up removes roughly 600/2000 of the generated messages
    // from the count, while the simulation itself is unchanged.
    assert!(warm.created() < cold.created());
    assert!(warm.created() > 0);
    assert!(warm.delivered() <= warm.created());
    // Transmissions of uncounted messages are excluded too, so the
    // overhead ratio stays well-defined (not inflated by ghosts).
    assert!(warm.transmissions() < cold.transmissions());
    // With warmup = 0 the default behaviour is bit-identical to the
    // paper configuration.
    let zero = World::build(&cfg).run().report;
    assert_eq!(zero.created(), cold.created());
    assert_eq!(zero.transmissions(), cold.transmissions());
}

#[test]
#[should_panic(expected = "warm-up must lie within the run")]
fn warmup_longer_than_run_rejected() {
    let mut cfg = presets::smoke();
    cfg.warmup_secs = cfg.duration_secs + 1.0;
    cfg.validate();
}

#[test]
fn step_until_equals_one_shot_run() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1000.0;
    cfg.seed = 8;
    let oneshot = World::build(&cfg).run().report;

    let mut stepped = World::build(&cfg);
    let mut total_events = 0;
    for k in 1..=10 {
        total_events += stepped.step_until(SimTime::from_secs(k as f64 * 100.0));
        assert_eq!(stepped.now(), SimTime::from_secs(k as f64 * 100.0));
    }
    assert!(total_events > 0);
    assert_eq!(stepped.report().created(), oneshot.created());
    assert_eq!(stepped.report().delivered(), oneshot.delivered());
    assert_eq!(stepped.report().transmissions(), oneshot.transmissions());
    // Inspection accessors are consistent.
    let buffered: usize = (0..cfg.n_nodes)
        .map(|i| stepped.buffered_count(NodeId(i as u32)))
        .sum();
    assert!(buffered > 0, "no copies live at the end of a busy run");
    let _ = stepped.live_contacts();
}

#[test]
fn poisson_traffic_matches_uniform_rate() {
    use crate::config::TrafficModel;
    let run = |traffic: TrafficModel| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 3000.0;
        cfg.traffic = traffic;
        cfg.seed = 6;
        World::build(&cfg).run().report.created()
    };
    let uniform = run(TrafficModel::Uniform) as f64;
    let poisson = run(TrafficModel::Poisson) as f64;
    // Same mean rate: counts within ~25% of each other.
    assert!(
        (uniform - poisson).abs() / uniform < 0.25,
        "uniform {uniform} vs poisson {poisson}"
    );
}

#[test]
fn timeseries_records_buffer_pressure() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.gen_interval = (8.0, 12.0);
    let mut world = World::build(&cfg);
    world.enable_timeseries(30.0);
    let RunOutput {
        report,
        mut recorder,
        ..
    } = world.run();
    let ts = recorder.take_timeseries().expect("time series enabled");
    assert!(report.created() > 0);
    assert!(ts.len() >= 1500 / 30, "too few samples: {}", ts.len());
    // Occupancy must become non-trivial under this load.
    assert!(ts.peak_mean_occupancy() > 0.1);
    // Samples are time-ordered and within the run.
    for w in ts.points().windows(2) {
        assert!(w[1].t > w[0].t);
    }
    assert!(ts.points().last().unwrap().t <= 1500.0);
    let csv = ts.to_csv();
    assert!(csv.lines().count() == ts.len() + 1);
}

#[test]
fn immunity_modes_cut_circulating_copies() {
    use crate::config::ImmunityMode;
    let run = |immunity: ImmunityMode| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 2000.0;
        cfg.policy = PolicyKind::Fifo;
        cfg.immunity = immunity;
        cfg.seed = 4;
        World::build(&cfg).run().report
    };
    let none = run(ImmunityMode::None);
    let flood = run(ImmunityMode::OracleFlood);
    let gossip = run(ImmunityMode::AntipacketGossip);

    assert_eq!(none.immunity_purges(), 0, "paper mode must never purge");
    assert!(flood.immunity_purges() > 0, "oracle flood never purged");
    assert!(gossip.immunity_purges() > 0, "antipackets never purged");
    // Purging delivered messages frees bandwidth/buffers: overhead
    // must not increase.
    assert!(
        flood.overhead_ratio() <= none.overhead_ratio() + 1e-9,
        "oracle immunity raised overhead: {} vs {}",
        flood.overhead_ratio(),
        none.overhead_ratio()
    );
    // And no duplicate deliveries are possible under oracle flood.
    assert_eq!(flood.delivered_events(), flood.delivered());
}

#[test]
fn heterogeneous_message_sizes_run_with_knapsack() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.message_size = Bytes::from_mb(0.2);
    cfg.message_size_max = Some(Bytes::from_mb(1.0));
    cfg.policy = PolicyKind::Knapsack;
    cfg.seed = 2;
    let r = World::build(&cfg).run().report;
    assert!(r.created() > 0);
    assert!(r.delivery_ratio() > 0.0, "knapsack delivered nothing");
}

#[test]
fn knapsack_matches_greedy_on_uniform_sizes_roughly() {
    // With the paper's uniform 0.5 MB messages the set-wise and
    // greedy rules should land in the same ballpark.
    let run = |policy: PolicyKind| {
        let mut cfg = presets::smoke();
        cfg.duration_secs = 1500.0;
        cfg.policy = policy;
        cfg.seed = 3;
        World::build(&cfg).run().report.delivery_ratio()
    };
    let knap = run(PolicyKind::Knapsack);
    let ttl = run(PolicyKind::TtlRatio);
    assert!(
        (knap - ttl).abs() < 0.15,
        "knapsack {knap} far from its greedy counterpart {ttl}"
    );
}

#[test]
#[should_panic(expected = "largest message must fit")]
fn oversized_message_range_rejected() {
    let mut cfg = presets::smoke();
    cfg.message_size_max = Some(Bytes::from_mb(50.0));
    cfg.validate();
}

#[test]
fn validated_smoke_run_is_clean_and_samples_estimators() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1800.0;
    cfg.policy = PolicyKind::Sdsrp;
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    let RunOutput {
        report, validation, ..
    } = world.run();
    let validation = validation.expect("validation enabled");
    assert!(report.created() > 0);
    assert!(
        validation.ok(),
        "invariant violations on a clean run:\n{}",
        validation.summary()
    );
    assert!(validation.sweeps > 0);
    assert!(validation.checks_run > 0);
    assert!(
        validation.estimator_m.samples > 0,
        "estimator oracle never sampled"
    );
    assert_eq!(
        validation.estimator_m.samples,
        validation.estimator_n.samples
    );
}

#[test]
fn validated_epidemic_run_skips_token_conservation() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    cfg.routing = RoutingKind::Epidemic;
    cfg.policy = PolicyKind::Fifo;
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    assert!(!world.validator_mut().expect("enabled").conserves_tokens());
    let RunOutput {
        report, validation, ..
    } = world.run();
    let validation = validation.expect("validation enabled");
    assert!(report.created() > 0);
    assert!(
        validation.ok(),
        "epidemic run flagged:\n{}",
        validation.summary()
    );
}

#[test]
fn seeded_corruption_is_detected_by_next_sweep() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    let mut world = World::build(&cfg);
    world.enable_validation(dtn_validate::ValidateConfig::default());
    world.step_until(SimTime::from_secs(600.0));
    assert!(world.corrupt_holder_bookkeeping());
    world.step_until(SimTime::from_secs(1200.0));
    let validation = world.take_validation_report().expect("enabled");
    assert!(
        validation
            .violations
            .iter()
            .any(|v| v.check == "holder_mismatch"),
        "seeded n_i corruption went undetected:\n{}",
        validation.summary()
    );
}

/// Validation never perturbs the run, and `run` is exactly
/// `step_until(end)` plus the final sweep. `step_until` leaves the clock
/// at the scenario end rather than at the last event, and the final
/// sweep reads the clock, so the cases cover ticks from 1 s to 60 s,
/// durations that are not a multiple of the tick and TTLs short enough
/// to expire between the last tick and the end.
#[test]
fn validation_does_not_change_the_run() {
    // (tick_secs, duration_secs, ttl_mins)
    let cases = [
        (1.0, 1500.0, 300.0),
        (1.0, 600.5, 5.0),
        (7.0, 1000.0, 10.0),
        (10.0, 905.0, 2.0),
        (30.0, 1234.5, 3.0),
        (45.0, 1000.0, 1.0),
        (60.0, 950.0, 4.0),
    ];
    for (tick, duration, ttl_mins) in cases {
        for threads in [1, 2] {
            let mut cfg = presets::smoke();
            cfg.policy = PolicyKind::Sdsrp;
            cfg.tick_secs = tick;
            cfg.duration_secs = duration;
            cfg.ttl = SimDuration::from_mins(ttl_mins);
            let label =
                format!("tick {tick} s, {duration} s, ttl {ttl_mins} min, {threads} thread(s)");
            let build = |validate: bool| {
                let mut w = World::build(&cfg);
                w.set_threads(threads);
                w.attach_recorder(Recorder::enabled(0));
                if validate {
                    w.enable_validation(ValidateConfig::default());
                }
                w
            };
            let plain = build(false).run();
            assert!(
                plain.validation.is_none() && plain.contacts.is_none(),
                "{label}"
            );
            let validated = build(true).run();
            let mut stepped = build(true);
            stepped.step_until(SimTime::from_secs(duration));
            let validation = validated.validation.expect("validation enabled");
            assert!(validation.ok(), "{label}: {}", validation.summary());
            assert!(validation.sweeps > 0, "{label}");
            assert_eq!(
                Some(validation),
                stepped.take_validation_report(),
                "{label}"
            );
            // Validation adds its own events, so the plain run is
            // compared on the report alone.
            let report_only = dtn_telemetry::EventTotals::default();
            assert_eq!(
                crate::replay::fingerprint(&plain.report, &report_only),
                crate::replay::fingerprint(&validated.report, &report_only),
                "{label}"
            );
            assert_eq!(
                crate::replay::fingerprint(&validated.report, validated.recorder.totals()),
                crate::replay::fingerprint(stepped.report(), stepped.recorder().totals()),
                "{label}"
            );
        }
    }
}

#[test]
fn hopcount_is_one_for_direct_routing() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2400.0;
    cfg.routing = RoutingKind::Direct;
    cfg.policy = PolicyKind::Fifo;
    let report = World::build(&cfg).run().report;
    if report.delivered() > 0 {
        assert_eq!(report.avg_hopcount(), 1.0);
    }
}

// ------------------------------------------------------------------
// Thread-count determinism (the world-level guarantee; the full
// cross-scenario battery lives in tests/parallel_world.rs).
// ------------------------------------------------------------------

/// Full report equality between a serial world and a multi-threaded
/// one, on the smoke scenario.
#[test]
fn threaded_run_matches_serial_report() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1200.0;
    cfg.policy = PolicyKind::Sdsrp;
    let serial = World::build(&cfg).run().report;
    for threads in [2, 4] {
        let mut world = World::build(&cfg);
        world.set_threads(threads);
        assert_eq!(world.threads(), threads);
        let r = world.run().report;
        assert_eq!(serial.created(), r.created(), "threads={threads}");
        assert_eq!(serial.delivered(), r.delivered(), "threads={threads}");
        assert_eq!(
            serial.transmissions(),
            r.transmissions(),
            "threads={threads}"
        );
        assert_eq!(serial.buffer_drops(), r.buffer_drops(), "threads={threads}");
        assert_eq!(
            serial.avg_latency(),
            r.avg_latency(),
            "threads={threads}: latency must be bit-identical"
        );
    }
}

/// `set_threads` is a runtime knob: flipping it mid-run (between
/// stepped windows) must not change results either, because every
/// parallel reduction is order-identical to the serial loop.
#[test]
fn thread_count_flipped_mid_run_is_identical() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1000.0;
    cfg.seed = 11;
    let oneshot = World::build(&cfg).run().report;

    let mut stepped = World::build(&cfg);
    for (k, threads) in [(1, 1usize), (2, 4), (3, 2), (4, 8), (5, 1)] {
        stepped.set_threads(threads);
        stepped.step_until(SimTime::from_secs(k as f64 * 200.0));
    }
    assert_eq!(stepped.report().created(), oneshot.created());
    assert_eq!(stepped.report().delivered(), oneshot.delivered());
    assert_eq!(stepped.report().transmissions(), oneshot.transmissions());
}

/// Radio-down sentinel parking keeps mobility RNG streams on
/// schedule: a crashed-then-rebooted node rejoins at the position it
/// would have had anyway.
#[test]
fn faulted_threaded_run_matches_serial() {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.seed = 13;
    cfg.faults = crate::config::FaultPlan {
        crash_rate_per_hour: 2.0,
        reboot_secs: 120.0,
        blackout_rate_per_hour: 2.0,
        blackout_secs: 60.0,
        transfer_abort_prob: 0.05,
        clock_skew_max_secs: 1.0,
    };
    let serial = World::build(&cfg).run().report;
    let mut world = World::build(&cfg);
    world.set_threads(4);
    let threaded = world.run().report;
    assert_eq!(serial.created(), threaded.created());
    assert_eq!(serial.delivered(), threaded.delivered());
    assert_eq!(serial.transmissions(), threaded.transmissions());
    assert_eq!(serial.buffer_drops(), threaded.buffer_drops());
    assert_eq!(serial.aborted_transfers(), threaded.aborted_transfers());
}

// ------------------------------------------------------------------
// Incremental per-tick bookkeeping: the dirty-node rearm and the
// running priority-cache totals must be exact.
// ------------------------------------------------------------------

/// The paper's small-buffer congestion regime (as in the thread
/// battery): evictions, rejections and gossip on every contact.
fn buffer_pressure() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;
    cfg.n_nodes = 60;
    cfg.duration_secs = 900.0;
    cfg.gen_interval = (8.0, 12.0);
    cfg.buffer_capacity = Bytes::new(1_500_000);
    cfg
}

/// The rearm visits only links of nodes marked since the last tick.
/// That is exact only if, after every tick, no idle link has anything
/// to send: a link it skipped would have started nothing. Checked here
/// across routers, immunity modes and fault churn.
#[test]
fn no_idle_link_has_work_after_any_tick() {
    let churn = crate::config::FaultPlan {
        crash_rate_per_hour: 4.0,
        reboot_secs: 90.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 45.0,
        transfer_abort_prob: 0.1,
        clock_skew_max_secs: 2.0,
    };
    let mut scenarios = vec![buffer_pressure()];
    for routing in [
        RoutingKind::SprayAndFocus {
            handoff_threshold: 60.0,
        },
        RoutingKind::Prophet,
        RoutingKind::Epidemic,
    ] {
        let mut cfg = buffer_pressure();
        cfg.routing = routing;
        scenarios.push(cfg);
    }
    let mut cfg = buffer_pressure();
    cfg.immunity = crate::config::ImmunityMode::AntipacketGossip;
    cfg.faults = churn;
    scenarios.push(cfg);
    let mut cfg = buffer_pressure();
    cfg.immunity = crate::config::ImmunityMode::OracleFlood;
    cfg.ttl = SimDuration::from_secs(300.0);
    scenarios.push(cfg);

    for cfg in scenarios {
        let mut world = World::build(&cfg);
        let mut busy_ticks = 0;
        for tick in 0..=cfg.duration_secs as u64 {
            world.step_until(SimTime::from_secs(tick as f64));
            let idle: Vec<NodePair> = world
                .links
                .iter()
                .filter(|(_, s)| s.in_flight.is_none())
                .map(|(&p, _)| p)
                .collect();
            busy_ticks += usize::from(idle.len() < world.links.len());
            for pair in idle {
                assert!(
                    world.best_candidate(pair).is_none(),
                    "{:?} t={tick}: idle link {pair:?} has work",
                    cfg.routing
                );
            }
        }
        assert!(busy_ticks > 0, "{:?}: no transfer ever ran", cfg.routing);
    }
}

/// The per-endpoint link index always mirrors the link table.
#[test]
fn peer_index_mirrors_the_link_table() {
    let mut cfg = buffer_pressure();
    cfg.faults.blackout_rate_per_hour = 6.0;
    cfg.faults.blackout_secs = 30.0;
    let mut world = World::build(&cfg);
    for tick in (0..=900).step_by(7) {
        world.step_until(SimTime::from_secs(tick as f64));
        let mut from_index: Vec<NodePair> = world
            .peers
            .iter()
            .enumerate()
            .flat_map(|(i, peers)| {
                assert!(peers.windows(2).all(|w| w[0] < w[1]), "unsorted peers");
                let node = NodeId(i as u32);
                peers
                    .iter()
                    .filter(move |&&p| node < p)
                    .map(move |&p| NodePair::new(node, p))
            })
            .collect();
        from_index.sort();
        let table: Vec<NodePair> = world.links.keys().copied().collect();
        assert_eq!(from_index, table, "t={tick}");
    }
}

/// The priority-cache gauges come from a running total kept where
/// priorities are requested; after every tick it must equal a full
/// walk over every node's policy.
#[test]
fn running_cache_gauges_equal_a_full_walk_after_every_tick() {
    let cfg = buffer_pressure();
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(16));
    let gauge = |world: &World, name: &str| {
        world
            .recorder()
            .metrics()
            .snapshot()
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.value)
            .expect("gauge registered")
    };
    for tick in 0..=cfg.duration_secs as u64 {
        world.step_until(SimTime::from_secs(tick as f64));
        let walk = world.priority_cache_stats();
        assert_eq!(world.cache_stats, walk, "t={tick}");
        assert_eq!(gauge(&world, "priority_cache_hits"), walk.hits as f64);
        assert_eq!(
            gauge(&world, "priority_cache_incremental"),
            walk.incremental as f64
        );
        assert_eq!(gauge(&world, "priority_cache_misses"), walk.misses as f64);
    }
    let end = world.priority_cache_stats();
    assert!(
        end.hits + end.incremental + end.misses > 0,
        "cache never used"
    );
    // Toggling the cache resets the counters; the total follows.
    world.set_priority_cache(false);
    assert_eq!(world.cache_stats, world.priority_cache_stats());
}

/// Paths whose state changes never create work for the in-tree
/// routers and policies still mark their nodes, so a custom policy or
/// router that reacts to them is rearmed too (the no-idle-work check
/// above cannot see these marks).
#[test]
fn contact_down_reboot_and_purge_mark_their_nodes() {
    let mut world = World::build(&tiny_two_node(PolicyKind::Sdsrp));
    world.step_until(SimTime::from_secs(60.0));
    let pair = NodePair::new(NodeId(0), NodeId(1));
    assert!(world.links.contains_key(&pair), "stationary pair in range");
    world.phase_rearm();
    assert!(world.dirty.list.is_empty());

    world.on_contact_down(pair);
    assert_eq!(world.dirty.list, vec![NodeId(0), NodeId(1)]);
    assert!(world.peers.iter().all(Vec::is_empty));
    world.phase_rearm();

    world.on_node_reboot(NodeId(1));
    world.on_blackout_end(NodeId(0));
    assert_eq!(world.dirty.list, vec![NodeId(1), NodeId(0)]);
    world.phase_rearm();

    let held = *world.nodes[0]
        .buffer
        .keys()
        .chain(world.nodes[1].buffer.keys())
        .next()
        .expect("something buffered after 60 s");
    world.purge_everywhere(held);
    assert!(!world.dirty.list.is_empty());
    assert!(world
        .dirty
        .list
        .iter()
        .all(|&n| world.dirty.marked[n.index()]));
}
