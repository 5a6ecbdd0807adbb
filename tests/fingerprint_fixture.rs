//! Full-stream fingerprint fixture: a scenario matrix whose every run
//! is pinned, event by event, against `tests/golden/fingerprint_matrix.json`.
//!
//! The golden headline pins one configuration by its integer counters.
//! This fixture is stricter and wider: for each case it hashes the whole
//! JSONL event stream (so event *order* and timestamps count, not just
//! totals), the closed contact intervals, the end-of-run metrics
//! snapshot (priority-cache gauges included) and the report
//! fingerprint. The matrix covers every router, SDSRP plus a baseline
//! policy, no faults / crash-blackout churn / transfer aborts, every
//! immunity mode, and 1 and 2 world threads (both must match the one
//! committed row).
//!
//! The committed file is the reference; a mismatch means a change made
//! the simulator behave differently. To regenerate it deliberately
//! (only for an intended behaviour change), run
//! `cargo test --release --test fingerprint_fixture -- --ignored bless`
//! and review the diff.

use sdsrp::core::time::SimDuration;
use sdsrp::sim::config::{
    presets, FaultPlan, ImmunityMode, PolicyKind, RoutingKind, ScenarioConfig,
};
use sdsrp::sim::replay::fingerprint;
use sdsrp::sim::world::World;
use sdsrp::telemetry::{EventSink, Recorder, SimEvent};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes every recorded event's JSONL line, in order.
struct HashSink {
    hash: std::rc::Rc<std::cell::RefCell<(Fnv, u64)>>,
}

impl EventSink for HashSink {
    fn on_event(&mut self, ev: &SimEvent) -> io::Result<()> {
        let mut h = self.hash.borrow_mut();
        h.0.feed(ev.to_jsonl().as_bytes());
        h.0.feed(b"\n");
        h.1 += 1;
        Ok(())
    }
}

/// Short smoke-preset base: a 500 s TTL inside a 1500 s run, so expiry
/// fires throughout rather than only at the end.
fn base() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.seed = 5;
    cfg.duration_secs = 1_500.0;
    cfg.ttl = SimDuration::from_secs(500.0);
    cfg
}

fn churn() -> FaultPlan {
    FaultPlan {
        crash_rate_per_hour: 4.0,
        reboot_secs: 90.0,
        blackout_rate_per_hour: 4.0,
        blackout_secs: 45.0,
        transfer_abort_prob: 0.0,
        clock_skew_max_secs: 2.0,
    }
}

fn aborts() -> FaultPlan {
    FaultPlan {
        transfer_abort_prob: 0.1,
        ..FaultPlan::default()
    }
}

/// The matrix: `(case name, config)`.
fn cases() -> Vec<(&'static str, ScenarioConfig)> {
    let with = |f: &dyn Fn(&mut ScenarioConfig)| {
        let mut cfg = base();
        f(&mut cfg);
        cfg
    };
    vec![
        ("snw-binary-sdsrp", base()),
        (
            "snw-source-sdsrp",
            with(&|c| c.routing = RoutingKind::SprayAndWaitSource),
        ),
        (
            "spray-focus-sdsrp",
            with(&|c| {
                c.routing = RoutingKind::SprayAndFocus {
                    handoff_threshold: 60.0,
                }
            }),
        ),
        ("prophet-sdsrp", with(&|c| c.routing = RoutingKind::Prophet)),
        (
            "epidemic-sdsrp",
            with(&|c| c.routing = RoutingKind::Epidemic),
        ),
        ("direct-sdsrp", with(&|c| c.routing = RoutingKind::Direct)),
        ("snw-binary-fifo", with(&|c| c.policy = PolicyKind::Fifo)),
        (
            "buffer-pressure-sdsrp",
            with(&|c| {
                c.n_nodes = 60;
                c.gen_interval = (8.0, 12.0);
                c.buffer_capacity = sdsrp::core::units::Bytes::new(1_500_000);
            }),
        ),
        ("churn-sdsrp", with(&|c| c.faults = churn())),
        (
            "churn-fifo",
            with(&|c| {
                c.faults = churn();
                c.policy = PolicyKind::Fifo;
            }),
        ),
        ("aborts-sdsrp", with(&|c| c.faults = aborts())),
        (
            "oracle-flood-sdsrp",
            with(&|c| c.immunity = ImmunityMode::OracleFlood),
        ),
        (
            "antipacket-sdsrp",
            with(&|c| c.immunity = ImmunityMode::AntipacketGossip),
        ),
        (
            "sdsrp-oracle-churn",
            with(&|c| {
                c.policy = PolicyKind::SdsrpOracle {
                    lambda: 1.0 / 2000.0,
                };
                c.faults = FaultPlan {
                    transfer_abort_prob: 0.1,
                    ..churn()
                };
            }),
        ),
        (
            "antipacket-churn-epidemic",
            with(&|c| {
                c.immunity = ImmunityMode::AntipacketGossip;
                c.routing = RoutingKind::Epidemic;
                c.faults = churn();
            }),
        ),
    ]
}

/// One run's digest, as committed in the fixture.
fn digest(cfg: &ScenarioConfig, threads: usize) -> String {
    let hash = std::rc::Rc::new(std::cell::RefCell::new((Fnv::new(), 0u64)));
    let recorder = Recorder::enabled(64).with_sink(Box::new(HashSink { hash: hash.clone() }));
    let mut world = World::build(cfg);
    world.set_threads(threads);
    world.attach_recorder(recorder);
    world.enable_contact_recording();
    let out = world.run();

    let mut contacts = Fnv::new();
    let trace = out.contacts.expect("contact recording enabled");
    for iv in trace.intervals() {
        contacts.feed(format!("{iv:?}\n").as_bytes());
    }
    let mut metrics = Fnv::new();
    metrics.feed(
        serde_json::to_string(&out.recorder.metrics().snapshot())
            .expect("snapshot serialises")
            .as_bytes(),
    );
    let mut report = Fnv::new();
    report.feed(
        fingerprint(&out.report, out.recorder.totals())
            .to_canonical_json()
            .as_bytes(),
    );
    let (events, count) = &*hash.borrow();
    format!(
        "events={count}:{:016x} contacts={}:{:016x} metrics={:016x} report={:016x}",
        events.0,
        trace.len(),
        contacts.0,
        metrics.0,
        report.0
    )
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fingerprint_matrix.json")
}

fn committed() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(fixture_path()).expect("fixture is committed");
    serde_json::from_str(&text).expect("fixture parses")
}

#[test]
fn every_case_matches_the_committed_fixture_at_1_and_2_threads() {
    let fixture = committed();
    assert_eq!(
        fixture.len(),
        cases().len(),
        "fixture and case list disagree"
    );
    let mut diffs = Vec::new();
    for (name, cfg) in cases() {
        let want = fixture
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        for threads in [1, 2] {
            let got = digest(&cfg, threads);
            if &got != want {
                diffs.push(format!("{name} @ {threads}t:\n  want {want}\n  got  {got}"));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "fingerprints diverged:\n{}",
        diffs.join("\n")
    );
}

/// The matrix must exercise what it names: expiry, churn, aborts and
/// immunity purges all actually happen somewhere.
#[test]
fn the_matrix_is_not_vacuous() {
    let mut seen = BTreeMap::new();
    for (name, cfg) in cases() {
        let out = World::build(&cfg).run();
        seen.insert(name, out.report);
    }
    assert!(seen["snw-binary-sdsrp"].expirations() > 0);
    assert!(seen["buffer-pressure-sdsrp"].buffer_drops() > 0);
    assert!(
        seen["aborts-sdsrp"].aborted_transfers() > seen["snw-binary-sdsrp"].aborted_transfers()
    );
    assert!(
        seen["sdsrp-oracle-churn"].aborted_transfers()
            > seen["snw-binary-sdsrp"].aborted_transfers()
    );
    assert!(seen["oracle-flood-sdsrp"].immunity_purges() > 0);
    assert!(seen["antipacket-sdsrp"].immunity_purges() > 0);
    assert!(seen["antipacket-churn-epidemic"].immunity_purges() > 0);
}

/// Writes the fixture from the current code. Never part of a normal
/// run; see the module docs.
#[test]
#[ignore]
fn bless() {
    let map: BTreeMap<String, String> = cases()
        .into_iter()
        .map(|(name, cfg)| (name.to_string(), digest(&cfg, 1)))
        .collect();
    let mut text = serde_json::to_string_pretty(&map).expect("serialises");
    text.push('\n');
    std::fs::write(fixture_path(), text).expect("fixture written");
}
