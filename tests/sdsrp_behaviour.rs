//! Behavioural integration tests of the SDSRP machinery inside full
//! simulations: ablation switches must change (deterministic) outcomes
//! in explainable directions, and engineered topologies must exercise
//! the gossip/refusal code paths.

use sdsrp::sdsrp::LambdaMode;
use sdsrp::sim::config::{presets, PolicyKind, ScenarioConfig};
use sdsrp::sim::world::World;

fn congested(policy: PolicyKind, seed: u64) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 2000.0;
    cfg.gen_interval = (8.0, 12.0); // heavy traffic -> constant overflow
    cfg.policy = policy;
    cfg.seed = seed;
    cfg
}

fn fingerprint(cfg: &ScenarioConfig) -> (u64, u64, u64, u64, u64) {
    let r = World::build(cfg).run().report;
    (
        r.created(),
        r.delivered(),
        r.transmissions(),
        r.buffer_drops(),
        r.incoming_rejects(),
    )
}

fn sdsrp_variant(reject_dropped: bool, gossip: bool, taylor: Option<usize>) -> PolicyKind {
    PolicyKind::SdsrpCustom {
        lambda: LambdaMode::Online {
            prior: 1.0 / 2000.0,
            min_samples: 5,
        },
        taylor_terms: taylor,
        reject_dropped,
        gossip,
    }
}

#[test]
fn congestion_actually_causes_drops() {
    let r = World::build(&congested(PolicyKind::Sdsrp, 1)).run().report;
    assert!(
        r.buffer_drops() + r.incoming_rejects() > 20,
        "scenario not congested enough to exercise Algorithm 1: {} drops, {} rejects",
        r.buffer_drops(),
        r.incoming_rejects()
    );
}

#[test]
fn reject_dropped_switch_changes_behaviour() {
    let with = fingerprint(&congested(sdsrp_variant(true, true, None), 3));
    let without = fingerprint(&congested(sdsrp_variant(false, true, None), 3));
    assert_eq!(with.0, without.0, "same traffic either way");
    assert_ne!(
        with, without,
        "disabling the receive-reject rule changed nothing — dropped-list \
         refusals are not wired through"
    );
}

#[test]
fn gossip_switch_changes_behaviour() {
    let with = fingerprint(&congested(sdsrp_variant(true, true, None), 3));
    let without = fingerprint(&congested(sdsrp_variant(true, false, None), 3));
    assert_ne!(
        with, without,
        "disabling dropped-list gossip changed nothing — records are not \
         actually exchanged on contact"
    );
}

#[test]
fn taylor_truncation_ranks_differently_near_the_peak() {
    // Interesting negative result documented in EXPERIMENTS.md: in the
    // congested paper regime (λnA >> 1) the k=1 and exact orderings
    // coincide on virtually every real decision — the -λnA term
    // dominates both forms — so whole-run fingerprints are usually
    // identical. The functional difference is provable where Fig. 4
    // shows it: around the peak, where k=1 peaks at P(R)=0.5 and the
    // idealisation at 1-1/e.
    use sdsrp::sdsrp::priority::PriorityModel;
    let k1_a = PriorityModel::priority_taylor(0.0, 0.50, 1, 1);
    let k1_b = PriorityModel::priority_taylor(0.0, 0.632, 1, 1);
    let ex_a = PriorityModel::priority_from_probabilities(0.0, 0.50, 1);
    let ex_b = PriorityModel::priority_from_probabilities(0.0, 0.632, 1);
    assert!(
        k1_a > k1_b,
        "k=1 should prefer P(R)=0.5 over 0.632: {k1_a} vs {k1_b}"
    );
    assert!(
        ex_b > ex_a,
        "the idealisation should prefer 0.632 over 0.5: {ex_b} vs {ex_a}"
    );

    // Whole runs with many terms converge towards the exact form: same
    // traffic and a delivery ratio in the same ballpark.
    let exact = fingerprint(&congested(sdsrp_variant(true, true, None), 3));
    let k64 = fingerprint(&congested(sdsrp_variant(true, true, Some(64)), 3));
    assert_eq!(exact.0, k64.0);
    let exact_ratio = exact.1 as f64 / exact.0 as f64;
    let k64_ratio = k64.1 as f64 / k64.0 as f64;
    assert!(
        (exact_ratio - k64_ratio).abs() < 0.1,
        "64-term Taylor diverges wildly from exact: {exact_ratio} vs {k64_ratio}"
    );
}

#[test]
fn lambda_oracle_vs_online_differ_but_comparable() {
    let online = fingerprint(&congested(sdsrp_variant(true, true, None), 3));
    let oracle = fingerprint(&congested(
        PolicyKind::SdsrpCustom {
            lambda: LambdaMode::Oracle(1.0 / 2000.0),
            taylor_terms: None,
            reject_dropped: true,
            gossip: true,
        },
        3,
    ));
    assert_eq!(online.0, oracle.0);
    let a = online.1 as f64 / online.0 as f64;
    let b = oracle.1 as f64 / oracle.0 as f64;
    assert!(
        (a - b).abs() < 0.15,
        "online ({a}) and oracle ({b}) estimation should be in the same ballpark"
    );
}

/// `SdsrpOracle` is fed the true `m_i`/`n_i` from the policy choice
/// alone, with no other setting touched (as a `--config` JSON naming
/// the policy builds it), so it must behave differently from the
/// λ-only oracle that still estimates `m_i`/`n_i` (Eqs. 14/15).
#[test]
fn sdsrp_oracle_policy_alone_gets_true_m_and_n() {
    let full = fingerprint(&congested(
        PolicyKind::SdsrpOracle {
            lambda: 1.0 / 2000.0,
        },
        1,
    ));
    let lambda_only = fingerprint(&congested(
        PolicyKind::SdsrpCustom {
            lambda: LambdaMode::Oracle(1.0 / 2000.0),
            taylor_terms: None,
            reject_dropped: true,
            gossip: true,
        },
        1,
    ));
    assert_eq!(full.0, lambda_only.0, "same traffic either way");
    assert_ne!(
        full, lambda_only,
        "SdsrpOracle ran on estimated m_i/n_i: the true-value inputs never reached the policy"
    );
}

#[test]
fn sdsrp_beats_fifo_on_overhead_in_congestion() {
    // The paper's most robust headline: SDSRP's overhead ratio falls far
    // below plain Spray-and-Wait's. Averaged over seeds.
    let mut fifo_oh = 0.0;
    let mut sdsrp_oh = 0.0;
    for seed in 1..=3 {
        let f = World::build(&congested(PolicyKind::Fifo, seed))
            .run()
            .report;
        let s = World::build(&congested(PolicyKind::Sdsrp, seed))
            .run()
            .report;
        fifo_oh += f.overhead_ratio();
        sdsrp_oh += s.overhead_ratio();
    }
    assert!(
        sdsrp_oh < fifo_oh,
        "SDSRP overhead {sdsrp_oh} not below FIFO {fifo_oh}"
    );
}

#[test]
fn sdsrp_hopcount_not_worse_than_fifo() {
    // Paper Fig. 8(b): SDSRP achieves fewer hops than plain SAW.
    let mut fifo_h = 0.0;
    let mut sdsrp_h = 0.0;
    for seed in 1..=3 {
        fifo_h += World::build(&congested(PolicyKind::Fifo, seed))
            .run()
            .report
            .avg_hopcount();
        sdsrp_h += World::build(&congested(PolicyKind::Sdsrp, seed))
            .run()
            .report
            .avg_hopcount();
    }
    assert!(
        sdsrp_h <= fifo_h + 0.2,
        "SDSRP hops {sdsrp_h} well above FIFO {fifo_h}"
    );
}

#[test]
fn oracle_mode_bookkeeping_is_consistent() {
    // SdsrpOracle reads m_i/n_i from the world's truth ledger; a full
    // validated run must not trip any of its internal assertions, the
    // ledger must agree with the buffers at every sweep, and the run
    // should deliver comparably to the estimated variant.
    let cfg = congested(
        PolicyKind::SdsrpOracle {
            lambda: 1.0 / 2000.0,
        },
        7,
    );
    let mut world = World::build(&cfg);
    world.enable_validation(sdsrp::validate::ValidateConfig::default());
    let out = world.run();
    let validation = out.validation.expect("validation enabled");
    assert!(validation.ok(), "{}", validation.summary());
    let r = out.report;
    assert!(r.created() > 0);
    assert!(r.delivery_ratio() > 0.0);
}
