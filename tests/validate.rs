//! Integration tests for the dtn-validate harness: invariant checking
//! across the policy/routing matrix, seeded-fault detection, estimator
//! telemetry, deterministic replay and the differential modes.

use sdsrp::sim::config::{presets, PolicyKind, RoutingKind, ScenarioConfig};
use sdsrp::sim::replay::{
    differential_policies, differential_thread_counts, fingerprint, manifest_for_run,
    replay_manifest, ReplayError,
};
use sdsrp::sim::sweep::{SweepAxis, SweepSpec};
use sdsrp::sim::world::{RunOutput, World};
use sdsrp::telemetry::Recorder;
use sdsrp::validate::{DelayModel, ValidateConfig, ValidationReport};

fn quick(policy: PolicyKind, routing: RoutingKind, seed: u64) -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.duration_secs = 1500.0;
    cfg.policy = policy;
    cfg.routing = routing;
    cfg.seed = seed;
    cfg
}

fn validation_of(cfg: &ScenarioConfig) -> ValidationReport {
    let mut world = World::build(cfg);
    world.enable_validation(ValidateConfig::default());
    world.run().validation.expect("validation enabled")
}

#[test]
fn policy_matrix_upholds_all_invariants() {
    for policy in PolicyKind::paper_four() {
        let validation = validation_of(&quick(policy, RoutingKind::SprayAndWaitBinary, 11));
        assert!(
            validation.ok(),
            "{policy:?} violated invariants:\n{}",
            validation.summary()
        );
        assert!(validation.sweeps > 0);
        assert!(validation.checks_run > 0);
    }
}

#[test]
fn routing_matrix_upholds_all_invariants() {
    for routing in [
        RoutingKind::SprayAndWaitSource,
        RoutingKind::Epidemic,
        RoutingKind::Direct,
        RoutingKind::SprayAndFocus {
            handoff_threshold: 60.0,
        },
        RoutingKind::Prophet,
    ] {
        let validation = validation_of(&quick(PolicyKind::Sdsrp, routing, 13));
        assert!(
            validation.ok(),
            "{routing:?} violated invariants:\n{}",
            validation.summary()
        );
    }
}

#[test]
fn estimator_oracle_reports_errors_on_validated_runs() {
    let validation = validation_of(&quick(
        PolicyKind::Sdsrp,
        RoutingKind::SprayAndWaitBinary,
        17,
    ));
    assert!(validation.estimator_m.samples > 0, "no estimator samples");
    assert_eq!(
        validation.estimator_m.samples,
        validation.estimator_n.samples
    );
    assert!(validation.estimator_m.mean().is_finite());
    assert!(validation.estimator_n.mean().is_finite());
    // Eq. 14's n_i = m_i + 1 - d_i carries a +1 cold-start bias on a
    // freshly generated message, so max n-error is at least that.
    assert!(validation.estimator_n.max >= 0.0);
}

#[test]
fn seeded_estimator_corruption_is_detected() {
    // Mutation smoke test: corrupt one n_i bookkeeping update mid-run;
    // the double-entry sweep must flag it as a holder mismatch.
    let cfg = quick(PolicyKind::Sdsrp, RoutingKind::SprayAndWaitBinary, 19);
    let mut world = World::build(&cfg);
    world.enable_validation(ValidateConfig::default());
    world.step_until(sdsrp::core::time::SimTime::from_secs(700.0));
    assert!(world.corrupt_holder_bookkeeping(), "no live message");
    world.step_until(sdsrp::core::time::SimTime::from_secs(1500.0));
    let validation = world.take_validation_report().expect("validation enabled");
    assert!(!validation.ok(), "corruption went undetected");
    assert!(
        validation
            .violations
            .iter()
            .any(|v| v.check == "holder_mismatch"),
        "wrong violation kind:\n{}",
        validation.summary()
    );
}

#[test]
fn validated_run_exports_estimator_metrics_to_telemetry() {
    let cfg = quick(PolicyKind::Sdsrp, RoutingKind::SprayAndWaitBinary, 23);
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(4096));
    world.enable_validation(ValidateConfig::default());
    let RunOutput {
        report,
        recorder,
        validation,
        ..
    } = world.run();
    let validation = validation.expect("validation enabled");
    assert!(validation.ok(), "{}", validation.summary());

    let totals = recorder.totals();
    assert!(totals.estimator_samples > 0, "no estimator_sample events");
    assert_eq!(totals.invariant_violations, 0);

    let snapshot = recorder.metrics().snapshot();
    for gauge in [
        "estimator_m_mean_rel_err",
        "estimator_m_max_rel_err",
        "estimator_n_mean_rel_err",
        "estimator_n_max_rel_err",
    ] {
        assert!(
            snapshot.gauges.iter().any(|g| g.name == gauge),
            "gauge {gauge} missing from metrics snapshot"
        );
    }
    // The manifest carries them too — the telemetry surface of --validate.
    let manifest = manifest_for_run(&cfg, &report, &recorder, 0.0);
    assert!(manifest.to_json().contains("estimator_m_mean_rel_err"));
}

#[test]
fn replay_from_manifest_is_bit_identical() {
    let cfg = quick(PolicyKind::Sdsrp, RoutingKind::SprayAndWaitBinary, 29);
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(4096));
    world.enable_validation(ValidateConfig::default());
    let started = std::time::Instant::now();
    let (report, recorder) = world.run_with_recorder();
    let original = manifest_for_run(&cfg, &report, &recorder, started.elapsed().as_secs_f64());

    let outcome = replay_manifest(&original).expect("manifest replays");
    assert!(
        outcome.identical,
        "replay diverged:\n{}",
        outcome.diff.join("\n")
    );
    // Fingerprints agree as well — the golden-snapshot digest is a
    // strict subset of what the manifest already pins down.
    let fp = fingerprint(&report, recorder.totals());
    let fp2 = fingerprint(&outcome.report, &outcome.manifest.events);
    assert_eq!(fp, fp2);
    assert_eq!(fp.to_canonical_json(), fp2.to_canonical_json());
}

#[test]
fn replay_rejects_tampered_manifests() {
    let cfg = quick(PolicyKind::Fifo, RoutingKind::SprayAndWaitBinary, 31);
    let mut world = World::build(&cfg);
    world.attach_recorder(Recorder::enabled(64));
    let (report, recorder) = world.run_with_recorder();
    let mut manifest = manifest_for_run(&cfg, &report, &recorder, 0.0);

    // Tampered config: hash no longer matches.
    let good = manifest.config.clone();
    manifest.config = good.as_ref().map(|c| c.replace("1500", "1501"));
    assert!(matches!(
        replay_manifest(&manifest),
        Err(ReplayError::HashMismatch { .. })
    ));

    // Pre-replay manifest: no config at all.
    manifest.config = None;
    assert!(matches!(
        replay_manifest(&manifest),
        Err(ReplayError::MissingConfig)
    ));

    // Doctored outcome with intact config: replay runs but diverges.
    manifest.config = good;
    manifest.delivered += 1;
    let outcome = replay_manifest(&manifest).expect("replays");
    assert!(!outcome.identical);
    assert!(outcome.diff.iter().any(|l| l.starts_with("delivered:")));
}

#[test]
fn sweeps_are_thread_count_invariant() {
    let mut base = presets::smoke();
    base.duration_secs = 900.0;
    let spec = SweepSpec {
        base,
        axis: SweepAxis::InitialCopies(vec![8, 16]),
        policies: vec![PolicyKind::Fifo, PolicyKind::Sdsrp],
        seeds: vec![1, 2],
        validate: false,
    };
    let diffs = differential_thread_counts(&spec, 1, 4);
    assert!(
        diffs.is_empty(),
        "thread count changed sweep results:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn workload_is_policy_invariant() {
    let mut base = presets::smoke();
    base.duration_secs = 1200.0;
    let diffs = differential_policies(&base, &PolicyKind::paper_four());
    assert!(
        diffs.is_empty(),
        "generation/contact streams differ across policies:\n{}",
        diffs.join("\n")
    );
}

/// A model-friendly operating point for the analytic delay oracle:
/// near-instant transfers (1 kB messages on the paper's 250 kbit/s
/// links), sparse traffic and ample buffers, so the simulator's only
/// departures from the CTMC are the RWP contact process itself. Mirrors
/// `scenarios/oracle_validation.json` at half duration.
fn oracle_scenario() -> ScenarioConfig {
    let mut cfg = presets::smoke();
    cfg.name = "oracle-validation-test".into();
    cfg.message_size = sdsrp::core::units::Bytes::new(1_000);
    cfg.buffer_capacity = sdsrp::core::units::Bytes::from_mb(250.0);
    cfg.gen_interval = (60.0, 100.0);
    cfg.duration_secs = 5400.0;
    cfg.ttl = sdsrp::core::time::SimDuration::from_secs(5400.0);
    cfg.seed = 1;
    cfg
}

/// Runs the oracle scenario, estimates λ with the count-based rate MLE
/// (contacts / (pairs × T), the same estimator `--delay-oracle` uses)
/// and returns the fitted model plus the first-delivery delay samples.
fn fitted_delay_model(cfg: &ScenarioConfig, threads: usize) -> (DelayModel, Vec<f64>) {
    let mut world = World::build(cfg);
    world.set_threads(threads);
    world.enable_contact_recording();
    let out = world.run();
    let (report, trace) = (out.report, out.contacts.expect("contact recording enabled"));
    let n_pairs = (cfg.n_nodes * (cfg.n_nodes - 1) / 2) as f64;
    let lambda = trace.len() as f64 / (n_pairs * cfg.duration_secs);
    (
        DelayModel::new(cfg.n_nodes, cfg.initial_copies, lambda),
        report.latency_samples().to_vec(),
    )
}

#[test]
fn delay_oracle_matches_simulation_and_corrupted_lambda_fires() {
    let cfg = oracle_scenario();
    let (model, delays) = fitted_delay_model(&cfg, 1);
    assert!(
        delays.len() >= 30,
        "too few deliveries ({}) to score the CDF",
        delays.len()
    );
    let mut sorted = delays.clone();
    let d_fit = model.ks_deviation(&mut sorted);
    assert!(
        d_fit < 0.3,
        "closed form diverges from simulation: KS = {d_fit:.4} (λ = {:.3e})",
        model.lambda()
    );
    // Mutation check: a 3x-corrupted λ must blow the deviation up well
    // past the fitted model's, proving the KS gate is non-vacuous.
    let corrupted = DelayModel::new(cfg.n_nodes, cfg.initial_copies, 3.0 * model.lambda());
    let d_bad = corrupted.ks_deviation(&mut sorted);
    assert!(
        d_bad > 0.35 && d_bad > 2.0 * d_fit,
        "λ corruption went undetected: fitted KS {d_fit:.4}, corrupted KS {d_bad:.4}"
    );
}

#[test]
fn delay_oracle_is_thread_count_invariant() {
    // The oracle's inputs — contact counts, fitted λ, delay samples —
    // must not depend on world parallelism: same scenario on 1 vs 4
    // threads, bit-identical results.
    let cfg = oracle_scenario();
    let (m1, d1) = fitted_delay_model(&cfg, 1);
    let (m4, d4) = fitted_delay_model(&cfg, 4);
    assert_eq!(m1.lambda().to_bits(), m4.lambda().to_bits());
    assert_eq!(d1.len(), d4.len());
    for (a, b) in d1.iter().zip(&d4) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let (mut s1, mut s4) = (d1, d4);
    let k1 = m1.ks_deviation(&mut s1);
    let k4 = m4.ks_deviation(&mut s4);
    assert_eq!(k1.to_bits(), k4.to_bits());
}

#[test]
fn validation_report_json_is_well_formed() {
    let validation = validation_of(&quick(
        PolicyKind::Sdsrp,
        RoutingKind::SprayAndWaitBinary,
        37,
    ));
    let v: serde_json::Value =
        serde_json::from_str(&validation.to_json()).expect("report serialises to valid JSON");
    assert_eq!(v["violation_count"].as_u64(), Some(0));
    assert!(v["sweeps"].as_u64().unwrap() > 0);
}
