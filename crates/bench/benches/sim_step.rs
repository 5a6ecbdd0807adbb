//! Macro-bench: whole simulated seconds per wall second, per buffer
//! policy — the end-to-end cost of a scenario run, and the figure that
//! decides how long a full Fig. 8/9 sweep takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, SamplingMode};
use dtn_sim::config::{presets, PolicyKind};
use dtn_sim::world::World;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_run");
    // Full runs are seconds-long: keep criterion's sample demands sane.
    g.sample_size(10);
    g.sampling_mode(SamplingMode::Flat);

    for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
        g.bench_with_input(
            BenchmarkId::new("smoke_600s", policy.label()),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut cfg = presets::smoke();
                    cfg.duration_secs = 600.0;
                    cfg.policy = policy;
                    let report = World::build(&cfg).run().report;
                    black_box(report.delivered())
                })
            },
        );
    }

    g.bench_function("paper_rwp_1800s_sdsrp", |b| {
        b.iter(|| {
            let mut cfg = presets::random_waypoint_paper();
            cfg.duration_secs = 1800.0;
            let report = World::build(&cfg).run().report;
            black_box(report.delivered())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
