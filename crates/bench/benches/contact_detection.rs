//! Micro-bench: spatial-grid contact detection — executed once per
//! movement tick, the simulator's per-tick fixed cost.
//!
//! Two regimes, the ones the macro workloads reach:
//!
//! * **paper**: 100–1600 nodes in the 4500×3400 m Table II area
//!   (1530 cells, from 15 cells per node down to about one).
//! * **urban**: 100k nodes in 100×75 km (750k cells, 7.5 cells per
//!   node), as in `scenarios/urban_100k.json`.
//!
//! Positions move a few metres per tick, so the grid's re-key sees the
//! realistic share of nodes changing cell and the tracker the
//! realistic contact churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtn_core::geometry::{Point2, Rect};
use dtn_core::grid::SpatialGrid;
use dtn_core::ids::NodeId;
use dtn_core::rng::{stream_rng, streams, uniform_range};
use dtn_core::time::SimTime;
use dtn_net::contact::ContactTracker;
use std::hint::black_box;

const RANGE: f64 = 100.0;
/// Ticks in one cycle of the moving position sets.
const TICKS: usize = 16;

/// `TICKS` position sets of `n` nodes in a `w`×`h` area: uniform start
/// points, then straight legs at 1–5 m per tick, reflected at the
/// edges.
fn ticks(n: usize, w: f64, h: f64, seed: u64) -> Vec<Vec<Point2>> {
    let mut rng = stream_rng(seed, streams::BENCH);
    let nodes: Vec<(Point2, f64, f64)> = (0..n)
        .map(|_| {
            let p = Point2::new(
                uniform_range(&mut rng, 0.0, w),
                uniform_range(&mut rng, 0.0, h),
            );
            let heading = uniform_range(&mut rng, 0.0, std::f64::consts::TAU);
            let speed = uniform_range(&mut rng, 1.0, 5.0);
            (p, speed * heading.cos(), speed * heading.sin())
        })
        .collect();
    let reflect = |v: f64, max: f64| {
        let m = v.rem_euclid(2.0 * max);
        if m > max {
            2.0 * max - m
        } else {
            m
        }
    };
    (0..TICKS)
        .map(|t| {
            nodes
                .iter()
                .map(|&(p, vx, vy)| {
                    Point2::new(
                        reflect(p.x + vx * t as f64, w),
                        reflect(p.y + vy * t as f64, h),
                    )
                })
                .collect()
        })
        .collect()
}

/// Tick `k` of a ping-pong walk through the sets (0, 1, …, 15, 14, …),
/// so every step is a one-tick move.
fn tick_at(sets: &[Vec<Point2>], k: usize) -> &[Point2] {
    let period = 2 * (sets.len() - 1);
    let i = k % period;
    &sets[if i < sets.len() { i } else { period - i }]
}

fn bench_grid(c: &mut Criterion, regime: &str, sizes: &[usize], w: f64, h: f64) {
    let mut g = c.benchmark_group(format!("contact_detection_{regime}"));
    g.sample_size(20);
    for &n in sizes {
        let sets = ticks(n, w, h, 1);
        g.bench_with_input(
            BenchmarkId::new("grid_rebuild_pairs", n),
            &sets,
            |b, sets| {
                let mut grid = SpatialGrid::new(Rect::from_size(w, h), RANGE);
                let mut out: Vec<(NodeId, NodeId)> = Vec::new();
                let mut k = 0;
                b.iter(|| {
                    k += 1;
                    grid.rebuild(tick_at(sets, k));
                    out.clear();
                    grid.pairs_within(RANGE, &mut out);
                    black_box(out.len())
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("tracker_update", n), &sets, |b, sets| {
            let mut tracker = ContactTracker::new(Rect::from_size(w, h), RANGE);
            let mut events = Vec::new();
            let mut k = 0;
            b.iter(|| {
                k += 1;
                events.clear();
                tracker.update(SimTime::from_secs(k as f64), tick_at(sets, k), &mut events);
                black_box(events.len())
            })
        });
    }
    g.finish();
}

fn bench_paper(c: &mut Criterion) {
    bench_grid(c, "paper", &[100, 400, 1600], 4500.0, 3400.0);
}

fn bench_urban(c: &mut Criterion) {
    bench_grid(c, "urban", &[100_000], 100_000.0, 75_000.0);
}

criterion_group!(benches, bench_paper, bench_urban);
criterion_main!(benches);
