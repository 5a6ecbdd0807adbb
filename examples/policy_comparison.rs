//! Reproduce the paper's headline comparison at one operating point:
//! the four buffer-management strategies of Figs. 8-9 (Spray and Wait /
//! -O / -C / SDSRP) on the Table II random-waypoint scenario, averaged
//! over a few seeds.
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use sdsrp::sim::config::{presets, PolicyKind};
use sdsrp::sim::sweep::{run_sweep_hardened, SweepAxis, SweepOptions, SweepSpec};

fn main() {
    let seeds = vec![1u64, 2, 3];
    // Shortened Table II scenario so the example finishes in seconds.
    let mut base = presets::random_waypoint_paper();
    base.duration_secs = 6_000.0;

    println!(
        "Table II scenario, {} nodes, {} s, seeds {:?}\n",
        base.n_nodes, base.duration_secs, seeds
    );
    println!(
        "{:<16} {:>9} {:>7} {:>9}",
        "policy", "delivery", "hops", "overhead"
    );

    // One axis point (the scenario's own L) x the four policies x the
    // seeds: a one-column Fig. 8, run in parallel and seed-averaged.
    let spec = SweepSpec {
        axis: SweepAxis::InitialCopies(vec![base.initial_copies]),
        base,
        policies: PolicyKind::paper_four().to_vec(),
        seeds,
        validate: false,
    };
    let out = run_sweep_hardened(&spec, &SweepOptions::default());
    assert!(out.errors.is_empty(), "cells panicked: {:?}", out.errors);
    for cell in &out.cells {
        println!(
            "{:<16} {:>9.4} {:>7.2} {:>9.2}",
            cell.policy, cell.delivery_ratio, cell.avg_hopcount, cell.overhead_ratio,
        );
    }

    println!(
        "\nExpected shape (paper Fig. 8): SDSRP best delivery and clearly\n\
         lowest overhead; plain Spray-and-Wait the most hops."
    );
}
