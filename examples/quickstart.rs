//! Quickstart: run one DTN scenario with the SDSRP buffer policy and
//! print the paper's three metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sdsrp::sim::config::{presets, PolicyKind};
use sdsrp::sim::world::World;

fn main() {
    // The laptop-fast smoke preset: 40 random-waypoint nodes, 1 h of
    // simulated time, Table II radio and buffer parameters.
    let mut cfg = presets::smoke();
    cfg.policy = PolicyKind::Sdsrp;
    cfg.seed = 42;

    println!("scenario : {}", cfg.name);
    println!("nodes    : {}", cfg.n_nodes);
    println!("duration : {} s", cfg.duration_secs);
    println!("policy   : {}", cfg.policy.label());
    println!();

    let report = World::build(&cfg).run().report;

    println!("messages generated : {}", report.created());
    println!("messages delivered : {}", report.delivered());
    println!("delivery ratio     : {:.3}", report.delivery_ratio());
    println!("average hopcounts  : {:.2}", report.avg_hopcount());
    println!("overhead ratio     : {:.2}", report.overhead_ratio());
    match report.avg_latency() {
        Some(lat) => println!("average latency    : {lat:.0} s"),
        None => println!("average latency    : — (no deliveries)"),
    }
    println!("buffer drops       : {}", report.buffer_drops());
    println!("TTL expirations    : {}", report.expirations());
}
