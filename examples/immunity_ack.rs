//! Extension study: what would delivery acknowledgements buy?
//!
//! The paper assumes no ACK/immunity mechanism (Section III-A) — every
//! delivered message keeps consuming buffers and bandwidth until its
//! TTL expires. This example quantifies that choice by running the same
//! congested scenario under the three [`ImmunityMode`]s for both FIFO
//! and SDSRP buffers.
//!
//! ```text
//! cargo run --release --example immunity_ack
//! ```

use sdsrp::sim::config::{presets, ImmunityMode, PolicyKind};
use sdsrp::sim::world::World;

fn main() {
    let mut base = presets::smoke();
    base.gen_interval = (10.0, 15.0); // congest it
    base.seed = 42;

    println!(
        "{:<26} {:>9} {:>9} {:>9} {:>8}",
        "variant", "delivery", "overhead", "latency", "purges"
    );

    for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
        for (label, immunity) in [
            ("none (paper)", ImmunityMode::None),
            ("antipacket gossip", ImmunityMode::AntipacketGossip),
            ("oracle flood", ImmunityMode::OracleFlood),
        ] {
            let mut cfg = base.clone();
            cfg.policy = policy;
            cfg.immunity = immunity;
            let r = World::build(&cfg).run().report;
            println!(
                "{:<26} {:>9.4} {:>9.2} {:>8.0}s {:>8}",
                format!("{} + {label}", policy.label()),
                r.delivery_ratio(),
                r.overhead_ratio(),
                r.avg_latency().unwrap_or(f64::NAN),
                r.immunity_purges(),
            );
        }
    }

    println!(
        "\nAcknowledgements free buffers and bandwidth occupied by already-\n\
         delivered copies, so delivery rises and overhead falls; the oracle\n\
         flood bounds what any real antipacket scheme could achieve."
    );
}
