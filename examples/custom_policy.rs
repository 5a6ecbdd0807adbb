//! Extending the simulator with your own buffer-management strategy.
//!
//! Implements a "destination-aware" policy outside the built-in set —
//! it keeps SDSRP-style freshness ordering but pins messages whose hop
//! count is still low (they have travelled least, so dropping them
//! wastes the least... or the most? Run it and see) — and plugs it into
//! the world through [`World::build_with_policies`].
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use sdsrp::buffer::policy::BufferPolicy;
use sdsrp::buffer::view::MessageView;
use sdsrp::core::time::SimTime;
use sdsrp::sim::config::{presets, PolicyKind};
use sdsrp::sim::world::World;

/// A hand-rolled policy: priority is remaining-TTL fraction *boosted*
/// for messages that have not spread far yet (low hop count), so young,
/// poorly-spread messages survive congestion.
struct HopAwareFreshness;

impl BufferPolicy for HopAwareFreshness {
    fn name(&self) -> &'static str {
        "HopAwareFreshness"
    }

    fn send_priority(&mut self, _now: SimTime, msg: &MessageView<'_>) -> f64 {
        // TTL freshness in [0,1], plus a bonus that decays with hops.
        msg.ttl_fraction() + 1.0 / (1.0 + msg.hops as f64)
    }
}

fn main() {
    let mut cfg = presets::smoke();
    cfg.seed = 9;

    println!(
        "{:<20} {:>9} {:>7} {:>9}",
        "policy", "delivery", "hops", "overhead"
    );

    // Built-in baselines for context.
    for policy in [PolicyKind::Fifo, PolicyKind::Sdsrp] {
        let mut c = cfg.clone();
        c.policy = policy;
        let r = World::build(&c).run().report;
        println!(
            "{:<20} {:>9.4} {:>7.2} {:>9.2}",
            policy.label(),
            r.delivery_ratio(),
            r.avg_hopcount(),
            r.overhead_ratio()
        );
    }

    // The custom policy: one fresh instance per node.
    let r = World::build_with_policies(&cfg, &mut |_node| Box::new(HopAwareFreshness))
        .run()
        .report;
    println!(
        "{:<20} {:>9.4} {:>7.2} {:>9.2}",
        "HopAwareFreshness",
        r.delivery_ratio(),
        r.avg_hopcount(),
        r.overhead_ratio()
    );
}
