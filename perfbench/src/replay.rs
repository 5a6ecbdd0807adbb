//! The mobility, grid and contact layers, timed on an exact replay.
//!
//! The world drives these layers from inside its tick, where the
//! benchmark cannot put spans. The replay makes the same calls from
//! outside on the same inputs: `dtn_mobility::build_fleet`, then
//! `Mobility::position_at` for every node at every tick, then
//! `SpatialGrid::rebuild`, `pairs_within` and
//! `ContactTracker::update_pooled`. The 2-thread variants sample a
//! second fleet and scan through a 2-thread `Pool`, and must reproduce
//! the 1-thread positions and pairs exactly. The replay is faithful
//! only if it sees the contacts the world saw, which
//! [`check_fidelity`] gates.

use crate::drive::tick_times;
use dtn_core::geometry::Point2;
use dtn_core::grid::SpatialGrid;
use dtn_core::ids::NodeId;
use dtn_core::pool::Pool;
use dtn_net::contact::{ContactEvent, ContactTracker};
use dtn_sim::config::ScenarioConfig;
use std::time::Instant;

/// Layer times (seconds) and counts of one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    pub sample_s: f64,
    pub sample_2t_s: f64,
    /// `position_at` calls of the 1-thread fleet.
    pub samples: u64,
    pub rebuild_s: f64,
    pub scan_s: f64,
    pub scan_2t_s: f64,
    /// In-range pairs summed over ticks.
    pub pairs_in_range: u64,
    /// Grid cells per node.
    pub cells_per_node: f64,
    /// `ContactTracker::update_pooled`, which rebuilds and scans its own
    /// grid before diffing.
    pub update_s: f64,
    pub ups: u64,
    pub downs: u64,
}

impl ReplayStats {
    /// The tracker's self time: its update minus the rebuild and scan it
    /// repeats internally, as timed on the replay's own grid.
    pub fn diff_s(&self) -> f64 {
        self.update_s - self.rebuild_s - self.scan_s
    }

    /// Contact changes per in-range pair.
    pub fn change_ratio(&self) -> f64 {
        (self.ups + self.downs) as f64 / self.pairs_in_range.max(1) as f64
    }

    /// Serial over 2-thread time of the two pooled phases.
    pub fn scaling_2t(&self) -> f64 {
        (self.sample_s + self.scan_s) / (self.sample_2t_s + self.scan_2t_s)
    }
}

fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Replays the contact process of `cfg`, which must inject no faults
/// (a crashed node's radio is invisible to the world's detection but
/// not to the replay).
pub fn replay(cfg: &ScenarioConfig) -> Result<ReplayStats, String> {
    if !cfg.faults.is_empty() {
        return Err("the contact replay does not model fault injection".into());
    }
    let n = cfg.n_nodes;
    let range = cfg.link.range;
    let area = cfg.mobility.area();
    let mut fleet = dtn_mobility::build_fleet(&cfg.mobility, n, cfg.seed);
    let mut fleet_2t = dtn_mobility::build_fleet(&cfg.mobility, n, cfg.seed);
    let pool = Pool::new(2);
    let mut pos = vec![Point2::default(); n];
    let mut pos_2t = vec![Point2::default(); n];
    let mut grid = SpatialGrid::new(area, range);
    let mut tracker = ContactTracker::new(area, range);
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut events: Vec<ContactEvent> = Vec::new();
    let mut st = ReplayStats {
        cells_per_node: grid.cell_count() as f64 / n as f64,
        ..ReplayStats::default()
    };

    for t in tick_times(cfg) {
        let start = Instant::now();
        for (m, p) in fleet.iter_mut().zip(pos.iter_mut()) {
            *p = m.position_at(t);
        }
        st.sample_s += secs_since(start);
        st.samples += n as u64;

        let start = Instant::now();
        pool.zip_for_each(&mut fleet_2t, &mut pos_2t, |_, ms, ps| {
            for (m, p) in ms.iter_mut().zip(ps.iter_mut()) {
                *p = m.position_at(t);
            }
        });
        st.sample_2t_s += secs_since(start);
        if pos != pos_2t {
            return Err(format!("2-thread positions differ at t={}", t.as_secs()));
        }

        let start = Instant::now();
        grid.rebuild(&pos);
        st.rebuild_s += secs_since(start);

        let start = Instant::now();
        pairs.clear();
        grid.pairs_within(range, &mut pairs);
        st.scan_s += secs_since(start);
        st.pairs_in_range += pairs.len() as u64;

        let start = Instant::now();
        let bands = pool.map_bands(grid.row_count(), |rows| {
            let mut band = Vec::new();
            grid.pairs_within_rows(range, rows, &mut band);
            band
        });
        st.scan_2t_s += secs_since(start);
        if !bands.concat().eq(&pairs) {
            return Err(format!("2-thread pair scan differs at t={}", t.as_secs()));
        }

        let start = Instant::now();
        events.clear();
        tracker.update_pooled(t, &pos, &mut events, None);
        st.update_s += secs_since(start);
        for ev in &events {
            match ev {
                ContactEvent::Up { .. } => st.ups += 1,
                ContactEvent::Down { .. } => st.downs += 1,
            }
        }
    }
    Ok(st)
}

/// The replay-fidelity gate: the replay must see exactly the contacts
/// the world reported.
pub fn check_fidelity(replayed_ups: u64, world_ups: u64) -> Result<(), String> {
    if replayed_ups == world_ups {
        Ok(())
    } else {
        Err(format!(
            "replay fidelity: the replay saw {replayed_ups} contact ups, the world {world_ups}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{build_world, step_world};
    use dtn_sim::config::presets;

    fn world_ups(cfg: &ScenarioConfig) -> u64 {
        step_world(build_world(cfg, 1, None), cfg, false)
            .fingerprint
            .events
            .contacts_up
    }

    #[test]
    fn replay_reproduces_the_world_contacts() {
        let cfg = presets::smoke();
        let st = replay(&cfg).expect("replay");
        check_fidelity(st.ups, world_ups(&cfg)).expect("faithful replay");
        assert_eq!(st.samples, 40 * 3601);
        assert!(st.pairs_in_range >= st.ups);
        assert!(st.change_ratio() > 0.0 && st.change_ratio() <= 1.0);
    }

    #[test]
    fn fidelity_gate_fires_on_a_replay_of_another_seed() {
        let cfg = presets::smoke();
        let other = ScenarioConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        let st = replay(&other).expect("replay");
        assert!(check_fidelity(st.ups, world_ups(&cfg)).is_err());
    }

    #[test]
    fn replay_refuses_fault_injection() {
        let mut cfg = presets::smoke();
        cfg.faults.blackout_rate_per_hour = 1.0;
        cfg.faults.blackout_secs = 10.0;
        assert!(replay(&cfg).is_err());
    }
}
