//! Structure-of-arrays node state for the parallel world phases.
//!
//! The per-tick hot loops (movement integration, sentinel parking,
//! contact-grid rebuild) stream over dense per-node arrays rather than
//! chasing through `Node`. Keeping them in one struct makes the
//! split-borrow pattern explicit: a phase borrows exactly the arrays it
//! touches, and the fork-join pool hands each worker a contiguous band
//! of every array.

use dtn_core::geometry::Point2;
use dtn_core::pool::Pool;
use dtn_core::time::SimTime;
use dtn_mobility::model::Mobility;

/// Hot per-node state, one entry per node, indexed by `NodeId`.
pub struct NodeArrays {
    /// Analytic trajectory samplers (each owns its per-node RNG
    /// substream, which is what makes parallel sampling order-free).
    pub(super) mobility: Vec<Box<dyn Mobility>>,
    /// Positions sampled at the current tick.
    pub(super) positions: Vec<Point2>,
    /// Per-node radio-down depth: >0 means the node is invisible to
    /// contact detection. A counter (not a bool) because a crash window
    /// and a blackout window can overlap.
    pub(super) radio_off: Vec<u32>,
    /// Per-node clock-skew offsets applied to spray timestamps; empty
    /// when skew injection is off (the zero-fault fast path).
    pub(super) clock_skew: Vec<f64>,
}

impl NodeArrays {
    /// Assembles the arrays for `mobility.len()` nodes. `clock_skew` is
    /// either empty (no skew injection) or one offset per node.
    pub(super) fn new(mobility: Vec<Box<dyn Mobility>>, clock_skew: Vec<f64>) -> NodeArrays {
        let n = mobility.len();
        NodeArrays {
            mobility,
            positions: vec![Point2::default(); n],
            radio_off: vec![0; n],
            clock_skew,
        }
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the world has zero nodes (never true for a validated
    /// scenario; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The movement phase: samples every node's trajectory at `now`
    /// into `positions`, parking radio-down nodes at distinct far-away
    /// sentinels so contact detection cannot see them (or each other:
    /// sentinels are 1e9 m apart, far beyond any radio range). Mobility
    /// is still sampled first, so trajectories stay on schedule and
    /// nodes rejoin at their true position.
    ///
    /// Embarrassingly parallel: node `i` writes only `positions[i]` and
    /// draws only from its own mobility RNG substream, so fanning the
    /// index space out across `pool` in contiguous bands is
    /// bit-identical to the serial loop at any thread count. Without a
    /// pool the loop runs inline.
    pub(super) fn sample_movement(&mut self, now: SimTime, pool: Option<&Pool>) {
        let radio_off = &self.radio_off;
        let sample = |offset: usize, ms: &mut [Box<dyn Mobility>], ps: &mut [Point2]| {
            for (k, (m, p)) in ms.iter_mut().zip(ps.iter_mut()).enumerate() {
                let i = offset + k;
                *p = if radio_off[i] > 0 {
                    m.position_at(now);
                    Point2::new(-1.0e12 - i as f64 * 1.0e9, -1.0e12)
                } else {
                    m.position_at(now)
                };
            }
        };
        match pool {
            Some(pool) => pool.zip_for_each(&mut self.mobility, &mut self.positions, sample),
            None => sample(0, &mut self.mobility, &mut self.positions),
        }
    }
}
