//! Contact detection over sampled node positions.
//!
//! Every movement tick the simulator samples all node positions and feeds
//! them to [`ContactTracker::update`], which diffs the current in-range
//! pair set against the previous tick and emits [`ContactEvent`]s. Events
//! are emitted in deterministic (sorted pair) order so simulation runs
//! are reproducible.

use dtn_core::geometry::{Point2, Rect};
use dtn_core::grid::SpatialGrid;
use dtn_core::ids::{NodeId, NodePair};
use dtn_core::pool::Pool;
use dtn_core::time::SimTime;
use std::cmp::Ordering;

/// A contact state change between a pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactEvent {
    /// The pair moved into radio range at `time`.
    Up {
        /// The pair.
        pair: NodePair,
        /// When.
        time: SimTime,
    },
    /// The pair moved out of radio range at `time`.
    Down {
        /// The pair.
        pair: NodePair,
        /// When.
        time: SimTime,
    },
}

impl ContactEvent {
    /// The pair involved.
    pub fn pair(&self) -> NodePair {
        match *self {
            ContactEvent::Up { pair, .. } | ContactEvent::Down { pair, .. } => pair,
        }
    }

    /// The event timestamp.
    pub fn time(&self) -> SimTime {
        match *self {
            ContactEvent::Up { time, .. } | ContactEvent::Down { time, .. } => time,
        }
    }
}

/// Tracks which node pairs are currently in range and diffs tick over
/// tick.
///
/// The live pairs are a sorted `Vec`. Each update sorts the tick's
/// fresh pairs once, walks both lists in one linear merge (pairs only
/// in the old list go down, pairs only in the fresh list come up) and
/// then swaps the two buffers, so a tick costs O(p log p) for p pairs
/// in range and allocates nothing in steady state.
#[derive(Debug, Clone)]
pub struct ContactTracker {
    grid: SpatialGrid,
    range: f64,
    /// Currently-connected pairs, ascending.
    current: Vec<NodePair>,
    /// This tick's pairs while diffing; last tick's afterwards.
    fresh: Vec<NodePair>,
    /// The grid's raw pair output.
    scratch_pairs: Vec<(NodeId, NodeId)>,
    /// Up events held back until every Down has been emitted.
    scratch_ups: Vec<NodePair>,
}

impl ContactTracker {
    /// Creates a tracker for a playground `bounds` and radio `range`.
    pub fn new(bounds: Rect, range: f64) -> Self {
        assert!(range > 0.0, "radio range must be positive");
        // Cell size = range gives the classic 3x3-neighbourhood query.
        ContactTracker {
            grid: SpatialGrid::new(bounds, range),
            range,
            current: Vec::new(),
            fresh: Vec::new(),
            scratch_pairs: Vec::new(),
            scratch_ups: Vec::new(),
        }
    }

    /// Ingests the positions sampled at `time` (indexed by node id) and
    /// appends the resulting Up/Down events to `out` in sorted-pair order
    /// (Down events first, then Up events).
    pub fn update(&mut self, time: SimTime, positions: &[Point2], out: &mut Vec<ContactEvent>) {
        self.update_pooled(time, positions, out, None);
    }

    /// [`update`](Self::update) with the grid pair query fanned out
    /// across `pool` (when given) by contiguous row bands.
    ///
    /// Bit-identical to the serial path at any thread count: bands are
    /// ascending contiguous row ranges merged in band order (which
    /// reproduces the serial scan order exactly — see
    /// [`SpatialGrid::pairs_within_rows`]), and the pair list is sorted
    /// before the diff anyway.
    pub fn update_pooled(
        &mut self,
        time: SimTime,
        positions: &[Point2],
        out: &mut Vec<ContactEvent>,
        pool: Option<&Pool>,
    ) {
        self.grid.rebuild(positions);
        self.scratch_pairs.clear();
        match pool {
            Some(pool) if pool.threads() > 1 => {
                let grid = &self.grid;
                let range = self.range;
                let bands = pool.map_bands(grid.row_count(), |rows| {
                    let mut pairs = Vec::new();
                    grid.pairs_within_rows(range, rows, &mut pairs);
                    pairs
                });
                for band in bands {
                    self.scratch_pairs.extend_from_slice(&band);
                }
            }
            _ => self.grid.pairs_within(self.range, &mut self.scratch_pairs),
        }
        self.fresh.clear();
        self.fresh
            .extend(self.scratch_pairs.iter().map(|&(a, b)| NodePair::new(a, b)));
        self.fresh.sort_unstable();

        // One merge pass: Downs go straight out, Ups wait for the end.
        let ups = &mut self.scratch_ups;
        ups.clear();
        let (old, new) = (&self.current, &self.fresh);
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                Ordering::Less => {
                    out.push(ContactEvent::Down { pair: old[i], time });
                    i += 1;
                }
                Ordering::Greater => {
                    ups.push(new[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(
            old[i..]
                .iter()
                .map(|&pair| ContactEvent::Down { pair, time }),
        );
        ups.extend_from_slice(&new[j..]);
        out.extend(ups.iter().map(|&pair| ContactEvent::Up { pair, time }));
        std::mem::swap(&mut self.current, &mut self.fresh);
    }

    /// Whether `pair` is currently in range.
    pub fn connected(&self, pair: NodePair) -> bool {
        self.current.binary_search(&pair).is_ok()
    }

    /// Currently connected pairs in sorted order.
    pub fn current_contacts(&self) -> impl Iterator<Item = NodePair> + '_ {
        self.current.iter().copied()
    }

    /// Number of live contacts.
    pub fn contact_count(&self) -> usize {
        self.current.len()
    }

    /// Emits a final Down event for every live contact (end of
    /// simulation), clearing the state.
    pub fn close_all(&mut self, time: SimTime, out: &mut Vec<ContactEvent>) {
        out.extend(
            self.current
                .drain(..)
                .map(|pair| ContactEvent::Down { pair, time }),
        );
    }

    /// Forces every contact involving `node` down at `time` (the node's
    /// radio just died — crash or blackout), emitting Down events in
    /// sorted-pair order. Subsequent [`update`](Self::update) calls see
    /// the pairs as fresh if the node comes back into range.
    pub fn drop_node(&mut self, node: NodeId, time: SimTime, out: &mut Vec<ContactEvent>) {
        self.current.retain(|&pair| {
            let doomed = pair.lo() == node || pair.hi() == node;
            if doomed {
                out.push(ContactEvent::Down { pair, time });
            }
            !doomed
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn tracker() -> ContactTracker {
        ContactTracker::new(Rect::from_size(1000.0, 1000.0), 100.0)
    }

    #[test]
    fn up_then_down() {
        let mut tr = tracker();
        let mut out = Vec::new();

        // Tick 1: apart.
        tr.update(
            t(0.0),
            &[Point2::new(0.0, 0.0), Point2::new(500.0, 0.0)],
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(tr.contact_count(), 0);

        // Tick 2: together.
        tr.update(
            t(1.0),
            &[Point2::new(0.0, 0.0), Point2::new(50.0, 0.0)],
            &mut out,
        );
        let pair = NodePair::new(NodeId(0), NodeId(1));
        assert_eq!(out, vec![ContactEvent::Up { pair, time: t(1.0) }]);
        assert!(tr.connected(pair));

        // Tick 3: still together — no event.
        out.clear();
        tr.update(
            t(2.0),
            &[Point2::new(10.0, 0.0), Point2::new(50.0, 0.0)],
            &mut out,
        );
        assert!(out.is_empty());

        // Tick 4: apart again.
        tr.update(
            t(3.0),
            &[Point2::new(0.0, 0.0), Point2::new(900.0, 0.0)],
            &mut out,
        );
        assert_eq!(out, vec![ContactEvent::Down { pair, time: t(3.0) }]);
        assert!(!tr.connected(pair));
    }

    #[test]
    fn boundary_is_inclusive() {
        let mut tr = tracker();
        let mut out = Vec::new();
        tr.update(
            t(0.0),
            &[Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)],
            &mut out,
        );
        assert_eq!(out.len(), 1, "exactly at range counts as in contact");
    }

    #[test]
    fn multiple_pairs_sorted_order() {
        let mut tr = tracker();
        let mut out = Vec::new();
        // Three nodes in a line, each 50 m apart: pairs (0,1), (1,2), (0,2).
        tr.update(
            t(0.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            &mut out,
        );
        let pairs: Vec<NodePair> = out.iter().map(|e| e.pair()).collect();
        assert_eq!(
            pairs,
            vec![
                NodePair::new(NodeId(0), NodeId(1)),
                NodePair::new(NodeId(0), NodeId(2)),
                NodePair::new(NodeId(1), NodeId(2)),
            ]
        );
    }

    #[test]
    fn down_events_precede_up_events_in_one_tick() {
        let mut tr = tracker();
        let mut out = Vec::new();
        tr.update(
            t(0.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(500.0, 500.0),
            ],
            &mut out,
        );
        out.clear();
        // Node 1 leaves node 0, node 2 arrives at node 0.
        tr.update(
            t(1.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(400.0, 0.0),
                Point2::new(60.0, 0.0),
            ],
            &mut out,
        );
        assert!(matches!(out[0], ContactEvent::Down { .. }));
        assert!(matches!(out[1], ContactEvent::Up { .. }));
    }

    #[test]
    fn close_all_emits_downs() {
        let mut tr = tracker();
        let mut out = Vec::new();
        tr.update(
            t(0.0),
            &[Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)],
            &mut out,
        );
        out.clear();
        tr.close_all(t(9.0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], ContactEvent::Down { time, .. } if time == t(9.0)));
        assert_eq!(tr.contact_count(), 0);
    }

    #[test]
    fn drop_node_forces_its_contacts_down() {
        let mut tr = tracker();
        let mut out = Vec::new();
        // Triangle: 0-1, 0-2, 1-2 all in range.
        tr.update(
            t(0.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            &mut out,
        );
        assert_eq!(tr.contact_count(), 3);
        out.clear();

        // Node 1's radio dies: (0,1) and (1,2) go down, (0,2) survives.
        tr.drop_node(NodeId(1), t(5.0), &mut out);
        assert_eq!(
            out,
            vec![
                ContactEvent::Down {
                    pair: NodePair::new(NodeId(0), NodeId(1)),
                    time: t(5.0)
                },
                ContactEvent::Down {
                    pair: NodePair::new(NodeId(1), NodeId(2)),
                    time: t(5.0)
                },
            ]
        );
        assert_eq!(tr.contact_count(), 1);
        assert!(tr.connected(NodePair::new(NodeId(0), NodeId(2))));

        // If the node is still in range at the next tick, the contacts
        // come back as fresh Up events.
        out.clear();
        tr.update(
            t(6.0),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(50.0, 0.0),
                Point2::new(100.0, 0.0),
            ],
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| matches!(e, ContactEvent::Up { .. })));
        assert_eq!(tr.contact_count(), 3);
    }

    /// The straightforward O(N²) reference: every pair within `range`
    /// (inclusive boundary, exact Euclidean distance).
    fn naive_pairs(positions: &[Point2], range: f64) -> BTreeSet<NodePair> {
        let mut set = BTreeSet::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let dx = positions[i].x - positions[j].x;
                let dy = positions[i].y - positions[j].y;
                if (dx * dx + dy * dy).sqrt() <= range {
                    set.insert(NodePair::new(NodeId(i as u32), NodeId(j as u32)));
                }
            }
        }
        set
    }

    #[test]
    fn grid_matches_naive_scan_at_exact_boundary_and_out_of_bounds() {
        // Hand-picked adversarial layout: pairs exactly at the range
        // boundary, positions far outside the configured playground
        // (real taxi traces exit the sampled window), and a cluster in
        // one grid cell.
        let positions = vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),     // exactly at range from node 0
            Point2::new(100.0, 100.0),   // sqrt(2)*100 from node 0
            Point2::new(-250.0, -40.0),  // outside bounds (negative)
            Point2::new(-251.0, -40.0),  // near its out-of-bounds neighbour
            Point2::new(5000.0, 5000.0), // far outside on the other side
            Point2::new(5099.9, 5000.0), // just inside range of node 5
        ];
        let range = 100.0;
        let mut tr = ContactTracker::new(Rect::from_size(1000.0, 1000.0), range);
        let mut out = Vec::new();
        tr.update(t(0.0), &positions, &mut out);
        let grid_pairs: BTreeSet<NodePair> = tr.current_contacts().collect();
        assert_eq!(grid_pairs, naive_pairs(&positions, range));
        assert!(grid_pairs.contains(&NodePair::new(NodeId(0), NodeId(1))));
        assert!(grid_pairs.contains(&NodePair::new(NodeId(3), NodeId(4))));
        assert!(grid_pairs.contains(&NodePair::new(NodeId(5), NodeId(6))));
    }

    proptest::proptest! {
        /// Differential property: the grid-backed pair detection agrees
        /// exactly with the naive O(N²) scan over random positions and
        /// ranges — including positions outside the configured
        /// playground bounds and pairs at the exact range boundary
        /// (exercised by snapping some coordinates to a lattice whose
        /// pitch equals the range).
        #[test]
        fn prop_grid_pairs_match_naive_scan(
            raw in proptest::collection::vec((-500.0f64..1500.0, -500.0f64..1500.0, proptest::strategy::any::<bool>()), 2..40),
            range in 10.0f64..300.0,
            bounds_w in 100.0f64..1000.0,
            bounds_h in 100.0f64..1000.0,
        ) {
            // Snap flagged coordinates to multiples of the range so
            // exact-boundary pairs actually occur with non-negligible
            // probability.
            let positions: Vec<Point2> = raw
                .iter()
                .map(|&(x, y, snap)| {
                    if snap {
                        Point2::new((x / range).round() * range, (y / range).round() * range)
                    } else {
                        Point2::new(x, y)
                    }
                })
                .collect();
            let mut tr = ContactTracker::new(Rect::from_size(bounds_w, bounds_h), range);
            let mut out = Vec::new();
            tr.update(t(0.0), &positions, &mut out);
            let grid_pairs: BTreeSet<NodePair> = tr.current_contacts().collect();
            let expect = naive_pairs(&positions, range);
            proptest::prop_assert_eq!(grid_pairs, expect);
        }
    }

    /// The set-based tracker this one replaced: fresh pairs into a
    /// `BTreeSet`, Downs = old minus fresh, Ups = fresh minus old.
    #[derive(Default)]
    struct SetReference {
        current: BTreeSet<NodePair>,
    }

    impl SetReference {
        fn update(
            &mut self,
            time: SimTime,
            fresh: BTreeSet<NodePair>,
            out: &mut Vec<ContactEvent>,
        ) {
            for &pair in self.current.difference(&fresh) {
                out.push(ContactEvent::Down { pair, time });
            }
            for &pair in fresh.difference(&self.current) {
                out.push(ContactEvent::Up { pair, time });
            }
            self.current = fresh;
        }

        fn drop_node(&mut self, node: NodeId, time: SimTime, out: &mut Vec<ContactEvent>) {
            let doomed: Vec<NodePair> = self
                .current
                .iter()
                .copied()
                .filter(|p| p.lo() == node || p.hi() == node)
                .collect();
            for pair in doomed {
                self.current.remove(&pair);
                out.push(ContactEvent::Down { pair, time });
            }
        }
    }

    proptest::proptest! {
        /// Over many ticks of moving nodes, with radios dropping out
        /// mid-run and a final close, the merge-diffed tracker emits
        /// exactly the event stream of the set-based reference.
        #[test]
        fn prop_merge_diff_matches_set_reference(
            start in proptest::collection::vec((0.0f64..1200.0, 0.0f64..900.0), 2..60),
            seed in 0u64..1_000,
        ) {
            let range = 100.0;
            let mut tr = ContactTracker::new(Rect::from_size(1200.0, 900.0), range);
            let mut reference = SetReference::default();
            let mut positions: Vec<Point2> =
                start.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for tick in 0..30u64 {
                let time = t(tick as f64);
                tr.update(time, &positions, &mut got);
                reference.update(time, naive_pairs(&positions, range), &mut want);
                if tick % 7 == 3 {
                    let node = NodeId(((seed + tick) % positions.len() as u64) as u32);
                    tr.drop_node(node, time, &mut got);
                    reference.drop_node(node, time, &mut want);
                }
                proptest::prop_assert_eq!(&got, &want);
                for (i, p) in positions.iter_mut().enumerate() {
                    let k = (i as u64 * 7919 + tick * 104_729 + seed) % 61;
                    p.x = (p.x + k as f64 - 30.0).clamp(0.0, 1200.0);
                    p.y = (p.y + (k * 13 % 61) as f64 - 30.0).clamp(0.0, 900.0);
                }
            }
            tr.close_all(t(99.0), &mut got);
            let live: Vec<NodePair> = reference.current.iter().copied().collect();
            want.extend(live.into_iter().map(|pair| ContactEvent::Down { pair, time: t(99.0) }));
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(tr.contact_count(), 0);
        }
    }

    #[test]
    fn pooled_update_matches_serial_at_any_thread_count() {
        let positions = |tick: usize| -> Vec<Point2> {
            (0..120)
                .map(|i| {
                    Point2::new(
                        ((i * 53 + tick * 17) % 900) as f64,
                        ((i * 71 + tick * 29) % 900) as f64,
                    )
                })
                .collect()
        };
        let serial = {
            let mut tr = ContactTracker::new(Rect::from_size(900.0, 900.0), 80.0);
            let mut all = Vec::new();
            for tick in 0..40 {
                tr.update(t(tick as f64), &positions(tick), &mut all);
            }
            all
        };
        assert!(!serial.is_empty());
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut tr = ContactTracker::new(Rect::from_size(900.0, 900.0), 80.0);
            let mut all = Vec::new();
            for tick in 0..40 {
                tr.update_pooled(t(tick as f64), &positions(tick), &mut all, Some(&pool));
            }
            assert_eq!(all, serial, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let positions = |tick: usize| -> Vec<Point2> {
            (0..20)
                .map(|i| {
                    Point2::new(
                        ((i * 37 + tick * 13) % 500) as f64,
                        ((i * 91 + tick * 7) % 500) as f64,
                    )
                })
                .collect()
        };
        let run = || {
            let mut tr = ContactTracker::new(Rect::from_size(500.0, 500.0), 80.0);
            let mut all = Vec::new();
            for tick in 0..50 {
                tr.update(t(tick as f64), &positions(tick), &mut all);
            }
            all
        };
        assert_eq!(run(), run());
    }
}
