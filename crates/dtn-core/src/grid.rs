//! Sorted-cell spatial grid for neighbour queries.
//!
//! Contact detection needs "which node pairs are within radio range?"
//! every movement tick. A naive scan is O(n^2) per tick; the grid
//! buckets node positions into square cells of side >= the query
//! radius, so each node is compared only with the nodes of its cell
//! neighbourhood.
//!
//! The grid stores no per-cell array. Its entries are kept sorted by
//! `(row-major cell key, node id)`, so only occupied cells cost
//! anything and the work of a tick is proportional to the node count,
//! never to the cell count (the 100k-node urban scenario has 7.5 cells
//! per node):
//!
//! * [`rebuild`](SpatialGrid::rebuild) re-keys the entries in the
//!   previous rebuild's order. Entries whose cell is unchanged stay
//!   sorted; only the movers are sorted and merged back in, so a tick
//!   costs O(n + m log m) for m nodes that changed cell (a node moving
//!   a few metres per tick in 100 m cells rarely does).
//! * [`pairs_within_rows`](SpatialGrid::pairs_within_rows) walks the
//!   runs of equal key. The forward neighbours of a run are the run
//!   right after it (same row) and, per lower row, a key range found by
//!   a cursor that only ever moves forward. A scan is O(n + rows +
//!   candidate pairs) and never visits an empty cell.

use crate::geometry::{Point2, Rect};
use crate::ids::NodeId;

/// Bits of an entry's sort key below the cell key: the node id.
const ID_BITS: u32 = 32;

/// A rebuild-per-tick spatial grid with cell-sorted entries.
///
/// Usage pattern: call [`rebuild`](SpatialGrid::rebuild) with all node
/// positions each tick, then [`neighbors_within`](SpatialGrid::neighbors_within)
/// or [`pairs_within`](SpatialGrid::pairs_within).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    layout: Layout,
    /// Every node exactly once, ascending by `sort`: grouped by cell in
    /// row-major order, by id within a cell.
    entries: Vec<Entry>,
    /// Rebuild scratch: the re-keyed entries whose cell changed.
    moved: Vec<Entry>,
    /// Rebuild scratch: the merge target, swapped with `entries`.
    merged: Vec<Entry>,
}

/// One node in the grid.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `cell_key << 32 | node_id`: the sort key.
    sort: u64,
    pos: Point2,
}

impl Entry {
    #[inline]
    fn new(key: u64, id: usize, pos: Point2) -> Entry {
        Entry {
            sort: key << ID_BITS | id as u64,
            pos,
        }
    }

    #[inline]
    fn key(&self) -> u64 {
        self.sort >> ID_BITS
    }

    #[inline]
    fn id(&self) -> NodeId {
        NodeId(self.sort as u32)
    }
}

/// Cell geometry: maps a position to its row-major cell key.
#[derive(Debug, Clone, Copy)]
struct Layout {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
}

impl Layout {
    #[inline]
    fn cell_of(&self, p: Point2) -> (usize, usize) {
        let q = self.bounds.clamp(p);
        let cx = (((q.x - self.bounds.min.x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((q.y - self.bounds.min.y) / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn key(&self, cx: usize, cy: usize) -> u64 {
        (cy * self.cols + cx) as u64
    }

    #[inline]
    fn key_of(&self, p: Point2) -> u64 {
        let (cx, cy) = self.cell_of(p);
        self.key(cx, cy)
    }

    /// Key range `[lo, hi]` of the cells in row `cy` whose column is
    /// within `reach` of `cx`.
    #[inline]
    fn row_span(&self, cy: usize, cx: usize, reach: usize) -> (u64, u64) {
        (
            self.key(cx.saturating_sub(reach), cy),
            self.key((cx + reach).min(self.cols - 1), cy),
        )
    }
}

impl SpatialGrid {
    /// Creates a grid over `bounds` with cells of at least `cell_size`
    /// metres (typically the radio range).
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive, or if the grid
    /// would have more than 2^32 cells.
    pub fn new(bounds: Rect, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let cols = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        assert!(
            cols.checked_mul(rows)
                .is_some_and(|cells| cells as u64 <= 1 << ID_BITS),
            "grid of {cols} x {rows} cells exceeds 2^32 cells"
        );
        SpatialGrid {
            layout: Layout {
                bounds,
                cell: cell_size,
                cols,
                rows,
            },
            entries: Vec::new(),
            moved: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Rebuilds the grid from `positions`, a slice indexed by node id.
    /// Positions outside the bounds are clamped into the edge cells.
    ///
    /// # Panics
    /// Panics if there are more than 2^32 positions.
    pub fn rebuild(&mut self, positions: &[Point2]) {
        assert!(
            positions.len() as u64 <= 1 << ID_BITS,
            "node ids must fit in 32 bits"
        );
        let layout = self.layout;
        if self.entries.len() == positions.len() {
            // Re-key in the previous order: entries that kept their cell
            // stay sorted in place, the movers are sorted on their own
            // and merged back in.
            self.moved.clear();
            let mut kept = 0;
            for read in 0..self.entries.len() {
                let old = self.entries[read];
                let id = old.id().index();
                let pos = positions[id];
                let key = layout.key_of(pos);
                if key == old.key() {
                    self.entries[kept] = Entry {
                        sort: old.sort,
                        pos,
                    };
                    kept += 1;
                } else {
                    self.moved.push(Entry::new(key, id, pos));
                }
            }
            self.entries.truncate(kept);
            if !self.moved.is_empty() {
                self.moved.sort_unstable_by_key(|e| e.sort);
                merge_sorted(&self.entries, &self.moved, &mut self.merged);
                std::mem::swap(&mut self.entries, &mut self.merged);
            }
        } else {
            // A different node set: start over from id order.
            self.entries.clear();
            self.entries.extend(
                positions
                    .iter()
                    .enumerate()
                    .map(|(id, &p)| Entry::new(layout.key_of(p), id, p)),
            );
            self.entries.sort_unstable_by_key(|e| e.sort);
        }
    }

    /// Index of the first entry whose cell key is at least `key`.
    #[inline]
    fn lower_bound(&self, key: u64) -> usize {
        self.entries.partition_point(|e| e.key() < key)
    }

    /// All nodes within `radius` of `p` (excluding `exclude`, typically
    /// the querying node itself), appended to `out` in ascending id order
    /// per cell.
    pub fn neighbors_within(
        &self,
        p: Point2,
        radius: f64,
        exclude: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        let r2 = radius * radius;
        let (cx, cy) = self.layout.cell_of(p);
        let reach = (radius / self.layout.cell).ceil() as usize;
        let rows = cy.saturating_sub(reach)..(cy + reach + 1).min(self.layout.rows);
        for yy in rows {
            let (lo, hi) = self.layout.row_span(yy, cx, reach);
            let mut i = self.lower_bound(lo);
            while i < self.entries.len() && self.entries[i].key() <= hi {
                let e = self.entries[i];
                if Some(e.id()) != exclude && p.distance_sq(e.pos) <= r2 {
                    out.push(e.id());
                }
                i += 1;
            }
        }
    }

    /// Every unordered pair of distinct nodes within `radius` of each
    /// other, appended to `out` as `(lo, hi)` with `lo < hi`. Each pair is
    /// reported exactly once.
    pub fn pairs_within(&self, radius: f64, out: &mut Vec<(NodeId, NodeId)>) {
        self.pairs_within_rows(radius, 0..self.layout.rows, out);
    }

    /// [`pairs_within`](Self::pairs_within) restricted to the grid rows
    /// in `rows` (a pair is owned by the row of its lexicographically
    /// first cell, so disjoint row bands report disjoint pair sets).
    ///
    /// This is the parallel decomposition point: concatenating the
    /// outputs of any partition of `0..row_count()` into ascending
    /// contiguous bands reproduces the serial `pairs_within` output
    /// byte for byte, because the serial scan already visits rows in
    /// ascending order.
    ///
    /// Output order: owner cells in row-major order; within a cell,
    /// nodes by id; for each node, the later nodes of its own cell,
    /// then the forward cells of its row, then each lower row within
    /// reach, cells left to right and nodes by id within a cell.
    pub fn pairs_within_rows(
        &self,
        radius: f64,
        rows: std::ops::Range<usize>,
        out: &mut Vec<(NodeId, NodeId)>,
    ) {
        let layout = self.layout;
        let r2 = radius * radius;
        let reach = (radius / layout.cell).ceil() as usize;
        let end_row = rows.end.min(layout.rows);
        if rows.start >= end_row {
            return;
        }
        let entries = &self.entries;
        let n = entries.len();
        let key_at = |i: usize| entries[i].key();
        let mut i = self.lower_bound(layout.key(0, rows.start));
        let stop = self.lower_bound(layout.key(0, end_row));
        // The row of the current run, tracked instead of divided out.
        let mut cy = rows.start;
        let mut row_key = layout.key(0, cy);
        // Per lower row `dy` (1..=reach): a cursor at the first entry of
        // the current cell's forward span in that row. Spans only move
        // forward as the owner cell advances, and so do the cursors.
        let mut cursors = vec![i; reach];
        // Index spans of the forward cells, per row offset 0..=reach.
        let mut spans = vec![(0usize, 0usize); reach + 1];
        while i < stop {
            let key = key_at(i);
            let mut run_end = i + 1;
            while run_end < n && key_at(run_end) == key {
                run_end += 1;
            }
            while key >= row_key + layout.cols as u64 {
                cy += 1;
                row_key += layout.cols as u64;
            }
            let cx = (key - row_key) as usize;
            // Same row: the runs right after this one, up to `reach`
            // columns to the right.
            let hi = key + reach.min(layout.cols - 1 - cx) as u64;
            let mut j = run_end;
            while j < n && key_at(j) <= hi {
                j += 1;
            }
            spans[0] = (run_end, j);
            for dy in 1..=reach {
                let span = &mut spans[dy];
                *span = (0, 0);
                if cy + dy >= layout.rows {
                    continue;
                }
                let (lo, hi) = layout.row_span(cy + dy, cx, reach);
                let c = &mut cursors[dy - 1];
                while *c < n && key_at(*c) < lo {
                    *c += 1;
                }
                let mut j = *c;
                while j < n && key_at(j) <= hi {
                    j += 1;
                }
                *span = (*c, j);
            }
            for a in i..run_end {
                let ea = entries[a];
                let mut visit = |range: std::ops::Range<usize>| {
                    for eb in &entries[range] {
                        if ea.pos.distance_sq(eb.pos) <= r2 {
                            push_sorted(out, ea.id(), eb.id());
                        }
                    }
                };
                visit(a + 1..run_end);
                for &(s, e) in &spans {
                    visit(s..e);
                }
            }
            i = run_end;
        }
    }

    /// Number of cells (diagnostic).
    pub fn cell_count(&self) -> usize {
        self.layout.cols * self.layout.rows
    }

    /// Number of grid rows — the unit of work for
    /// [`pairs_within_rows`](Self::pairs_within_rows) band partitioning.
    pub fn row_count(&self) -> usize {
        self.layout.rows
    }
}

/// Merges two entry lists, each ascending by sort key and disjoint,
/// into `out`.
fn merge_sorted(a: &[Entry], b: &[Entry], out: &mut Vec<Entry>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].sort < b[j].sort {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[inline]
fn push_sorted(out: &mut Vec<(NodeId, NodeId)>, a: NodeId, b: NodeId) {
    if a < b {
        out.push((a, b));
    } else {
        out.push((b, a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_force_pairs(positions: &[Point2], radius: f64) -> Vec<(NodeId, NodeId)> {
        let mut v = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance(positions[j]) <= radius {
                    v.push((NodeId(i as u32), NodeId(j as u32)));
                }
            }
        }
        v.sort();
        v
    }

    #[test]
    fn finds_neighbors() {
        let bounds = Rect::from_size(1000.0, 1000.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let pos = vec![
            Point2::new(10.0, 10.0),
            Point2::new(50.0, 10.0),
            Point2::new(500.0, 500.0),
            Point2::new(95.0, 10.0),
        ];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.neighbors_within(pos[0], 100.0, Some(NodeId(0)), &mut out);
        out.sort();
        assert_eq!(out, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    fn pairs_match_brute_force_on_cluster() {
        let bounds = Rect::from_size(300.0, 300.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let pos = vec![
            Point2::new(0.0, 0.0),
            Point2::new(99.0, 0.0),
            Point2::new(198.0, 0.0),
            Point2::new(99.0, 99.0),
            Point2::new(250.0, 250.0),
        ];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.pairs_within(100.0, &mut out);
        out.sort();
        assert_eq!(out, brute_force_pairs(&pos, 100.0));
    }

    #[test]
    fn positions_outside_bounds_are_clamped_not_lost() {
        let bounds = Rect::from_size(100.0, 100.0);
        let mut g = SpatialGrid::new(bounds, 50.0);
        let pos = vec![Point2::new(-10.0, 50.0), Point2::new(5.0, 50.0)];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.pairs_within(20.0, &mut out);
        assert_eq!(out, vec![(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn radius_larger_than_cell_is_handled() {
        // radius spans multiple cells; `reach` must extend the search.
        let bounds = Rect::from_size(1000.0, 1000.0);
        let mut g = SpatialGrid::new(bounds, 50.0);
        let pos = vec![Point2::new(100.0, 100.0), Point2::new(280.0, 100.0)];
        g.rebuild(&pos);
        let mut out = Vec::new();
        g.pairs_within(200.0, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cell_count_matches_geometry() {
        let g = SpatialGrid::new(Rect::from_size(1000.0, 500.0), 100.0);
        assert_eq!(g.cell_count(), 10 * 5);
        // Non-divisible extents round up.
        let g = SpatialGrid::new(Rect::from_size(1050.0, 510.0), 100.0);
        assert_eq!(g.cell_count(), 11 * 6);
        // A cell larger than the area degenerates to a single cell.
        let g = SpatialGrid::new(Rect::from_size(50.0, 50.0), 100.0);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn rebuild_clears_previous_state() {
        let mut g = SpatialGrid::new(Rect::from_size(500.0, 500.0), 100.0);
        g.rebuild(&[Point2::new(10.0, 10.0), Point2::new(20.0, 10.0)]);
        let mut out = Vec::new();
        g.pairs_within(50.0, &mut out);
        assert_eq!(out.len(), 1);
        // Rebuild with far-apart points: the old pair must be gone.
        g.rebuild(&[Point2::new(10.0, 10.0), Point2::new(450.0, 450.0)]);
        out.clear();
        g.pairs_within(50.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_grid() {
        let mut g = SpatialGrid::new(Rect::from_size(10.0, 10.0), 5.0);
        g.rebuild(&[]);
        let mut out = Vec::new();
        g.pairs_within(5.0, &mut out);
        assert!(out.is_empty());
        let mut ns = Vec::new();
        g.neighbors_within(Point2::new(1.0, 1.0), 5.0, None, &mut ns);
        assert!(ns.is_empty());
    }

    #[test]
    fn row_bands_concatenate_to_serial_order() {
        // Any contiguous ascending row partition must reproduce the
        // serial pairs_within output exactly — order included. This is
        // the invariant the parallel contact phase rests on.
        let bounds = Rect::from_size(2000.0, 1500.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let positions: Vec<Point2> = (0..300)
            .map(|i| Point2::new(((i * 131) % 2000) as f64, ((i * 241) % 1500) as f64))
            .collect();
        g.rebuild(&positions);
        let mut serial = Vec::new();
        g.pairs_within(120.0, &mut serial);
        assert!(!serial.is_empty());
        for parts in [1usize, 2, 3, 5, 8, 64] {
            let mut banded = Vec::new();
            for band in crate::pool::bands(g.row_count(), parts) {
                g.pairs_within_rows(120.0, band, &mut banded);
            }
            assert_eq!(banded, serial, "parts={parts}");
        }
        // A band past the end is harmlessly empty.
        let mut none = Vec::new();
        g.pairs_within_rows(120.0, g.row_count()..g.row_count() + 5, &mut none);
        assert!(none.is_empty());
    }

    /// The scan order of the dense cell-array grid this layout
    /// replaced: owner cells row-major, nodes by id, then the same
    /// cell, the forward cells of the row and the lower rows. The
    /// sorted layout must reproduce it exactly, not just as a set.
    fn dense_reference_pairs(
        bounds: Rect,
        cell: f64,
        positions: &[Point2],
        radius: f64,
    ) -> Vec<(NodeId, NodeId)> {
        let layout = SpatialGrid::new(bounds, cell).layout;
        let mut cells = vec![Vec::new(); layout.cols * layout.rows];
        for (i, &p) in positions.iter().enumerate() {
            let (cx, cy) = layout.cell_of(p);
            cells[cy * layout.cols + cx].push((NodeId(i as u32), p));
        }
        let reach = (radius / cell).ceil() as isize;
        let mut out = Vec::new();
        for cy in 0..layout.rows {
            for cx in 0..layout.cols {
                let here = &cells[cy * layout.cols + cx];
                for (k, &(ida, pa)) in here.iter().enumerate() {
                    let mut visit = |others: &[(NodeId, Point2)]| {
                        for &(idb, pb) in others {
                            if pa.distance_sq(pb) <= radius * radius {
                                push_sorted(&mut out, ida, idb);
                            }
                        }
                    };
                    visit(&here[k + 1..]);
                    for dy in 0..=reach {
                        let yy = cy as isize + dy;
                        let dx_start = if dy == 0 { 1 } else { -reach };
                        for dx in dx_start..=reach {
                            let xx = cx as isize + dx;
                            if yy < layout.rows as isize && xx >= 0 && xx < layout.cols as isize {
                                visit(&cells[yy as usize * layout.cols + xx as usize]);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Checks one rebuilt grid against the brute force (as a set), the
    /// dense reference (in order) and every band partition (in order).
    fn check_grid(g: &SpatialGrid, bounds: Rect, cell: f64, positions: &[Point2], radius: f64) {
        let mut serial = Vec::new();
        g.pairs_within(radius, &mut serial);
        assert_eq!(
            serial,
            dense_reference_pairs(bounds, cell, positions, radius),
            "scan order"
        );
        for parts in [1usize, 2, 3, 8, 64] {
            let mut banded = Vec::new();
            for band in crate::pool::bands(g.row_count(), parts) {
                g.pairs_within_rows(radius, band, &mut banded);
            }
            assert_eq!(banded, serial, "parts={parts}");
        }
        let mut set = serial.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), serial.len(), "pair reported twice");
        assert_eq!(set, brute_force_pairs(positions, radius));
    }

    #[test]
    fn radio_off_sentinels_clamp_into_the_corner_cell_and_stay_apart() {
        // Radio-down nodes are parked at distinct far-away sentinels,
        // 1e9 m apart; they clamp into cell (0, 0) next to a real node.
        let bounds = Rect::from_size(1000.0, 800.0);
        let mut g = SpatialGrid::new(bounds, 100.0);
        let mut pos: Vec<Point2> = (0..6)
            .map(|i| Point2::new(-1.0e12 - i as f64 * 1.0e9, -1.0e12))
            .collect();
        pos.extend([
            Point2::new(10.0, 10.0),
            Point2::new(60.0, 40.0),
            Point2::new(150.0, 30.0),
        ]);
        g.rebuild(&pos);
        check_grid(&g, bounds, 100.0, &pos, 100.0);
        let mut out = Vec::new();
        g.pairs_within(100.0, &mut out);
        assert_eq!(out, vec![(NodeId(6), NodeId(7)), (NodeId(7), NodeId(8))]);
        // A sentinel node that comes back rejoins through the re-key.
        pos[2] = Point2::new(20.0, 20.0);
        g.rebuild(&pos);
        check_grid(&g, bounds, 100.0, &pos, 100.0);
    }

    /// Small random steps, with a few nodes teleporting: the re-key and
    /// merge path of `rebuild`.
    fn jitter(positions: &[Point2], step: u64, w: f64, h: f64) -> Vec<Point2> {
        positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let k = (i as u64 * 2_654_435_761 + step * 40_503) % 1000;
                if k < 30 {
                    Point2::new((k as f64 * 97.0) % w, (k as f64 * 61.0) % h)
                } else {
                    let dx = (k % 11) as f64 - 5.0;
                    let dy = ((k / 11) % 11) as f64 - 5.0;
                    Point2::new(p.x + dx * 3.0, p.y + dy * 3.0)
                }
            })
            .collect()
    }

    proptest! {
        /// Grid pair detection agrees exactly with the O(n^2) brute force
        /// for random point sets and radii.
        #[test]
        fn prop_matches_brute_force(
            pts in prop::collection::vec((0.0f64..2000.0, 0.0f64..1500.0), 0..60),
            radius in 10.0f64..400.0,
        ) {
            let positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let bounds = Rect::from_size(2000.0, 1500.0);
            let mut g = SpatialGrid::new(bounds, 100.0);
            g.rebuild(&positions);
            let mut got = Vec::new();
            g.pairs_within(radius, &mut got);
            got.sort();
            got.dedup();
            prop_assert_eq!(got, brute_force_pairs(&positions, radius));
        }

        /// The sparse regime of the urban scenario (at least 7.5 cells
        /// per node), over several rebuilds of moving nodes, some of
        /// them outside the bounds.
        #[test]
        fn prop_sparse_regime_over_moving_ticks(
            pts in prop::collection::vec((-200.0f64..4200.0, -200.0f64..3200.0), 0..160),
            radius in 20.0f64..100.0,
        ) {
            // 40 x 30 = 1200 cells for at most 160 nodes.
            let bounds = Rect::from_size(4000.0, 3000.0);
            let mut g = SpatialGrid::new(bounds, 100.0);
            let mut positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            for step in 0..4 {
                g.rebuild(&positions);
                check_grid(&g, bounds, 100.0, &positions, radius);
                positions = jitter(&positions, step, 4000.0, 3000.0);
            }
        }

        /// A query radius wider than a cell (`reach > 1`), over moving
        /// ticks.
        #[test]
        fn prop_radius_wider_than_cell(
            pts in prop::collection::vec((0.0f64..1500.0, 0.0f64..1000.0), 0..80),
            radius in 60.0f64..400.0,
        ) {
            let bounds = Rect::from_size(1500.0, 1000.0);
            let mut g = SpatialGrid::new(bounds, 50.0);
            let mut positions: Vec<Point2> =
                pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            for step in 0..3 {
                g.rebuild(&positions);
                check_grid(&g, bounds, 50.0, &positions, radius);
                positions = jitter(&positions, step, 1500.0, 1000.0);
            }
        }
    }
}
