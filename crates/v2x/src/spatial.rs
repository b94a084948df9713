//! Uniform-grid spatial index over node positions.
//!
//! Highway-scale worlds (ROADMAP item 1: multi-platoon corridors with
//! thousands of vehicles) make the medium's all-pairs (frame, receiver) and
//! (frame, frame) loops the dominant cost. This module buckets positions into
//! square cells of a caller-chosen size so "everything within `r` metres of
//! here" becomes a lookup over a handful of cells instead of a scan.
//!
//! Two properties matter for the engine's byte-for-byte determinism and are
//! part of this type's contract (and pinned by the property tests below):
//!
//! 1. **Exactness** — [`SpatialGrid::query_within`] returns *exactly* the
//!    indices whose Euclidean distance to the centre is `<= radius`
//!    (inclusive), identical to a reference all-pairs scan. The grid only
//!    prunes; the final predicate is the same `distance(a, b) <= radius`
//!    float comparison a scan would make, so positions exactly on a cell
//!    boundary or exactly at `radius` behave identically in both.
//! 2. **Order** — results are in ascending index order. Callers fold over
//!    candidates (interference sums, rng draws per candidate), so iteration
//!    order must match the scan order of the seed implementation, never
//!    bucket or completion order.

use crate::hash::FxHashMap;
use crate::message::{distance, Position};

/// A uniform grid over 2-D positions supporting exact radius queries.
///
/// Build once per medium step (positions are a snapshot; the grid does not
/// track movement — rebuild after positions change).
#[derive(Clone, Debug, Default)]
pub struct SpatialGrid {
    cell: f64,
    cells: FxHashMap<(i64, i64), Vec<u32>>,
    positions: Vec<Position>,
}

impl SpatialGrid {
    /// Buckets `positions` into square cells of side `cell_m` metres.
    ///
    /// Panics if `cell_m` is not finite and positive. Non-finite positions
    /// are tolerated: they saturate to edge cells and are still subject to
    /// the exact distance predicate on query (a NaN coordinate can never
    /// satisfy `d <= radius`, matching the all-pairs scan).
    pub fn build(cell_m: f64, positions: &[Position]) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "grid cell size must be finite and positive, got {cell_m}"
        );
        let mut cells: FxHashMap<(i64, i64), Vec<u32>> = FxHashMap::default();
        for (i, &p) in positions.iter().enumerate() {
            // Indices are pushed in ascending order, so each bucket is sorted.
            cells
                .entry(Self::key(cell_m, p))
                .or_default()
                .push(i as u32);
        }
        SpatialGrid {
            cell: cell_m,
            cells,
            positions: positions.to_vec(),
        }
    }

    /// Cell coordinate of a position. `as i64` saturates on overflow /
    /// non-finite values, which is fine: saturated cells still hold their
    /// indices and the exact predicate filters on query.
    fn key(cell: f64, p: Position) -> (i64, i64) {
        ((p.0 / cell).floor() as i64, (p.1 / cell).floor() as i64)
    }

    /// Number of indexed positions.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Collects into `out` every index whose position lies within `radius`
    /// metres (inclusive) of `center`, in ascending index order. `out` is
    /// cleared first; the exact same `Vec` can be reused across queries to
    /// avoid per-query allocation.
    pub fn query_within(&self, center: Position, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.candidates(center, radius, |i| {
            if distance(self.positions[i as usize], center) <= radius {
                out.push(i);
            }
        });
        out.sort_unstable();
    }

    /// Whether any index within `radius` metres (inclusive) of `center`
    /// satisfies `pred`. Allocation-free; visit order is unspecified (use
    /// only for order-independent predicates).
    pub fn any_within<F: FnMut(usize) -> bool>(
        &self,
        center: Position,
        radius: f64,
        mut pred: F,
    ) -> bool {
        let mut hit = false;
        self.candidates(center, radius, |i| {
            if !hit && distance(self.positions[i as usize], center) <= radius && pred(i as usize) {
                hit = true;
            }
        });
        hit
    }

    /// Visits every index in cells that could intersect the query disc.
    /// Callers apply the exact distance predicate.
    fn candidates<F: FnMut(u32)>(&self, center: Position, radius: f64, mut visit: F) {
        if !(center.0.is_finite() && center.1.is_finite() && radius.is_finite() && radius >= 0.0) {
            // Degenerate query (NaN/±inf centre or radius): fall back to
            // visiting everything; the exact predicate decides, exactly as
            // an all-pairs scan would.
            for i in 0..self.positions.len() as u32 {
                visit(i);
            }
            return;
        }
        let lo = Self::key(self.cell, (center.0 - radius, center.1 - radius));
        let hi = Self::key(self.cell, (center.0 + radius, center.1 + radius));
        let span_x = (hi.0 - lo.0 + 1).max(0) as u128;
        let span_y = (hi.1 - lo.1 + 1).max(0) as u128;
        if span_x.saturating_mul(span_y) > self.cells.len() as u128 {
            // The disc covers more candidate cells than exist: walking the
            // occupied cells is cheaper and visits the same indices.
            for (key, bucket) in &self.cells {
                if (lo.0..=hi.0).contains(&key.0) && (lo.1..=hi.1).contains(&key.1) {
                    for &i in bucket {
                        visit(i);
                    }
                }
            }
            return;
        }
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    for &i in bucket {
                        visit(i);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference all-pairs scan the grid must reproduce exactly.
    fn scan(positions: &[Position], center: Position, radius: f64) -> Vec<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, &p)| distance(p, center) <= radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn query(grid: &SpatialGrid, center: Position, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        grid.query_within(center, radius, &mut out);
        out
    }

    #[test]
    fn empty_grid_returns_nothing() {
        let grid = SpatialGrid::build(10.0, &[]);
        assert!(query(&grid, (0.0, 0.0), 100.0).is_empty());
        assert_eq!(grid.len(), 0);
    }

    #[test]
    fn radius_is_inclusive() {
        let pts = [(0.0, 0.0), (10.0, 0.0), (10.0 + 1e-9, 0.0)];
        let grid = SpatialGrid::build(4.0, &pts);
        assert_eq!(query(&grid, (0.0, 0.0), 10.0), vec![0, 1]);
    }

    #[test]
    fn point_exactly_on_cell_boundary_is_found() {
        // x = 20.0 sits exactly on the boundary between cells 1 and 2 at
        // cell size 10; it must appear exactly once.
        let pts = [(20.0, 0.0), (-10.0, 0.0), (0.0, 10.0)];
        let grid = SpatialGrid::build(10.0, &pts);
        assert_eq!(query(&grid, (20.0, 0.0), 0.0), vec![0]);
        assert_eq!(query(&grid, (15.0, 0.0), 5.0), vec![0]);
        assert_eq!(query(&grid, (0.0, 0.0), 30.0), scan(&pts, (0.0, 0.0), 30.0));
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let pts = [(-0.5, -0.5), (0.5, 0.5), (-10.0, -10.0)];
        let grid = SpatialGrid::build(1.0, &pts);
        assert_eq!(query(&grid, (0.0, 0.0), 1.0), vec![0, 1]);
    }

    #[test]
    fn nan_position_never_matches() {
        let pts = [(f64::NAN, 0.0), (5.0, 0.0)];
        let grid = SpatialGrid::build(10.0, &pts);
        assert_eq!(query(&grid, (0.0, 0.0), 100.0), vec![1]);
    }

    #[test]
    fn degenerate_query_matches_scan() {
        let pts = [(0.0, 0.0), (5.0, 5.0)];
        let grid = SpatialGrid::build(10.0, &pts);
        assert_eq!(query(&grid, (f64::NAN, 0.0), 10.0), Vec::<u32>::new());
        assert_eq!(query(&grid, (0.0, 0.0), f64::NAN), Vec::<u32>::new());
    }

    #[test]
    fn any_within_respects_radius_and_predicate() {
        let pts = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)];
        let grid = SpatialGrid::build(25.0, &pts);
        assert!(grid.any_within((45.0, 0.0), 10.0, |_| true));
        assert!(!grid.any_within((45.0, 0.0), 4.9, |_| true));
        assert!(!grid.any_within((45.0, 0.0), 10.0, |i| i != 1));
        assert!(grid.any_within((75.0, 0.0), 30.0, |i| i == 2));
    }

    #[test]
    fn huge_radius_walks_occupied_cells() {
        // Radius/cell ratio large enough to trigger the occupied-cell walk.
        let pts: Vec<Position> = (0..40).map(|i| (i as f64 * 3.0, 0.0)).collect();
        let grid = SpatialGrid::build(0.5, &pts);
        assert_eq!(
            query(&grid, (60.0, 0.0), 1.0e6),
            scan(&pts, (60.0, 0.0), 1.0e6)
        );
    }

    #[test]
    fn vehicle_crossing_cell_boundary_never_dropped_or_duplicated() {
        // A vehicle advancing a fraction of a cell per tick crosses many
        // boundaries; at every tick the rebuilt grid must report it exactly
        // once whenever it is in range, and its candidate set must equal the
        // scan (satellite: boundary-crossing regression).
        let cell = 50.0;
        let observer = (500.0, 0.0);
        let statics: Vec<Position> = (0..20).map(|i| (i as f64 * 47.0, 1.5)).collect();
        let mut x = 340.0;
        for _ in 0..200 {
            let mut pts = statics.clone();
            pts.push((x, -1.5)); // index 20: the mover
            let grid = SpatialGrid::build(cell, &pts);
            let got = query(&grid, observer, 120.0);
            assert_eq!(got, scan(&pts, observer, 120.0), "x = {x}");
            let mover_hits = got.iter().filter(|&&i| i == 20).count();
            let in_range = distance((x, -1.5), observer) <= 120.0;
            assert_eq!(mover_hits, usize::from(in_range), "x = {x}");
            x += 3.7; // deliberately not a divisor of the cell size
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn scan(positions: &[Position], center: Position, radius: f64) -> Vec<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, &p)| distance(p, center) <= radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn query(grid: &SpatialGrid, center: Position, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        grid.query_within(center, radius, &mut out);
        out
    }

    proptest! {
        /// Core equivalence: for arbitrary positions (x along the road, y a
        /// lane offset), arbitrary radii and cell sizes, the grid query is
        /// the all-pairs scan — same members, same ascending order.
        #[test]
        fn grid_query_equals_all_pairs_scan(
            cell in 0.5f64..400.0,
            radius in 0.0f64..1500.0,
            pts in vec((-5000.0f64..5000.0, -60.0f64..60.0), 0..80),
            center in (-5000.0f64..5000.0, -60.0f64..60.0),
        ) {
            let grid = SpatialGrid::build(cell, &pts);
            prop_assert_eq!(query(&grid, center, radius), scan(&pts, center, radius));
        }

        /// Querying from an indexed position always finds that position
        /// (distance 0 <= any radius), and results never contain duplicates.
        #[test]
        fn self_is_always_a_candidate(
            cell in 0.5f64..200.0,
            radius in 0.0f64..500.0,
            pts in vec((-2000.0f64..2000.0, -20.0f64..20.0), 1..40),
            pick in 0usize..40,
        ) {
            let center = pts[pick % pts.len()];
            let grid = SpatialGrid::build(cell, &pts);
            let got = query(&grid, center, radius);
            prop_assert!(got.contains(&((pick % pts.len()) as u32)));
            let mut dedup = got.clone();
            dedup.dedup();
            prop_assert_eq!(&dedup, &got, "duplicates in candidate set");
        }

        /// Positions exactly on cell boundaries (integer multiples of the
        /// cell size) and radii exactly at point distances: the grid must
        /// agree with the scan bit-for-bit on these edge cases.
        #[test]
        fn boundary_aligned_positions_match_scan(
            cell in 0.5f64..50.0,
            ks in vec((-20i64..21, -4i64..5), 1..30),
            ck in (-20i64..21, -4i64..5),
            steps in 0u32..40,
        ) {
            let pts: Vec<Position> = ks
                .iter()
                .map(|&(kx, ky)| (kx as f64 * cell, ky as f64 * cell))
                .collect();
            let center = (ck.0 as f64 * cell, ck.1 as f64 * cell);
            // A radius that is an exact multiple of the cell size lands
            // query edges exactly on cell boundaries and on axis-aligned
            // points' distances.
            let radius = steps as f64 * cell;
            let grid = SpatialGrid::build(cell, &pts);
            prop_assert_eq!(query(&grid, center, radius), scan(&pts, center, radius));
        }

        /// any_within agrees with "the exact candidate set is non-empty
        /// after filtering".
        #[test]
        fn any_within_equals_filtered_scan(
            cell in 0.5f64..200.0,
            radius in 0.0f64..800.0,
            pts in vec((-2000.0f64..2000.0, -20.0f64..20.0), 0..40),
            center in (-2000.0f64..2000.0, -20.0f64..20.0),
            parity in 0usize..2,
        ) {
            let grid = SpatialGrid::build(cell, &pts);
            let got = grid.any_within(center, radius, |i| i % 2 == parity);
            let want = scan(&pts, center, radius).iter().any(|&i| i as usize % 2 == parity);
            prop_assert_eq!(got, want);
        }
    }
}
