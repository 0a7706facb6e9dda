//! Uniform-grid bucket index over 3D points.
//!
//! RRT spends almost all of its non-collision time finding the nearest tree
//! node to each sample (a linear scan makes tree growth O(n²)), PRM
//! connects its roadmap with an all-pairs O(n²) loop, frontier extraction
//! clusters candidate voxels by radius, and the multi-target tracker
//! associates detections to tracks by nearest distance. [`PointGrid`] hashes
//! points into uniform buckets so all of these become near-O(n):
//! nearest-neighbour by expanding Chebyshev rings with an exact lower-bound
//! cutoff, and radius-connection by enumerating only the buckets overlapping
//! the query ball.
//!
//! The index is *exact*, not approximate: `nearest` returns bit-for-bit the
//! node a linear `min_by` scan over `distance_squared` would return
//! (including the first-minimal-index tie-break), and `candidates_within`
//! returns a superset of every point within the radius, so callers that
//! re-test the true distance reproduce the brute-force decision exactly.
//! The planners rely on this to keep planned paths identical with the index
//! on or off.

use crate::{Aabb, Vec3};

/// A uniform bucket grid over a bounded region, indexing inserted points by
/// their position. Points outside the region are clamped into the boundary
/// buckets, which keeps every query exact (the lower-bound arguments only
/// ever weaken for clamped points).
#[derive(Debug, Clone, PartialEq)]
pub struct PointGrid {
    origin: Vec3,
    extent: Vec3,
    cell: f64,
    dims: [i64; 3],
    /// Flat bucket array, x-major; each bucket holds indices into `points`
    /// in insertion order.
    buckets: Vec<Vec<u32>>,
    points: Vec<Vec3>,
    /// Population at which the grid re-tunes its bucket size to the observed
    /// density (doubling schedule, so re-bucketing stays amortized O(1) per
    /// insert).
    next_retune: usize,
}

impl PointGrid {
    /// Hard ceiling on buckets per axis (so ≤ 64³ buckets total, a few MB of
    /// headers): a tiny requested cell over huge bounds must not allocate an
    /// unbounded dense array. Points past a capped edge just clamp into the
    /// boundary buckets, which every query already handles exactly.
    const MAX_DIM: i64 = 64;

    /// Creates an empty grid over `bounds` with the given bucket edge
    /// length. For nearest-neighbour workloads pick the typical query
    /// distance (the RRT extension step); for radius queries pick the
    /// radius, so candidates live in at most 3³ buckets. Cells much finer
    /// than 1/64th of the longest side are floored to it (the internal
    /// `MAX_DIM` cap); the density retune re-coarsens as the
    /// population grows, so the requested cell is only a starting hint.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn new(bounds: &Aabb, cell: f64) -> Self {
        let mut grid = PointGrid {
            origin: bounds.min,
            extent: Vec3::ZERO,
            cell: 1.0,
            dims: [1, 1, 1],
            buckets: Vec::new(),
            points: Vec::new(),
            next_retune: 2 * Self::LINEAR_SCAN_CUTOFF,
        };
        grid.reset(bounds, cell);
        grid
    }

    /// Re-initialises the grid over new bounds, reusing the bucket and point
    /// allocations. The resulting state is exactly that of
    /// `PointGrid::new(bounds, cell)` — `new` is implemented on top of this —
    /// so a planner can rebuild its per-plan index without reallocating the
    /// bucket array every call.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn reset(&mut self, bounds: &Aabb, cell: f64) {
        assert!(
            cell.is_finite() && cell > 0.0,
            "bucket edge length must be positive, got {cell}"
        );
        let extent = bounds.max - bounds.min;
        let longest = extent.x.max(extent.y).max(extent.z).max(1e-3);
        let cell = cell.max(longest / Self::MAX_DIM as f64);
        let dim = |e: f64| ((e / cell).ceil() as i64).clamp(1, Self::MAX_DIM);
        let dims = [dim(extent.x), dim(extent.y), dim(extent.z)];
        let total = (dims[0] * dims[1] * dims[2]) as usize;
        self.origin = bounds.min;
        self.extent = extent;
        self.cell = cell;
        self.dims = dims;
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize_with(total, Vec::new);
        self.points.clear();
        self.next_retune = 2 * Self::LINEAR_SCAN_CUTOFF;
    }

    /// Re-buckets the grid so the average occupied bucket holds ~8 points:
    /// coarse enough that ring walks touch few empty buckets, fine enough
    /// that each bucket scan stays short. Purely a performance retune — the
    /// stored points and every query answer are unchanged.
    fn retune(&mut self) {
        let volume =
            (self.extent.x.max(1e-3)) * (self.extent.y.max(1e-3)) * (self.extent.z.max(1e-3));
        let longest = self
            .extent
            .x
            .max(self.extent.y)
            .max(self.extent.z)
            .max(1e-3);
        let cell = (volume * 8.0 / self.points.len() as f64)
            .cbrt()
            .max(longest / Self::MAX_DIM as f64);
        if !cell.is_finite() || cell <= 0.0 {
            return;
        }
        self.cell = cell;
        let dim = |e: f64| ((e / cell).ceil() as i64).clamp(1, Self::MAX_DIM);
        self.dims = [dim(self.extent.x), dim(self.extent.y), dim(self.extent.z)];
        let total = (self.dims[0] * self.dims[1] * self.dims[2]) as usize;
        // Re-shape in place rather than replacing the array: a retune usually
        // coarsens (total shrinks), and `resize_with`'s truncation keeps the
        // spine's capacity, so a later `reset` back to a fine cell re-grows
        // within it instead of reallocating the whole header array.
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize_with(total, Vec::new);
        for (index, point) in self.points.iter().enumerate() {
            let coord = |p: f64, o: f64, d: i64| (((p - o) / cell).floor() as i64).clamp(0, d - 1);
            let c = [
                coord(point.x, self.origin.x, self.dims[0]),
                coord(point.y, self.origin.y, self.dims[1]),
                coord(point.z, self.origin.z, self.dims[2]),
            ];
            let slot = ((c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]) as usize;
            self.buckets[slot].push(index as u32);
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point stored under `index` (as inserted).
    pub fn point(&self, index: usize) -> Vec3 {
        self.points[index]
    }

    /// Inserts a point, returning its index (== insertion order).
    pub fn insert(&mut self, point: Vec3) -> usize {
        let index = self.points.len();
        assert!(index < u32::MAX as usize, "PointGrid capacity exceeded");
        let slot = self.flat(&self.cell_of(&point));
        self.buckets[slot].push(index as u32);
        self.points.push(point);
        if self.points.len() >= self.next_retune {
            self.retune();
            self.next_retune *= 2;
        }
        index
    }

    /// Below this population a straight linear scan beats walking the bucket
    /// rings (scattered, mostly-empty buckets cost more cache misses than a
    /// few hundred contiguous distance evaluations). Both paths return the
    /// identical index, so the cutoff is purely a performance knob.
    const LINEAR_SCAN_CUTOFF: usize = 256;

    /// Index of the point nearest to `query` under `distance_squared`, ties
    /// broken towards the smallest index — exactly the result of a linear
    /// first-minimal scan. `None` when the grid is empty.
    pub fn nearest(&self, query: &Vec3) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        if self.points.len() <= Self::LINEAR_SCAN_CUTOFF {
            let mut best = (self.points[0].distance_squared(query), 0usize);
            for (i, p) in self.points.iter().enumerate().skip(1) {
                let d2 = p.distance_squared(query);
                if d2 < best.0 {
                    best = (d2, i);
                }
            }
            return Some(best.1);
        }
        let center = self.cell_of(query);
        // Enough rings to reach every bucket from any (clamped) centre.
        let max_ring = self.dims.iter().max().copied().unwrap_or(1);
        let mut best: Option<(f64, u32)> = None;
        for ring in 0..=max_ring {
            if let Some((best_d2, _)) = best {
                // Any point in this ring or beyond lies at least
                // (ring - 1) · cell away: some axis differs by ≥ ring
                // buckets, and a point is never below its bucket's lower
                // edge minus rounding noise (clamped outliers are only ever
                // farther). The relative slack covers that rounding noise
                // (~ulp-scale, orders of magnitude below 1e-9 of the bound),
                // so the walk never stops while a later ring could still
                // produce an equal-or-better candidate — exactness of the
                // first-minimal tie-break is preserved.
                let bound = (ring - 1).max(0) as f64 * self.cell;
                if best_d2 < bound * bound * (1.0 - 1e-9) {
                    break;
                }
            }
            self.for_each_ring_bucket(&center, ring, |bucket| {
                for &i in bucket {
                    let d2 = self.points[i as usize].distance_squared(query);
                    let better = match best {
                        None => true,
                        Some((bd2, bi)) => d2 < bd2 || (d2 == bd2 && i < bi),
                    };
                    if better {
                        best = Some((d2, i));
                    }
                }
            });
        }
        best.map(|(_, i)| i as usize)
    }

    /// Appends to `out` the indices of every point that *could* lie within
    /// `radius` of `query`: all points of the buckets overlapping the query
    /// cube. A superset of the true ball — callers re-test the exact
    /// distance. Indices arrive in no particular order; sort if the caller's
    /// iteration order matters.
    pub fn candidates_within(&self, query: &Vec3, radius: f64, out: &mut Vec<u32>) {
        let r = radius.max(0.0);
        let lo = self.cell_of(&Vec3::new(query.x - r, query.y - r, query.z - r));
        let hi = self.cell_of(&Vec3::new(query.x + r, query.y + r, query.z + r));
        for x in lo[0]..=hi[0] {
            for y in lo[1]..=hi[1] {
                for z in lo[2]..=hi[2] {
                    out.extend_from_slice(&self.buckets[self.flat(&[x, y, z])]);
                }
            }
        }
    }

    /// Clamped bucket coordinates of `point`.
    fn cell_of(&self, point: &Vec3) -> [i64; 3] {
        let coord = |p: f64, o: f64, d: i64| (((p - o) / self.cell).floor() as i64).clamp(0, d - 1);
        [
            coord(point.x, self.origin.x, self.dims[0]),
            coord(point.y, self.origin.y, self.dims[1]),
            coord(point.z, self.origin.z, self.dims[2]),
        ]
    }

    fn flat(&self, cell: &[i64; 3]) -> usize {
        ((cell[0] * self.dims[1] + cell[1]) * self.dims[2] + cell[2]) as usize
    }

    /// Visits every in-range bucket at Chebyshev distance exactly `ring`
    /// from `center`: the two full x-faces, then the y- and z-faces shrunk
    /// to avoid revisiting edge and corner cells.
    fn for_each_ring_bucket(&self, center: &[i64; 3], ring: i64, mut visit: impl FnMut(&[u32])) {
        if ring == 0 {
            visit(&self.buckets[self.flat(center)]);
            return;
        }
        let clamp_range = |lo: i64, hi: i64, d: i64| (lo.max(0), hi.min(d - 1));
        let (ylo, yhi) = clamp_range(center[1] - ring, center[1] + ring, self.dims[1]);
        let (zlo, zhi) = clamp_range(center[2] - ring, center[2] + ring, self.dims[2]);
        for x in [center[0] - ring, center[0] + ring] {
            if x < 0 || x >= self.dims[0] {
                continue;
            }
            for y in ylo..=yhi {
                for z in zlo..=zhi {
                    visit(&self.buckets[self.flat(&[x, y, z])]);
                }
            }
        }
        let (xlo, xhi) = clamp_range(center[0] - ring + 1, center[0] + ring - 1, self.dims[0]);
        for y in [center[1] - ring, center[1] + ring] {
            if y < 0 || y >= self.dims[1] {
                continue;
            }
            for x in xlo..=xhi {
                for z in zlo..=zhi {
                    visit(&self.buckets[self.flat(&[x, y, z])]);
                }
            }
        }
        let (ylo, yhi) = clamp_range(center[1] - ring + 1, center[1] + ring - 1, self.dims[1]);
        for z in [center[2] - ring, center[2] + ring] {
            if z < 0 || z >= self.dims[2] {
                continue;
            }
            for x in xlo..=xhi {
                for y in ylo..=yhi {
                    visit(&self.buckets[self.flat(&[x, y, z])]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bounds() -> Aabb {
        Aabb::new(Vec3::new(-10.0, -10.0, 0.0), Vec3::new(10.0, 10.0, 5.0))
    }

    fn linear_nearest(points: &[Vec3], q: &Vec3) -> Option<usize> {
        points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.distance_squared(q).total_cmp(&b.1.distance_squared(q)))
            .map(|(i, _)| i)
    }

    #[test]
    fn empty_grid_has_no_nearest() {
        let grid = PointGrid::new(&bounds(), 2.5);
        assert!(grid.is_empty());
        assert_eq!(grid.nearest(&Vec3::ZERO), None);
    }

    #[test]
    fn nearest_matches_linear_scan_on_random_points() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut grid = PointGrid::new(&bounds(), 2.5);
        let mut points = Vec::new();
        // 700 points: crosses both the linear-scan cutoff and the first
        // density retune, so all three nearest paths are exercised.
        for i in 0..700 {
            let p = Vec3::new(
                rng.gen_range(-11.0..11.0), // a few land outside the bounds
                rng.gen_range(-11.0..11.0),
                rng.gen_range(-0.5..5.5),
            );
            assert_eq!(grid.insert(p), i);
            points.push(p);
            let q = Vec3::new(
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-12.0..12.0),
                rng.gen_range(-1.0..6.0),
            );
            assert_eq!(
                grid.nearest(&q),
                linear_nearest(&points, &q),
                "query {q} after {} inserts",
                points.len()
            );
        }
        assert_eq!(grid.len(), 700);
    }

    #[test]
    fn reset_restores_the_exact_fresh_grid_state() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut grid = PointGrid::new(&bounds(), 2.5);
        // Push past the retune threshold so cell/dims/next_retune all drift
        // from their fresh values before the reset.
        for _ in 0..700 {
            grid.insert(Vec3::new(
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(0.0..5.0),
            ));
        }
        let other = Aabb::new(Vec3::new(-4.0, -2.0, 0.0), Vec3::new(6.0, 8.0, 3.0));
        grid.reset(&other, 1.25);
        assert_eq!(grid, PointGrid::new(&other, 1.25));
        // And behaviour after the reset matches a fresh grid exactly.
        let mut fresh = PointGrid::new(&other, 1.25);
        for _ in 0..300 {
            let p = Vec3::new(
                rng.gen_range(-5.0..7.0),
                rng.gen_range(-3.0..9.0),
                rng.gen_range(0.0..3.0),
            );
            assert_eq!(grid.insert(p), fresh.insert(p));
            let q = Vec3::new(rng.gen_range(-6.0..8.0), rng.gen_range(-4.0..10.0), 1.0);
            assert_eq!(grid.nearest(&q), fresh.nearest(&q));
        }
        assert_eq!(grid, fresh);
    }

    #[test]
    fn nearest_breaks_ties_towards_the_first_index() {
        let mut grid = PointGrid::new(&bounds(), 2.5);
        // Two points equidistant from the origin, inserted far-index-first
        // in bucket terms: the smaller index must win, as in a linear scan.
        grid.insert(Vec3::new(3.0, 0.0, 0.0));
        grid.insert(Vec3::new(-3.0, 0.0, 0.0));
        assert_eq!(grid.nearest(&Vec3::ZERO), Some(0));
    }

    #[test]
    fn candidates_cover_the_radius() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut grid = PointGrid::new(&bounds(), 6.25);
        let mut points = Vec::new();
        for _ in 0..300 {
            let p = Vec3::new(
                rng.gen_range(-11.0..11.0),
                rng.gen_range(-11.0..11.0),
                rng.gen_range(-0.5..5.5),
            );
            grid.insert(p);
            points.push(p);
        }
        let mut out = Vec::new();
        for _ in 0..50 {
            let q = Vec3::new(
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(0.0..5.0),
            );
            out.clear();
            grid.candidates_within(&q, 6.25, &mut out);
            for (i, p) in points.iter().enumerate() {
                if p.distance(&q) <= 6.25 {
                    assert!(
                        out.contains(&(i as u32)),
                        "point {i} within radius missing from candidates"
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_cell_over_large_bounds_is_capped_not_fatal() {
        // A degenerate planner step (millimetres over a city-block volume)
        // must not allocate a dense (extent/cell)³ bucket array; the per-axis
        // cap clamps the grid and queries stay exact via boundary clamping.
        let big = Aabb::new(
            Vec3::new(-100.0, -100.0, 0.0),
            Vec3::new(100.0, 100.0, 100.0),
        );
        let mut grid = PointGrid::new(&big, 0.001);
        let mut points = Vec::new();
        for i in 0..40 {
            let p = Vec3::new(
                i as f64 * 4.9 - 98.0,
                (i * 7 % 39) as f64 - 19.0,
                i as f64 * 2.0,
            );
            grid.insert(p);
            points.push(p);
        }
        let q = Vec3::new(3.0, -2.0, 40.0);
        assert_eq!(grid.nearest(&q), linear_nearest(&points, &q));
    }

    #[test]
    fn stored_points_round_trip() {
        let mut grid = PointGrid::new(&bounds(), 1.0);
        let p = Vec3::new(1.5, -2.0, 3.0);
        let i = grid.insert(p);
        assert_eq!(grid.point(i), p);
    }

    #[test]
    #[should_panic]
    fn zero_cell_rejected() {
        let _ = PointGrid::new(&bounds(), 0.0);
    }
}
