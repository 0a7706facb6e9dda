//! Discrete grid indexing shared by the occupancy map and the planners.

use crate::aabb::Aabb;
use crate::vector::Vec3;
use std::fmt;

/// Integer index of a voxel / grid cell along the three axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridIndex {
    /// Cell index along X.
    pub x: i64,
    /// Cell index along Y.
    pub y: i64,
    /// Cell index along Z.
    pub z: i64,
}

impl GridIndex {
    /// Creates a grid index from its components.
    pub const fn new(x: i64, y: i64, z: i64) -> Self {
        GridIndex { x, y, z }
    }

    /// Manhattan distance between two indices.
    pub fn manhattan_distance(&self, other: &GridIndex) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs() + (self.z - other.z).abs()
    }
}

impl fmt::Display for GridIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}, {}]", self.x, self.y, self.z)
    }
}

/// Mapping between continuous world coordinates and discrete grid indices with
/// a fixed cell edge length (resolution).
///
/// # Example
///
/// ```
/// use mav_types::{GridSpec, Vec3};
/// let spec = GridSpec::new(0.5);
/// let idx = spec.index_of(&Vec3::new(1.2, -0.3, 0.0));
/// let center = spec.center_of(&idx);
/// assert!(center.distance(&Vec3::new(1.25, -0.25, 0.25)) < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    resolution: f64,
}

impl GridSpec {
    /// Creates a grid with the given cell edge length in metres.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive and finite.
    pub fn new(resolution: f64) -> Self {
        assert!(
            resolution.is_finite() && resolution > 0.0,
            "grid resolution must be positive, got {resolution}"
        );
        GridSpec { resolution }
    }

    /// The cell edge length in metres.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Index of the cell containing `point`.
    pub fn index_of(&self, point: &Vec3) -> GridIndex {
        GridIndex::new(
            (point.x / self.resolution).floor() as i64,
            (point.y / self.resolution).floor() as i64,
            (point.z / self.resolution).floor() as i64,
        )
    }

    /// World-frame centre of the given cell.
    pub fn center_of(&self, idx: &GridIndex) -> Vec3 {
        Vec3::new(
            (idx.x as f64 + 0.5) * self.resolution,
            (idx.y as f64 + 0.5) * self.resolution,
            (idx.z as f64 + 0.5) * self.resolution,
        )
    }

    /// Axis-aligned bounds of the given cell.
    pub fn cell_bounds(&self, idx: &GridIndex) -> Aabb {
        let min = Vec3::new(
            idx.x as f64 * self.resolution,
            idx.y as f64 * self.resolution,
            idx.z as f64 * self.resolution,
        );
        Aabb::new(min, min + Vec3::splat(self.resolution))
    }

    /// Enumerates the cells traversed by the segment from `a` to `b` using a
    /// 3D digital differential analyser (Amanatides–Woo traversal).
    ///
    /// The result always starts with the cell containing `a` and ends with the
    /// cell containing `b`.
    pub fn traverse(&self, a: &Vec3, b: &Vec3) -> Vec<GridIndex> {
        let mut cells = Vec::new();
        self.walk(a, b, |cell, _| cells.push(cell));
        cells
    }

    /// The traversal itself: calls `visit(cell, last)` for every cell
    /// [`GridSpec::traverse`] lists, in order, with `last` set on the final
    /// cell only. A streaming caller (the occupancy map's segment corridor
    /// check) handles each cell as the walk reaches it instead of buffering
    /// the segment. Map insertion runs a loop of its own that repeats this
    /// one's float operations and comparisons while carrying its block
    /// between steps; the occupancy map's tests pin it to this walk.
    ///
    /// The final cell is the one containing `b`, except for a segment no
    /// longer than `f64::EPSILON` whose ends straddle a cell boundary: that
    /// walk visits the start cell alone. Should the step budget run out
    /// before the walk reaches `b`'s cell, the walk jumps there.
    pub fn walk(&self, a: &Vec3, b: &Vec3, mut visit: impl FnMut(GridIndex, bool)) {
        let start = self.index_of(a);
        let end = self.index_of(b);
        let dir = *b - *a;
        if start == end || dir.norm() <= f64::EPSILON {
            visit(start, true);
            return;
        }
        visit(start, false);
        let step = [
            if dir.x > 0.0 { 1i64 } else { -1 },
            if dir.y > 0.0 { 1i64 } else { -1 },
            if dir.z > 0.0 { 1i64 } else { -1 },
        ];
        let mut current = start;
        // Parametric distance (in t along the segment) to the next cell
        // boundary on each axis, plus the per-cell increment.
        let mut t_max = [0.0f64; 3];
        let mut t_delta = [0.0f64; 3];
        for axis in 0..3 {
            let d = dir[axis];
            let origin = a[axis];
            if d.abs() < 1e-12 {
                t_max[axis] = f64::INFINITY;
                t_delta[axis] = f64::INFINITY;
            } else {
                let cell = match axis {
                    0 => current.x,
                    1 => current.y,
                    _ => current.z,
                } as f64;
                let boundary = if d > 0.0 {
                    (cell + 1.0) * self.resolution
                } else {
                    cell * self.resolution
                };
                t_max[axis] = (boundary - origin) / d;
                t_delta[axis] = self.resolution / d.abs();
            }
        }
        // Bounded loop: the traversal can visit at most the Manhattan distance
        // between the two cells plus one cell per axis.
        let max_steps = (start.manhattan_distance(&end) + 3) as usize;
        for _ in 0..max_steps {
            let axis = if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
                0
            } else if t_max[1] <= t_max[2] {
                1
            } else {
                2
            };
            match axis {
                0 => current.x += step[0],
                1 => current.y += step[1],
                _ => current.z += step[2],
            }
            t_max[axis] += t_delta[axis];
            if current == end {
                visit(current, true);
                return;
            }
            visit(current, false);
        }
        visit(end, true);
    }
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec::new(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let spec = GridSpec::new(0.25);
        for p in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.3, -2.7, 0.9),
            Vec3::new(-0.01, 0.01, 5.0),
        ] {
            let idx = spec.index_of(&p);
            let c = spec.center_of(&idx);
            // Centre of the containing cell is within half a diagonal.
            assert!(c.distance(&p) <= 0.25 * 3f64.sqrt() / 2.0 + 1e-9);
            assert_eq!(spec.index_of(&c), idx);
        }
    }

    #[test]
    fn cell_bounds_contain_center() {
        let spec = GridSpec::new(0.8);
        let idx = GridIndex::new(-3, 2, 7);
        let bounds = spec.cell_bounds(&idx);
        assert!(bounds.contains(&spec.center_of(&idx)));
        assert!((bounds.volume() - 0.8f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn traversal_straight_line() {
        let spec = GridSpec::new(1.0);
        let cells = spec.traverse(&Vec3::new(0.5, 0.5, 0.5), &Vec3::new(4.5, 0.5, 0.5));
        assert_eq!(cells.len(), 5);
        assert_eq!(cells[0], GridIndex::new(0, 0, 0));
        assert_eq!(*cells.last().unwrap(), GridIndex::new(4, 0, 0));
    }

    #[test]
    fn traversal_diagonal_connects_endpoints() {
        let spec = GridSpec::new(0.5);
        let a = Vec3::new(0.1, 0.1, 0.1);
        let b = Vec3::new(3.4, 2.2, 1.7);
        let cells = spec.traverse(&a, &b);
        assert_eq!(cells[0], spec.index_of(&a));
        assert_eq!(*cells.last().unwrap(), spec.index_of(&b));
        // Each consecutive pair of cells differs by at most 1 along each axis.
        for w in cells.windows(2) {
            assert!(w[0].manhattan_distance(&w[1]) >= 1);
            assert!((w[0].x - w[1].x).abs() <= 1);
            assert!((w[0].y - w[1].y).abs() <= 1);
            assert!((w[0].z - w[1].z).abs() <= 1);
        }
    }

    #[test]
    fn traversal_degenerate_segment() {
        let spec = GridSpec::new(1.0);
        let p = Vec3::new(0.5, 0.5, 0.5);
        let cells = spec.traverse(&p, &p);
        assert_eq!(cells, vec![GridIndex::new(0, 0, 0)]);
    }

    #[test]
    fn walk_edge_cases() {
        let spec = GridSpec::new(1.0);
        let walked = |a: Vec3, b: Vec3| {
            let mut marks = Vec::new();
            spec.walk(&a, &b, |cell, last| marks.push((cell, last)));
            marks
        };
        // Both ends in one cell.
        let a = Vec3::new(0.2, 0.5, 0.5);
        assert_eq!(
            walked(a, Vec3::new(0.7, 0.5, 0.5)),
            vec![(GridIndex::new(0, 0, 0), true)]
        );
        // A segment no longer than `f64::EPSILON` across a cell boundary
        // visits its start cell alone.
        let b = Vec3::new(1.0, 0.5, 0.5);
        assert_eq!(
            walked(Vec3::new(1f64.next_down(), 0.5, 0.5), b),
            vec![(GridIndex::new(0, 0, 0), true)]
        );
        // A z step below the DDA's 1e-12 cutoff never advances z, so the step
        // budget runs out and the walk jumps to the end cell.
        let marks = walked(
            Vec3::new(0.5, 0.5, 3.0 - 1e-13),
            Vec3::new(4.5, 0.5, 3.0 + 1e-13),
        );
        assert_eq!(marks.last(), Some(&(GridIndex::new(4, 0, 3), true)));
        let before = marks[marks.len() - 2].0;
        assert_ne!(before.manhattan_distance(&GridIndex::new(4, 0, 3)), 1);
        assert!(marks[..marks.len() - 1].iter().all(|&(_, last)| !last));
    }

    #[test]
    #[should_panic]
    fn zero_resolution_rejected() {
        let _ = GridSpec::new(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", GridIndex::new(1, 2, 3)).is_empty());
    }

    /// The traversal against its pre-streaming implementation.
    mod walk_oracle {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestCaseError;

        impl GridSpec {
            /// `traverse_into` as it was before the traversal became the
            /// callback walk, verbatim: the oracle of [`GridSpec::walk`].
            fn traverse_into_oracle(&self, a: &Vec3, b: &Vec3, cells: &mut Vec<GridIndex>) {
                cells.clear();
                let start = self.index_of(a);
                let end = self.index_of(b);
                cells.push(start);
                if start == end {
                    return;
                }
                let dir = *b - *a;
                let len = dir.norm();
                if len <= f64::EPSILON {
                    return;
                }
                let step = [
                    if dir.x > 0.0 { 1i64 } else { -1 },
                    if dir.y > 0.0 { 1i64 } else { -1 },
                    if dir.z > 0.0 { 1i64 } else { -1 },
                ];
                let mut current = start;
                // Parametric distance (in t along the segment) to the next cell
                // boundary on each axis, plus the per-cell increment.
                let mut t_max = [0.0f64; 3];
                let mut t_delta = [0.0f64; 3];
                for axis in 0..3 {
                    let d = dir[axis];
                    let origin = a[axis];
                    if d.abs() < 1e-12 {
                        t_max[axis] = f64::INFINITY;
                        t_delta[axis] = f64::INFINITY;
                    } else {
                        let cell = match axis {
                            0 => current.x,
                            1 => current.y,
                            _ => current.z,
                        } as f64;
                        let boundary = if d > 0.0 {
                            (cell + 1.0) * self.resolution
                        } else {
                            cell * self.resolution
                        };
                        t_max[axis] = (boundary - origin) / d;
                        t_delta[axis] = self.resolution / d.abs();
                    }
                }
                // Bounded loop: the traversal can visit at most the Manhattan distance
                // between the two cells plus one cell per axis.
                let max_steps = (start.manhattan_distance(&end) + 3) as usize;
                for _ in 0..max_steps {
                    if current == end {
                        break;
                    }
                    let axis = if t_max[0] <= t_max[1] && t_max[0] <= t_max[2] {
                        0
                    } else if t_max[1] <= t_max[2] {
                        1
                    } else {
                        2
                    };
                    match axis {
                        0 => current.x += step[0],
                        1 => current.y += step[1],
                        _ => current.z += step[2],
                    }
                    t_max[axis] += t_delta[axis];
                    cells.push(current);
                }
                if *cells.last().expect("non-empty") != end {
                    cells.push(end);
                }
            }
        }

        /// The paper's resolution sweep, dyadic and not.
        const RESOLUTIONS: [f64; 6] = [0.15, 0.25, 0.3, 0.5, 0.8, 1.0];

        /// The walk visits the oracle's cells in order, and marks the final
        /// one and no other.
        fn check(spec: &GridSpec, a: &Vec3, b: &Vec3) -> Result<(), TestCaseError> {
            let mut expected = Vec::new();
            spec.traverse_into_oracle(a, b, &mut expected);
            let mut marks = Vec::new();
            spec.walk(a, b, |cell, last| marks.push((cell, last)));
            let n = expected.len();
            let wanted: Vec<_> = expected
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i + 1 == n))
                .collect();
            prop_assert_eq!(marks, wanted, "{} -> {} at {}", a, b, spec.resolution());
            prop_assert_eq!(spec.traverse(a, b), expected);
            Ok(())
        }

        /// A point whose coordinates are `cell × resolution`, exactly on a
        /// cell boundary, nudged by `nudge` ulps.
        fn on_boundary(resolution: f64, cell: (i64, i64, i64), nudge: i64) -> Vec3 {
            let snap = |c: i64| {
                let v = c as f64 * resolution;
                match nudge {
                    n if n < 0 => v.next_down(),
                    0 => v,
                    _ => v.next_up(),
                }
            };
            Vec3::new(snap(cell.0), snap(cell.1), snap(cell.2))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Random segments, segments between cell corners (exact and
            /// one ulp off), axis-parallel segments, zero-length ones and
            /// ones too short to step across the boundary they straddle.
            #[test]
            fn walk_matches_the_buffered_traversal(
                res_idx in 0usize..RESOLUTIONS.len(),
                a in (-20.0..20.0, -20.0..20.0, -20.0..20.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                b in (-20.0..20.0, -20.0..20.0, -20.0..20.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                corners in ((-40i64..40, -40i64..40, -40i64..40), (-40i64..40, -40i64..40, -40i64..40)),
                nudges in (-1i64..=1, -1i64..=1),
                axis in 0usize..3,
            ) {
                let resolution = RESOLUTIONS[res_idx];
                let spec = GridSpec::new(resolution);
                check(&spec, &a, &b)?;
                check(&spec, &a, &a)?;
                let (p, q) = (
                    on_boundary(resolution, corners.0, nudges.0),
                    on_boundary(resolution, corners.1, nudges.1),
                );
                check(&spec, &p, &q)?;
                check(&spec, &p, &p)?;
                check(&spec, &p, &b)?;
                // Axis-parallel: the far end moves along one axis only, from
                // a free point and from a boundary point.
                let along = |from: Vec3, to: Vec3| match axis {
                    0 => Vec3::new(to.x, from.y, from.z),
                    1 => Vec3::new(from.x, to.y, from.z),
                    _ => Vec3::new(from.x, from.y, to.z),
                };
                check(&spec, &a, &along(a, b))?;
                check(&spec, &p, &along(p, q))?;
                // At most `f64::EPSILON` long, across the cell boundary at 0.
                let tiny = 0f64.next_up();
                check(&spec, &along(a, Vec3::splat(-tiny)), &along(a, Vec3::splat(tiny)))?;
            }
        }
    }
}
