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

    /// The 6 face-adjacent neighbours.
    pub fn neighbors6(&self) -> [GridIndex; 6] {
        [
            GridIndex::new(self.x + 1, self.y, self.z),
            GridIndex::new(self.x - 1, self.y, self.z),
            GridIndex::new(self.x, self.y + 1, self.z),
            GridIndex::new(self.x, self.y - 1, self.z),
            GridIndex::new(self.x, self.y, self.z + 1),
            GridIndex::new(self.x, self.y, self.z - 1),
        ]
    }

    /// The 26 neighbours sharing a face, edge or corner.
    pub fn neighbors26(&self) -> Vec<GridIndex> {
        let mut out = Vec::with_capacity(26);
        for dx in -1..=1 {
            for dy in -1..=1 {
                for dz in -1..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    out.push(GridIndex::new(self.x + dx, self.y + dy, self.z + dz));
                }
            }
        }
        out
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
        self.traverse_into(a, b, &mut cells);
        cells
    }

    /// [`GridSpec::traverse`] writing into a caller-owned buffer: `cells` is
    /// cleared and refilled with exactly the sequence `traverse` returns, so
    /// per-ray callers (map insertion, segment checks) can reuse one
    /// allocation across an entire scan.
    pub fn traverse_into(&self, a: &Vec3, b: &Vec3, cells: &mut Vec<GridIndex>) {
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
    fn neighbors_counts() {
        let idx = GridIndex::new(0, 0, 0);
        assert_eq!(idx.neighbors6().len(), 6);
        assert_eq!(idx.neighbors26().len(), 26);
        for n in idx.neighbors6() {
            assert_eq!(idx.manhattan_distance(&n), 1);
        }
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
    #[should_panic]
    fn zero_resolution_rejected() {
        let _ = GridSpec::new(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", GridIndex::new(1, 2, 3)).is_empty());
    }
}
