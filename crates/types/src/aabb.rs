//! Axis-aligned bounding boxes.
//!
//! AABBs are the geometric primitive of the MAVBench-RS environment substrate:
//! obstacles, world bounds, map regions and sensor frusta are all expressed as
//! axis-aligned boxes, which keeps collision queries and ray casting exact and
//! fast.

use crate::vector::Vec3;
use std::fmt;

/// An axis-aligned box described by its minimum and maximum corners.
///
/// # Example
///
/// ```
/// use mav_types::{Aabb, Vec3};
/// let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0));
/// assert!(b.contains(&Vec3::new(1.0, 1.0, 1.0)));
/// assert_eq!(b.volume(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner (inclusive).
    pub min: Vec3,
    /// Maximum corner (inclusive).
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners, normalising the ordering so
    /// that `min <= max` holds component-wise regardless of argument order.
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a box centred at `center` with full extents `size`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any component of `size` is negative.
    pub fn from_center_size(center: Vec3, size: Vec3) -> Self {
        debug_assert!(size.x >= 0.0 && size.y >= 0.0 && size.z >= 0.0);
        let half = size * 0.5;
        Aabb {
            min: center - half,
            max: center + half,
        }
    }

    /// The centre point of the box.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full extents (size along each axis).
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Half extents.
    pub fn half_size(&self) -> Vec3 {
        self.size() * 0.5
    }

    /// Volume of the box in cubic metres.
    pub fn volume(&self) -> f64 {
        let s = self.size();
        s.x * s.y * s.z
    }

    /// Returns `true` if the point lies inside or on the boundary.
    pub fn contains(&self, p: &Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Returns `true` if the two boxes overlap (sharing a face counts).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Returns a copy grown by `margin` on every side.
    ///
    /// Growing by a negative margin shrinks the box; the result is clamped so
    /// `min <= max` still holds (a fully collapsed box degenerates to its
    /// centre point).
    pub fn inflated(&self, margin: f64) -> Aabb {
        let m = Vec3::splat(margin);
        let min = self.min - m;
        let max = self.max + m;
        if min.x > max.x || min.y > max.y || min.z > max.z {
            let c = self.center();
            Aabb { min: c, max: c }
        } else {
            Aabb { min, max }
        }
    }

    /// Smallest box containing both `self` and `other`.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// The point inside the box closest to `p`.
    pub fn closest_point(&self, p: &Vec3) -> Vec3 {
        p.clamp(&self.min, &self.max)
    }

    /// Euclidean distance from `p` to the box surface (zero if inside).
    pub fn distance_to_point(&self, p: &Vec3) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Intersects the ray `origin + t * dir` (with `dir` not necessarily
    /// normalised) against the box using the slab method.
    ///
    /// Returns the entry parameter `t >= 0` of the first intersection, or
    /// `None` if the ray misses the box entirely. If the origin is inside the
    /// box the returned `t` is `0.0`.
    pub fn ray_intersection(&self, origin: &Vec3, dir: &Vec3) -> Option<f64> {
        let mut t_min = 0.0_f64;
        let mut t_max = f64::INFINITY;
        for axis in 0..3 {
            let o = origin[axis];
            let d = dir[axis];
            let lo = self.min[axis];
            let hi = self.max[axis];
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let mut t0 = (lo - o) * inv;
                let mut t1 = (hi - o) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return None;
                }
            }
        }
        Some(t_min)
    }

    /// Returns `true` when the segment from `a` to `b` intersects the box.
    pub fn intersects_segment(&self, a: &Vec3, b: &Vec3) -> bool {
        let dir = *b - *a;
        let len = dir.norm();
        if len <= f64::EPSILON {
            return self.contains(a);
        }
        match self.ray_intersection(a, &dir) {
            Some(t) => t <= 1.0,
            None => false,
        }
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aabb[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(1.0))
    }

    #[test]
    fn corner_normalisation() {
        let b = Aabb::new(Vec3::new(2.0, -1.0, 5.0), Vec3::new(-2.0, 1.0, 0.0));
        assert_eq!(b.min, Vec3::new(-2.0, -1.0, 0.0));
        assert_eq!(b.max, Vec3::new(2.0, 1.0, 5.0));
    }

    #[test]
    fn center_size_volume() {
        let b = Aabb::from_center_size(Vec3::new(1.0, 1.0, 1.0), Vec3::splat(2.0));
        assert_eq!(b.center(), Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(b.size(), Vec3::splat(2.0));
        assert_eq!(b.half_size(), Vec3::splat(1.0));
        assert_eq!(b.volume(), 8.0);
    }

    #[test]
    fn containment_boundaries() {
        let b = unit_box();
        assert!(b.contains(&Vec3::ZERO));
        assert!(b.contains(&Vec3::splat(1.0)));
        assert!(b.contains(&Vec3::splat(0.5)));
        assert!(!b.contains(&Vec3::new(1.1, 0.5, 0.5)));
        assert!(!b.contains(&Vec3::new(0.5, -0.1, 0.5)));
    }

    #[test]
    fn intersection_cases() {
        let a = unit_box();
        let apart = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let touching = Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0));
        let overlapping = Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5));
        assert!(!a.intersects(&apart));
        assert!(a.intersects(&touching));
        assert!(a.intersects(&overlapping));
        assert!(overlapping.intersects(&a));
    }

    #[test]
    fn inflation_and_union() {
        let a = unit_box();
        let inflated = a.inflated(0.5);
        assert_eq!(inflated.min, Vec3::splat(-0.5));
        assert_eq!(inflated.max, Vec3::splat(1.5));
        // Large negative margin collapses to the centre.
        let collapsed = a.inflated(-10.0);
        assert_eq!(collapsed.min, collapsed.max);
        assert_eq!(collapsed.min, a.center());

        let b = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        let u = a.union(&b);
        assert_eq!(u.min, Vec3::ZERO);
        assert_eq!(u.max, Vec3::splat(3.0));
    }

    #[test]
    fn closest_point_and_distance() {
        let b = unit_box();
        assert_eq!(b.closest_point(&Vec3::splat(0.5)), Vec3::splat(0.5));
        assert_eq!(
            b.closest_point(&Vec3::new(2.0, 0.5, 0.5)),
            Vec3::new(1.0, 0.5, 0.5)
        );
        assert_eq!(b.distance_to_point(&Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.distance_to_point(&Vec3::splat(0.5)), 0.0);
    }

    #[test]
    fn ray_hits_and_misses() {
        let b = Aabb::new(Vec3::new(1.0, -1.0, -1.0), Vec3::new(3.0, 1.0, 1.0));
        // Ray along +X from the origin hits the box at t = 1 (dir has length 1).
        let t = b.ray_intersection(&Vec3::ZERO, &Vec3::UNIT_X).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        // Ray pointing away misses.
        assert!(b.ray_intersection(&Vec3::ZERO, &(-Vec3::UNIT_X)).is_none());
        // Ray parallel to the box but offset misses.
        assert!(b
            .ray_intersection(&Vec3::new(0.0, 5.0, 0.0), &Vec3::UNIT_X)
            .is_none());
        // Origin inside the box yields t = 0.
        let t = b
            .ray_intersection(&Vec3::new(2.0, 0.0, 0.0), &Vec3::UNIT_X)
            .unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn segment_intersection() {
        let b = unit_box();
        assert!(b.intersects_segment(&Vec3::new(-1.0, 0.5, 0.5), &Vec3::new(2.0, 0.5, 0.5)));
        assert!(!b.intersects_segment(&Vec3::new(-1.0, 0.5, 0.5), &Vec3::new(-0.1, 0.5, 0.5)));
        // Degenerate segment (a point) inside the box.
        assert!(b.intersects_segment(&Vec3::splat(0.5), &Vec3::splat(0.5)));
        // Degenerate segment outside.
        assert!(!b.intersects_segment(&Vec3::splat(2.0), &Vec3::splat(2.0)));
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", unit_box()).is_empty());
    }
}
