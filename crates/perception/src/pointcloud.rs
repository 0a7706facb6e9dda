//! Point-cloud generation from depth images.
//!
//! This is the first kernel of the perception stage in the Package Delivery,
//! 3D Mapping and Search and Rescue dataflows (Fig. 7): every depth frame is
//! converted into a world-frame point cloud that feeds the OctoMap update.

use mav_sensors::DepthImage;
use mav_types::{Aabb, Vec3};
use std::collections::HashMap;
use std::fmt;

/// A world-frame point cloud together with the sensor origin it was captured
/// from (needed for free-space carving in the occupancy map).
///
/// Stored structure-of-arrays: one coordinate vector per axis. The OctoMap
/// scan-insertion hot loop streams whole clouds point by point, touching
/// memory sequentially per axis instead of striding over 3-tuples, and
/// per-axis slices are available for vectorised passes.
#[derive(Debug, Clone, PartialEq)]
pub struct PointCloud {
    /// Sensor origin in the world frame.
    pub origin: Vec3,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

impl PointCloud {
    /// Creates a point cloud from an origin and points.
    pub fn new(origin: Vec3, points: Vec<Vec3>) -> Self {
        let mut cloud = PointCloud {
            origin,
            xs: Vec::with_capacity(points.len()),
            ys: Vec::with_capacity(points.len()),
            zs: Vec::with_capacity(points.len()),
        };
        for p in points {
            cloud.push(p);
        }
        cloud
    }

    /// Generates a point cloud from a depth image (the point-cloud-generation
    /// kernel).
    ///
    /// Pixels with no return are skipped. Points are expressed in the world
    /// frame using the camera pose stored in the image.
    pub fn from_depth_image(image: &DepthImage) -> Self {
        let mut cloud = PointCloud::default();
        cloud.fill_from_depth_image(image);
        cloud
    }

    /// Refills this cloud from a depth image, reusing the coordinate buffers.
    /// Produces exactly the points of [`PointCloud::from_depth_image`] (same
    /// pixel order), which is implemented on top of this — the per-frame
    /// episode hot path calls this on a scratch cloud instead of allocating
    /// three fresh coordinate vectors per capture.
    pub fn fill_from_depth_image(&mut self, image: &DepthImage) {
        self.clear();
        self.origin = image.camera_pose.position;
        for v in 0..image.height {
            for u in 0..image.width {
                if let Some(p) = image.point_at(u, v) {
                    self.push(p);
                }
            }
        }
    }

    /// Removes every point while keeping the coordinate buffers' capacity.
    /// The origin is unchanged.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
    }

    /// Appends a point.
    pub fn push(&mut self, p: Vec3) {
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
    }

    /// The `index`-th point.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn point(&self, index: usize) -> Vec3 {
        Vec3::new(self.xs[index], self.ys[index], self.zs[index])
    }

    /// Iterates the points in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Vec3> + '_ {
        self.xs
            .iter()
            .zip(&self.ys)
            .zip(&self.zs)
            .map(|((&x, &y), &z)| Vec3::new(x, y, z))
    }

    /// The x coordinates of all points, in insertion order.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y coordinates of all points, in insertion order.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The z coordinates of all points, in insertion order.
    pub fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` when the cloud has no points.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Axis-aligned bounds of the cloud, or `None` when empty.
    pub fn bounds(&self) -> Option<Aabb> {
        if self.is_empty() {
            return None;
        }
        let first = self.point(0);
        let mut bounds = Aabb::new(first, first);
        for p in self.iter() {
            bounds = bounds.union(&Aabb::new(p, p));
        }
        Some(bounds)
    }

    /// Voxel-grid downsampling: keeps at most one point per cube of edge
    /// `voxel_size`, replacing the cube's points by their centroid.
    ///
    /// # Panics
    ///
    /// Panics if `voxel_size` is not strictly positive.
    pub fn downsample(&self, voxel_size: f64) -> PointCloud {
        let mut scratch = DownsampleScratch::default();
        let mut out = PointCloud::default();
        self.downsample_into(voxel_size, &mut scratch, &mut out);
        out
    }

    /// [`PointCloud::downsample`] into a reusable cell map and output cloud:
    /// the same centroid accumulation and determinism sort, with zero
    /// allocations once the scratch buffers are warm. `downsample` is
    /// implemented on top of this, so the two cannot diverge.
    ///
    /// # Panics
    ///
    /// Panics if `voxel_size` is not strictly positive.
    pub fn downsample_into(
        &self,
        voxel_size: f64,
        scratch: &mut DownsampleScratch,
        out: &mut PointCloud,
    ) {
        assert!(voxel_size > 0.0, "voxel size must be positive");
        scratch.cells.clear();
        for p in self.iter() {
            let key = (
                (p.x / voxel_size).floor() as i64,
                (p.y / voxel_size).floor() as i64,
                (p.z / voxel_size).floor() as i64,
            );
            let entry = scratch.cells.entry(key).or_insert((Vec3::ZERO, 0));
            entry.0 += p;
            entry.1 += 1;
        }
        scratch.centroids.clear();
        scratch
            .centroids
            .extend(scratch.cells.values().map(|&(sum, n)| sum / n as f64));
        // Sort for determinism across hash orders. The chained `total_cmp`
        // orders identically to the historical `partial_cmp` tuple sort:
        // centroids are finite (means of capture points), and the sole case
        // where the comparators disagree — an axis tie between -0.0 and
        // +0.0 — cannot arise, since a -0.0 mean would need every point in
        // the cell to carry an exact -0.0 coordinate, which capture
        // geometry (origin + direction·range with range > 0) never emits.
        scratch.centroids.sort_by(|a, b| {
            a.x.total_cmp(&b.x)
                .then(a.y.total_cmp(&b.y))
                .then(a.z.total_cmp(&b.z))
        });
        out.clear();
        out.origin = self.origin;
        for &p in &scratch.centroids {
            out.push(p);
        }
    }

    /// The point nearest to `query`, or `None` when empty.
    pub fn nearest(&self, query: &Vec3) -> Option<Vec3> {
        // `total_cmp` ≡ the historical `partial_cmp().expect()`: squared
        // distances are finite non-negative, so the NaN/±0.0 cases where
        // the comparators differ never occur.
        self.iter().min_by(|a, b| {
            a.distance_squared(query)
                .total_cmp(&b.distance_squared(query))
        })
    }

    /// Minimum distance from the sensor origin to any point, or `None` when
    /// empty. Used as a cheap proximity alarm by the collision-check node.
    pub fn min_range(&self) -> Option<f64> {
        // Same argument as `nearest`: finite non-negative distances.
        self.iter()
            .map(|p| p.distance(&self.origin))
            .min_by(|a, b| a.total_cmp(b))
    }
}

impl Default for PointCloud {
    /// An empty cloud at the origin.
    fn default() -> Self {
        PointCloud {
            origin: Vec3::ZERO,
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
        }
    }
}

/// Reusable buffers for [`PointCloud::downsample_into`]: the voxel-cell
/// accumulator map and the sorted-centroid staging vector. One instance per
/// worker amortises the downsampling kernel's allocations across every frame
/// of every episode it runs.
#[derive(Debug, Default)]
pub struct DownsampleScratch {
    cells: HashMap<(i64, i64, i64), (Vec3, usize)>,
    centroids: Vec<Vec3>,
}

impl fmt::Display for PointCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pointcloud[{} points from {}]", self.len(), self.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_env::{EnvironmentConfig, ObstacleClass, World};
    use mav_sensors::{DepthCamera, DepthCameraConfig};
    use mav_types::Pose;

    fn wall_world() -> World {
        let mut w = World::empty(Aabb::new(
            Vec3::new(-50.0, -50.0, 0.0),
            Vec3::new(50.0, 50.0, 30.0),
        ));
        w.add_box(
            Aabb::from_center_size(Vec3::new(10.0, 0.0, 5.0), Vec3::new(1.0, 60.0, 10.0)),
            ObstacleClass::Structure,
        );
        w
    }

    #[test]
    fn cloud_from_depth_image_sits_on_obstacles() {
        let world = wall_world();
        let frame =
            DepthCamera::default().capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
        let cloud = PointCloud::from_depth_image(&frame);
        assert!(!cloud.is_empty());
        assert_eq!(cloud.origin, Vec3::new(0.0, 0.0, 2.0));
        // Every point is on the wall face (x ≈ 9.5) or the world boundary —
        // never behind the sensor.
        for p in cloud.iter() {
            assert!(p.x > 0.0);
        }
        // The closest return is the floor (world boundary) a couple of metres
        // below the tilted lower rays of the frame.
        assert!(cloud.min_range().unwrap() > 1.5);
    }

    #[test]
    fn soa_storage_round_trips_points() {
        let points = vec![
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(-4.0, 5.5, 0.25),
            Vec3::new(0.0, -1.0, 9.0),
        ];
        let cloud = PointCloud::new(Vec3::ZERO, points.clone());
        assert_eq!(cloud.iter().collect::<Vec<_>>(), points);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(cloud.point(i), *p);
            assert_eq!(cloud.xs()[i], p.x);
            assert_eq!(cloud.ys()[i], p.y);
            assert_eq!(cloud.zs()[i], p.z);
        }
    }

    #[test]
    fn downsampling_reduces_density_and_preserves_extent() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
        let frame = DepthCamera::new(DepthCameraConfig::high_resolution())
            .capture(&world, &Pose::new(Vec3::new(0.0, 0.0, 2.0), 0.0));
        let cloud = PointCloud::from_depth_image(&frame);
        let coarse = cloud.downsample(1.0);
        assert!(coarse.len() < cloud.len());
        assert!(!coarse.is_empty());
        let b0 = cloud.bounds().unwrap();
        let b1 = coarse.bounds().unwrap();
        // The coarse cloud cannot extend beyond the fine cloud by more than a
        // voxel in any direction.
        assert!(b1.min.x >= b0.min.x - 1.0 && b1.max.x <= b0.max.x + 1.0);
    }

    #[test]
    fn empty_cloud_behaviour() {
        let c = PointCloud::new(Vec3::ZERO, vec![]);
        assert!(c.is_empty());
        assert!(c.bounds().is_none());
        assert!(c.nearest(&Vec3::ZERO).is_none());
        assert!(c.min_range().is_none());
        assert_eq!(c.downsample(0.5).len(), 0);
    }

    #[test]
    fn nearest_point_query() {
        let c = PointCloud::new(
            Vec3::ZERO,
            vec![
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(5.0, 0.0, 0.0),
                Vec3::new(-2.0, 0.0, 0.0),
            ],
        );
        assert_eq!(
            c.nearest(&Vec3::new(4.0, 0.0, 0.0)),
            Some(Vec3::new(5.0, 0.0, 0.0))
        );
        assert_eq!(c.min_range(), Some(1.0));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reused_buffers_reproduce_the_allocating_paths_exactly() {
        let world = EnvironmentConfig::urban_outdoor().with_seed(3).generate();
        let camera = DepthCamera::new(DepthCameraConfig::default());
        let mut scratch = DownsampleScratch::default();
        let mut raw = PointCloud::default();
        let mut coarse = PointCloud::default();
        // Dirty the buffers with one frame, then reuse them on another: the
        // reused results must equal the allocating ones field for field.
        for (position, yaw) in [
            (Vec3::new(0.0, 0.0, 2.0), 0.0),
            (Vec3::new(5.0, -3.0, 2.5), 1.2),
        ] {
            let frame = camera.capture(&world, &Pose::new(position, yaw));
            raw.fill_from_depth_image(&frame);
            assert_eq!(raw, PointCloud::from_depth_image(&frame));
            raw.downsample_into(0.5, &mut scratch, &mut coarse);
            assert_eq!(coarse, raw.downsample(0.5));
        }
    }

    #[test]
    #[should_panic]
    fn zero_voxel_size_rejected() {
        let _ = PointCloud::new(Vec3::ZERO, vec![Vec3::ZERO]).downsample(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", PointCloud::new(Vec3::ZERO, vec![])).is_empty());
    }
}
