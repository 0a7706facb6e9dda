//! A probabilistic occupancy map (the OctoMap kernel).
//!
//! The paper treats OctoMap generation as the dominant perception kernel of
//! Package Delivery, 3D Mapping and Search and Rescue, and builds an entire
//! case study around its resolution knob (Figs. 17–19): finer voxels cost
//! more compute per update but let the drone see narrow openings; coarser
//! voxels are cheap but inflate obstacles until doorways disappear.
//!
//! The map covers OctoMap's cubic domain with full-depth leaves, one per
//! `resolution`-sized voxel, each carrying clamped log-odds occupancy; rays
//! carve free space along their length and mark their endpoint occupied,
//! exactly like the original OctoMap update rule. The leaves are stored as a
//! hashed voxel-block map (the layout of VDB and of voxel hashing): one hash
//! from 4×4×4-voxel block coordinates to a slot holding the block's known
//! and occupied masks and its 64 log-odds. The leaf centres an octree walk
//! would report are derived from the integer leaf key, so results match the
//! pointer octree the tests keep as an oracle bit for bit.

use crate::pointcloud::PointCloud;
use crate::voxel_hash::VoxelHashBuilder;
use mav_types::{Aabb, GridIndex, GridSpec, Vec3};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Occupancy state of a queried location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Occupancy {
    /// Probability of occupancy above the occupied threshold.
    Occupied,
    /// Probability of occupancy below the free threshold.
    Free,
    /// Never observed.
    Unknown,
}

/// Log-odds added to a voxel a ray ends in: OctoMap's standard sensor model
/// (hit probability 0.7, Hornung et al., Autonomous Robots 2013), as are the
/// miss, clamp and threshold values below.
const HIT_LOG_ODDS: f64 = 0.85;
/// Log-odds subtracted from a voxel a ray passes through.
const MISS_LOG_ODDS: f64 = 0.4;
/// Lower clamping bound on accumulated log-odds.
const CLAMP_MIN: f64 = -2.0;
/// Upper clamping bound on accumulated log-odds.
const CLAMP_MAX: f64 = 3.5;
/// Log-odds above which a voxel counts as occupied.
const OCCUPIED_THRESHOLD: f64 = 0.0;
/// Maximum ray length inserted into the map, metres: longer rays are
/// truncated and carve free space only.
const MAX_RANGE: f64 = 30.0;

/// Deepest domain the per-axis centre table ([`OctoMap::axis_centers`])
/// covers. It keeps the table at 2^16 entries (512 KiB) or fewer; MAVBench
/// worlds need depth 10 at most. Deeper domains (1 mm voxels at ±40 m, say)
/// replay each centre coordinate when it is read ([`OctoMap::axis_center`]).
const MAX_INDEXED_DEPTH: u32 = 16;

/// The leaf-centre coordinate of axis key `k` (one axis of a [`LeafKey`]) in
/// a depth-`depth` domain of half-size `half_extent`: the root descent's
/// float additions (the arithmetic of [`child_of`] and of the pointer
/// octree's walk) replayed from `k`'s bits, top bit first, so it is
/// bit-identical to the coordinate that walk reports. The three axes share
/// it, because a root descent adds ±half/2, ±half/4, … to each axis
/// independently.
fn replayed_center(k: u64, depth: u32, half_extent: f64) -> f64 {
    let mut center = 0.0;
    let mut half = half_extent;
    for bit in (0..depth).rev() {
        let quarter = half / 2.0;
        let upper = (k >> bit) & 1;
        center += if upper != 0 { quarter } else { -quarter };
        half = quarter;
    }
    center
}

/// Known and occupied voxels of one 4×4×4 block: bit `x + 4y + 16z` over the
/// block-local coordinates (see [`block_of`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BlockMasks {
    /// Voxels observed at least once. Bits are only ever set short of
    /// [`OctoMap::clear`].
    known: u64,
    /// Known voxels whose log-odds exceed the occupied threshold.
    occupied: u64,
}

/// Packed-key sentinel of [`OctoMap::last_block`] while no block was
/// touched: [`pack_voxel_key`] never sets the top bit.
const NO_BLOCK: u64 = u64::MAX;

/// The probabilistic occupancy map.
///
/// # Example
///
/// ```
/// use mav_perception::{OctoMap, Occupancy};
/// use mav_types::Vec3;
///
/// let mut map = OctoMap::new(0.5, 64.0);
/// map.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(5.0, 0.0, 1.0));
/// assert_eq!(map.query(&Vec3::new(5.0, 0.0, 1.0)), Occupancy::Occupied);
/// assert_eq!(map.query(&Vec3::new(2.5, 0.0, 1.0)), Occupancy::Free);
/// assert_eq!(map.query(&Vec3::new(0.0, 0.0, 20.0)), Occupancy::Unknown);
/// ```
#[derive(Debug, Clone)]
pub struct OctoMap {
    /// Half-extent of the cubic domain, metres.
    half_extent: f64,
    /// The half-extent `new` or `reset` was given, before alignment.
    /// [`OctoMap::reresolved`] rebuilds over it.
    requested_half_extent: f64,
    /// Octree depth: the domain spans `2^depth` leaves per axis.
    depth: u32,
    grid: GridSpec,
    /// Number of leaf updates performed (a proxy for the work the kernel did).
    updates: u64,
    /// Slot of every observed 4×4×4-voxel block, keyed by the
    /// [`pack_voxel_key`] of its block coordinates (the traversal-grid cell
    /// divided by 4, rounded down). A block is created by the first update of
    /// any of its voxels and lives until [`OctoMap::clear`]; slots count up
    /// from zero in creation order.
    blocks: HashMap<u64, u32, VoxelHashBuilder>,
    /// Per slot: the block's known and occupied masks. Collision queries
    /// and frontier probes read these, one hash probe per block, instead of
    /// one point lookup per voxel.
    masks: Vec<BlockMasks>,
    /// Per slot: the clamped log-odds of the block's 64 voxels, 0.0 where
    /// the known bit is clear.
    log_odds: Vec<[f64; 64]>,
    /// Packed key and slot of the block the previous update touched
    /// ([`NO_BLOCK`] after a clear). Consecutive cells of a ray mostly share
    /// a block, so [`OctoMap::update_key`] checks it before hashing.
    last_block: (u64, u32),
    /// Number of occupied leaf voxels, kept exactly in sync with the
    /// occupied masks (the same per-voxel occupancy the collision queries
    /// see).
    occupied_count: usize,
    /// Number of known leaf voxels ([`OctoMap::known_voxel_count`]): every
    /// leaf creation adds one, so it is the popcount of the known masks.
    known_count: usize,
    /// The per-axis centre table: [`replayed_center`] of every axis key
    /// `0..2^depth`, or empty past [`MAX_INDEXED_DEPTH`]. A leaf's centre
    /// comes from three entries ([`OctoMap::axis_center`]).
    axis_centers: Vec<f64>,
}

impl OctoMap {
    /// Deepest map [`OctoMap::new`] builds: `2^22` voxels per axis, 1 mm
    /// voxels over ±2 km. Packed block coordinates stay exact up to this
    /// depth: the domain spans ±2^21 voxels, so its 4×4×4 blocks and their
    /// face neighbours stay inside the ±2^20 block range of the 21-bit key
    /// packing.
    /// MAVBench worlds need 10 levels at most.
    pub const MAX_DEPTH: u32 = 22;

    /// Widest inflation radius, in voxels (`ceil(radius / resolution)`), that
    /// `MissionConfig::validate` admits for a mission's collision checker.
    /// The inflation queries classify a `(2·steps + 1)³`-byte offset ball
    /// per (resolution, radius), 2.1 MB at this bound; the harness and
    /// golden missions need 3 voxels at most.
    pub const MAX_INFLATION_VOXELS: u32 = 64;

    /// Creates an empty map of `resolution`-metre voxels (the paper sweeps
    /// 0.15 m – 1.0 m) covering the cube `[-half_extent, half_extent]³`
    /// (shifted up so z spans `[0, 2 × half_extent]` is *not* done — the cube
    /// is centred at the origin, which covers all MAVBench worlds).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` or `half_extent` is not strictly positive, or
    /// if covering it at `resolution` needs more than [`OctoMap::MAX_DEPTH`]
    /// levels (see [`OctoMap::depth_for`]).
    pub fn new(resolution: f64, half_extent: f64) -> Self {
        let mut map = OctoMap {
            grid: GridSpec::new(resolution),
            half_extent: 0.0,
            requested_half_extent: 0.0,
            depth: 0,
            updates: 0,
            blocks: HashMap::with_hasher(VoxelHashBuilder::default()),
            masks: Vec::new(),
            log_odds: Vec::new(),
            last_block: (NO_BLOCK, 0),
            occupied_count: 0,
            known_count: 0,
            axis_centers: Vec::new(),
        };
        map.reset(resolution, half_extent);
        map
    }

    /// The depth of the map `OctoMap::new` builds for `resolution` and
    /// `half_extent`: the fewest levels whose `2^depth` leaves of
    /// `resolution` span `2 × half_extent`, at least 1. Compare it with
    /// [`OctoMap::MAX_DEPTH`] to vet a resolution before building a map.
    pub fn depth_for(resolution: f64, half_extent: f64) -> u32 {
        let leaves_per_axis = (2.0 * half_extent / resolution).ceil().max(1.0);
        (leaves_per_axis.log2().ceil() as u32).max(1)
    }

    /// The half-extent of the domain `OctoMap::new` builds for `resolution`
    /// and `half_extent`: `resolution × 2^(depth−1)` at the depth of
    /// [`OctoMap::depth_for`], so that each leaf is exactly one voxel. It is
    /// never below `half_extent`: a request even one ulp above
    /// `resolution × 2^(d−1)` puts `2·half_extent/resolution` more than half
    /// an ulp past `2^d`, so the ceiling in `depth_for` already picks depth
    /// d + 1.
    ///
    /// # Panics
    ///
    /// Panics if that depth is above [`OctoMap::MAX_DEPTH`].
    pub fn aligned_half_extent(resolution: f64, half_extent: f64) -> f64 {
        let depth = Self::depth_for(resolution, half_extent);
        assert!(
            depth <= Self::MAX_DEPTH,
            "resolution {resolution:?} over half extent {half_extent} needs map depth {depth}, \
             above OctoMap::MAX_DEPTH ({})",
            Self::MAX_DEPTH
        );
        resolution * (1u64 << depth) as f64 / 2.0
    }

    /// Empties the map back to the just-constructed state while keeping the
    /// block hash and block storage allocations (their `Vec`/`HashMap`
    /// capacities survive). The domain geometry is
    /// unchanged; use [`OctoMap::reset`] to also reshape it. Because every
    /// mutation funnels through the same leaf-update path and block slots
    /// restart at zero, a cleared map is bit-identical to a fresh
    /// [`OctoMap::new`] under any subsequent update sequence — the property
    /// the episode-reuse layer (and its proptests) rely on.
    pub fn clear(&mut self) {
        self.updates = 0;
        self.blocks.clear();
        self.masks.clear();
        self.log_odds.clear();
        self.last_block = (NO_BLOCK, 0);
        self.occupied_count = 0;
        self.known_count = 0;
    }

    /// [`OctoMap::clear`] plus a domain reshape: recomputes the geometry
    /// exactly as `OctoMap::new(resolution, half_extent)` would (depth, aligned
    /// half-extent, traversal grid, the per-axis centre table) while reusing
    /// the storage of this map. `new`
    /// is implemented on top of this, so the two cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` or `half_extent` is not strictly positive, or
    /// if covering it at `resolution` needs more than [`OctoMap::MAX_DEPTH`]
    /// levels.
    pub fn reset(&mut self, resolution: f64, half_extent: f64) {
        let grid = GridSpec::new(resolution);
        assert!(half_extent > 0.0, "half extent must be positive");
        let depth = Self::depth_for(resolution, half_extent);
        // Expand the domain so that each leaf is exactly one
        // `resolution`-sized voxel and leaf boundaries align with the ray
        // traversal grid; otherwise a leaf could straddle two traversal cells
        // and updates/queries would disagree near voxel boundaries.
        // Cell-addressed insertion relies on the half-extent being exactly
        // `resolution × 2^(depth−1)` (see `insert_ray`).
        self.requested_half_extent = half_extent;
        let half_extent = Self::aligned_half_extent(resolution, half_extent);
        self.grid = grid;
        self.half_extent = half_extent;
        self.depth = depth;
        self.axis_centers.clear();
        if depth <= MAX_INDEXED_DEPTH {
            self.axis_centers
                .extend((0..1u64 << depth).map(|k| replayed_center(k, depth, half_extent)));
        }
        self.clear();
    }

    /// The voxel edge length in metres.
    pub fn resolution(&self) -> f64 {
        self.grid.resolution()
    }

    /// The octree depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Half-extent of the cubic domain, metres: the requested one aligned
    /// up by [`OctoMap::aligned_half_extent`].
    pub fn half_extent(&self) -> f64 {
        self.half_extent
    }

    /// Number of leaf updates performed since construction.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Returns `true` when `point` lies inside the octree domain.
    pub fn in_domain(&self, point: &Vec3) -> bool {
        point.x.abs() <= self.half_extent
            && point.y.abs() <= self.half_extent
            && point.z.abs() <= self.half_extent
    }

    /// Enumerates the (traversal-grid cell, log-odds delta) updates of one
    /// sensor ray, without touching the map. Shared by
    /// [`OctoMap::insert_ray`] and the tests' pointer-tree oracle so the two
    /// can never disagree on ray semantics (truncation, hit vs miss).
    /// The grid walk streams each cell straight into `apply`; the walk's
    /// final cell takes the hit. Cells outside the domain are passed on too:
    /// the block map drops them by key range, the reference tree by its own
    /// centre test. An associated function over copies of the cheap geometry
    /// state, so callers may mutate the map from inside `apply`.
    fn for_each_ray_update(
        grid: GridSpec,
        origin: &Vec3,
        endpoint: &Vec3,
        mut apply: impl FnMut(GridIndex, f64),
    ) {
        let dir = *endpoint - *origin;
        let range = dir.norm();
        if range <= f64::EPSILON {
            return;
        }
        let (end, hit) = if range > MAX_RANGE {
            (*origin + dir.normalized() * MAX_RANGE, false)
        } else {
            (*endpoint, true)
        };
        grid.walk(origin, &end, |cell, last| {
            let delta = if last && hit {
                HIT_LOG_ODDS
            } else {
                -MISS_LOG_ODDS
            };
            apply(cell, delta);
        });
    }

    /// Integrates a single sensor ray: every voxel between `origin` and
    /// `endpoint` (exclusive) is updated as free, the endpoint voxel as
    /// occupied. Rays longer than 30 m are truncated and their endpoint
    /// treated as free space (no hit). Each in-domain voxel is updated in its
    /// block, found from the traversal cell alone: one hash probe, or none
    /// when the previous update touched the same block.
    ///
    /// The domain test is exact. `reset` makes the domain half-size exactly
    /// `resolution × 2^(depth − 1)`, so the node centres a float root descent
    /// compares against are `m × resolution` for integers `m` while the cell
    /// centre is `(k + ½) × resolution`. The half-voxel gap dwarfs any
    /// rounding of those products, so the centre lies inside the domain
    /// exactly when each axis key `k + 2^(depth − 1)` lies in `0..2^depth`,
    /// and every compare `centre ≥ node centre` is a bit of that key.
    pub fn insert_ray(&mut self, origin: &Vec3, endpoint: &Vec3) {
        let (grid, depth) = (self.grid, self.depth);
        let half = 1i64 << (depth - 1);
        Self::for_each_ray_update(grid, origin, endpoint, |cell, delta| {
            // A negative key sets the top bit, so one shift tests both ends.
            let keys =
                cell.x.wrapping_add(half) | cell.y.wrapping_add(half) | cell.z.wrapping_add(half);
            if keys as u64 >> depth == 0 {
                self.update_cell(cell, delta);
            }
        });
    }

    /// Integrates a whole point cloud captured from `cloud.origin`, ray by
    /// ray in point order.
    pub fn insert_point_cloud(&mut self, cloud: &PointCloud) {
        let origin = cloud.origin;
        for point in cloud.iter() {
            self.insert_ray(&origin, &point);
        }
    }

    /// Occupancy of the voxel containing `point`.
    pub fn query(&self, point: &Vec3) -> Occupancy {
        if !self.in_domain(point) {
            return Occupancy::Unknown;
        }
        match self.leaf_log_odds(point) {
            None => Occupancy::Unknown,
            Some(l) if l > OCCUPIED_THRESHOLD => Occupancy::Occupied,
            Some(_) => Occupancy::Free,
        }
    }

    /// Returns `true` when a vehicle of half-width `radius` centred at `point`
    /// overlaps any occupied *or unknown-adjacent* voxel. Unknown space is
    /// treated as free here; planners that must be conservative should also
    /// call [`OctoMap::query`] on the point itself.
    ///
    /// Decision-identical to one [`OctoMap::query`] per voxel of the
    /// inflation cube (property-tested against that scan), but served from
    /// the occupied masks: instead of one point lookup per neighbour voxel,
    /// the query enumerates the few occupied voxels inside the inflation
    /// cube straight from the block masks and classifies each against a
    /// precomputed offset ball.
    pub fn is_occupied_with_inflation(&self, point: &Vec3, radius: f64) -> bool {
        self.blocking_voxel_with_inflation(point, radius).is_some()
    }

    /// [`OctoMap::is_occupied_with_inflation`], but returning the *centre of
    /// the occupied voxel* that blocks the inflated vehicle (PR 5's
    /// blocking-voxel reporting), or `None` when the point is free. The
    /// `Some`/`None` decision is exactly the inflation predicate's; which of
    /// several blocking voxels is reported follows the query's scan order, so
    /// callers should treat it as "an occupied voxel inside the inflation
    /// ball", not a canonical nearest one.
    pub fn blocking_voxel_with_inflation(&self, point: &Vec3, radius: f64) -> Option<Vec3> {
        if self.occupied_count == 0 {
            return None;
        }
        let r = radius.max(0.0);
        let resolution = self.resolution();
        let reach = r + resolution * 0.87;
        let steps = (r / resolution).ceil() as i64;
        let center_idx = self.grid.index_of(point);
        let lo = GridIndex::new(
            center_idx.x - steps,
            center_idx.y - steps,
            center_idx.z - steps,
        );
        let hi = GridIndex::new(
            center_idx.x + steps,
            center_idx.y + steps,
            center_idx.z + steps,
        );
        let ball = offset_ball(resolution, r);
        let mut blocking = None;
        self.scan_occupied_box(&lo, &hi, |v| {
            let hit = match ball.class(v.x - center_idx.x, v.y - center_idx.y, v.z - center_idx.z) {
                BALL_NEVER => false,
                BALL_ALWAYS => true,
                _ => self.grid.center_of(&v).distance(point) <= reach,
            };
            if hit {
                blocking = Some(self.grid.center_of(&v));
            }
            hit
        });
        blocking
    }

    /// Returns `true` when the straight segment between `a` and `b`, swept by
    /// a vehicle of half-width `radius`, avoids every occupied voxel.
    ///
    /// Decision-identical to sampling the segment every half resolution with
    /// the per-voxel inflation scan (property-tested). The fast path walks
    /// the segment's crossed voxels with the grid DDA and probes the
    /// occupied masks over the swept corridor — one mask probe per block
    /// instead of re-querying the whole inflation neighbourhood at every
    /// half-resolution sample. Only when the
    /// corridor contains an occupied voxel does the exact sampled predicate
    /// run (against the mask-served inflation query), so the common planner
    /// case — a free segment — reads nothing but the corridor's masks.
    pub fn segment_free(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        self.segment_blocking_voxel(a, b, radius).is_none()
    }

    /// [`OctoMap::segment_free`], but returning the *centre of the occupied
    /// voxel* that blocks the swept segment (PR 5's blocking-voxel
    /// reporting), or `None` when the segment is free. `Some`/`None` agrees
    /// exactly with `segment_free` — same DDA corridor prefilter, same exact
    /// sampled predicate — so a collision monitor can aim its alert at the
    /// real obstruction in the *same* pass that detects it, instead of
    /// re-running the sampled predicate to locate what blocked the corridor.
    /// The reported voxel is the one blocking the first blocked sample along
    /// the segment (direction a → b).
    pub fn segment_blocking_voxel(&self, a: &Vec3, b: &Vec3, radius: f64) -> Option<Vec3> {
        if self.occupied_count == 0 || self.segment_corridor_clear(a, b, radius) {
            return None;
        }
        // An occupied voxel sits near the corridor: run the exact sampled
        // predicate once and report the voxel blocking the first blocked
        // sample (every candidate a sample can see is inside the corridor,
        // so the prefilter never hides a collision).
        let dist = a.distance(b);
        let step = (self.resolution() * 0.5).max(0.05);
        let samples = ((dist / step).ceil() as usize).max(1);
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            let p = a.lerp(b, t);
            if let Some(voxel) = self.blocking_voxel_with_inflation(&p, radius) {
                return Some(voxel);
            }
        }
        None
    }

    /// DDA prefilter for [`OctoMap::segment_free`]: walks the voxels crossed
    /// by the segment and probes the occupied masks over an inflated
    /// corridor around them. Returns `true` when no occupied voxel lies
    /// anywhere in the corridor — which proves the sampled predicate free,
    /// because every voxel a sample's inflation cube can inspect is within
    /// `ceil(radius / resolution)` cells of the sample's own voxel, and every
    /// sample's voxel is within one cell of a crossed voxel (samples lie on
    /// the segment; the extra `+ 1` of padding absorbs corner-cutting and
    /// floating-point straddle at cell boundaries). The crossed voxels stream
    /// from [`GridSpec::walk`], each probed against the previous one; after
    /// the first occupied find the rest of the walk probes nothing.
    fn segment_corridor_clear(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        let pad = (radius.max(0.0) / self.resolution()).ceil() as i64 + 1;
        let mut prev: Option<GridIndex> = None;
        let mut clear = true;
        self.grid.walk(a, b, |cell, _| {
            if !clear {
                return;
            }
            let occupied_near = match prev {
                // First cell: probe the full corridor cube around it.
                None => self.any_occupied_in_box(
                    &GridIndex::new(cell.x - pad, cell.y - pad, cell.z - pad),
                    &GridIndex::new(cell.x + pad, cell.y + pad, cell.z + pad),
                ),
                Some(p) => {
                    let (dx, dy, dz) = (cell.x - p.x, cell.y - p.y, cell.z - p.z);
                    if dx.abs() + dy.abs() + dz.abs() == 1 {
                        // Unit DDA step: the corridor cube moved by one cell,
                        // so only its leading face slab is new.
                        let (mut lo, mut hi) = (
                            GridIndex::new(cell.x - pad, cell.y - pad, cell.z - pad),
                            GridIndex::new(cell.x + pad, cell.y + pad, cell.z + pad),
                        );
                        if dx != 0 {
                            let face = if dx > 0 { hi.x } else { lo.x };
                            lo.x = face;
                            hi.x = face;
                        } else if dy != 0 {
                            let face = if dy > 0 { hi.y } else { lo.y };
                            lo.y = face;
                            hi.y = face;
                        } else {
                            let face = if dz > 0 { hi.z } else { lo.z };
                            lo.z = face;
                            hi.z = face;
                        }
                        self.any_occupied_in_box(&lo, &hi)
                    } else {
                        // Non-unit jump (the DDA's final end-cell append, or a
                        // budget-exhausted skip): conservatively probe the
                        // whole box spanning the jump.
                        self.any_occupied_in_box(
                            &GridIndex::new(
                                cell.x.min(p.x) - pad,
                                cell.y.min(p.y) - pad,
                                cell.z.min(p.z) - pad,
                            ),
                            &GridIndex::new(
                                cell.x.max(p.x) + pad,
                                cell.y.max(p.y) + pad,
                                cell.z.max(p.z) + pad,
                            ),
                        )
                    }
                }
            };
            clear = !occupied_near;
            prev = Some(cell);
        });
        clear
    }

    /// Returns `true` when any occupied voxel lies in the inclusive
    /// voxel-index box `[lo, hi]`.
    fn any_occupied_in_box(&self, lo: &GridIndex, hi: &GridIndex) -> bool {
        self.scan_occupied_box(lo, hi, |_| true)
    }

    /// Visits the occupied voxels inside the inclusive voxel-index box
    /// `[lo, hi]`, stopping early when `visit` returns `true`; returns
    /// whether any visit did. One hash probe per overlapped 4×4×4 block; the
    /// box window is cut out of each block's bitmask with three axis masks.
    fn scan_occupied_box(
        &self,
        lo: &GridIndex,
        hi: &GridIndex,
        mut visit: impl FnMut(GridIndex) -> bool,
    ) -> bool {
        for bz in lo.z.div_euclid(4)..=hi.z.div_euclid(4) {
            for by in lo.y.div_euclid(4)..=hi.y.div_euclid(4) {
                for bx in lo.x.div_euclid(4)..=hi.x.div_euclid(4) {
                    let block = GridIndex::new(bx, by, bz);
                    let Some(masks) = self.block_masks(&block) else {
                        continue;
                    };
                    // Cut the box window out of the block: bit i = x + 4y +
                    // 16z, so the x range replicates over all 16 nibbles, the
                    // y range expands to nibbles replicated over the four z
                    // groups, and the z range expands to 16-bit groups.
                    let mut m = masks.occupied
                        & (axis_bits(lo.x, hi.x, bx) * 0x1111_1111_1111_1111)
                        & (NIBBLE_EXPAND[axis_bits(lo.y, hi.y, by) as usize]
                            * 0x0001_0001_0001_0001)
                        & GROUP_EXPAND[axis_bits(lo.z, hi.z, bz) as usize];
                    while m != 0 {
                        let bit = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if visit(block_voxel(&block, bit)) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Number of occupied leaf voxels. O(1): served from the incrementally
    /// maintained counter, which the tests check against a full leaf walk.
    pub fn occupied_voxel_count(&self) -> usize {
        self.occupied_count
    }

    /// Number of observed (free or occupied) leaf voxels. O(1): a counter
    /// kept by every leaf creation, so each materialised leaf counts once.
    pub fn known_voxel_count(&self) -> usize {
        self.known_count
    }

    /// Volume of observed space in cubic metres.
    pub fn mapped_volume(&self) -> f64 {
        self.known_voxel_count() as f64 * self.resolution().powi(3)
    }

    /// Centres of all known free voxels, sorted by coordinates.
    ///
    /// Served from the block masks — the free voxels (`known & !occupied`),
    /// with no leaf walk — and bit-identical (centres, set membership and
    /// order) to the full leaf walk it replaced, which the tests keep as its
    /// oracle. Frontier extraction reads
    /// [`OctoMap::frontier_voxel_centers_into`] instead; this list, filtered
    /// by altitude and by six [`OctoMap::query`] probes for an unknown face
    /// neighbour, is that query's oracle.
    pub fn free_voxel_centers(&self) -> Vec<Vec3> {
        let mut centers = Vec::new();
        self.sorted_centers_into(&mut centers, |_, _, masks| masks.known & !masks.occupied);
        centers
    }

    /// The frontier candidates of the map into `out` (cleared first): the
    /// free voxels of [`OctoMap::free_voxel_centers`] whose centre `z` lies
    /// in `[min_z, max_z]` and which have a face neighbour that
    /// [`OctoMap::query`] reports unknown, in the same order and with the
    /// same centre bits as that list filtered by those two tests.
    ///
    /// One bit-parallel pass over the block hash instead of listing, sorting
    /// and probing every free voxel. Per block it keeps the free voxels
    /// (`known & !occupied`) of the z-layers inside the band and drops those
    /// whose six face neighbours are all known — shifts of the block's own
    /// known mask, plus one face plane of a neighbouring block, looked up
    /// only while a voxel on that face is still in question.
    pub fn frontier_voxel_centers_into(&self, min_z: f64, max_z: f64, out: &mut Vec<Vec3>) {
        let in_band = |z: f64| !(z < min_z || z > max_z);
        let half = 1i64 << (self.depth - 1);
        self.sorted_centers_into(out, |packed, block, masks| {
            let BlockMasks { known, occupied } = masks;
            let mut candidates = known & !occupied;
            if candidates == 0 {
                return 0;
            }
            // The block's z-layers inside the band. A block of a depth-1 or
            // depth-2 domain reaches past the domain edge; its outer layers
            // have no axis key (and no known voxel).
            for layer in 0..4 {
                let key = block.z * 4 + layer + half;
                if !((0..2 * half).contains(&key) && in_band(self.axis_center(key as u64))) {
                    candidates &= !(0xFFFF << (16 * layer));
                }
            }
            if candidates == 0 {
                return 0;
            }
            // Candidates whose in-block neighbours are all known; a face
            // voxel counts its across-the-face neighbour as known until the
            // neighbouring block is read below.
            let mut closed = candidates
                & ((known >> 1) | FACE_X_HI)
                & ((known << 1) | FACE_X_LO)
                & ((known >> 4) | FACE_Y_HI)
                & ((known << 4) | FACE_Y_LO)
                & ((known >> 16) | FACE_Z_HI)
                & ((known << 16) | FACE_Z_LO);
            for (face, far_face, step, turn) in FACE_NEIGHBORS {
                if closed & face == 0 {
                    continue;
                }
                // The blocks of a domain up to `OctoMap::MAX_DEPTH` lie
                // within ±2^19 per axis, inside the ±2^20 packing range, so a
                // one-block step never carries into the next axis.
                let neighbor = self
                    .blocks
                    .get(&packed.wrapping_add_signed(step))
                    .map_or(0, |&slot| self.masks[slot as usize].known);
                closed &= !face | (neighbor & far_face).rotate_left(turn);
            }
            candidates & !closed
        });
    }

    /// Into `out` (cleared first), in coordinate order: the centres of the
    /// voxels `pick` selects ([`OctoMap::for_each_picked`]). Their packed
    /// leaf keys are sorted as integers, which is the coordinate order of
    /// their centres (see [`pack_leaf_key`]).
    fn sorted_centers_into(
        &self,
        out: &mut Vec<Vec3>,
        pick: impl FnMut(u64, GridIndex, BlockMasks) -> u64,
    ) {
        let mut keys = LEAF_KEYS.with(|k| k.take());
        keys.clear();
        self.for_each_picked(pick, |key, _| keys.push(key));
        keys.sort_unstable();
        out.clear();
        out.extend(keys.iter().map(|&key| self.leaf_center(key)));
        LEAF_KEYS.with(|k| *k.borrow_mut() = keys);
    }

    /// Calls `visit(packed leaf key, (slot, bit))` for every voxel that
    /// `pick(packed block key, block, masks)` selects from its block's
    /// masks, block by block in hash order.
    fn for_each_picked(
        &self,
        mut pick: impl FnMut(u64, GridIndex, BlockMasks) -> u64,
        mut visit: impl FnMut(u128, (usize, usize)),
    ) {
        let half = 1i64 << (self.depth - 1);
        // mav-lint: allow(DET-HASH-ITER): both callers sort what they collect by leaf key
        for (&packed, &slot) in &self.blocks {
            let block = unpack_voxel_key(packed);
            let mut m = pick(packed, block, self.masks[slot as usize]);
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                let cell = block_voxel(&block, bit);
                let key = [cell.x, cell.y, cell.z].map(|c| (c + half) as u64);
                visit(pack_leaf_key(&key), (slot as usize, bit));
            }
        }
    }

    /// The leaf-centre coordinate of axis key `k`: its table entry, or
    /// [`replayed_center`] past [`MAX_INDEXED_DEPTH`].
    fn axis_center(&self, k: u64) -> f64 {
        match self.axis_centers.get(k as usize) {
            Some(&center) => center,
            None => replayed_center(k, self.depth, self.half_extent),
        }
    }

    /// The centre of the leaf with packed key `key`, as the pointer
    /// octree's walk reports it.
    fn leaf_center(&self, key: u128) -> Vec3 {
        let [x, y, z] = unpack_leaf_key(key).map(|k| self.axis_center(k));
        Vec3::new(x, y, z)
    }

    /// Centres of all occupied voxels.
    ///
    /// Served from the occupied block masks: one `center_of` per set mask
    /// bit instead of a full leaf walk. The centres are the grid's canonical
    /// voxel centres rather than the walk's replayed float additions, so the
    /// leaf walk it replaced agrees with it bit for bit at dyadic
    /// resolutions.
    pub fn occupied_voxel_centers(&self) -> Vec<Vec3> {
        let mut centers = Vec::new();
        self.occupied_voxel_centers_into(&mut centers);
        centers
    }

    /// [`OctoMap::occupied_voxel_centers`] into a caller-supplied buffer
    /// (cleared first), so a caller can reuse one allocation. Contents and
    /// order are identical to the allocating variant, which is implemented
    /// on top of this.
    pub fn occupied_voxel_centers_into(&self, centers: &mut Vec<Vec3>) {
        centers.clear();
        centers.reserve(self.occupied_count);
        for (&key, &slot) in &self.blocks {
            let block = unpack_voxel_key(key);
            let mut m = self.masks[slot as usize].occupied;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                centers.push(self.grid.center_of(&block_voxel(&block, bit)));
            }
        }
        // Grid centres are finite, never ±0.0 and pairwise distinct, so
        // `total_cmp` orders them as the historical `partial_cmp` did.
        centers.sort_unstable_by(|a, b| {
            a.x.total_cmp(&b.x)
                .then(a.y.total_cmp(&b.y))
                .then(a.z.total_cmp(&b.z))
        });
    }

    /// Returns `true` when the voxel containing `point` has never been
    /// observed.
    pub fn is_unknown(&self, point: &Vec3) -> bool {
        self.query(point) == Occupancy::Unknown
    }

    /// Rebuilds this map's observations into a new map at a different
    /// resolution (the dynamic-resolution policy of the paper's energy case
    /// study switches between 0.15 m and 0.80 m at runtime). The new map
    /// covers the half-extent this map was requested with, aligned at the
    /// new resolution, so any chain of switches keeps the domain the first
    /// map was asked for; leaves outside the new domain are dropped.
    ///
    /// # Panics
    ///
    /// Panics if covering the requested half-extent at `new_resolution`
    /// needs more than [`OctoMap::MAX_DEPTH`] levels; vet a resolution with
    /// [`OctoMap::depth_for`] over the half-extent given to `new`.
    pub fn reresolved(&self, new_resolution: f64) -> OctoMap {
        let mut out = OctoMap::new(new_resolution, self.requested_half_extent);
        for (center, log_odds) in self.collect_leaves() {
            out.update_leaf(&center, log_odds);
        }
        out
    }

    /// Axis-aligned bounds of the octree domain.
    pub fn domain(&self) -> Aabb {
        Aabb::new(
            Vec3::splat(-self.half_extent),
            Vec3::splat(self.half_extent),
        )
    }

    // ------------------------------------------------------------------
    // Internal block-map machinery.
    // ------------------------------------------------------------------

    /// The log-odds of the leaf a float root descent reaches for `point`
    /// ([`OctoMap::point_key`]), or `None` while that voxel is unobserved.
    fn leaf_log_odds(&self, point: &Vec3) -> Option<f64> {
        let (block, bit) = block_of(&key_cell(&self.point_key(point), self.depth));
        let slot = *self.blocks.get(&pack_voxel_key(&block))? as usize;
        (self.masks[slot].known & (1 << bit) != 0).then(|| self.log_odds[slot][bit])
    }

    /// The masks of the block at block coordinates `block`, or `None` while
    /// no voxel of it was observed. Block coordinates beyond the packing
    /// range lie outside every domain up to [`OctoMap::MAX_DEPTH`]: those
    /// voxels are unobservable.
    fn block_masks(&self, block: &GridIndex) -> Option<BlockMasks> {
        let key = pack_voxel_key_checked(block)?;
        self.blocks.get(&key).map(|&slot| self.masks[slot as usize])
    }

    /// The slot of the block with packed key `block`, creating an empty
    /// block on first touch. The previous update's block is checked first.
    fn block_slot(&mut self, block: u64) -> usize {
        if self.last_block.0 != block {
            let next = self.masks.len() as u32;
            let slot = *self.blocks.entry(block).or_insert(next);
            if slot == next {
                self.masks.push(BlockMasks::default());
                self.log_odds.push([0.0; 64]);
            }
            self.last_block = (block, slot);
        }
        self.last_block.1 as usize
    }

    /// Reresolution's leaf update: adds the clamped `delta` to the leaf
    /// containing `point`. The key comes from the float root descent
    /// ([`OctoMap::point_key`]) rather than the traversal grid because an
    /// old-map leaf centre can sit exactly on a new-grid cell boundary, where
    /// only the descent's own compares say which leaf it lands in.
    fn update_leaf(&mut self, point: &Vec3, delta: f64) {
        if !self.in_domain(point) {
            return;
        }
        let cell = key_cell(&self.point_key(point), self.depth);
        self.update_cell(cell, delta);
    }

    /// The key of the leaf a float root descent reaches for `point`: at
    /// every level the octant comes from comparing `point` against the
    /// accumulated node centre ([`child_of`]), and its three bits are
    /// appended to the key.
    fn point_key(&self, point: &Vec3) -> LeafKey {
        let mut key = [0u64; 3];
        let mut center = Vec3::ZERO;
        let mut half = self.half_extent;
        for _ in 0..self.depth {
            let (octant, child_center) = child_of(point, &center, half);
            for (axis, k) in key.iter_mut().enumerate() {
                *k = (*k << 1) | ((octant >> axis) & 1) as u64;
            }
            center = child_center;
            half /= 2.0;
        }
        key
    }

    /// Adds `delta` to the log-odds of the leaf of in-domain traversal cell
    /// `cell`, clamped, and counts one leaf update.
    ///
    /// Every mutation of a leaf's log-odds flows through here — rays and
    /// [`OctoMap::reresolved`] alike — so this is the one place the block
    /// masks and the O(1) counters are kept in sync with the log-odds. An
    /// update touches nothing but its block and the counters.
    fn update_cell(&mut self, cell: GridIndex, delta: f64) {
        let (block, bit) = block_of(&cell);
        let slot = self.block_slot(pack_voxel_key(&block));
        self.updates += 1;
        let mask = 1u64 << bit;
        let masks = &mut self.masks[slot];
        let value = &mut self.log_odds[slot][bit];
        let created = masks.known & mask == 0;
        let was_occupied = !created && *value > OCCUPIED_THRESHOLD;
        *value = (*value + delta).clamp(CLAMP_MIN, CLAMP_MAX);
        let now = *value > OCCUPIED_THRESHOLD;
        masks.known |= mask;
        if now != was_occupied {
            if now {
                masks.occupied |= mask;
                self.occupied_count += 1;
            } else {
                masks.occupied &= !mask;
                self.occupied_count -= 1;
            }
        }
        if created {
            self.known_count += 1;
        }
    }

    /// Every observed leaf's (centre, log-odds) as the pointer octree's
    /// pre-order walk reports it, one entry per leaf, sorted by coordinates:
    /// the known masks list the leaves and their centres replay the walk's
    /// additions ([`OctoMap::axis_center`]).
    fn collect_leaves(&self) -> Vec<(Vec3, f64)> {
        let mut leaves = Vec::with_capacity(self.known_count);
        self.for_each_picked(
            |_, _, masks| masks.known,
            |key, (slot, bit)| leaves.push((key, self.log_odds[slot][bit])),
        );
        leaves.sort_unstable_by_key(|&(key, _)| key);
        leaves
            .into_iter()
            .map(|(key, value)| (self.leaf_center(key), value))
            .collect()
    }
}

/// Integer key of a leaf voxel: its traversal-grid cell plus
/// `2^(depth − 1)` on each axis, so each axis runs over `0..2^depth` and bit
/// `depth − 1 − l` of the three axes names the octant a root descent takes
/// at level `l`.
type LeafKey = [u64; 3];

/// The traversal-grid cell of a leaf key.
fn key_cell(key: &LeafKey, depth: u32) -> GridIndex {
    let half = 1i64 << (depth - 1);
    GridIndex::new(
        key[0] as i64 - half,
        key[1] as i64 - half,
        key[2] as i64 - half,
    )
}

/// Packs a leaf key into one `u128`, x-major, 22 bits per axis: enough for
/// every key of a domain up to [`OctoMap::MAX_DEPTH`]. Centre coordinates
/// strictly increase with their axis key, so integer order is the
/// coordinate order of the leaf centres.
fn pack_leaf_key(key: &LeafKey) -> u128 {
    u128::from(key[0]) << 44 | u128::from(key[1]) << 22 | u128::from(key[2])
}

/// Inverse of [`pack_leaf_key`].
fn unpack_leaf_key(packed: u128) -> LeafKey {
    const MASK: u128 = (1 << 22) - 1;
    [packed >> 44, (packed >> 22) & MASK, packed & MASK].map(|k| k as u64)
}

/// Packs a block index into one u64 key (21 bits per axis, offset-biased).
/// Block coordinates of a map up to [`OctoMap::MAX_DEPTH`] stay inside the
/// ±2^20 bound: that domain spans ±2^19 blocks.
fn pack_voxel_key(cell: &GridIndex) -> u64 {
    const BIAS: i64 = 1 << 20;
    debug_assert!(
        cell.x.abs() < BIAS && cell.y.abs() < BIAS && cell.z.abs() < BIAS,
        "voxel index out of packing range: {cell:?}"
    );
    (((cell.x + BIAS) as u64) << 42) | (((cell.y + BIAS) as u64) << 21) | ((cell.z + BIAS) as u64)
}

/// Inverse of [`pack_voxel_key`]: recovers the voxel (or block) index.
fn unpack_voxel_key(key: u64) -> GridIndex {
    const BIAS: i64 = 1 << 20;
    const MASK: u64 = (1 << 21) - 1;
    GridIndex::new(
        ((key >> 42) & MASK) as i64 - BIAS,
        ((key >> 21) & MASK) as i64 - BIAS,
        (key & MASK) as i64 - BIAS,
    )
}

/// [`pack_voxel_key`] for block coordinates of query neighbourhoods, which
/// may legitimately reach beyond the packing range: any block at or beyond
/// ±2^20 lies outside every domain up to [`OctoMap::MAX_DEPTH`], so `None`
/// simply means "unobservable, never occupied".
fn pack_voxel_key_checked(cell: &GridIndex) -> Option<u64> {
    const BIAS: i64 = 1 << 20;
    if cell.x.abs() < BIAS && cell.y.abs() < BIAS && cell.z.abs() < BIAS {
        Some(pack_voxel_key(cell))
    } else {
        None
    }
}

thread_local! {
    /// Per-thread packed-leaf-key buffer of the sorted listing behind
    /// [`OctoMap::free_voxel_centers`] and
    /// [`OctoMap::frontier_voxel_centers_into`] (which runs every replan).
    /// Take/replace (not borrow-across-call) so an unexpected nesting falls
    /// back to a fresh allocation instead of a RefCell panic.
    static LEAF_KEYS: RefCell<Vec<u128>> = const { RefCell::new(Vec::new()) };
}

/// Splits a voxel index into its 4×4×4 block coordinates and the block-local
/// bit index (x + 4·y + 16·z over the euclidean remainders). On two's
/// complement integers `>> 2` is the floor division by 4 and `& 3` its
/// remainder.
fn block_of(idx: &GridIndex) -> (GridIndex, usize) {
    let block = GridIndex::new(idx.x >> 2, idx.y >> 2, idx.z >> 2);
    let bit = (idx.x & 3) | (idx.y & 3) << 2 | (idx.z & 3) << 4;
    (block, bit as usize)
}

/// Inverse of [`block_of`]: the voxel index of bit `bit` of block `block`.
fn block_voxel(block: &GridIndex, bit: usize) -> GridIndex {
    let bit = bit as i64;
    GridIndex::new(
        block.x * 4 + (bit & 3),
        block.y * 4 + ((bit >> 2) & 3),
        block.z * 4 + (bit >> 4),
    )
}

/// 4-bit mask of the block-local coordinates (0..4) of block `b` that fall
/// inside the inclusive axis range `[lo, hi]` (in voxel coordinates). Empty
/// intersections cannot occur: blocks are only enumerated over the box.
fn axis_bits(lo: i64, hi: i64, b: i64) -> u64 {
    let a = (lo.max(b * 4) - b * 4) as u32;
    let c = (hi.min(b * 4 + 3) - b * 4) as u32;
    ((1u64 << (c + 1)) - (1u64 << a)) & 0xF
}

/// The voxels of a block bitmask on each of its six faces: local x = 0 and
/// x = 3, y = 0 and y = 3, z = 0 and z = 3.
const FACE_X_LO: u64 = 0x1111_1111_1111_1111;
const FACE_X_HI: u64 = FACE_X_LO << 3;
const FACE_Y_LO: u64 = 0x000F_000F_000F_000F;
const FACE_Y_HI: u64 = FACE_Y_LO << 12;
const FACE_Z_LO: u64 = 0xFFFF;
const FACE_Z_HI: u64 = FACE_Z_LO << 48;

/// Per block face: the face, the opposite face of the block across it, the
/// packed-key step to that block ([`pack_voxel_key`] puts x at bit 42 and y
/// at bit 21) and the rotation that moves the far face onto this one (a
/// plain shift, as the far face's bits never wrap).
const FACE_NEIGHBORS: [(u64, u64, i64, u32); 6] = [
    (FACE_X_HI, FACE_X_LO, 1 << 42, 3),
    (FACE_X_LO, FACE_X_HI, -(1 << 42), 64 - 3),
    (FACE_Y_HI, FACE_Y_LO, 1 << 21, 12),
    (FACE_Y_LO, FACE_Y_HI, -(1 << 21), 64 - 12),
    (FACE_Z_HI, FACE_Z_LO, 1, 48),
    (FACE_Z_LO, FACE_Z_HI, -1, 64 - 48),
];

/// Expands a 4-bit axis mask so each set bit becomes a nibble (`0xF`): the y
/// window of a block bitmask, before replication across the four z groups.
const NIBBLE_EXPAND: [u64; 16] = {
    let mut table = [0u64; 16];
    let mut m = 0;
    while m < 16 {
        let mut bits = 0u64;
        let mut i = 0;
        while i < 4 {
            if m & (1 << i) != 0 {
                bits |= 0xF << (4 * i);
            }
            i += 1;
        }
        table[m] = bits;
        m += 1;
    }
    table
};

/// Expands a 4-bit axis mask so each set bit becomes a 16-bit group: the z
/// window of a block bitmask.
const GROUP_EXPAND: [u64; 16] = {
    let mut table = [0u64; 16];
    let mut m = 0;
    while m < 16 {
        let mut bits = 0u64;
        let mut i = 0;
        while i < 4 {
            if m & (1 << i) != 0 {
                bits |= 0xFFFF << (16 * i);
            }
            i += 1;
        }
        table[m] = bits;
        m += 1;
    }
    table
};

/// Offset classes of the precomputed inflation ball: an occupied voxel at a
/// `NEVER` offset can never satisfy the reference distance test for any point
/// inside the centre voxel, an `ALWAYS` offset always does, and a `CHECK`
/// offset needs the exact per-query distance test.
const BALL_NEVER: u8 = 0;
const BALL_CHECK: u8 = 1;
const BALL_ALWAYS: u8 = 2;

/// The classified inflation neighbourhood for one (resolution, radius) pair:
/// a `(2·steps + 1)³` cube of [`BALL_NEVER`]/[`BALL_CHECK`]/[`BALL_ALWAYS`]
/// classes, indexed by voxel offset from the query point's voxel.
struct OffsetBall {
    steps: i64,
    classes: Vec<u8>,
}

impl OffsetBall {
    fn build(resolution: f64, radius: f64) -> OffsetBall {
        let reach = radius + resolution * 0.87;
        let steps = (radius / resolution).ceil() as i64;
        let width = (2 * steps + 1) as usize;
        let mut classes = vec![BALL_NEVER; width * width * width];
        // Guard band for the worst-case / best-case distance bounds below:
        // they are evaluated in floating point, so knife-edge offsets are
        // pushed into the exact-check class rather than misclassified.
        let eps = 1e-9 * resolution;
        let mut i = 0;
        for dx in -steps..=steps {
            for dy in -steps..=steps {
                for dz in -steps..=steps {
                    // For a query point anywhere in its voxel, the distance to
                    // the centre of the voxel `steps` away is bounded per axis
                    // by (|d| - 0.5)·res below and (|d| + 0.5)·res above.
                    let lo = |d: i64| (d.abs() as f64 - 0.5).max(0.0) * resolution;
                    let hi = |d: i64| (d.abs() as f64 + 0.5) * resolution;
                    let nearest = (lo(dx).powi(2) + lo(dy).powi(2) + lo(dz).powi(2)).sqrt();
                    let farthest = (hi(dx).powi(2) + hi(dy).powi(2) + hi(dz).powi(2)).sqrt();
                    classes[i] = if nearest > reach + eps {
                        BALL_NEVER
                    } else if farthest + eps <= reach {
                        BALL_ALWAYS
                    } else {
                        BALL_CHECK
                    };
                    i += 1;
                }
            }
        }
        OffsetBall { steps, classes }
    }

    /// Class of the offset `(dx, dy, dz)`; offsets outside the cube are
    /// `BALL_NEVER` (cannot happen for boxes built from the same `steps`).
    fn class(&self, dx: i64, dy: i64, dz: i64) -> u8 {
        let s = self.steps;
        if dx.abs() > s || dy.abs() > s || dz.abs() > s {
            return BALL_NEVER;
        }
        let w = 2 * s + 1;
        self.classes[(((dx + s) * w + (dy + s)) * w + (dz + s)) as usize]
    }
}

/// One cached inflation ball, keyed by the `(resolution, radius)` bit
/// patterns it was built for.
type CachedBall = ((u64, u64), Rc<OffsetBall>);

/// Inflation balls a thread keeps. A mission queries one radius at one or
/// two resolutions, so a thread running mission after mission (a sweep or
/// server worker) keeps only the balls of its latest missions.
const CACHED_BALLS: usize = 4;

thread_local! {
    /// Per-thread cache of classified inflation balls, most recently built
    /// last. A few entries, so a linear scan beats hashing.
    static OFFSET_BALLS: RefCell<Vec<CachedBall>> = const { RefCell::new(Vec::new()) };
}

/// The classified inflation ball for `(resolution, radius)`, built on first
/// use per thread. Building a ball past [`CACHED_BALLS`] evicts the oldest.
fn offset_ball(resolution: f64, radius: f64) -> Rc<OffsetBall> {
    let key = (resolution.to_bits(), radius.to_bits());
    OFFSET_BALLS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, ball)) = cache.iter().find(|(k, _)| *k == key) {
            return Rc::clone(ball);
        }
        let ball = Rc::new(OffsetBall::build(resolution, radius));
        if cache.len() == CACHED_BALLS {
            cache.remove(0);
        }
        cache.push((key, Rc::clone(&ball)));
        ball
    })
}

/// Index (0..8) and centre of the child octant containing `point`.
fn child_of(point: &Vec3, center: &Vec3, half: f64) -> (usize, Vec3) {
    let quarter = half / 2.0;
    let mut idx = 0usize;
    let mut child_center = *center;
    if point.x >= center.x {
        idx |= 1;
        child_center.x += quarter;
    } else {
        child_center.x -= quarter;
    }
    if point.y >= center.y {
        idx |= 2;
        child_center.y += quarter;
    } else {
        child_center.y -= quarter;
    }
    if point.z >= center.z {
        idx |= 4;
        child_center.z += quarter;
    } else {
        child_center.z -= quarter;
    }
    (idx, child_center)
}

impl PartialEq for OctoMap {
    fn eq(&self, other: &Self) -> bool {
        self.half_extent == other.half_extent
            && self.requested_half_extent == other.requested_half_extent
            && self.depth == other.depth
            && self.grid == other.grid
            && self.updates == other.updates
            && self.occupied_count == other.occupied_count
            && self.known_count == other.known_count
            // Slots follow creation order, so blocks compare by coordinate.
            && self.blocks.len() == other.blocks.len()
            // mav-lint: allow(DET-HASH-ITER): all() over every block is order-independent
            && self.blocks.iter().all(|(key, &slot)| {
                other.blocks.get(key).is_some_and(|&theirs| {
                    let (mine, theirs) = (slot as usize, theirs as usize);
                    self.masks[mine] == other.masks[theirs]
                        && self.log_odds[mine] == other.log_odds[theirs]
                })
            })
    }
}

impl fmt::Display for OctoMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "octomap[res {:.2} m, {} known voxels, {} occupied]",
            self.resolution(),
            self.known_voxel_count(),
            self.occupied_voxel_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-index map queries and the full leaf walks that the block
    /// masks' queries, counters and listings replaced, kept as their
    /// oracles.
    impl OctoMap {
        /// The pre-index inflation query: one point lookup ([`OctoMap::query`])
        /// per voxel of the inflation cube. Kept verbatim as the executable
        /// specification the mask-served query is property-tested against.
        fn is_occupied_with_inflation_reference(&self, point: &Vec3, radius: f64) -> bool {
            let r = radius.max(0.0);
            let steps = (r / self.resolution()).ceil() as i64;
            let center_idx = self.grid.index_of(point);
            for dx in -steps..=steps {
                for dy in -steps..=steps {
                    for dz in -steps..=steps {
                        let idx =
                            GridIndex::new(center_idx.x + dx, center_idx.y + dy, center_idx.z + dz);
                        let c = self.grid.center_of(&idx);
                        if c.distance(point) <= r + self.resolution() * 0.87
                            && self.query(&c) == Occupancy::Occupied
                        {
                            return true;
                        }
                    }
                }
            }
            false
        }

        /// The pre-index swept-segment predicate: a point sample every
        /// half-resolution, each paying a full inflation-cube point-lookup scan.
        /// Kept as the executable specification [`OctoMap::segment_free`] is
        /// property-tested against.
        fn segment_free_reference(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
            let dist = a.distance(b);
            let step = (self.resolution() * 0.5).max(0.05);
            let samples = ((dist / step).ceil() as usize).max(1);
            for i in 0..=samples {
                let t = i as f64 / samples as f64;
                let p = a.lerp(b, t);
                if self.is_occupied_with_inflation_reference(&p, radius) {
                    return false;
                }
            }
            true
        }

        /// [`OctoMap::occupied_voxel_count`] recomputed by a full leaf walk — the
        /// pre-index implementation, kept as the regression oracle for the O(1)
        /// counter.
        fn occupied_voxel_count_scan(&self) -> usize {
            self.collect_leaves()
                .iter()
                .filter(|(_, l)| *l > OCCUPIED_THRESHOLD)
                .count()
        }

        /// [`OctoMap::known_voxel_count`] recomputed by a full leaf walk — the
        /// pre-index implementation, kept as the regression oracle for the O(1)
        /// counter.
        fn known_voxel_count_scan(&self) -> usize {
            self.collect_leaves().len()
        }

        /// [`OctoMap::free_voxel_centers`] recomputed by a full leaf walk — the
        /// pre-index implementation, kept as the executable specification the
        /// mask listing is tested against.
        fn free_voxel_centers_scan(&self) -> Vec<Vec3> {
            self.collect_leaves()
                .into_iter()
                .filter(|(_, l)| *l <= OCCUPIED_THRESHOLD)
                .map(|(c, _)| c)
                .collect()
        }

        /// [`OctoMap::occupied_voxel_centers`] recomputed by a full leaf walk —
        /// the pre-index implementation, kept as the regression oracle for the
        /// block-mask enumeration.
        fn occupied_voxel_centers_scan(&self) -> Vec<Vec3> {
            self.collect_leaves()
                .into_iter()
                .filter(|(_, l)| *l > OCCUPIED_THRESHOLD)
                .map(|(c, _)| c)
                .collect()
        }
    }

    /// The original pointer-chasing octree, kept verbatim as a differential
    /// oracle: every node is a separate heap allocation reached through
    /// `Vec<Option<Node>>` child pointers, the layout the block map replaced.
    /// The equivalence proptests drive [`reference::ReferenceMap`] and
    /// [`OctoMap`] with the same ray sequences and compare per-point log-odds
    /// and full leaf collections, so any behavioural drift in the block map
    /// (its keys, its leaf set, its centres) shows up as a differential
    /// failure rather than a silent golden change.
    mod reference {
        use super::{child_of, OctoMap, CLAMP_MAX, CLAMP_MIN};
        use mav_types::{GridSpec, Vec3};

        #[derive(Debug, Clone)]
        enum Node {
            Leaf { log_odds: f64 },
            Inner { children: Vec<Option<Node>> },
        }

        impl Node {
            fn new_inner() -> Self {
                Node::Inner {
                    children: vec![None; 8],
                }
            }
        }

        /// Pointer-tree occupancy map with the original update and collection
        /// logic, reduced to the surface the differential tests need.
        #[derive(Debug, Clone)]
        pub struct ReferenceMap {
            half_extent: f64,
            requested_half_extent: f64,
            depth: u32,
            grid: GridSpec,
            root: Option<Node>,
        }

        impl ReferenceMap {
            /// Mirrors [`OctoMap::new`]'s domain alignment so both maps agree on
            /// leaf geometry.
            pub fn new(resolution: f64, half_extent: f64) -> Self {
                assert!(half_extent > 0.0, "half extent must be positive");
                let leaves_per_axis = (2.0 * half_extent / resolution).ceil().max(1.0);
                let depth = (leaves_per_axis.log2().ceil() as u32).max(1);
                let aligned_half_extent = resolution * (1u64 << depth) as f64 / 2.0;
                ReferenceMap {
                    grid: GridSpec::new(resolution),
                    half_extent: aligned_half_extent.max(half_extent),
                    requested_half_extent: half_extent,
                    depth,
                    root: None,
                }
            }

            /// Integrates one sensor ray with the shared ray enumeration, so the
            /// oracle and the block map can only diverge in their *storage*
            /// logic: the oracle descends from each cell centre by float compares
            /// and drops out-of-domain centres with its own test, the block map
            /// addresses each cell by integer key.
            pub fn insert_ray(&mut self, origin: &Vec3, endpoint: &Vec3) {
                let grid = self.grid;
                OctoMap::for_each_ray_update(grid, origin, endpoint, |cell, delta| {
                    self.update_leaf(&grid.center_of(&cell), move |log_odds| {
                        *log_odds = (*log_odds + delta).clamp(CLAMP_MIN, CLAMP_MAX);
                    });
                });
            }

            /// Rebuilds the observations at a different resolution over the
            /// requested half-extent, like [`OctoMap::reresolved`] — the old
            /// `OctoMap::reresolved` (collect, then re-apply each leaf's
            /// log-odds as one clamped delta into the new tree).
            pub fn reresolved(&self, new_resolution: f64) -> ReferenceMap {
                let mut out = ReferenceMap::new(new_resolution, self.requested_half_extent);
                for (center, log_odds) in self.collect() {
                    out.update_leaf(&center, move |l| {
                        *l = (*l + log_odds).clamp(CLAMP_MIN, CLAMP_MAX);
                    });
                }
                out
            }

            /// The leaf log-odds containing `point`, when observed.
            pub fn leaf_log_odds(&self, point: &Vec3) -> Option<f64> {
                let mut node = self.root.as_ref()?;
                let mut center = Vec3::ZERO;
                let mut half = self.half_extent;
                for _ in 0..self.depth {
                    match node {
                        Node::Leaf { log_odds } => return Some(*log_odds),
                        Node::Inner { children } => {
                            let (idx, child_center) = child_of(point, &center, half);
                            node = children[idx].as_ref()?;
                            center = child_center;
                            half /= 2.0;
                        }
                    }
                }
                match node {
                    Node::Leaf { log_odds } => Some(*log_odds),
                    Node::Inner { .. } => None,
                }
            }

            fn in_domain(&self, point: &Vec3) -> bool {
                point.x.abs() <= self.half_extent
                    && point.y.abs() <= self.half_extent
                    && point.z.abs() <= self.half_extent
            }

            fn update_leaf<F: FnOnce(&mut f64)>(&mut self, point: &Vec3, apply: F) {
                if !self.in_domain(point) {
                    return;
                }
                let depth = self.depth;
                let half = self.half_extent;
                let root = self.root.get_or_insert_with(Node::new_inner);
                Self::update_recursive(root, point, apply, Vec3::ZERO, half, depth);
            }

            fn update_recursive<F: FnOnce(&mut f64)>(
                node: &mut Node,
                point: &Vec3,
                apply: F,
                center: Vec3,
                half: f64,
                remaining_depth: u32,
            ) {
                if remaining_depth == 0 {
                    match node {
                        Node::Leaf { log_odds } => apply(log_odds),
                        Node::Inner { .. } => {
                            let mut log_odds = 0.0;
                            apply(&mut log_odds);
                            *node = Node::Leaf { log_odds };
                        }
                    }
                    return;
                }
                match node {
                    Node::Leaf { log_odds } => {
                        // A coarse leaf observed at a shallower depth: refine it
                        // by pushing its value down (simple expansion).
                        let existing = *log_odds;
                        *node = Node::new_inner();
                        let Node::Inner { children } = node else {
                            unreachable!("node was just replaced by an inner node");
                        };
                        let (idx, child_center) = child_of(point, &center, half);
                        let child = children[idx].get_or_insert(Node::Leaf { log_odds: existing });
                        Self::update_recursive(
                            child,
                            point,
                            apply,
                            child_center,
                            half / 2.0,
                            remaining_depth - 1,
                        );
                    }
                    Node::Inner { children } => {
                        let (idx, child_center) = child_of(point, &center, half);
                        let child = children[idx].get_or_insert_with(|| {
                            if remaining_depth == 1 {
                                Node::Leaf { log_odds: 0.0 }
                            } else {
                                Node::new_inner()
                            }
                        });
                        Self::update_recursive(
                            child,
                            point,
                            apply,
                            child_center,
                            half / 2.0,
                            remaining_depth - 1,
                        );
                    }
                }
            }

            /// Every observed leaf's (centre, log-odds), sorted by coordinates —
            /// the old `collect_leaves` minus its rounded-centre dedup: every
            /// leaf is a distinct tree node, so it is listed once.
            pub fn collect(&self) -> Vec<(Vec3, f64)> {
                let mut out = Vec::new();
                if let Some(root) = &self.root {
                    Self::collect_recursive(root, Vec3::ZERO, self.half_extent, &mut out);
                }
                // Chained `total_cmp` ≡ the historical `partial_cmp` tuple sort:
                // leaf centres sit at (k + ½)·resolution, so they are finite,
                // never ±0.0, and pairwise distinct.
                out.sort_by(|a, b| {
                    a.0.x
                        .total_cmp(&b.0.x)
                        .then(a.0.y.total_cmp(&b.0.y))
                        .then(a.0.z.total_cmp(&b.0.z))
                });
                out
            }

            fn collect_recursive(node: &Node, center: Vec3, half: f64, out: &mut Vec<(Vec3, f64)>) {
                match node {
                    Node::Leaf { log_odds } => out.push((center, *log_odds)),
                    Node::Inner { children } => {
                        let quarter = half / 2.0;
                        for (idx, child) in children.iter().enumerate() {
                            if let Some(child) = child {
                                let mut c = center;
                                c.x += if idx & 1 != 0 { quarter } else { -quarter };
                                c.y += if idx & 2 != 0 { quarter } else { -quarter };
                                c.z += if idx & 4 != 0 { quarter } else { -quarter };
                                Self::collect_recursive(child, c, quarter, out);
                            }
                        }
                    }
                }
            }
        }
    }

    fn small_map(resolution: f64) -> OctoMap {
        OctoMap::new(resolution, 32.0)
    }

    /// The octant (0..8, numbered like [`child_of`]: x in bit 0, y in bit 1,
    /// z in bit 2) that leaf key `key` takes at key bit `bit`.
    fn octant_of(key: &LeafKey, bit: u32) -> usize {
        (((key[0] >> bit) & 1) | (((key[1] >> bit) & 1) << 1) | (((key[2] >> bit) & 1) << 2))
            as usize
    }

    /// The centre of the leaf with key `key`, replayed level by level: the
    /// float additions of a root descent (±half/2, ±half/4, … from the
    /// origin) along its octant path. The oracle of the per-axis centre
    /// table.
    fn replayed_leaf_center(map: &OctoMap, key: &LeafKey) -> Vec3 {
        let mut center = Vec3::ZERO;
        let mut half = map.half_extent;
        for bit in (0..map.depth).rev() {
            let octant = octant_of(key, bit);
            let quarter = half / 2.0;
            center.x += if octant & 1 != 0 { quarter } else { -quarter };
            center.y += if octant & 2 != 0 { quarter } else { -quarter };
            center.z += if octant & 4 != 0 { quarter } else { -quarter };
            half = quarter;
        }
        center
    }

    /// The frontier candidates as the free-voxel list and six point probes
    /// give them: the free voxels whose centre `z` lies in `[min_z, max_z]`
    /// and which have a face neighbour that `query` reports unknown, in list
    /// order.
    fn listed_frontiers(map: &OctoMap, min_z: f64, max_z: f64) -> Vec<Vec3> {
        let r = map.resolution();
        let offsets = [
            Vec3::new(r, 0.0, 0.0),
            Vec3::new(-r, 0.0, 0.0),
            Vec3::new(0.0, r, 0.0),
            Vec3::new(0.0, -r, 0.0),
            Vec3::new(0.0, 0.0, r),
            Vec3::new(0.0, 0.0, -r),
        ];
        map.free_voxel_centers()
            .into_iter()
            .filter(|c| {
                !(c.z < min_z || c.z > max_z)
                    && offsets
                        .iter()
                        .any(|d| map.query(&(*c + *d)) == Occupancy::Unknown)
            })
            .collect()
    }

    /// The centres' bits, so that a comparison is bit for bit.
    fn center_bits(centers: &[Vec3]) -> Vec<[u64; 3]> {
        centers
            .iter()
            .map(|c| [c.x, c.y, c.z].map(f64::to_bits))
            .collect()
    }

    /// `frontier_voxel_centers_into` against the listed frontiers, for a
    /// band and for a band whose bounds are free-voxel centres (the
    /// inclusive edge).
    fn check_frontier_pass(map: &OctoMap, band: (f64, f64), edge_pick: (usize, usize)) {
        // Not empty, so the pass must clear it.
        let mut out = vec![Vec3::ZERO];
        let free = map.free_voxel_centers();
        let mut bands = vec![band];
        if !free.is_empty() {
            let (a, b) = (
                free[edge_pick.0 % free.len()].z,
                free[edge_pick.1 % free.len()].z,
            );
            bands.push((a.min(b), a.max(b)));
        }
        for (min_z, max_z) in bands {
            map.frontier_voxel_centers_into(min_z, max_z, &mut out);
            assert_eq!(
                center_bits(&out),
                center_bits(&listed_frontiers(map, min_z, max_z)),
                "resolution {}, band {min_z}..{max_z}",
                map.resolution()
            );
        }
    }

    #[test]
    fn ray_insertion_marks_endpoint_occupied_and_path_free() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let hit = Vec3::new(8.0, 0.0, 1.0);
        map.insert_ray(&origin, &hit);
        assert_eq!(map.query(&hit), Occupancy::Occupied);
        assert_eq!(map.query(&Vec3::new(4.0, 0.0, 1.0)), Occupancy::Free);
        assert_eq!(map.query(&Vec3::new(0.0, 8.0, 1.0)), Occupancy::Unknown);
        assert!(map.update_count() > 0);
    }

    #[test]
    fn repeated_misses_override_a_single_hit() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let target = Vec3::new(5.0, 0.0, 1.0);
        map.insert_ray(&origin, &target);
        assert_eq!(map.query(&target), Occupancy::Occupied);
        // Now observe through that cell many times (e.g. the obstacle moved):
        // the cell must eventually flip to free.
        for _ in 0..10 {
            map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
        }
        assert_eq!(map.query(&target), Occupancy::Free);
    }

    #[test]
    fn log_odds_are_clamped() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let hit = Vec3::new(3.0, 0.0, 1.0);
        for _ in 0..100 {
            map.insert_ray(&origin, &hit);
        }
        // After saturation a handful of misses must be able to flip the state
        // back within a bounded number of updates (clamping prevents
        // unbounded certainty).
        let mut flipped = false;
        for _ in 0..20 {
            map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
            if map.query(&hit) == Occupancy::Free {
                flipped = true;
                break;
            }
        }
        assert!(flipped, "clamped cell never flipped back to free");
    }

    #[test]
    fn max_range_truncates_rays_without_marking_hits() {
        let mut map = small_map(0.5);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let far = Vec3::new(100.0, 0.0, 1.0); // beyond the 30 m max range
        map.insert_ray(&origin, &far);
        // Nothing within the domain along that ray may be occupied.
        assert_eq!(map.occupied_voxel_count(), 0);
        assert!(map.known_voxel_count() > 0);
    }

    #[test]
    fn point_cloud_insertion_builds_a_wall() {
        let mut map = small_map(0.5);
        let mut pts = Vec::new();
        for y in -10..=10 {
            for z in 0..6 {
                pts.push(Vec3::new(10.0, y as f64 * 0.5, z as f64 * 0.5));
            }
        }
        let cloud = PointCloud::new(Vec3::new(0.0, 0.0, 1.0), pts);
        map.insert_point_cloud(&cloud);
        assert!(map.occupied_voxel_count() > 50);
        assert_eq!(map.query(&Vec3::new(10.0, 0.0, 1.0)), Occupancy::Occupied);
        assert_eq!(map.query(&Vec3::new(5.0, 0.0, 1.0)), Occupancy::Free);
        assert!(!map.occupied_voxel_centers().is_empty());
        assert!(!map.free_voxel_centers().is_empty());
        assert!(map.mapped_volume() > 0.0);
    }

    #[test]
    fn inflation_blocks_near_obstacles_scaling_with_radius() {
        let mut map = small_map(0.25);
        map.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(5.0, 0.0, 1.0));
        let near = Vec3::new(4.6, 0.0, 1.0);
        assert!(map.is_occupied_with_inflation(&near, 0.6));
        assert!(!map.is_occupied_with_inflation(&Vec3::new(2.0, 0.0, 1.0), 0.3));
    }

    #[test]
    fn coarse_resolution_closes_narrow_openings() {
        // Build a wall with a 0.8 m opening at y ∈ [-0.4, 0.4]. At 0.15 m
        // resolution a 0.3 m-radius vehicle fits through; at 0.8 m resolution
        // the opening is swallowed by inflated voxels — the crux of Fig. 17.
        let build = |resolution: f64| {
            let mut map = OctoMap::new(resolution, 32.0);
            let origin = Vec3::new(-5.0, 0.0, 1.0);
            for i in -40..=40 {
                let y = i as f64 * 0.1;
                if y.abs() < 0.41 {
                    continue; // the doorway
                }
                for z in [0.5, 1.0, 1.5, 2.0] {
                    map.insert_ray(&origin, &Vec3::new(3.0, y, z));
                }
            }
            map
        };
        let fine = build(0.15);
        let coarse = build(0.8);
        let through_door_a = Vec3::new(3.0, 0.0, 1.0);
        // The doorway cell itself was never hit, so at fine resolution the
        // vehicle can pass (not occupied within its 0.3 m radius)…
        assert!(!fine.is_occupied_with_inflation(&through_door_a, 0.3));
        // …but at coarse resolution the 0.8 m voxels adjacent to the door are
        // occupied and swallow the opening.
        assert!(coarse.is_occupied_with_inflation(&through_door_a, 0.3));
    }

    #[test]
    fn segment_queries_respect_walls() {
        let mut map = small_map(0.25);
        // Build a wall at x = 5 spanning y in [-3, 3].
        let origin = Vec3::new(0.0, 0.0, 1.0);
        for i in -12..=12 {
            map.insert_ray(&origin, &Vec3::new(5.0, i as f64 * 0.25, 1.0));
        }
        assert!(!map.segment_free(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(8.0, 0.0, 1.0), 0.3));
        assert!(map.segment_free(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(3.0, 0.0, 1.0), 0.3));
    }

    #[test]
    fn blocking_voxel_agrees_with_the_predicates_and_is_occupied() {
        let mut map = small_map(0.25);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        for i in -12..=12 {
            map.insert_ray(&origin, &Vec3::new(5.0, i as f64 * 0.25, 1.0));
        }
        // Point query: a free point reports no voxel, a blocked one reports
        // an occupied voxel inside the inflation reach.
        let free = Vec3::new(2.0, 0.0, 1.0);
        assert!(!map.is_occupied_with_inflation(&free, 0.3));
        assert_eq!(map.blocking_voxel_with_inflation(&free, 0.3), None);
        let blocked = Vec3::new(5.0, 0.0, 1.0);
        assert!(map.is_occupied_with_inflation(&blocked, 0.3));
        let voxel = map.blocking_voxel_with_inflation(&blocked, 0.3).unwrap();
        assert_eq!(map.query(&voxel), Occupancy::Occupied);
        assert!(voxel.distance(&blocked) <= 0.3 + 0.25 * 0.87 + 1e-9);

        // Segment query: Some/None must agree with segment_free, and the
        // reported voxel must be a real occupied voxel near the wall.
        let a = Vec3::new(0.0, 0.0, 1.0);
        let b = Vec3::new(8.0, 0.0, 1.0);
        assert!(!map.segment_free(&a, &b, 0.3));
        let voxel = map.segment_blocking_voxel(&a, &b, 0.3).unwrap();
        assert_eq!(map.query(&voxel), Occupancy::Occupied);
        assert!(
            (voxel.x - 5.0).abs() < 1.0,
            "voxel far from the wall: {voxel:?}"
        );
        let c = Vec3::new(3.0, 0.0, 1.0);
        assert!(map.segment_free(&a, &c, 0.3));
        assert_eq!(map.segment_blocking_voxel(&a, &c, 0.3), None);

        // Empty map: nothing can block.
        let empty = small_map(0.25);
        assert_eq!(empty.segment_blocking_voxel(&a, &b, 0.3), None);
        assert_eq!(empty.blocking_voxel_with_inflation(&blocked, 0.3), None);
    }

    #[test]
    fn reresolving_preserves_occupancy_coarsely() {
        let mut fine = small_map(0.25);
        fine.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(6.0, 0.0, 1.0));
        let coarse = fine.reresolved(1.0);
        assert_eq!(coarse.resolution(), 1.0);
        assert_eq!(coarse.query(&Vec3::new(6.0, 0.0, 1.0)), Occupancy::Occupied);
        assert_ne!(coarse.query(&Vec3::new(3.0, 0.0, 1.0)), Occupancy::Occupied);
    }

    #[test]
    fn out_of_domain_queries_are_unknown() {
        let map = small_map(0.5);
        assert_eq!(map.query(&Vec3::new(1000.0, 0.0, 0.0)), Occupancy::Unknown);
        assert!(map.is_unknown(&Vec3::new(0.0, 0.0, 0.0)));
        assert!(map.domain().contains(&Vec3::ZERO));
    }

    #[test]
    fn degenerate_ray_is_ignored() {
        let mut map = small_map(0.5);
        map.insert_ray(&Vec3::new(1.0, 1.0, 1.0), &Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(map.known_voxel_count(), 0);
    }

    #[test]
    fn finer_resolution_means_more_updates_per_ray() {
        // The compute cost driver behind Fig. 18: the same ray touches more
        // voxels at finer resolution.
        let mut fine = small_map(0.15);
        let mut coarse = small_map(0.8);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let end = Vec3::new(10.0, 4.0, 1.5);
        fine.insert_ray(&origin, &end);
        coarse.insert_ray(&origin, &end);
        assert!(fine.update_count() > 3 * coarse.update_count());
    }

    #[test]
    fn deep_domains_answer_mask_queries_like_the_references() {
        // A domain deeper than the centre table bound must drop the table,
        // while the block masks keep answering every query exactly like
        // the reference predicates, the leaf walk and the pointer tree: a
        // multi-km domain at mm resolution (the deepest map
        // `OctoMap::MAX_DEPTH` allows), and 1 mm at ±40 m, one level past
        // the table bound. 1 mm at ±30 m sits at the bound and keeps its
        // table, which must agree the same way, and so must a depth-2
        // domain (±2 mm), whose 4×4×4 blocks reach past the domain edge. The
        // frontier pass must list what the free list and the probe give.
        let (far_origin, far_hit) = (Vec3::new(0.0, 0.0, 0.0105), Vec3::new(0.05, 0.0, 0.0105));
        let (edge_origin, edge_hit) = (
            Vec3::new(-0.0015, -0.0005, -0.0015),
            Vec3::new(0.0015, -0.0005, 0.0005),
        );
        for (half_extent, depth, indexed, origin, hit) in [
            (1500.0, 22, false, far_origin, far_hit),
            (40.0, 17, false, far_origin, far_hit),
            (30.0, 16, true, far_origin, far_hit),
            (0.002, 2, true, edge_origin, edge_hit),
        ] {
            let mut map = OctoMap::new(0.001, half_extent);
            assert_eq!(map.depth(), depth, "±{half_extent} m");
            assert_eq!(
                map.axis_centers.len(),
                if indexed { 1 << depth } else { 0 },
                "±{half_extent} m"
            );
            map.insert_ray(&origin, &hit);
            let mut tree = reference::ReferenceMap::new(0.001, half_extent);
            tree.insert_ray(&origin, &hit);
            assert_eq!(map.collect_leaves(), tree.collect(), "±{half_extent} m");
            assert_eq!(map.query(&hit), Occupancy::Occupied);
            assert!(map.is_occupied_with_inflation(&hit, 0.002));
            assert_eq!(
                map.is_occupied_with_inflation(&hit, 0.002),
                map.is_occupied_with_inflation_reference(&hit, 0.002)
            );
            assert!(!map.segment_free(&origin, &hit, 0.001));
            assert_eq!(
                map.segment_free(&origin, &hit, 0.001),
                map.segment_free_reference(&origin, &hit, 0.001)
            );
            assert_eq!(map.occupied_voxel_count(), 1);
            assert_eq!(map.occupied_voxel_centers().len(), 1);
            assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
            assert_eq!(map.free_voxel_centers(), map.free_voxel_centers_scan());
            assert!(!map.free_voxel_centers().is_empty(), "±{half_extent} m");
            check_frontier_pass(&map, (-1.0, 1.0), (0, 1));
        }
    }

    #[test]
    fn neighbouring_leaves_that_round_alike_are_both_counted_and_listed() {
        // At 0.8 m some neighbouring axis keys have centres that round to
        // the same `round(centre / resolution)`, the key an older leaf walk
        // deduplicated by. The two leaves are distinct voxels: both count,
        // and each is listed (while free) with its own replayed centre.
        let mut map = small_map(0.8);
        assert_eq!(map.depth(), 7);
        let half = 1i64 << (map.depth() - 1);
        let rounded = |k: usize| (map.axis_centers[k] / map.resolution()).round() as i64;
        let k = (0..map.axis_centers.len() - 1)
            .find(|&k| rounded(k) == rounded(k + 1))
            .expect("two axis keys that round alike at 0.8 m");
        let x = k as i64 - half;
        let (early, late) = (GridIndex::new(x, 0, 2), GridIndex::new(x + 1, 0, 2));
        let center =
            |c: GridIndex| replayed_leaf_center(&map, &[c.x, c.y, c.z].map(|c| (c + half) as u64));
        let (early_center, late_center) = (center(early), center(late));
        map.update_cell(early, -MISS_LOG_ODDS);
        map.update_cell(late, HIT_LOG_ODDS);
        let mut frontiers = Vec::new();
        // The later leaf is occupied: both count, the free one is listed.
        assert_eq!(map.occupied_voxel_count(), 1);
        assert_eq!(map.known_voxel_count(), 2);
        assert_eq!(map.known_voxel_count_scan(), 2);
        assert_eq!(map.free_voxel_centers(), vec![early_center]);
        assert_eq!(map.free_voxel_centers_scan(), vec![early_center]);
        map.frontier_voxel_centers_into(-100.0, 100.0, &mut frontiers);
        assert_eq!(frontiers, vec![early_center]);
        // Misses flip the later leaf free: both are listed, in coordinate
        // order.
        while map.occupied_voxel_count() > 0 {
            map.update_cell(late, -MISS_LOG_ODDS);
        }
        assert_eq!(map.known_voxel_count(), 2);
        let both = vec![early_center, late_center];
        assert_eq!(map.free_voxel_centers(), both);
        assert_eq!(map.free_voxel_centers_scan(), both);
        map.frontier_voxel_centers_into(-100.0, 100.0, &mut frontiers);
        assert_eq!(frontiers, both);
    }

    #[test]
    #[should_panic(expected = "above OctoMap::MAX_DEPTH")]
    fn maps_deeper_than_max_depth_are_rejected() {
        // 1 mm voxels over ±4 km need 23 levels; a resolution of 1e-300
        // once reached a shift overflow here.
        assert_eq!(OctoMap::depth_for(0.001, 4000.0), OctoMap::MAX_DEPTH + 1);
        let _ = OctoMap::new(0.001, 4000.0);
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn zero_resolution_rejected() {
        let _ = OctoMap::new(0.0, 32.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", small_map(0.5)).is_empty());
    }

    /// A thread that sees ever new radii (a server worker running one spec
    /// after another) keeps the balls of the latest few only, and a cached
    /// ball is served without rebuilding.
    #[test]
    fn offset_ball_cache_keeps_the_latest_balls() {
        let radii: Vec<f64> = (1..=10).map(|i| 0.1 * i as f64).collect();
        for &r in &radii {
            offset_ball(0.25, r);
        }
        let cached = OFFSET_BALLS.with(|cache| {
            cache
                .borrow()
                .iter()
                .map(|((_, r), _)| f64::from_bits(*r))
                .collect::<Vec<_>>()
        });
        assert_eq!(cached, radii[radii.len() - CACHED_BALLS..]);
        let latest = offset_ball(0.25, 1.0);
        assert!(Rc::ptr_eq(&latest, &offset_ball(0.25, 1.0)));
        assert_eq!(
            OFFSET_BALLS.with(|cache| cache.borrow().len()),
            CACHED_BALLS
        );
    }

    /// Differential properties pinning the storage and query rewrites: the
    /// hashed voxel-block map, its mask counting and listing and its
    /// mask-served collision queries must be *exact* replacements —
    /// bit-identical log-odds, leaf sets, counters and decisions against the
    /// pointer-tree oracle, the tree-walk references and the pre-index
    /// queries.
    mod equivalence {
        use super::reference::ReferenceMap;
        use super::*;
        use proptest::prelude::*;
        use proptest::TestCaseError;

        /// Dyadic and non-dyadic resolutions, fine and coarse (the paper's
        /// 0.15 m / 0.80 m case-study endpoints included).
        const RESOLUTIONS: [f64; 5] = [0.15, 0.25, 0.3, 0.5, 0.8];

        fn arb_point(extent: f64) -> impl Strategy<Value = Vec3> {
            (-extent..extent, -extent..extent, 0.0..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
        }

        /// Builds the block map and the pointer-tree oracle from the same
        /// ray sequence.
        fn paired_maps(res_idx: usize, rays: &[Vec3]) -> (OctoMap, ReferenceMap) {
            let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
            let mut arena = OctoMap::new(resolution, 24.0);
            let mut tree = ReferenceMap::new(resolution, 24.0);
            let origin = Vec3::new(0.0, 0.0, 1.5);
            for endpoint in rays {
                arena.insert_ray(&origin, endpoint);
                tree.insert_ray(&origin, endpoint);
            }
            (arena, tree)
        }

        /// Integer-key insertion reads octants straight off the voxel key,
        /// which is exact only when the domain half-size is
        /// `resolution × 2^(depth − 1)`; the domain must also cover the
        /// requested half-extent. Extents at, one ulp below and one ulp
        /// above `resolution × 2^k` are where a rounding slip would show;
        /// the requests past `OctoMap::MAX_DEPTH` are skipped.
        #[test]
        fn domain_half_size_is_aligned_and_covers_the_request() {
            for resolution in RESOLUTIONS {
                for k in 0..24 {
                    let edge = resolution * (1u64 << k) as f64;
                    for requested in [edge.next_down(), edge, edge.next_up()] {
                        if OctoMap::depth_for(resolution, requested) > OctoMap::MAX_DEPTH {
                            continue;
                        }
                        let map = OctoMap::new(resolution, requested);
                        assert_eq!(OctoMap::depth_for(resolution, requested), map.depth());
                        assert_eq!(
                            OctoMap::aligned_half_extent(resolution, requested),
                            map.half_extent()
                        );
                        let aligned = resolution * (1u64 << (map.depth() - 1)) as f64;
                        assert_eq!(
                            map.half_extent, aligned,
                            "resolution {resolution}, requested {requested:e}"
                        );
                        assert!(
                            map.half_extent >= requested,
                            "resolution {resolution}: domain {} below requested {requested:e}",
                            map.half_extent
                        );
                    }
                }
            }
        }

        /// The per-axis centre table reproduces the level-by-level replay
        /// bit for bit: for every key at every depth from 1 to the table
        /// bound, three entries give the replay's centre. Extents at, one
        /// ulp below and one ulp above `resolution × 2^k` reach each of
        /// those depths and the first one past the bound, where the table
        /// must be empty and `axis_center` must replay the same bits.
        #[test]
        fn axis_table_matches_the_float_replay() {
            for resolution in RESOLUTIONS {
                for k in 0..MAX_INDEXED_DEPTH {
                    let edge = resolution * (1u64 << k) as f64;
                    for requested in [edge.next_down(), edge, edge.next_up()] {
                        let map = OctoMap::new(resolution, requested);
                        let depth = map.depth();
                        let keys = 1u64 << depth;
                        let indexed = depth <= MAX_INDEXED_DEPTH;
                        assert_eq!(
                            map.axis_centers.len() as u64,
                            if indexed { keys } else { 0 }
                        );
                        // Past the bound, a sample of keys including both ends.
                        let step = if indexed { 1 } else { keys / 4096 + 1 };
                        for kx in (0..keys).step_by(step as usize).chain([keys - 1]) {
                            // Three different axis keys, so each axis of the
                            // replay reads its own table entry.
                            let key = [kx, (kx * 5 + 3) % keys, keys - 1 - kx];
                            let center = replayed_leaf_center(&map, &key);
                            let [x, y, z] = key.map(|k| map.axis_center(k));
                            assert_eq!(
                                [x, y, z].map(f64::to_bits),
                                [center.x, center.y, center.z].map(f64::to_bits),
                                "resolution {resolution}, depth {depth}, key {key:?}"
                            );
                        }
                    }
                }
            }
        }

        /// Inserts `endpoints` seen from `origin` through one of the block
        /// map's insertion entry points: ray by ray (`mode` 0) or as one
        /// `insert_point_cloud` scan (1).
        fn insert_through(arena: &mut OctoMap, mode: usize, origin: &Vec3, endpoints: &[Vec3]) {
            match mode {
                0 => {
                    for endpoint in endpoints {
                        arena.insert_ray(origin, endpoint);
                    }
                }
                _ => arena.insert_point_cloud(&PointCloud::new(*origin, endpoints.to_vec())),
            }
        }

        /// The free-voxel centres of the oracle's deduplicated leaf walk, in
        /// the coordinate order `free_voxel_centers` sorts by.
        fn free_centers(tree: &ReferenceMap) -> Vec<Vec3> {
            tree.collect()
                .into_iter()
                .filter(|(_, l)| *l <= OCCUPIED_THRESHOLD)
                .map(|(c, _)| c)
                .collect()
        }

        /// The block map counts every leaf of the pointer tree once: its
        /// known counter is the tree's leaf count and its occupied counter
        /// the tree's occupied-leaf count.
        fn check_counts(arena: &OctoMap, tree: &ReferenceMap) -> Result<(), TestCaseError> {
            let leaves = tree.collect();
            let occupied = leaves
                .iter()
                .filter(|(_, l)| *l > OCCUPIED_THRESHOLD)
                .count();
            let resolution = arena.resolution();
            prop_assert_eq!(arena.known_voxel_count(), leaves.len(), "at {}", resolution);
            prop_assert_eq!(arena.occupied_voxel_count(), occupied, "at {}", resolution);
            Ok(())
        }

        /// Builds a map from `rays` sensor rays out of a fixed origin, at the
        /// resolution selected by `res_idx`.
        fn ray_map(res_idx: usize, rays: &[Vec3]) -> OctoMap {
            let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
            let mut map = OctoMap::new(resolution, 24.0);
            let origin = Vec3::new(0.0, 0.0, 1.5);
            for endpoint in rays {
                map.insert_ray(&origin, endpoint);
            }
            map
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The indexed inflation query answers exactly like the reference
            /// tree-scan for arbitrary maps, query points and radii.
            #[test]
            fn inflation_query_matches_reference(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..40),
                queries in proptest::collection::vec(arb_point(24.0), 1..24),
                radius in 0.0f64..2.5,
            ) {
                let map = ray_map(res_idx, &rays);
                for q in &queries {
                    prop_assert_eq!(
                        map.is_occupied_with_inflation(q, radius),
                        map.is_occupied_with_inflation_reference(q, radius),
                        "inflation decision diverged at {} (radius {})", q, radius
                    );
                }
            }

            /// The DDA-prefiltered swept-segment predicate answers exactly like the
            /// reference sampled predicate.
            #[test]
            fn segment_free_matches_reference(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..40),
                segments in proptest::collection::vec((arb_point(24.0), arb_point(24.0)), 1..12),
                radius in 0.0f64..1.5,
            ) {
                let map = ray_map(res_idx, &rays);
                for (a, b) in &segments {
                    prop_assert_eq!(
                        map.segment_free(a, b, radius),
                        map.segment_free_reference(a, b, radius),
                        "segment decision diverged on {} -> {} (radius {})", a, b, radius
                    );
                }
            }

            /// Index invalidation across the dynamic-resolution path: rays, then a
            /// full re-resolution, then more rays — queries and counters must still
            /// match the tree exactly.
            #[test]
            fn index_survives_reresolution_chain(
                res_idx in 0usize..RESOLUTIONS.len(),
                new_res_idx in 0usize..RESOLUTIONS.len(),
                before in proptest::collection::vec(arb_point(20.0), 1..24),
                after in proptest::collection::vec(arb_point(20.0), 1..24),
                queries in proptest::collection::vec(arb_point(24.0), 1..12),
                radius in 0.0f64..1.5,
            ) {
                let mut map = ray_map(res_idx, &before);
                map = map.reresolved(RESOLUTIONS[new_res_idx % RESOLUTIONS.len()]);
                let origin = Vec3::new(0.0, 0.0, 1.5);
                for endpoint in &after {
                    map.insert_ray(&origin, endpoint);
                }
                for q in &queries {
                    prop_assert_eq!(
                        map.is_occupied_with_inflation(q, radius),
                        map.is_occupied_with_inflation_reference(q, radius),
                        "post-reresolve inflation decision diverged at {}", q
                    );
                }
                // The O(1) known counter reproduces the tree walk bit-for-bit
                // (including its dedup accounting) at every resolution.
                prop_assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
            }

            /// Every materialised leaf counts once, at each of the five
            /// resolutions and through a reresolve → insert chain: the
            /// counters match the pointer tree's leaves, and the known count
            /// is also the number of distinct in-domain cells the rays
            /// crossed, counted without either map.
            #[test]
            fn counters_count_every_leaf_once(
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                more_rays in proptest::collection::vec(arb_point(20.0), 1..12),
                new_res_shift in 0usize..RESOLUTIONS.len(),
            ) {
                let origin = Vec3::new(0.0, 0.0, 1.5);
                for res_idx in 0..RESOLUTIONS.len() {
                    let (mut arena, mut tree) = paired_maps(res_idx, &rays);
                    let mut crossed = std::collections::HashSet::new();
                    for endpoint in &rays {
                        OctoMap::for_each_ray_update(arena.grid, &origin, endpoint, |cell, _| {
                            if arena.in_domain(&arena.grid.center_of(&cell)) {
                                crossed.insert(cell);
                            }
                        });
                    }
                    prop_assert_eq!(arena.known_voxel_count(), crossed.len());
                    check_counts(&arena, &tree)?;
                    let new_res = RESOLUTIONS[(res_idx + new_res_shift) % RESOLUTIONS.len()];
                    arena = arena.reresolved(new_res);
                    tree = tree.reresolved(new_res);
                    check_counts(&arena, &tree)?;
                    for endpoint in &more_rays {
                        arena.insert_ray(&origin, endpoint);
                        tree.insert_ray(&origin, endpoint);
                    }
                    check_counts(&arena, &tree)?;
                }
            }

            /// The block map produces the same leaves (same centres, same
            /// log-odds bits) and answers point probes exactly like the
            /// pointer tree, including through a reresolve → insert chain.
            /// The block map receives the endpoints through every insertion
            /// entry point (`mode`), from origins inside and outside the
            /// domain (so clipped rays reach the key path), while the oracle
            /// always takes them ray by ray. The mask-served free list must
            /// agree with the oracle's leaf walk too.
            #[test]
            fn arena_matches_reference_tree(
                res_idx in 0usize..RESOLUTIONS.len(),
                mode in 0usize..2,
                origin in (-48.0..48.0, -48.0..48.0, -44.0..44.0)
                    .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                more_rays in proptest::collection::vec(arb_point(20.0), 1..12),
                queries in proptest::collection::vec(arb_point(24.0), 1..16),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
                let mut arena = OctoMap::new(resolution, 24.0);
                let mut tree = ReferenceMap::new(resolution, 24.0);
                insert_through(&mut arena, mode, &origin, &rays);
                for endpoint in &rays {
                    tree.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                prop_assert_eq!(arena.free_voxel_centers(), free_centers(&tree));
                for q in &queries {
                    prop_assert_eq!(arena.leaf_log_odds(q), tree.leaf_log_odds(q));
                }
                // Survives resolution switching (the dynamic-resolution
                // policy) and further insertion on the rebuilt maps.
                let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                arena = arena.reresolved(new_res);
                tree = tree.reresolved(new_res);
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                prop_assert_eq!(arena.free_voxel_centers(), free_centers(&tree));
                insert_through(&mut arena, mode, &origin, &more_rays);
                for endpoint in &more_rays {
                    tree.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                prop_assert_eq!(arena.free_voxel_centers(), free_centers(&tree));
                for q in &queries {
                    prop_assert_eq!(arena.leaf_log_odds(q), tree.leaf_log_odds(q));
                }
            }

            /// The mask-served free list returns bit-identical centres (same
            /// order, same f64 bits) as the full-tree-walk scan, and the O(1)
            /// counters match their scans, through insertion and
            /// reresolution.
            #[test]
            fn free_voxel_index_matches_tree_walk(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let (mut arena, _) = paired_maps(res_idx, &rays);
                prop_assert_eq!(arena.free_voxel_centers(), arena.free_voxel_centers_scan());
                prop_assert_eq!(arena.known_voxel_count(), arena.known_voxel_count_scan());
                prop_assert_eq!(arena.occupied_voxel_count(), arena.occupied_voxel_count_scan());
                let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                arena = arena.reresolved(new_res);
                prop_assert_eq!(arena.free_voxel_centers(), arena.free_voxel_centers_scan());
                prop_assert_eq!(arena.known_voxel_count(), arena.known_voxel_count_scan());
                prop_assert_eq!(arena.occupied_voxel_count(), arena.occupied_voxel_count_scan());
            }

            /// The block-bitmask-backed `occupied_voxel_centers` agrees with
            /// the tree walk bit-for-bit at dyadic resolutions (where leaf
            /// centres are exactly representable grid centres).
            #[test]
            fn occupied_centers_match_tree_walk_at_dyadic_resolution(
                dyadic in 0usize..2,
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
            ) {
                let resolution = [0.25, 0.5][dyadic];
                let mut map = OctoMap::new(resolution, 24.0);
                let origin = Vec3::new(0.0, 0.0, 1.5);
                for endpoint in &rays {
                    map.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(map.occupied_voxel_centers(), map.occupied_voxel_centers_scan());
            }

            /// The block-mask frontier pass lists exactly the free voxels of
            /// `free_voxel_centers` in the altitude band with an unknown
            /// face neighbour — same centre bits, same order — at every
            /// resolution, dyadic and not, from origins inside and outside
            /// the domain, and through a reresolve → insert chain.
            #[test]
            fn frontier_pass_matches_the_listed_frontiers(
                res_idx in 0usize..RESOLUTIONS.len(),
                origin in (-48.0..48.0, -48.0..48.0, -44.0..44.0)
                    .prop_map(|(x, y, z)| Vec3::new(x, y, z)),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                more_rays in proptest::collection::vec(arb_point(20.0), 1..12),
                min_z in -2.0..6.0f64,
                height in 0.0..8.0f64,
                edge_pick in (0usize..4096, 0usize..4096),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let mut map = OctoMap::new(RESOLUTIONS[res_idx % RESOLUTIONS.len()], 24.0);
                for endpoint in &rays {
                    map.insert_ray(&origin, endpoint);
                }
                let band = (min_z, min_z + height);
                check_frontier_pass(&map, band, edge_pick);
                map = map.reresolved(RESOLUTIONS[new_res_idx % RESOLUTIONS.len()]);
                check_frontier_pass(&map, band, edge_pick);
                for endpoint in &more_rays {
                    map.insert_ray(&origin, endpoint);
                }
                check_frontier_pass(&map, band, edge_pick);
            }

            /// A cleared (or reshaped) map is bit-identical to a fresh one
            /// under any subsequent ray sequence: same logical tree, same
            /// update/occupancy/known counters, same free list —
            /// the contract the episode-reuse layer rests on.
            #[test]
            fn clear_then_reinsert_matches_fresh_map(
                res_idx in 0usize..RESOLUTIONS.len(),
                warmup_rays in proptest::collection::vec(arb_point(20.0), 1..32),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let origin = Vec3::new(0.0, 0.0, 1.5);
                // Dirty a map with an unrelated ray sequence, then clear it.
                let (mut reused, _) = paired_maps(res_idx, &warmup_rays);
                reused.clear();
                let mut fresh = OctoMap::new(RESOLUTIONS[res_idx % RESOLUTIONS.len()], 24.0);
                for endpoint in &rays {
                    reused.insert_ray(&origin, endpoint);
                    fresh.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.update_count(), fresh.update_count());
                prop_assert_eq!(reused.known_voxel_count(), fresh.known_voxel_count());
                prop_assert_eq!(reused.occupied_voxel_count(), fresh.occupied_voxel_count());
                prop_assert_eq!(reused.free_voxel_centers(), fresh.free_voxel_centers());
                prop_assert_eq!(reused.occupied_voxel_centers(), fresh.occupied_voxel_centers());
                // Reshape to a different geometry: reset must equal new.
                let new_resolution = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                reused.reset(new_resolution, 30.0);
                let mut fresh = OctoMap::new(new_resolution, 30.0);
                for endpoint in &rays {
                    reused.insert_ray(&origin, endpoint);
                    fresh.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.update_count(), fresh.update_count());
                prop_assert_eq!(reused.free_voxel_centers(), fresh.free_voxel_centers());
            }
        }

        /// The O(1) counters match the full tree walk on a deterministic dyadic-
        /// resolution scenario covering rays, a dense point cloud inserted ray by
        /// ray, and the dynamic-resolution rebuild.
        #[test]
        fn counters_match_tree_walk() {
            let mut map = OctoMap::new(0.5, 32.0);
            let origin = Vec3::new(0.0, 0.0, 1.0);
            for i in -12..=12 {
                for z in [0.5, 1.0, 1.5, 2.0] {
                    map.insert_ray(&origin, &Vec3::new(10.0, i as f64 * 0.5, z));
                }
            }
            // A dense scan: many rays per voxel, all through the one insertion path.
            let mut points = Vec::new();
            for iy in -40..=40 {
                for iz in 0..14 {
                    points.push(Vec3::new(12.0, iy as f64 * 0.25, iz as f64 * 0.3));
                }
            }
            map.insert_point_cloud(&PointCloud::new(origin, points));
            assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
            assert_eq!(map.occupied_voxel_count(), map.occupied_voxel_count_scan());
            // Query equivalence holds on the densely scanned map too.
            for (a, b) in [
                (Vec3::new(-5.0, -8.0, 1.0), Vec3::new(14.0, 8.0, 2.0)),
                (Vec3::new(0.0, 0.0, 1.0), Vec3::new(9.0, 0.0, 1.0)),
            ] {
                assert_eq!(
                    map.segment_free(&a, &b, 0.33),
                    map.segment_free_reference(&a, &b, 0.33)
                );
            }
            assert!(map.occupied_voxel_count() > 50);
            assert!(map.known_voxel_count() > map.occupied_voxel_count());

            let coarse = map.reresolved(1.0);
            assert_eq!(coarse.known_voxel_count(), coarse.known_voxel_count_scan());
            assert_eq!(
                coarse.occupied_voxel_count(),
                coarse.occupied_voxel_count_scan()
            );

            let empty = OctoMap::new(0.5, 32.0);
            assert_eq!(empty.known_voxel_count(), 0);
            assert_eq!(empty.occupied_voxel_count(), 0);
        }

        /// At non-dyadic resolutions neighbouring leaf centres can round to the same
        /// `round(centre / resolution)`; the leaf walk lists each leaf once all the
        /// same, so both O(1) counters (the occupancy the collision queries see) equal
        /// the walk exactly.
        #[test]
        fn occupied_counter_matches_the_walk_at_non_dyadic_resolution() {
            let mut map = OctoMap::new(0.15, 32.0);
            let origin = Vec3::new(0.0, 0.0, 1.0);
            for i in -30..=30 {
                for z in [0.5, 1.0, 1.5, 2.0] {
                    map.insert_ray(&origin, &Vec3::new(9.0, i as f64 * 0.2, z));
                }
            }
            assert_eq!(map.occupied_voxel_count(), map.occupied_voxel_count_scan());
            assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
        }

        /// A map whose rays flip voxels occupied → free (the obstacle moved) must
        /// drop them from the index too: the inflation query may not keep reporting
        /// stale occupancy.
        #[test]
        fn index_drops_voxels_that_flip_back_to_free() {
            let mut map = OctoMap::new(0.25, 32.0);
            let origin = Vec3::new(0.0, 0.0, 1.0);
            let target = Vec3::new(5.0, 0.0, 1.0);
            map.insert_ray(&origin, &target);
            assert!(map.is_occupied_with_inflation(&target, 0.2));
            for _ in 0..10 {
                map.insert_ray(&origin, &Vec3::new(12.0, 0.0, 1.0));
            }
            assert!(!map.is_occupied_with_inflation(&target, 0.2));
            // The clearing rays' own endpoint is now the only occupied voxel.
            assert_eq!(map.occupied_voxel_count(), 1);
            assert_eq!(map.occupied_voxel_count(), map.occupied_voxel_count_scan());
        }
    }
}
