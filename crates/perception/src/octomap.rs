//! A probabilistic occupancy octree (the OctoMap kernel).
//!
//! The paper treats OctoMap generation as the dominant perception kernel of
//! Package Delivery, 3D Mapping and Search and Rescue, and builds an entire
//! case study around its resolution knob (Figs. 17–19): finer voxels cost
//! more compute per update but let the drone see narrow openings; coarser
//! voxels are cheap but inflate obstacles until doorways disappear.
//!
//! This implementation is a real octree over a cubic domain. Leaves carry
//! clamped log-odds occupancy; rays carve free space along their length and
//! mark their endpoint occupied, exactly like the original OctoMap update
//! rule.

use crate::pointcloud::PointCloud;
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

/// Configuration of the occupancy map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctoMapConfig {
    /// Voxel edge length, metres. The paper sweeps 0.15 m – 1.0 m.
    pub resolution: f64,
    /// Log-odds added on a hit.
    pub hit_log_odds: f64,
    /// Log-odds subtracted on a pass-through (miss).
    pub miss_log_odds: f64,
    /// Clamping bounds on accumulated log-odds.
    pub clamp: (f64, f64),
    /// Log-odds above which a voxel counts as occupied.
    pub occupied_threshold: f64,
    /// Maximum ray length inserted into the map, metres.
    pub max_range: f64,
}

impl OctoMapConfig {
    /// Creates a configuration with the given resolution and OctoMap's
    /// standard probabilistic parameters.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not strictly positive.
    pub fn with_resolution(resolution: f64) -> Self {
        assert!(
            resolution > 0.0,
            "resolution must be positive, got {resolution}"
        );
        OctoMapConfig {
            resolution,
            hit_log_odds: 0.85,
            miss_log_odds: 0.4,
            clamp: (-2.0, 3.5),
            occupied_threshold: 0.0,
            max_range: 30.0,
        }
    }

    /// The fine resolution (0.15 m) of the paper's case study — safe through
    /// doorways but expensive.
    pub fn fine() -> Self {
        OctoMapConfig::with_resolution(0.15)
    }

    /// The coarse resolution (0.80 m) of the paper's case study — cheap but
    /// blind to door-width openings.
    pub fn coarse() -> Self {
        OctoMapConfig::with_resolution(0.80)
    }
}

impl Default for OctoMapConfig {
    fn default() -> Self {
        OctoMapConfig::with_resolution(0.5)
    }
}

/// Absent-child sentinel of the node arena.
const NIL: u32 = u32::MAX;

/// High bit tagging an arena reference as a leaf-pool index; the low 31 bits
/// then index [`OctoMap::leaf_values`]. An untagged reference indexes
/// [`OctoMap::nodes`]. `NIL` is reserved (leaf indices stay below
/// `LEAF_BIT - 1`), so a reference is one of exactly three things: absent,
/// leaf, or interior.
const LEAF_BIT: u32 = 1 << 31;

/// Returns `true` when the arena reference points at a leaf.
fn is_leaf_ref(r: u32) -> bool {
    r != NIL && r & LEAF_BIT != 0
}

/// One entry of the incremental free-voxel index: the dedup-winning leaf of a
/// rounded-centre voxel key, as a full `collect_leaves` walk would report it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KnownLeaf {
    /// The leaf centre exactly as the octree descent accumulates it
    /// (bit-identical to what the tree walk pushes for this leaf).
    center: Vec3,
    /// DFS rank of the leaf: the root-to-leaf octant path, packed three bits
    /// per level, root octant most significant. This totally orders leaves in
    /// tree-walk order, which reproduces the walk's last-in-walk-order-wins
    /// dedup when two adjacent leaf centres round to the same voxel key (the
    /// non-dyadic-resolution merge artifact the golden fixtures pin).
    rank: u64,
    /// Whether the leaf's log-odds currently exceeds the occupied threshold.
    occupied: bool,
}

/// The probabilistic occupancy octree.
///
/// # Example
///
/// ```
/// use mav_perception::{OctoMap, OctoMapConfig, Occupancy};
/// use mav_types::Vec3;
///
/// let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.5), 64.0);
/// map.insert_ray(&Vec3::new(0.0, 0.0, 1.0), &Vec3::new(5.0, 0.0, 1.0));
/// assert_eq!(map.query(&Vec3::new(5.0, 0.0, 1.0)), Occupancy::Occupied);
/// assert_eq!(map.query(&Vec3::new(2.5, 0.0, 1.0)), Occupancy::Free);
/// assert_eq!(map.query(&Vec3::new(0.0, 0.0, 20.0)), Occupancy::Unknown);
/// ```
#[derive(Debug, Clone)]
pub struct OctoMap {
    config: OctoMapConfig,
    /// Half-extent of the cubic octree domain, metres.
    half_extent: f64,
    /// Tree depth such that leaf size <= resolution.
    depth: u32,
    /// Interior nodes of the arena-allocated octree: eight tagged child
    /// references each ([`NIL`] = absent child, high bit set = index into
    /// `leaf_values`, otherwise an index into this vector). The flat layout
    /// replaces the old boxed-enum tree, killing one heap allocation and one
    /// pointer chase per level on every descent — the cost every query, ray
    /// insertion and batched scan update used to pay.
    nodes: Vec<[u32; 8]>,
    /// Leaf log-odds values, stored inline in a flat pool and referenced by
    /// tagged indices in `nodes`.
    leaf_values: Vec<f64>,
    /// Tagged reference to the root node; [`NIL`] while nothing was observed.
    root: u32,
    grid: GridSpec,
    /// Number of leaf updates performed (a proxy for the work the kernel did).
    updates: u64,
    /// Flat spatial index over the occupied leaf voxels, maintained
    /// incrementally by every leaf update (ray insertion, batched scan
    /// insertion and re-resolution all funnel through
    /// [`OctoMap::update_leaf_apply`]). Keys are [`pack_voxel_key`]s of
    /// 4×4×4-voxel *block* coordinates; values are 64-bit occupancy masks of
    /// the block's voxels. Collision queries walk this hash index instead of
    /// descending the octree once per neighbour voxel.
    occupied_blocks: HashMap<u64, u64, VoxelHashBuilder>,
    /// Number of occupied leaf voxels, kept exactly in sync with the tree
    /// (the same per-voxel occupancy the collision queries see).
    occupied_count: usize,
    /// The incremental free-voxel index: for every rounded-centre voxel key,
    /// the dedup-winning leaf a full `collect_leaves` walk would report
    /// (centre, walk rank and occupancy flag), maintained by every leaf
    /// update. [`OctoMap::known_voxel_count`] is this map's size — the same
    /// dedup-by-rounded-centre accounting the tree walk has always used (at
    /// non-dyadic resolutions adjacent leaf centres can round to the same
    /// key; golden mission fixtures pin that behaviour) — and
    /// [`OctoMap::free_voxel_centers`] filters its values, so frontier
    /// extraction no longer pays a full-tree walk per call.
    known_leaves: HashMap<u64, KnownLeaf, VoxelHashBuilder>,
    /// Block-bitmask sibling of `occupied_blocks` over *known* (ever-observed)
    /// leaf voxels: keys are [`pack_voxel_key`]s of 4×4×4-voxel block
    /// coordinates, values are 64-bit known masks. Leaves are only ever
    /// created (never removed short of [`OctoMap::clear`]), so maintenance is
    /// one bit-set per materialised leaf. Frontier extraction answers its
    /// unknown-neighbour probes from this index instead of one octree descent
    /// per neighbour voxel.
    known_blocks: HashMap<u64, u64, VoxelHashBuilder>,
    /// Whether voxel indices of this domain fit the 21-bit key packing. All
    /// MAVBench worlds do; a multi-kilometre domain at centimetre resolution
    /// would not, and falls back to the reference tree-scan queries.
    index_packable: bool,
}

impl OctoMap {
    /// Creates an empty map covering the cube `[-half_extent, half_extent]³`
    /// (shifted up so z spans `[0, 2 × half_extent]` is *not* done — the cube
    /// is centred at the origin, which covers all MAVBench worlds).
    ///
    /// # Panics
    ///
    /// Panics if `half_extent` is not strictly positive.
    pub fn new(config: OctoMapConfig, half_extent: f64) -> Self {
        let mut map = OctoMap {
            grid: GridSpec::new(config.resolution),
            config,
            half_extent: 0.0,
            depth: 0,
            nodes: Vec::new(),
            leaf_values: Vec::new(),
            root: NIL,
            updates: 0,
            occupied_blocks: HashMap::with_hasher(VoxelHashBuilder::default()),
            occupied_count: 0,
            known_leaves: HashMap::with_hasher(VoxelHashBuilder::default()),
            known_blocks: HashMap::with_hasher(VoxelHashBuilder::default()),
            index_packable: false,
        };
        map.reset(config, half_extent);
        map
    }

    /// Empties the map back to the just-constructed state while keeping the
    /// arena, leaf pool, block-bitmask index and free-voxel index allocations
    /// (their `Vec`/`HashMap` capacities survive). The domain geometry is
    /// unchanged; use [`OctoMap::reset`] to also reshape it. Because every
    /// mutation funnels through the same leaf-update path and arena indices
    /// restart at zero, a cleared map is bit-identical to a fresh
    /// [`OctoMap::new`] under any subsequent update sequence — the property
    /// the episode-reuse layer (and its proptests) rely on.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.leaf_values.clear();
        self.root = NIL;
        self.updates = 0;
        self.occupied_blocks.clear();
        self.occupied_count = 0;
        self.known_leaves.clear();
        self.known_blocks.clear();
    }

    /// [`OctoMap::clear`] plus a domain reshape: recomputes the geometry
    /// exactly as `OctoMap::new(config, half_extent)` would (depth, aligned
    /// half-extent, traversal grid, index packability) while reusing the
    /// storage of this map. `new` is implemented on top of this, so the two
    /// cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics if `half_extent` is not strictly positive.
    pub fn reset(&mut self, config: OctoMapConfig, half_extent: f64) {
        assert!(half_extent > 0.0, "half extent must be positive");
        let leaves_per_axis = (2.0 * half_extent / config.resolution).ceil().max(1.0);
        let depth = (leaves_per_axis.log2().ceil() as u32).max(1);
        // Expand the domain so that each octree leaf is exactly one
        // `resolution`-sized voxel and leaf boundaries align with the ray
        // traversal grid; otherwise a leaf could straddle two traversal cells
        // and updates/queries would disagree near voxel boundaries.
        let aligned_half_extent = config.resolution * (1u64 << depth) as f64 / 2.0;
        let half_extent = aligned_half_extent.max(half_extent);
        self.grid = GridSpec::new(config.resolution);
        self.config = config;
        self.half_extent = half_extent;
        self.depth = depth;
        // In-domain voxel indices are bounded by half_extent / resolution;
        // query neighbourhoods only ever reach out-of-domain (hence
        // never-occupied) voxels beyond the packing range, so packability
        // of the domain itself is the only requirement.
        self.index_packable = half_extent / config.resolution < (1u64 << 20) as f64;
        self.clear();
    }

    /// The map configuration.
    pub fn config(&self) -> &OctoMapConfig {
        &self.config
    }

    /// The voxel edge length in metres.
    pub fn resolution(&self) -> f64 {
        self.config.resolution
    }

    /// The octree depth.
    pub fn depth(&self) -> u32 {
        self.depth
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

    /// Enumerates the in-domain (voxel index, voxel centre, log-odds delta)
    /// updates of one sensor ray, without touching the tree. Shared by
    /// [`OctoMap::insert_ray`] and the batched
    /// [`OctoMap::insert_point_cloud`] so the two can never disagree on ray
    /// semantics (truncation, hit vs miss, domain filtering). An associated
    /// function over copies of the cheap geometry state, so callers may
    /// mutate the tree from inside `apply`.
    fn for_each_ray_update(
        grid: GridSpec,
        config: OctoMapConfig,
        half_extent: f64,
        origin: &Vec3,
        endpoint: &Vec3,
        mut apply: impl FnMut(GridIndex, Vec3, f64),
    ) {
        let dir = *endpoint - *origin;
        let range = dir.norm();
        if range <= f64::EPSILON {
            return;
        }
        let (end, hit) = if range > config.max_range {
            (*origin + dir.normalized() * config.max_range, false)
        } else {
            (*endpoint, true)
        };
        let mut cells = RAY_CELLS.with(|c| c.take());
        grid.traverse_into(origin, &end, &mut cells);
        let n = cells.len();
        for (i, &cell) in cells.iter().enumerate() {
            let center = grid.center_of(&cell);
            if center.x.abs() > half_extent
                || center.y.abs() > half_extent
                || center.z.abs() > half_extent
            {
                continue;
            }
            let is_endpoint = i + 1 == n;
            let delta = if is_endpoint && hit {
                config.hit_log_odds
            } else {
                -config.miss_log_odds
            };
            apply(cell, center, delta);
        }
        RAY_CELLS.with(|c| *c.borrow_mut() = cells);
    }

    /// Integrates a single sensor ray: every voxel between `origin` and
    /// `endpoint` (exclusive) is updated as free, the endpoint voxel as
    /// occupied. Rays longer than `max_range` are truncated and their endpoint
    /// treated as free space (no hit).
    pub fn insert_ray(&mut self, origin: &Vec3, endpoint: &Vec3) {
        let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
        Self::for_each_ray_update(
            grid,
            config,
            half_extent,
            origin,
            endpoint,
            |_cell, center, delta| self.update_leaf(&center, delta),
        );
    }

    /// Batched insertion pays for its per-crossing bookkeeping only when many
    /// rays cross each voxel. Sharing grows with ray density and voxel size;
    /// `points × resolution²` is the calibrated proxy (criterion octomap
    /// bench, BENCH_pr2.json): below ≈250 ray-by-ray insertion wins, above it
    /// batching wins (up to ~1.45X on dense scans at coarse resolutions).
    const BATCH_SHARING_THRESHOLD: f64 = 250.0;

    /// Integrates a whole point cloud captured from `cloud.origin`.
    ///
    /// When the scan is dense relative to the voxel size (see
    /// the internal `BATCH_SHARING_THRESHOLD`), updates are batched per voxel
    /// before any tree traversal: voxels close to the sensor are crossed by
    /// almost every ray of the scan, so grouping the scan's (voxel → ordered
    /// deltas) first and descending the octree once per *voxel* instead of
    /// once per *ray crossing* removes the bulk of the traversal work. Both
    /// paths produce bit-identical maps (see the equivalence test): per-voxel
    /// delta order (ray order) is preserved and each delta is clamped
    /// individually.
    pub fn insert_point_cloud(&mut self, cloud: &PointCloud) {
        let sharing = cloud.len() as f64 * self.config.resolution * self.config.resolution;
        // The batched path packs voxel indices into 21 bits per axis; a
        // domain wider than that (multi-km at centimetre resolution) must
        // take the ray-by-ray path or distinct voxels would alias.
        if sharing < Self::BATCH_SHARING_THRESHOLD || !self.index_packable {
            let origin = cloud.origin;
            for point in cloud.iter() {
                self.insert_ray(&origin, &point);
            }
        } else {
            self.insert_point_cloud_batched(cloud);
        }
    }

    /// The batched insertion path: group per-voxel deltas across the whole
    /// scan in first-touch order, then apply each voxel's ordered sequence in
    /// one tree descent.
    ///
    /// Hash-map iteration order never leaks into the output. The first delta
    /// is stored inline: far voxels are crossed by a single ray, so the
    /// common case needs no spill allocation at all. In-domain voxel indices
    /// are bounded by half_extent / resolution, so the key packs into one u64
    /// and costs a single hash mix per crossing. The table is sized for
    /// *distinct* voxels, not crossings: this path only runs when many rays
    /// share each voxel (the sharing gate above), so dividing the crossing
    /// estimate by a conservative sharing factor avoids allocating a table an
    /// order of magnitude too large on every mapping tick.
    ///
    /// The grouping buffers come from a per-thread [`GroupScratch`], so the
    /// steady-state mapping tick performs no grouping allocations at all —
    /// the table, the entry vector and the spill vectors of the previous scan
    /// are all recycled.
    fn insert_point_cloud_batched(&mut self, cloud: &PointCloud) {
        let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
        let clamp = config.clamp;
        let origin = cloud.origin;
        GROUP_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.recycle();
            let crossings_estimate =
                (cloud.len() as f64 * (config.max_range / config.resolution)) as usize;
            let desired = (crossings_estimate / 8).clamp(64, 1 << 18);
            if scratch.index_of.capacity() < desired {
                scratch.index_of.reserve(desired);
            }
            let GroupScratch {
                index_of,
                grouped,
                spare,
            } = scratch;
            for point in cloud.iter() {
                Self::for_each_ray_update(
                    grid,
                    config,
                    half_extent,
                    &origin,
                    &point,
                    |cell, center, delta| match index_of.entry(pack_voxel_key(&cell)) {
                        std::collections::hash_map::Entry::Occupied(slot) => {
                            grouped[*slot.get() as usize].2.push(delta);
                        }
                        std::collections::hash_map::Entry::Vacant(slot) => {
                            slot.insert(grouped.len() as u32);
                            let rest = spare.pop().unwrap_or_default();
                            grouped.push((center, delta, rest));
                        }
                    },
                );
            }
            for (center, first, rest) in grouped.iter() {
                let count = 1 + rest.len() as u64;
                self.update_leaf_apply(center, count, |log_odds| {
                    *log_odds = (*log_odds + first).clamp(clamp.0, clamp.1);
                    for delta in rest {
                        *log_odds = (*log_odds + delta).clamp(clamp.0, clamp.1);
                    }
                });
            }
        });
    }

    /// Occupancy of the voxel containing `point`.
    pub fn query(&self, point: &Vec3) -> Occupancy {
        if !self.in_domain(point) {
            return Occupancy::Unknown;
        }
        match self.leaf_log_odds(point) {
            None => Occupancy::Unknown,
            Some(l) if l > self.config.occupied_threshold => Occupancy::Occupied,
            Some(_) => Occupancy::Free,
        }
    }

    /// Returns `true` when a vehicle of half-width `radius` centred at `point`
    /// overlaps any occupied *or unknown-adjacent* voxel. Unknown space is
    /// treated as free here; planners that must be conservative should also
    /// call [`OctoMap::query`] on the point itself.
    ///
    /// Decision-identical to
    /// [`OctoMap::is_occupied_with_inflation_reference`] (property-tested),
    /// but served from the occupied-voxel hash index: instead of one octree
    /// descent per neighbour voxel, the query enumerates the few occupied
    /// voxels inside the inflation cube straight from the block bitmasks and
    /// classifies each against a precomputed offset ball.
    pub fn is_occupied_with_inflation(&self, point: &Vec3, radius: f64) -> bool {
        if !self.index_packable {
            return self.is_occupied_with_inflation_reference(point, radius);
        }
        if self.occupied_count == 0 {
            return false;
        }
        let r = radius.max(0.0);
        let reach = r + self.config.resolution * 0.87;
        let steps = (r / self.config.resolution).ceil() as i64;
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
        let ball = offset_ball(self.config.resolution, r);
        self.scan_occupied_box(&lo, &hi, |v| {
            match ball.class(v.x - center_idx.x, v.y - center_idx.y, v.z - center_idx.z) {
                BALL_NEVER => false,
                BALL_ALWAYS => true,
                _ => self.grid.center_of(&v).distance(point) <= reach,
            }
        })
    }

    /// [`OctoMap::is_occupied_with_inflation`], but returning the *centre of
    /// the occupied voxel* that blocks the inflated vehicle (PR 5's
    /// blocking-voxel reporting), or `None` when the point is free. The
    /// `Some`/`None` decision is exactly the inflation predicate's; which of
    /// several blocking voxels is reported follows the query's scan order, so
    /// callers should treat it as "an occupied voxel inside the inflation
    /// ball", not a canonical nearest one.
    pub fn blocking_voxel_with_inflation(&self, point: &Vec3, radius: f64) -> Option<Vec3> {
        let r = radius.max(0.0);
        if !self.index_packable {
            // Reference fallback (domains too wide for 21-bit voxel keys):
            // the same cube walk as the reference predicate, returning the
            // first occupied voxel centre it accepts.
            let steps = (r / self.config.resolution).ceil() as i64;
            let center_idx = self.grid.index_of(point);
            for dx in -steps..=steps {
                for dy in -steps..=steps {
                    for dz in -steps..=steps {
                        let idx =
                            GridIndex::new(center_idx.x + dx, center_idx.y + dy, center_idx.z + dz);
                        let c = self.grid.center_of(&idx);
                        if c.distance(point) <= r + self.config.resolution * 0.87
                            && self.query(&c) == Occupancy::Occupied
                        {
                            return Some(c);
                        }
                    }
                }
            }
            return None;
        }
        if self.occupied_count == 0 {
            return None;
        }
        let reach = r + self.config.resolution * 0.87;
        let steps = (r / self.config.resolution).ceil() as i64;
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
        let ball = offset_ball(self.config.resolution, r);
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

    /// The pre-index inflation query: one full octree descent per voxel of
    /// the inflation cube. Kept verbatim as the executable specification the
    /// indexed query is property-tested against, and as the fallback for
    /// domains too wide for 21-bit voxel keys.
    pub fn is_occupied_with_inflation_reference(&self, point: &Vec3, radius: f64) -> bool {
        let r = radius.max(0.0);
        let steps = (r / self.config.resolution).ceil() as i64;
        let center_idx = self.grid.index_of(point);
        for dx in -steps..=steps {
            for dy in -steps..=steps {
                for dz in -steps..=steps {
                    let idx =
                        GridIndex::new(center_idx.x + dx, center_idx.y + dy, center_idx.z + dz);
                    let c = self.grid.center_of(&idx);
                    if c.distance(point) <= r + self.config.resolution * 0.87
                        && self.query(&c) == Occupancy::Occupied
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Returns `true` when the straight segment between `a` and `b`, swept by
    /// a vehicle of half-width `radius`, avoids every occupied voxel.
    ///
    /// Decision-identical to [`OctoMap::segment_free_reference`]
    /// (property-tested). The fast path walks the segment's crossed voxels
    /// with the grid DDA and probes the occupied-voxel index over the swept
    /// corridor — one bitmask probe per block instead of re-querying the
    /// whole inflation neighbourhood at every half-resolution sample. Only
    /// when the corridor contains an occupied voxel does the exact sampled
    /// predicate run (against the indexed point query), so the common
    /// planner case — a free segment — never touches the octree at all.
    pub fn segment_free(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        if !self.index_packable {
            return self.segment_free_reference(a, b, radius);
        }
        if self.occupied_count == 0 {
            return true;
        }
        if self.segment_corridor_clear(a, b, radius) {
            return true;
        }
        // An occupied voxel sits near the swept corridor: fall back to the
        // exact sampled predicate (every candidate an old sample could see is
        // inside the corridor, so the prefilter never hides a collision).
        let dist = a.distance(b);
        let step = (self.config.resolution * 0.5).max(0.05);
        let samples = ((dist / step).ceil() as usize).max(1);
        for i in 0..=samples {
            let t = i as f64 / samples as f64;
            let p = a.lerp(b, t);
            if self.is_occupied_with_inflation(&p, radius) {
                return false;
            }
        }
        true
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
        if self.index_packable {
            if self.occupied_count == 0 {
                return None;
            }
            if self.segment_corridor_clear(a, b, radius) {
                return None;
            }
        }
        // An occupied voxel sits near the corridor (or the domain is too wide
        // for the index): run the exact sampled predicate once and report the
        // voxel blocking the first blocked sample.
        let dist = a.distance(b);
        let step = (self.config.resolution * 0.5).max(0.05);
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

    /// The pre-index swept-segment predicate: a point sample every
    /// half-resolution, each paying a full inflation-cube tree scan. Kept as
    /// the executable specification [`OctoMap::segment_free`] is
    /// property-tested against.
    pub fn segment_free_reference(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        let dist = a.distance(b);
        let step = (self.config.resolution * 0.5).max(0.05);
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

    /// DDA prefilter for [`OctoMap::segment_free`]: walks the voxels crossed
    /// by the segment and probes the occupied-voxel index over an inflated
    /// corridor around them. Returns `true` when no occupied voxel lies
    /// anywhere in the corridor — which proves the sampled predicate free,
    /// because every voxel a sample's inflation cube can inspect is within
    /// `ceil(radius / resolution)` cells of the sample's own voxel, and every
    /// sample's voxel is within one cell of a crossed voxel (samples lie on
    /// the segment; the extra `+ 1` of padding absorbs corner-cutting and
    /// floating-point straddle at cell boundaries).
    fn segment_corridor_clear(&self, a: &Vec3, b: &Vec3, radius: f64) -> bool {
        let pad = (radius.max(0.0) / self.config.resolution).ceil() as i64 + 1;
        let mut cells = RAY_CELLS.with(|c| c.take());
        self.grid.traverse_into(a, b, &mut cells);
        let clear = self.corridor_cells_clear(&cells, pad);
        RAY_CELLS.with(|c| *c.borrow_mut() = cells);
        clear
    }

    /// The probe loop of [`OctoMap::segment_corridor_clear`] over an
    /// already-traversed cell sequence.
    fn corridor_cells_clear(&self, cells: &[GridIndex], pad: i64) -> bool {
        let mut prev: Option<GridIndex> = None;
        for &cell in cells {
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
            if occupied_near {
                return false;
            }
            prev = Some(cell);
        }
        true
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
                    let Some(key) = pack_voxel_key_checked(&GridIndex::new(bx, by, bz)) else {
                        // Beyond the packing range means beyond the (packable)
                        // domain: those voxels are unobservable, never occupied.
                        continue;
                    };
                    let Some(&mask) = self.occupied_blocks.get(&key) else {
                        continue;
                    };
                    // Cut the box window out of the block: bit i = x + 4y +
                    // 16z, so the x range replicates over all 16 nibbles, the
                    // y range expands to nibbles replicated over the four z
                    // groups, and the z range expands to 16-bit groups.
                    let window = mask
                        & (axis_bits(lo.x, hi.x, bx) * 0x1111_1111_1111_1111)
                        & (NIBBLE_EXPAND[axis_bits(lo.y, hi.y, by) as usize]
                            * 0x0001_0001_0001_0001)
                        & GROUP_EXPAND[axis_bits(lo.z, hi.z, bz) as usize];
                    let mut m = window;
                    while m != 0 {
                        let bit = m.trailing_zeros() as i64;
                        m &= m - 1;
                        let v = GridIndex::new(
                            bx * 4 + (bit & 3),
                            by * 4 + ((bit >> 2) & 3),
                            bz * 4 + (bit >> 4),
                        );
                        if visit(v) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Number of occupied leaf voxels. O(1): served from the incrementally
    /// maintained counter (see [`OctoMap::known_voxel_count_scan`] for the
    /// tree-walk the counters are regression-tested against).
    pub fn occupied_voxel_count(&self) -> usize {
        self.occupied_count
    }

    /// Number of observed (free or occupied) leaf voxels. O(1): the size of
    /// the incrementally maintained key set, which reproduces the historical
    /// tree-walk accounting exactly (including its dedup by rounded centre).
    pub fn known_voxel_count(&self) -> usize {
        if self.index_packable {
            self.known_leaves.len()
        } else {
            self.known_voxel_count_scan()
        }
    }

    /// [`OctoMap::occupied_voxel_count`] recomputed by a full tree walk — the
    /// pre-index implementation, kept as the regression oracle for the O(1)
    /// counter. Caveat inherited from the internal `collect_leaves` walk: at
    /// non-dyadic resolutions the walk can merge adjacent leaves whose noisy
    /// centres round to the same key, so it may run a few voxels *below* the
    /// exact per-leaf count the collision queries (and the O(1) counter)
    /// use; at dyadic resolutions the two agree exactly.
    pub fn occupied_voxel_count_scan(&self) -> usize {
        self.collect_leaves()
            .iter()
            .filter(|(_, l)| *l > self.config.occupied_threshold)
            .count()
    }

    /// [`OctoMap::known_voxel_count`] recomputed by a full tree walk — the
    /// pre-index implementation, kept as the regression oracle for the O(1)
    /// counter.
    pub fn known_voxel_count_scan(&self) -> usize {
        self.collect_leaves().len()
    }

    /// Volume of observed space in cubic metres.
    pub fn mapped_volume(&self) -> f64 {
        self.known_voxel_count() as f64 * self.config.resolution.powi(3)
    }

    /// Centres of all known free voxels. Frontier extraction builds on this.
    ///
    /// Served from the incremental free-voxel index — O(known voxels) with no
    /// tree traversal — and bit-identical (centres, set membership and order)
    /// to the full-walk [`OctoMap::free_voxel_centers_scan`] it replaced,
    /// which remains as the regression oracle and the fallback for domains
    /// too wide for the voxel-key packing.
    pub fn free_voxel_centers(&self) -> Vec<Vec3> {
        let mut centers = Vec::new();
        self.free_voxel_centers_into(&mut centers);
        centers
    }

    /// [`OctoMap::free_voxel_centers`] into a caller-supplied buffer (cleared
    /// first), so a per-replan caller — frontier extraction ticks this every
    /// planning cycle — reuses one allocation instead of collecting a fresh
    /// `Vec` per call. Contents and order are identical to the allocating
    /// variant, which is implemented on top of this.
    pub fn free_voxel_centers_into(&self, centers: &mut Vec<Vec3>) {
        centers.clear();
        if !self.index_packable {
            centers.extend(self.free_voxel_centers_scan());
            return;
        }
        centers.extend(
            self.known_leaves
                .values()
                .filter(|leaf| !leaf.occupied)
                .map(|leaf| leaf.center),
        );
        // `total_cmp` + unstable sort orders identically to the historical
        // stable partial_cmp tuple sort here: centres are finite, never ±0.0
        // (they sit at (k + ½)·resolution) and pairwise distinct, so the two
        // comparators agree and stability cannot matter — while the unstable
        // sort skips the merge-sort temp buffer this hot path paid per call.
        centers.sort_unstable_by(|a, b| {
            a.x.total_cmp(&b.x)
                .then(a.y.total_cmp(&b.y))
                .then(a.z.total_cmp(&b.z))
        });
    }

    /// [`OctoMap::free_voxel_centers`] recomputed by a full tree walk — the
    /// pre-index implementation, kept as the executable specification the
    /// incremental free-voxel index is tested against.
    pub fn free_voxel_centers_scan(&self) -> Vec<Vec3> {
        self.collect_leaves()
            .into_iter()
            .filter(|(_, l)| *l <= self.config.occupied_threshold)
            .map(|(c, _)| c)
            .collect()
    }

    /// Centres of all occupied voxels.
    ///
    /// Served from the occupied block-bitmask index: one `center_of` per set
    /// mask bit instead of a full tree walk. Unlike the historical walk this
    /// is exact per-leaf (the walk's rounded-centre dedup could merge two
    /// adjacent leaves at non-dyadic resolutions, see
    /// [`OctoMap::occupied_voxel_count_scan`]), and centres are the grid's
    /// canonical voxel centres. The tree walk remains as
    /// [`OctoMap::occupied_voxel_centers_scan`].
    pub fn occupied_voxel_centers(&self) -> Vec<Vec3> {
        let mut centers = Vec::new();
        self.occupied_voxel_centers_into(&mut centers);
        centers
    }

    /// [`OctoMap::occupied_voxel_centers`] into a caller-supplied buffer
    /// (cleared first), the zero-allocation sibling of
    /// [`OctoMap::free_voxel_centers_into`]. Contents and order are identical
    /// to the allocating variant, which is implemented on top of this.
    pub fn occupied_voxel_centers_into(&self, centers: &mut Vec<Vec3>) {
        centers.clear();
        if !self.index_packable {
            centers.extend(self.occupied_voxel_centers_scan());
            return;
        }
        centers.reserve(self.occupied_count);
        for (&key, &mask) in &self.occupied_blocks {
            let block = unpack_voxel_key(key);
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as i64;
                m &= m - 1;
                let voxel = GridIndex::new(
                    block.x * 4 + (bit & 3),
                    block.y * 4 + ((bit >> 2) & 3),
                    block.z * 4 + (bit >> 4),
                );
                centers.push(self.grid.center_of(&voxel));
            }
        }
        // Same comparator-equivalence argument as `free_voxel_centers_into`.
        centers.sort_unstable_by(|a, b| {
            a.x.total_cmp(&b.x)
                .then(a.y.total_cmp(&b.y))
                .then(a.z.total_cmp(&b.z))
        });
    }

    /// [`OctoMap::occupied_voxel_centers`] recomputed by a full tree walk —
    /// the pre-index implementation, kept as the regression oracle for the
    /// block-bitmask enumeration.
    pub fn occupied_voxel_centers_scan(&self) -> Vec<Vec3> {
        self.collect_leaves()
            .into_iter()
            .filter(|(_, l)| *l > self.config.occupied_threshold)
            .map(|(c, _)| c)
            .collect()
    }

    /// Returns `true` when the voxel containing `point` has never been
    /// observed.
    pub fn is_unknown(&self, point: &Vec3) -> bool {
        self.query(point) == Occupancy::Unknown
    }

    /// Returns `true` when any of the 6 face-neighbour voxels of the voxel
    /// containing `point` is unknown — the frontier predicate, asked once per
    /// free voxel every replan.
    ///
    /// Decision-identical to probing `point ± resolution` along each axis
    /// with [`OctoMap::is_unknown`] (property-tested), but served from the
    /// known-voxel block bitmasks: six hash-indexed bit tests instead of six
    /// octree descents. An out-of-domain neighbour has no leaf, so it reads
    /// as unknown from the index exactly as [`OctoMap::query`] reports it;
    /// neighbour indices sit at most one voxel outside the domain, within the
    /// alias-free range of the 21-bit key packing. Domains too wide for the
    /// packing fall back to the probe loop.
    pub fn has_unknown_neighbor6(&self, point: &Vec3) -> bool {
        if !self.index_packable {
            let r = self.config.resolution;
            return [
                Vec3::new(r, 0.0, 0.0),
                Vec3::new(-r, 0.0, 0.0),
                Vec3::new(0.0, r, 0.0),
                Vec3::new(0.0, -r, 0.0),
                Vec3::new(0.0, 0.0, r),
                Vec3::new(0.0, 0.0, -r),
            ]
            .iter()
            .any(|d| self.is_unknown(&(*point + *d)));
        }
        let idx = self.grid.index_of(point);
        idx.neighbors6().iter().any(|n| {
            let (block, bit) = block_of(n);
            self.known_blocks
                .get(&pack_voxel_key(&block))
                .is_none_or(|mask| mask & bit == 0)
        })
    }

    /// Rebuilds this map's observations into a new map at a different
    /// resolution (the dynamic-resolution policy of the paper's energy case
    /// study switches between 0.15 m and 0.80 m at runtime).
    pub fn reresolved(&self, new_resolution: f64) -> OctoMap {
        let mut config = self.config;
        config.resolution = new_resolution;
        let mut out = OctoMap::new(config, self.half_extent);
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
    // Internal octree machinery.
    // ------------------------------------------------------------------

    /// Read-only descent to the leaf covering `point`: its log-odds, or
    /// `None` when no leaf exists on the path.
    fn leaf_log_odds(&self, point: &Vec3) -> Option<f64> {
        let mut r = self.root;
        let mut center = Vec3::ZERO;
        let mut half = self.half_extent;
        for _ in 0..self.depth {
            if r == NIL {
                return None;
            }
            if r & LEAF_BIT != 0 {
                return Some(self.leaf_values[(r & !LEAF_BIT) as usize]);
            }
            let (idx, child_center) = child_of(point, &center, half);
            r = self.nodes[r as usize][idx];
            center = child_center;
            half /= 2.0;
        }
        if is_leaf_ref(r) {
            Some(self.leaf_values[(r & !LEAF_BIT) as usize])
        } else {
            None
        }
    }

    /// Allocates an interior node with no children, returning its reference.
    fn alloc_inner(&mut self) -> u32 {
        let index = self.nodes.len() as u32;
        assert!(
            index < LEAF_BIT,
            "octree arena interior-node pool exhausted"
        );
        self.nodes.push([NIL; 8]);
        index
    }

    /// Allocates a leaf holding `value`, returning its tagged reference.
    fn alloc_leaf(&mut self, value: f64) -> u32 {
        let index = self.leaf_values.len() as u32;
        assert!(index < LEAF_BIT - 1, "octree arena leaf pool exhausted");
        self.leaf_values.push(value);
        LEAF_BIT | index
    }

    /// Reads the arena slot `(parent, octant)`; a [`NIL`] parent means the
    /// root slot.
    fn read_slot(&self, slot: (u32, usize)) -> u32 {
        if slot.0 == NIL {
            self.root
        } else {
            self.nodes[slot.0 as usize][slot.1]
        }
    }

    /// Overwrites the arena slot `(parent, octant)` with `node`.
    fn write_slot(&mut self, slot: (u32, usize), node: u32) {
        if slot.0 == NIL {
            self.root = node;
        } else {
            self.nodes[slot.0 as usize][slot.1] = node;
        }
    }

    fn update_leaf(&mut self, point: &Vec3, delta: f64) {
        let clamp = self.config.clamp;
        self.update_leaf_apply(point, 1, move |log_odds| {
            *log_odds = (*log_odds + delta).clamp(clamp.0, clamp.1);
        });
    }

    /// Applies `apply` to the leaf value containing `point` in a single tree
    /// descent, recording `count` leaf updates. Batched scan insertion folds
    /// a whole voxel's ordered delta sequence through one descent this way.
    ///
    /// Every mutation of a leaf's log-odds flows through here — single rays,
    /// batched scans and [`OctoMap::reresolved`] alike — so this is the one
    /// place the occupied-voxel index and the O(1) counters are kept in sync
    /// with the tree.
    fn update_leaf_apply<F: FnOnce(&mut f64)>(&mut self, point: &Vec3, count: u64, apply: F) {
        if !self.in_domain(point) {
            return;
        }
        let touch = self.descend_apply(point, apply);
        self.updates += count;
        let threshold = self.config.occupied_threshold;
        let now = touch.after > threshold;
        if touch.created && self.index_packable {
            // The same dedup key collect_leaves() computes from this leaf's
            // centre during a tree walk (bit-identical: the descent
            // accumulates the centre with the exact additions the walk uses).
            // When two leaves collide on a key, the one later in walk order
            // wins, exactly as the walk's last-wins dedup insert decides.
            let res = self.config.resolution;
            let key = pack_voxel_key(&GridIndex::new(
                (touch.center.x / res).round() as i64,
                (touch.center.y / res).round() as i64,
                (touch.center.z / res).round() as i64,
            ));
            let leaf = KnownLeaf {
                center: touch.center,
                rank: touch.rank,
                occupied: now,
            };
            match self.known_leaves.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut entry) => {
                    if entry.get().rank <= touch.rank {
                        entry.insert(leaf);
                    }
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(leaf);
                }
            }
            // A materialised leaf marks its voxel known forever (leaves are
            // never removed short of `clear`), so the known-block index is
            // append-only. Keyed off the leaf centre exactly like the
            // occupied-block index below.
            let idx = self.grid.index_of(&touch.center);
            let (block, bit) = block_of(&idx);
            *self.known_blocks.entry(pack_voxel_key(&block)).or_insert(0) |= bit;
        }
        let was = !touch.created && touch.before > threshold;
        if was == now {
            return;
        }
        if now {
            self.occupied_count += 1;
        } else {
            self.occupied_count -= 1;
        }
        if self.index_packable {
            if !touch.created {
                // Keep the free-voxel index's occupancy flag in step — but
                // only when the crossing leaf is its key's dedup winner; a
                // shadowed leaf is invisible to the tree walk this index
                // mirrors.
                let res = self.config.resolution;
                let key = pack_voxel_key(&GridIndex::new(
                    (touch.center.x / res).round() as i64,
                    (touch.center.y / res).round() as i64,
                    (touch.center.z / res).round() as i64,
                ));
                if let Some(entry) = self.known_leaves.get_mut(&key) {
                    if entry.rank == touch.rank {
                        entry.occupied = now;
                    }
                }
            }
            // Key the index entry off the *leaf's own centre* (mid-cell, so
            // never within floating-point noise of a cell boundary), not the
            // update point: an update point sitting exactly on a boundary
            // then maps to whichever leaf the descent actually touched.
            let idx = self.grid.index_of(&touch.center);
            let (block, bit) = block_of(&idx);
            let key = pack_voxel_key(&block);
            if now {
                *self.occupied_blocks.entry(key).or_insert(0) |= bit;
            } else if let Some(mask) = self.occupied_blocks.get_mut(&key) {
                *mask &= !bit;
                if *mask == 0 {
                    self.occupied_blocks.remove(&key);
                }
            }
        }
    }

    /// The mutating arena descent: walks (and where needed materialises) the
    /// path from the root to the leaf covering `point`, applies `apply` to
    /// its log-odds, and reports what happened. Semantically identical to the
    /// old recursive pointer-tree update, including the coarse-leaf pushdown
    /// (the leaf slot rides down into the descended octant, so no pool entry
    /// is orphaned) and the replace-an-interior-node-at-full-depth repair.
    fn descend_apply<F: FnOnce(&mut f64)>(&mut self, point: &Vec3, apply: F) -> LeafTouch {
        if self.root == NIL {
            self.root = self.alloc_inner();
        }
        // `(NIL, _)` addresses the root slot; see `read_slot`/`write_slot`.
        let mut slot: (u32, usize) = (NIL, 0);
        let mut center = Vec3::ZERO;
        let mut half = self.half_extent;
        let mut rank: u64 = 0;
        let mut created = false;
        let mut remaining = self.depth;
        loop {
            let r = self.read_slot(slot);
            if remaining == 0 {
                if is_leaf_ref(r) {
                    let value = &mut self.leaf_values[(r & !LEAF_BIT) as usize];
                    let before = *value;
                    apply(value);
                    return LeafTouch {
                        created,
                        before,
                        after: *value,
                        center,
                        rank,
                    };
                }
                // Should be a leaf; replace an inner node if one snuck in.
                let mut log_odds = 0.0;
                apply(&mut log_odds);
                let leaf = self.alloc_leaf(log_odds);
                self.write_slot(slot, leaf);
                return LeafTouch {
                    created: true,
                    before: 0.0,
                    after: log_odds,
                    center,
                    rank,
                };
            }
            if is_leaf_ref(r) {
                // A coarse leaf observed at a shallower depth: refine it by
                // pushing its value down along the descended octant (simple
                // expansion), reusing the leaf's pool slot.
                let inner = self.alloc_inner();
                self.write_slot(slot, inner);
                let (idx, child_center) = child_of(point, &center, half);
                self.nodes[inner as usize][idx] = r;
                slot = (inner, idx);
                center = child_center;
                half /= 2.0;
                remaining -= 1;
                rank = (rank << 3) | idx as u64;
                continue;
            }
            let (idx, child_center) = child_of(point, &center, half);
            if self.nodes[r as usize][idx] == NIL {
                let child = if remaining == 1 {
                    // A leaf materialised by this descent is a newly observed
                    // voxel.
                    created = true;
                    self.alloc_leaf(0.0)
                } else {
                    self.alloc_inner()
                };
                self.nodes[r as usize][idx] = child;
            }
            slot = (r, idx);
            center = child_center;
            half /= 2.0;
            remaining -= 1;
            rank = (rank << 3) | idx as u64;
        }
    }

    fn collect_leaves(&self) -> Vec<(Vec3, f64)> {
        let mut out = Vec::new();
        if self.root != NIL {
            self.collect_arena(self.root, Vec3::ZERO, self.half_extent, &mut out);
        }
        // Merge duplicates (possible when a coarse leaf was later refined) by
        // keeping the most recently observed value — here, simply the last.
        let mut dedup: HashMap<(i64, i64, i64), (Vec3, f64)> = HashMap::new();
        for (c, l) in out {
            let key = (
                (c.x / self.config.resolution).round() as i64,
                (c.y / self.config.resolution).round() as i64,
                (c.z / self.config.resolution).round() as i64,
            );
            dedup.insert(key, (c, l));
        }
        let mut v: Vec<(Vec3, f64)> = dedup.into_values().collect();
        // Chained `total_cmp` ≡ the historical `partial_cmp` tuple sort:
        // leaf centres sit at (k + ½)·resolution, so they are finite, never
        // ±0.0, and pairwise distinct after the dedup — the comparators can
        // only disagree on values that never occur here (same argument as
        // the `free_voxel_centers_into` hot path).
        v.sort_by(|a, b| {
            a.0.x
                .total_cmp(&b.0.x)
                .then(a.0.y.total_cmp(&b.0.y))
                .then(a.0.z.total_cmp(&b.0.z))
        });
        v
    }
}

/// What one tree descent did to the leaf it reached: whether the leaf was
/// created by this update, its log-odds before and after, the leaf's own
/// centre (the authoritative identity of the voxel it covers) and its DFS
/// rank (see [`KnownLeaf::rank`]). This is what keeps the occupied-voxel and
/// free-voxel indexes and the O(1) counters exact.
struct LeafTouch {
    created: bool,
    before: f64,
    after: f64,
    center: Vec3,
    rank: u64,
}

/// Packs an in-domain voxel index into one u64 key (21 bits per axis,
/// offset-biased). Domain-filtered indices are far below the 2^20 bound:
/// even a 200 m domain at 0.10 m resolution spans only ±2000 cells.
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

/// [`pack_voxel_key`] for query neighbourhoods, which may legitimately reach
/// beyond the packing range: on a packable domain any index at or beyond
/// ±2^20 has its centre outside the octree domain, so `None` simply means
/// "unobservable, never occupied".
fn pack_voxel_key_checked(cell: &GridIndex) -> Option<u64> {
    const BIAS: i64 = 1 << 20;
    if cell.x.abs() < BIAS && cell.y.abs() < BIAS && cell.z.abs() < BIAS {
        Some(pack_voxel_key(cell))
    } else {
        None
    }
}

/// Reusable buffers of the batched-insertion grouping pass: the voxel-key
/// table, the first-touch-ordered entry vector and a pool of recycled spill
/// vectors (the per-voxel `Vec<f64>` of later deltas). Held per thread by
/// `GROUP_SCRATCH`; after the first scan on a thread the steady-state mapping
/// tick groups without allocating.
#[derive(Debug, Default)]
struct GroupScratch {
    index_of: HashMap<u64, u32, VoxelHashBuilder>,
    grouped: Vec<(Vec3, f64, Vec<f64>)>,
    spare: Vec<Vec<f64>>,
}

impl GroupScratch {
    /// Clears the table and entry vector for the next scan, moving every
    /// spill vector that actually holds an allocation into the spare pool.
    fn recycle(&mut self) {
        self.index_of.clear();
        for (_, _, mut rest) in self.grouped.drain(..) {
            if rest.capacity() > 0 {
                rest.clear();
                self.spare.push(rest);
            }
        }
    }
}

thread_local! {
    /// Per-thread grouping buffers for the serial batched insertion path.
    static GROUP_SCRATCH: RefCell<GroupScratch> = RefCell::new(GroupScratch::default());
    /// Per-thread DDA cell buffer shared by ray insertion and the segment
    /// corridor prefilter — the two per-call traversals hot enough to show up
    /// in episode allocation counts. Take/replace (not borrow-across-call) so
    /// an unexpected nesting falls back to a fresh allocation instead of a
    /// RefCell panic.
    static RAY_CELLS: RefCell<Vec<GridIndex>> = const { RefCell::new(Vec::new()) };
}

/// Splits a voxel index into its 4×4×4 block coordinates and the block-local
/// occupancy bit (bit = x + 4·y + 16·z over the euclidean remainders).
fn block_of(idx: &GridIndex) -> (GridIndex, u64) {
    let block = GridIndex::new(
        idx.x.div_euclid(4),
        idx.y.div_euclid(4),
        idx.z.div_euclid(4),
    );
    let bit = idx.x.rem_euclid(4) + 4 * idx.y.rem_euclid(4) + 16 * idx.z.rem_euclid(4);
    (block, 1u64 << bit)
}

/// 4-bit mask of the block-local coordinates (0..4) of block `b` that fall
/// inside the inclusive axis range `[lo, hi]` (in voxel coordinates). Empty
/// intersections cannot occur: blocks are only enumerated over the box.
fn axis_bits(lo: i64, hi: i64, b: i64) -> u64 {
    let a = (lo.max(b * 4) - b * 4) as u32;
    let c = (hi.min(b * 4 + 3) - b * 4) as u32;
    ((1u64 << (c + 1)) - (1u64 << a)) & 0xF
}

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

thread_local! {
    /// Per-thread cache of classified inflation balls. Planners query one or
    /// two radii per mission, so a small linear map beats hashing.
    static OFFSET_BALLS: RefCell<Vec<CachedBall>> = const { RefCell::new(Vec::new()) };
}

/// The classified inflation ball for `(resolution, radius)`, built on first
/// use per thread.
fn offset_ball(resolution: f64, radius: f64) -> Rc<OffsetBall> {
    let key = (resolution.to_bits(), radius.to_bits());
    OFFSET_BALLS.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, ball)) = cache.iter().find(|(k, _)| *k == key) {
            return Rc::clone(ball);
        }
        let ball = Rc::new(OffsetBall::build(resolution, radius));
        cache.push((key, Rc::clone(&ball)));
        ball
    })
}

/// A cheap multiply-xor hasher for packed voxel keys.
///
/// Batched scan insertion hashes every ray/voxel crossing; the standard
/// SipHash costs more per crossing than the tree descent it is meant to
/// save. Voxel keys are single, adversary-free integers, so one SplitMix-
/// style mix is plenty.
#[derive(Clone, Copy, Default)]
struct VoxelHasher(u64);

impl std::hash::Hasher for VoxelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mut x = self.0 ^ value;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }
}

type VoxelHashBuilder = std::hash::BuildHasherDefault<VoxelHasher>;

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

impl OctoMap {
    /// Pre-order arena walk pushing every leaf's (centre, log-odds), in the
    /// exact octant order and with the exact centre arithmetic of the old
    /// pointer-tree walk (the dedup and golden fixtures depend on both).
    /// `r` must not be [`NIL`].
    fn collect_arena(&self, r: u32, center: Vec3, half: f64, out: &mut Vec<(Vec3, f64)>) {
        if r & LEAF_BIT != 0 {
            out.push((center, self.leaf_values[(r & !LEAF_BIT) as usize]));
            return;
        }
        let quarter = half / 2.0;
        for (idx, &child) in self.nodes[r as usize].iter().enumerate() {
            if child == NIL {
                continue;
            }
            let mut c = center;
            c.x += if idx & 1 != 0 { quarter } else { -quarter };
            c.y += if idx & 2 != 0 { quarter } else { -quarter };
            c.z += if idx & 4 != 0 { quarter } else { -quarter };
            self.collect_arena(child, c, quarter, out);
        }
    }

    /// Logical equality of two subtrees: same shape, same leaf values. The
    /// arena's *physical* node order depends on creation order (ray-by-ray
    /// and batched insertion create nodes in different orders), so
    /// map equality must compare the trees, not the pools.
    fn subtree_eq(&self, ra: u32, other: &OctoMap, rb: u32) -> bool {
        match (ra == NIL, rb == NIL) {
            (true, true) => return true,
            (true, false) | (false, true) => return false,
            (false, false) => {}
        }
        match (ra & LEAF_BIT != 0, rb & LEAF_BIT != 0) {
            (true, true) => {
                self.leaf_values[(ra & !LEAF_BIT) as usize]
                    == other.leaf_values[(rb & !LEAF_BIT) as usize]
            }
            (false, false) => (0..8).all(|i| {
                self.subtree_eq(
                    self.nodes[ra as usize][i],
                    other,
                    other.nodes[rb as usize][i],
                )
            }),
            _ => false,
        }
    }
}

impl PartialEq for OctoMap {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.half_extent == other.half_extent
            && self.depth == other.depth
            && self.grid == other.grid
            && self.updates == other.updates
            && self.occupied_count == other.occupied_count
            && self.index_packable == other.index_packable
            && self.occupied_blocks == other.occupied_blocks
            && self.known_leaves == other.known_leaves
            && self.known_blocks == other.known_blocks
            && self.subtree_eq(self.root, other, other.root)
    }
}

impl fmt::Display for OctoMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "octomap[res {:.2} m, {} known voxels, {} occupied]",
            self.config.resolution,
            self.known_voxel_count(),
            self.occupied_voxel_count()
        )
    }
}

/// The pre-arena pointer-chasing octree, kept verbatim as a differential
/// oracle: every node is a separate heap allocation reached through
/// `Vec<Option<Node>>` child pointers, exactly the layout the arena replaced.
/// The equivalence proptests drive [`reference::ReferenceMap`] and [`OctoMap`] with the
/// same ray sequences and compare per-point log-odds and full leaf
/// collections, so any behavioural drift in the arena descent shows up as a
/// differential failure rather than a silent golden change.
pub mod reference {
    use super::{child_of, OctoMap, OctoMapConfig};
    use mav_types::{GridSpec, Vec3};
    use std::collections::HashMap;

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

    /// Pointer-tree occupancy map with the old (pre-arena) update and
    /// collection logic, reduced to the surface the differential tests need.
    #[derive(Debug, Clone)]
    pub struct ReferenceMap {
        config: OctoMapConfig,
        half_extent: f64,
        depth: u32,
        grid: GridSpec,
        root: Option<Node>,
    }

    impl ReferenceMap {
        /// Mirrors [`OctoMap::new`]'s domain alignment so both maps agree on
        /// leaf geometry.
        pub fn new(config: OctoMapConfig, half_extent: f64) -> Self {
            assert!(half_extent > 0.0, "half extent must be positive");
            let leaves_per_axis = (2.0 * half_extent / config.resolution).ceil().max(1.0);
            let depth = (leaves_per_axis.log2().ceil() as u32).max(1);
            let aligned_half_extent = config.resolution * (1u64 << depth) as f64 / 2.0;
            let half_extent = aligned_half_extent.max(half_extent);
            ReferenceMap {
                grid: GridSpec::new(config.resolution),
                config,
                half_extent,
                depth,
                root: None,
            }
        }

        /// Integrates one sensor ray with the shared ray enumeration, so the
        /// oracle and the arena can only diverge in their *tree* logic.
        pub fn insert_ray(&mut self, origin: &Vec3, endpoint: &Vec3) {
            let (grid, config, half_extent) = (self.grid, self.config, self.half_extent);
            let clamp = config.clamp;
            OctoMap::for_each_ray_update(
                grid,
                config,
                half_extent,
                origin,
                endpoint,
                |_cell, center, delta| {
                    self.update_leaf(&center, move |log_odds| {
                        *log_odds = (*log_odds + delta).clamp(clamp.0, clamp.1);
                    });
                },
            );
        }

        /// Rebuilds the observations at a different resolution — the old
        /// `OctoMap::reresolved` verbatim (collect, then re-apply each leaf's
        /// log-odds as one clamped delta into the new tree).
        pub fn reresolved(&self, new_resolution: f64) -> ReferenceMap {
            let mut config = self.config;
            config.resolution = new_resolution;
            let clamp = config.clamp;
            let mut out = ReferenceMap::new(config, self.half_extent);
            for (center, log_odds) in self.collect() {
                out.update_leaf(&center, move |l| {
                    *l = (*l + log_odds).clamp(clamp.0, clamp.1);
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

        /// Every observed leaf's (centre, log-odds), deduplicated by rounded
        /// voxel key (last wins, pre-order walk order) and sorted by
        /// coordinates — the old `collect_leaves` verbatim.
        pub fn collect(&self) -> Vec<(Vec3, f64)> {
            let mut out = Vec::new();
            if let Some(root) = &self.root {
                Self::collect_recursive(root, Vec3::ZERO, self.half_extent, &mut out);
            }
            let mut dedup: HashMap<(i64, i64, i64), (Vec3, f64)> = HashMap::new();
            for (c, l) in out {
                let key = (
                    (c.x / self.config.resolution).round() as i64,
                    (c.y / self.config.resolution).round() as i64,
                    (c.z / self.config.resolution).round() as i64,
                );
                dedup.insert(key, (c, l));
            }
            let mut v: Vec<(Vec3, f64)> = dedup.into_values().collect();
            // Same comparator-equivalence argument as `collect_leaves`:
            // (k + ½)·resolution centres are finite, never ±0.0, distinct.
            v.sort_by(|a, b| {
                a.0.x
                    .total_cmp(&b.0.x)
                    .then(a.0.y.total_cmp(&b.0.y))
                    .then(a.0.z.total_cmp(&b.0.z))
            });
            v
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

#[cfg(test)]
mod tests {
    use super::*;

    fn small_map(resolution: f64) -> OctoMap {
        OctoMap::new(OctoMapConfig::with_resolution(resolution), 32.0)
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
            let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 32.0);
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
    fn batched_cloud_insertion_is_bit_identical_to_ray_by_ray() {
        // The PR 2 perf optimisation groups a scan's updates per voxel before
        // any tree traversal. The resulting map must be indistinguishable
        // from the historical ray-by-ray path: same leaf values (ordered
        // deltas under the same clamp), same update count, same queries.
        let mut points = Vec::new();
        for y in -14..=14 {
            for z in 0..5 {
                points.push(Vec3::new(11.0, y as f64 * 0.4, z as f64 * 0.45));
            }
        }
        // Include a beyond-max-range ray and a degenerate one.
        points.push(Vec3::new(200.0, 0.0, 1.0));
        points.push(Vec3::new(0.0, 0.0, 1.0));
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let cloud = PointCloud::new(origin, points.clone());

        let mut batched = small_map(0.3);
        batched.insert_point_cloud_batched(&cloud);
        let mut serial = small_map(0.3);
        for p in &points {
            serial.insert_ray(&origin, p);
        }
        assert_eq!(batched.update_count(), serial.update_count());
        assert_eq!(batched, serial, "batched insertion changed the map");
        // And the public (adaptively gated) entry point agrees with both.
        let mut gated = small_map(0.3);
        gated.insert_point_cloud(&cloud);
        assert_eq!(gated, serial, "gated insertion changed the map");
    }

    #[test]
    fn unpackable_domain_falls_back_to_reference_queries() {
        // A multi-km domain at mm resolution exceeds the 21-bit voxel-key
        // packing: the occupied-voxel index must disable itself and every
        // query keep answering (identically) via the tree.
        let mut map = OctoMap::new(OctoMapConfig::with_resolution(0.001), 1500.0);
        let origin = Vec3::new(0.0, 0.0, 0.0105);
        let hit = Vec3::new(0.05, 0.0, 0.0105);
        map.insert_ray(&origin, &hit);
        assert_eq!(map.query(&hit), Occupancy::Occupied);
        assert!(map.is_occupied_with_inflation(&hit, 0.002));
        assert_eq!(
            map.is_occupied_with_inflation(&hit, 0.002),
            map.is_occupied_with_inflation_reference(&hit, 0.002)
        );
        assert!(!map.segment_free(&origin, &hit, 0.001));
        assert_eq!(map.occupied_voxel_count(), 1);
        assert_eq!(map.known_voxel_count(), map.known_voxel_count_scan());
    }

    #[test]
    #[should_panic]
    fn zero_resolution_rejected() {
        let _ = OctoMapConfig::with_resolution(0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", small_map(0.5)).is_empty());
    }

    /// Differential properties pinning the arena rewrite: the flat-`Vec`
    /// octree and the incremental free-voxel index must be *exact*
    /// replacements — bit-identical log-odds, leaf sets and counters against
    /// the pointer-tree oracle and the tree-walk references.
    mod equivalence {
        use super::super::reference::ReferenceMap;
        use super::*;
        use proptest::prelude::*;

        /// Dyadic and non-dyadic resolutions, fine and coarse (the paper's
        /// 0.15 m / 0.80 m case-study endpoints included).
        const RESOLUTIONS: [f64; 5] = [0.15, 0.25, 0.3, 0.5, 0.8];

        fn arb_point(extent: f64) -> impl Strategy<Value = Vec3> {
            (-extent..extent, -extent..extent, 0.0..6.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
        }

        /// Builds the arena map and the pointer-tree oracle from the same
        /// ray sequence.
        fn paired_maps(res_idx: usize, rays: &[Vec3]) -> (OctoMap, ReferenceMap) {
            let resolution = RESOLUTIONS[res_idx % RESOLUTIONS.len()];
            let config = OctoMapConfig::with_resolution(resolution);
            let mut arena = OctoMap::new(config, 24.0);
            let mut tree = ReferenceMap::new(config, 24.0);
            let origin = Vec3::new(0.0, 0.0, 1.5);
            for endpoint in rays {
                arena.insert_ray(&origin, endpoint);
                tree.insert_ray(&origin, endpoint);
            }
            (arena, tree)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The arena descent produces the same leaves (same centres, same
            /// log-odds bits) and answers point probes exactly like the
            /// pointer tree, including through a reresolve → insert chain.
            #[test]
            fn arena_matches_reference_tree(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                more_rays in proptest::collection::vec(arb_point(20.0), 1..12),
                queries in proptest::collection::vec(arb_point(24.0), 1..16),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let (mut arena, mut tree) = paired_maps(res_idx, &rays);
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                for q in &queries {
                    prop_assert_eq!(arena.leaf_log_odds(q), tree.leaf_log_odds(q));
                }
                // Survives resolution switching (the dynamic-resolution
                // policy) and further insertion on the rebuilt maps.
                let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                arena = arena.reresolved(new_res);
                tree = tree.reresolved(new_res);
                let origin = Vec3::new(0.0, 0.0, 1.5);
                for endpoint in &more_rays {
                    arena.insert_ray(&origin, endpoint);
                    tree.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(arena.collect_leaves(), tree.collect());
                for q in &queries {
                    prop_assert_eq!(arena.leaf_log_odds(q), tree.leaf_log_odds(q));
                }
            }

            /// The incremental free-voxel index returns bit-identical centres
            /// (same order, same f64 bits) as the full-tree-walk scan, and
            /// the O(1) counters match their scans, through insertion and
            /// reresolution.
            #[test]
            fn free_voxel_index_matches_tree_walk(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
                new_res_idx in 0usize..RESOLUTIONS.len(),
            ) {
                let (mut arena, _) = paired_maps(res_idx, &rays);
                // The occupied counter may overcount the deduplicated scan
                // at non-dyadic resolutions (rounded-key collisions merge
                // scan leaves) — the seed suite pins "never undercounts",
                // so that is the exact relation asserted here too.
                prop_assert_eq!(arena.free_voxel_centers(), arena.free_voxel_centers_scan());
                prop_assert_eq!(arena.known_voxel_count(), arena.known_voxel_count_scan());
                prop_assert!(arena.occupied_voxel_count() >= arena.occupied_voxel_count_scan());
                let new_res = RESOLUTIONS[new_res_idx % RESOLUTIONS.len()];
                arena = arena.reresolved(new_res);
                prop_assert_eq!(arena.free_voxel_centers(), arena.free_voxel_centers_scan());
                prop_assert_eq!(arena.known_voxel_count(), arena.known_voxel_count_scan());
                prop_assert!(arena.occupied_voxel_count() >= arena.occupied_voxel_count_scan());
            }

            /// The known-block-bitmask frontier predicate agrees with the
            /// reference six-probe `is_unknown` loop on every known voxel
            /// centre — the exact call sites frontier extraction probes.
            #[test]
            fn unknown_neighbor_index_matches_probe_loop(
                res_idx in 0usize..RESOLUTIONS.len(),
                rays in proptest::collection::vec(arb_point(20.0), 1..32),
            ) {
                let (arena, _) = paired_maps(res_idx, &rays);
                let r = arena.resolution();
                let offsets = [
                    Vec3::new(r, 0.0, 0.0),
                    Vec3::new(-r, 0.0, 0.0),
                    Vec3::new(0.0, r, 0.0),
                    Vec3::new(0.0, -r, 0.0),
                    Vec3::new(0.0, 0.0, r),
                    Vec3::new(0.0, 0.0, -r),
                ];
                for center in arena
                    .free_voxel_centers()
                    .into_iter()
                    .chain(arena.occupied_voxel_centers())
                {
                    let reference = offsets.iter().any(|d| arena.is_unknown(&(center + *d)));
                    prop_assert_eq!(
                        arena.has_unknown_neighbor6(&center),
                        reference,
                        "diverged at {}",
                        center
                    );
                }
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
                let mut map = OctoMap::new(OctoMapConfig::with_resolution(resolution), 24.0);
                let origin = Vec3::new(0.0, 0.0, 1.5);
                for endpoint in &rays {
                    map.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(map.occupied_voxel_centers(), map.occupied_voxel_centers_scan());
            }

            /// A cleared (or reshaped) map is bit-identical to a fresh one
            /// under any subsequent ray sequence: same logical tree, same
            /// update/occupancy counters, same free-voxel index contents —
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
                let config = OctoMapConfig::with_resolution(RESOLUTIONS[res_idx % RESOLUTIONS.len()]);
                let mut fresh = OctoMap::new(config, 24.0);
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
                let new_config =
                    OctoMapConfig::with_resolution(RESOLUTIONS[new_res_idx % RESOLUTIONS.len()]);
                reused.reset(new_config, 30.0);
                let mut fresh = OctoMap::new(new_config, 30.0);
                for endpoint in &rays {
                    reused.insert_ray(&origin, endpoint);
                    fresh.insert_ray(&origin, endpoint);
                }
                prop_assert_eq!(&reused, &fresh);
                prop_assert_eq!(reused.update_count(), fresh.update_count());
                prop_assert_eq!(reused.free_voxel_centers(), fresh.free_voxel_centers());
            }
        }
    }
}
