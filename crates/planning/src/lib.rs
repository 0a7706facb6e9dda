//! Motion-planning kernels for MAVBench-RS: collision checking, sampling-based
//! shortest-path planners (RRT and PRM+A*), frontier exploration, lawnmower
//! coverage and trajectory smoothing.
//!
//! These are the Rust substitutes for OMPL and the next-best-view planner the
//! original MAVBench plugs into its workloads. All planners consume the
//! occupancy map produced by `mav-perception` and emit waypoint chains or
//! time-parameterised trajectories consumed by `mav-control`.
//!
//! # Example
//!
//! ```
//! use mav_perception::OctoMap;
//! use mav_planning::{CollisionChecker, PathSmoother, PlannerConfig, PlannerKind, ShortestPathPlanner, SmootherConfig};
//! use mav_types::{Aabb, SimTime, Vec3};
//!
//! let map = OctoMap::new(0.5, 32.0);
//! let checker = CollisionChecker::new(0.33);
//! let bounds = Aabb::new(Vec3::new(-20.0, -20.0, 0.5), Vec3::new(20.0, 20.0, 5.0));
//! let planner = ShortestPathPlanner::new(PlannerConfig::new(PlannerKind::PrmAstar, bounds));
//! let path = planner.plan(&map, &checker, Vec3::new(0.0, 0.0, 2.0), Vec3::new(12.0, 6.0, 2.0)).unwrap();
//! let traj = PathSmoother::new(SmootherConfig::new(8.0, 4.0)).smooth(&path.waypoints, SimTime::ZERO).unwrap();
//! assert!(traj.max_speed() <= 8.0 + 1e-9);
//! ```

#![warn(missing_docs)]

pub mod collision;
pub mod frontier;
pub mod lawnmower;
pub mod shortest_path;
pub mod smoothing;

pub use collision::{CollisionChecker, CollisionHit};
pub use frontier::{Frontier, FrontierConfig, FrontierExplorer};
pub use lawnmower::{coverage_fraction, path_length, plan_lawnmower, LawnmowerConfig};
pub use shortest_path::{PlannedPath, PlannerConfig, PlannerKind, ShortestPathPlanner};
pub use smoothing::{PathSmoother, SmootherConfig};
