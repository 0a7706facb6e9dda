//! Trajectory smoothing: waypoints → dynamically feasible trajectory.
//!
//! Planners return piecewise-linear waypoint chains with sharp corners. The
//! smoothing kernel (a) rounds corners by inserting blend points and (b)
//! assigns a time-parameterised velocity profile that respects the vehicle's
//! maximum velocity and acceleration — sharp turns would otherwise demand
//! high accelerations and waste energy, which is exactly why the paper has
//! this kernel.

use mav_types::{MavError, Result, SimTime, Trajectory, TrajectoryPoint, Vec3};

/// Corner blend distance, metres: corners are cut starting this far from the
/// waypoint.
const CORNER_RADIUS: f64 = 1.0;
/// Spatial sampling interval of the output trajectory, metres.
const SAMPLE_SPACING: f64 = 0.5;

/// Configuration of the smoothing kernel: the vehicle envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmootherConfig {
    /// Maximum cruise speed of the produced trajectory, m/s.
    pub max_velocity: f64,
    /// Maximum acceleration, m/s².
    pub max_acceleration: f64,
}

impl SmootherConfig {
    /// Creates a configuration from the vehicle envelope.
    ///
    /// # Panics
    ///
    /// Panics if either limit is not strictly positive.
    pub fn new(max_velocity: f64, max_acceleration: f64) -> Self {
        assert!(max_velocity > 0.0 && max_acceleration > 0.0);
        SmootherConfig {
            max_velocity,
            max_acceleration,
        }
    }
}

impl Default for SmootherConfig {
    fn default() -> Self {
        SmootherConfig::new(10.0, 5.0)
    }
}

/// The path-smoothing kernel.
///
/// # Example
///
/// ```
/// use mav_planning::{PathSmoother, SmootherConfig};
/// use mav_types::{SimTime, Vec3};
///
/// let smoother = PathSmoother::new(SmootherConfig::new(8.0, 4.0));
/// let waypoints = vec![
///     Vec3::new(0.0, 0.0, 2.0),
///     Vec3::new(10.0, 0.0, 2.0),
///     Vec3::new(10.0, 10.0, 2.0),
/// ];
/// let traj = smoother.smooth(&waypoints, SimTime::ZERO).unwrap();
/// assert!(traj.max_speed() <= 8.0 + 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSmoother {
    config: SmootherConfig,
}

impl PathSmoother {
    /// Creates a smoother.
    pub fn new(config: SmootherConfig) -> Self {
        PathSmoother { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SmootherConfig {
        &self.config
    }

    /// Smooths a waypoint chain into a time-parameterised trajectory starting
    /// at `start_time`.
    ///
    /// # Errors
    ///
    /// Returns [`MavError::PlanningFailed`] when fewer than two waypoints are
    /// provided.
    pub fn smooth(&self, waypoints: &[Vec3], start_time: SimTime) -> Result<Trajectory> {
        if waypoints.len() < 2 {
            return Err(MavError::planning_failed(
                "smoothing",
                "need at least two waypoints",
            ));
        }
        let rounded = self.round_corners(waypoints);
        let sampled = self.resample(&rounded);
        Ok(self.time_parameterise(&sampled, start_time))
    }

    /// Cuts corners: each interior waypoint is replaced by two blend points a
    /// corner-radius before and after it.
    fn round_corners(&self, waypoints: &[Vec3]) -> Vec<Vec3> {
        if waypoints.len() <= 2 {
            return waypoints.to_vec();
        }
        let r = CORNER_RADIUS;
        let mut out = vec![waypoints[0]];
        for i in 1..waypoints.len() - 1 {
            let prev = waypoints[i - 1];
            let here = waypoints[i];
            let next = waypoints[i + 1];
            let d_in = here.distance(&prev);
            let d_out = here.distance(&next);
            let cut_in = r.min(d_in / 2.0);
            let cut_out = r.min(d_out / 2.0);
            let before = here + (prev - here).normalized() * cut_in;
            let after = here + (next - here).normalized() * cut_out;
            out.push(before);
            // The midpoint between the blend points approximates the arc.
            out.push(before.lerp(&after, 0.5));
            out.push(after);
        }
        out.push(*waypoints.last().expect("non-empty"));
        out
    }

    /// Resamples a polyline at roughly [`SAMPLE_SPACING`] intervals.
    fn resample(&self, waypoints: &[Vec3]) -> Vec<Vec3> {
        let mut out = vec![waypoints[0]];
        for w in waypoints.windows(2) {
            let dist = w[0].distance(&w[1]);
            let steps = (dist / SAMPLE_SPACING).ceil().max(1.0) as usize;
            for i in 1..=steps {
                out.push(w[0].lerp(&w[1], i as f64 / steps as f64));
            }
        }
        out
    }

    /// Assigns a trapezoidal velocity profile along the arc length: accelerate
    /// at `max_acceleration`, cruise at `max_velocity`, decelerate to stop at
    /// the end. Corner curvature additionally caps the local speed.
    fn time_parameterise(&self, points: &[Vec3], start_time: SimTime) -> Trajectory {
        let n = points.len();
        let v_max = self.config.max_velocity;
        let a_max = self.config.max_acceleration;
        // Arc length from the start to each point.
        let mut arc = vec![0.0f64; n];
        for i in 1..n {
            arc[i] = arc[i - 1] + points[i - 1].distance(&points[i]);
        }
        let total = arc[n - 1];
        // Speed limit at each point from the trapezoid (accelerating from the
        // start, decelerating towards the end) plus a curvature cap.
        let mut speed = vec![0.0f64; n];
        for i in 0..n {
            let s = arc[i];
            let accel_limit = (2.0 * a_max * s).sqrt();
            let decel_limit = (2.0 * a_max * (total - s)).sqrt();
            let mut v = v_max.min(accel_limit).min(decel_limit);
            // Curvature cap: slow down where the heading changes sharply.
            if i > 0 && i + 1 < n {
                let d_in = (points[i] - points[i - 1]).normalized();
                let d_out = (points[i + 1] - points[i]).normalized();
                let turn = 1.0 - d_in.dot(&d_out); // 0 straight, 2 reversal
                v *= (1.0 - 0.5 * turn).clamp(0.3, 1.0);
            }
            speed[i] = v.max(0.0);
        }
        // Integrate time along the arc using the average of segment-end speeds.
        let mut trajectory = Trajectory::new();
        let mut t = start_time;
        for i in 0..n {
            let velocity = if i + 1 < n {
                (points[i + 1] - points[i]).normalized() * speed[i]
            } else {
                Vec3::ZERO
            };
            let acceleration = if i > 0 {
                let ds = (arc[i] - arc[i - 1]).max(1e-6);
                let dv = speed[i] - speed[i - 1];
                (points[i] - points[i - 1]).normalized() * (dv * speed[i].max(0.1) / ds)
            } else {
                Vec3::ZERO
            };
            trajectory.push(TrajectoryPoint {
                position: points[i],
                velocity,
                acceleration: acceleration.clamp_norm(a_max),
                yaw: velocity.heading(),
                time: t,
            });
            if i + 1 < n {
                let ds = points[i].distance(&points[i + 1]);
                let avg_v = ((speed[i] + speed[i + 1]) / 2.0).max(0.1);
                t += mav_types::SimDuration::from_secs(ds / avg_v);
            }
        }
        trajectory
    }
}

impl Default for PathSmoother {
    fn default() -> Self {
        PathSmoother::new(SmootherConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shaped() -> Vec<Vec3> {
        vec![
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(20.0, 0.0, 2.0),
            Vec3::new(20.0, 20.0, 2.0),
        ]
    }

    #[test]
    fn endpoints_are_preserved() {
        let smoother = PathSmoother::default();
        let traj = smoother.smooth(&l_shaped(), SimTime::ZERO).unwrap();
        assert!(traj.first().unwrap().position.distance(&l_shaped()[0]) < 1e-9);
        assert!(traj.last().unwrap().position.distance(&l_shaped()[2]) < 1e-9);
        // Trajectory starts and ends at rest.
        assert!(traj.first().unwrap().velocity.norm() < 1e-9);
        assert!(traj.last().unwrap().velocity.norm() < 1e-9);
    }

    #[test]
    fn velocity_and_acceleration_limits_hold() {
        let cfg = SmootherConfig::new(6.0, 3.0);
        let smoother = PathSmoother::new(cfg);
        let traj = smoother.smooth(&l_shaped(), SimTime::ZERO).unwrap();
        assert!(traj.max_speed() <= 6.0 + 1e-9);
        assert!(traj.max_acceleration() <= 3.0 + 1e-9);
        assert!(traj.duration_secs() > 0.0);
    }

    #[test]
    fn corner_is_cut() {
        let smoother = PathSmoother::default();
        let traj = smoother.smooth(&l_shaped(), SimTime::ZERO).unwrap();
        // The sharp corner waypoint (20, 0) should not be visited exactly: the
        // blend replaces it with nearby points.
        let corner = Vec3::new(20.0, 0.0, 2.0);
        let min_dist = traj
            .points()
            .iter()
            .map(|p| p.position.distance(&corner))
            .fold(f64::INFINITY, f64::min);
        assert!(min_dist > 0.2, "corner visited too closely: {min_dist}");
        // But the path still passes near the corner region.
        assert!(min_dist < 2.0);
    }

    #[test]
    fn slower_profile_takes_longer() {
        let fast = PathSmoother::new(SmootherConfig::new(10.0, 5.0));
        let slow = PathSmoother::new(SmootherConfig::new(2.0, 5.0));
        let t_fast = fast
            .smooth(&l_shaped(), SimTime::ZERO)
            .unwrap()
            .duration_secs();
        let t_slow = slow
            .smooth(&l_shaped(), SimTime::ZERO)
            .unwrap()
            .duration_secs();
        assert!(t_slow > 2.0 * t_fast, "slow {t_slow} vs fast {t_fast}");
    }

    #[test]
    fn straight_line_cruises_at_max_velocity() {
        let smoother = PathSmoother::new(SmootherConfig::new(8.0, 4.0));
        let traj = smoother
            .smooth(
                &[Vec3::new(0.0, 0.0, 2.0), Vec3::new(100.0, 0.0, 2.0)],
                SimTime::ZERO,
            )
            .unwrap();
        assert!((traj.max_speed() - 8.0).abs() < 0.5);
        // Duration should be close to distance/v plus accel/decel overhead.
        let ideal = 100.0 / 8.0;
        assert!(traj.duration_secs() > ideal);
        assert!(traj.duration_secs() < ideal * 2.0);
    }

    #[test]
    fn timestamps_are_monotone() {
        let smoother = PathSmoother::default();
        let traj = smoother
            .smooth(&l_shaped(), SimTime::from_secs(5.0))
            .unwrap();
        assert!(traj.first().unwrap().time.as_secs() >= 5.0);
        let times: Vec<f64> = traj.points().iter().map(|p| p.time.as_secs()).collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn too_few_waypoints_is_an_error() {
        let smoother = PathSmoother::default();
        assert!(smoother.smooth(&[Vec3::ZERO], SimTime::ZERO).is_err());
        assert!(smoother.smooth(&[], SimTime::ZERO).is_err());
    }
}
