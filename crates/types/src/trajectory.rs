//! Time-parameterised trajectories produced by planners and consumed by the
//! control stage.
//!
//! A [`Trajectory`] is the MAVBench "MultiDOFTrajectory": an ordered list of
//! [`TrajectoryPoint`]s, each carrying position, velocity, acceleration and a
//! timestamp on the mission clock. Planners emit piecewise-linear
//! trajectories; the smoothing kernel re-times them and rounds the corners;
//! the path-tracking kernel samples them.

use crate::time::SimTime;
use crate::vector::Vec3;
use std::fmt;

/// A single sample of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Position in metres.
    pub position: Vec3,
    /// Velocity in metres per second.
    pub velocity: Vec3,
    /// Acceleration in metres per second squared.
    pub acceleration: Vec3,
    /// Yaw in radians.
    pub yaw: f64,
    /// Time on the mission clock at which the vehicle should occupy this
    /// sample.
    pub time: SimTime,
}

impl TrajectoryPoint {
    /// Creates a sample with zero velocity and acceleration at `time`.
    pub fn stationary(position: Vec3, time: SimTime) -> Self {
        TrajectoryPoint {
            position,
            velocity: Vec3::ZERO,
            acceleration: Vec3::ZERO,
            yaw: 0.0,
            time,
        }
    }

    /// Creates a sample with the given velocity.
    pub fn moving(position: Vec3, velocity: Vec3, time: SimTime) -> Self {
        TrajectoryPoint {
            position,
            velocity,
            acceleration: Vec3::ZERO,
            yaw: velocity.heading(),
            time,
        }
    }
}

/// An ordered, time-parameterised sequence of trajectory points.
///
/// # Example
///
/// ```
/// use mav_types::{Trajectory, TrajectoryPoint, Vec3, SimTime};
/// let mut t = Trajectory::new();
/// t.push(TrajectoryPoint::stationary(Vec3::ZERO, SimTime::ZERO));
/// t.push(TrajectoryPoint::stationary(Vec3::new(10.0, 0.0, 0.0), SimTime::from_secs(5.0)));
/// assert_eq!(t.length(), 10.0);
/// let mid = t.sample(SimTime::from_secs(2.5)).unwrap();
/// assert!((mid.position.x - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    points: Vec<TrajectoryPoint>,
}

impl Trajectory {
    /// Creates an empty trajectory.
    pub fn new() -> Self {
        Trajectory { points: Vec::new() }
    }

    /// Creates a trajectory from a list of waypoints travelled at a constant
    /// speed, starting at `start_time`.
    ///
    /// Consecutive duplicate waypoints are preserved but given identical
    /// timestamps.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not strictly positive.
    pub fn from_waypoints(waypoints: &[Vec3], speed: f64, start_time: SimTime) -> Self {
        assert!(speed > 0.0, "waypoint speed must be positive, got {speed}");
        let mut t = Trajectory::new();
        let mut clock = start_time;
        let mut prev: Option<Vec3> = None;
        for &wp in waypoints {
            if let Some(p) = prev {
                let dist = p.distance(&wp);
                clock += crate::time::SimDuration::from_secs(dist / speed);
                let vel = (wp - p).normalized() * speed;
                t.push(TrajectoryPoint::moving(wp, vel, clock));
            } else {
                t.push(TrajectoryPoint::stationary(wp, clock));
            }
            prev = Some(wp);
        }
        t
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the point's timestamp is earlier than the
    /// last point's (trajectories are monotone in time).
    pub fn push(&mut self, point: TrajectoryPoint) {
        if let Some(last) = self.points.last() {
            debug_assert!(
                point.time >= last.time,
                "trajectory timestamps must be non-decreasing"
            );
        }
        self.points.push(point);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the trajectory has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Immutable access to the samples.
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }

    /// First sample, if any.
    pub fn first(&self) -> Option<&TrajectoryPoint> {
        self.points.first()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<&TrajectoryPoint> {
        self.points.last()
    }

    /// Iterator over the samples.
    pub fn iter(&self) -> std::slice::Iter<'_, TrajectoryPoint> {
        self.points.iter()
    }

    /// Total geometric length of the piecewise-linear path, in metres.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].position.distance(&w[1].position))
            .sum()
    }

    /// Total duration from the first to the last sample, in seconds.
    pub fn duration_secs(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(a), Some(b)) => (b.time - a.time).as_secs(),
            _ => 0.0,
        }
    }

    /// Largest velocity magnitude over all samples, metres per second.
    pub fn max_speed(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.velocity.norm())
            .fold(0.0, f64::max)
    }

    /// Largest acceleration magnitude over all samples, metres per second
    /// squared.
    pub fn max_acceleration(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.acceleration.norm())
            .fold(0.0, f64::max)
    }

    /// Linearly interpolates the trajectory at mission time `time`.
    ///
    /// Returns `None` for an empty trajectory. Times before the first sample
    /// return the first sample; times after the last sample return the last
    /// sample (the vehicle holds position at the end of the plan).
    pub fn sample(&self, time: SimTime) -> Option<TrajectoryPoint> {
        let first = self.points.first()?;
        let last = self.points.last()?;
        if time <= first.time {
            return Some(*first);
        }
        if time >= last.time {
            return Some(*last);
        }
        // Find the segment containing `time` (points are sorted by time).
        let idx = self
            .points
            .windows(2)
            .position(|w| w[0].time <= time && time <= w[1].time)?;
        let a = &self.points[idx];
        let b = &self.points[idx + 1];
        let span = (b.time - a.time).as_secs();
        let t = if span <= f64::EPSILON {
            0.0
        } else {
            (time - a.time).as_secs() / span
        };
        Some(TrajectoryPoint {
            position: a.position.lerp(&b.position, t),
            velocity: a.velocity.lerp(&b.velocity, t),
            acceleration: a.acceleration.lerp(&b.acceleration, t),
            yaw: a.yaw + (b.yaw - a.yaw) * t,
            time,
        })
    }

    /// Concatenates `other` onto the end of this trajectory.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other` begins before this trajectory ends.
    pub fn extend(&mut self, other: &Trajectory) {
        for p in &other.points {
            self.push(*p);
        }
    }
}

impl FromIterator<TrajectoryPoint> for Trajectory {
    fn from_iter<I: IntoIterator<Item = TrajectoryPoint>>(iter: I) -> Self {
        let mut t = Trajectory::new();
        for p in iter {
            t.push(p);
        }
        t
    }
}

impl<'a> IntoIterator for &'a Trajectory {
    type Item = &'a TrajectoryPoint;
    type IntoIter = std::slice::Iter<'a, TrajectoryPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl fmt::Display for Trajectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trajectory[{} points, {:.1} m, {:.1} s]",
            self.len(),
            self.length(),
            self.duration_secs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn straight_line() -> Trajectory {
        Trajectory::from_waypoints(
            &[
                Vec3::ZERO,
                Vec3::new(10.0, 0.0, 0.0),
                Vec3::new(10.0, 10.0, 0.0),
            ],
            2.0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn waypoint_construction_timing() {
        let t = straight_line();
        assert_eq!(t.len(), 3);
        assert_eq!(t.length(), 20.0);
        assert_eq!(t.duration_secs(), 10.0);
        assert!((t.max_speed() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_interpolates_and_clamps() {
        let t = straight_line();
        let before = t.sample(SimTime::ZERO).unwrap();
        assert_eq!(before.position, Vec3::ZERO);
        let mid = t.sample(SimTime::from_secs(2.5)).unwrap();
        assert!((mid.position.x - 5.0).abs() < 1e-9);
        assert!((mid.position.y).abs() < 1e-9);
        let after = t.sample(SimTime::from_secs(100.0)).unwrap();
        assert_eq!(after.position, Vec3::new(10.0, 10.0, 0.0));
    }

    #[test]
    fn empty_trajectory_behaviour() {
        let t = Trajectory::new();
        assert!(t.is_empty());
        assert_eq!(t.length(), 0.0);
        assert_eq!(t.duration_secs(), 0.0);
        assert!(t.sample(SimTime::ZERO).is_none());
        assert!(t.first().is_none());
        assert!(t.last().is_none());
    }

    #[test]
    fn extend_joins_trajectories() {
        let mut a = straight_line();
        let end_time = a.last().unwrap().time;
        let mut b = Trajectory::new();
        b.push(TrajectoryPoint::stationary(
            Vec3::new(10.0, 10.0, 0.0),
            end_time + SimDuration::from_secs(1.0),
        ));
        b.push(TrajectoryPoint::stationary(
            Vec3::new(10.0, 10.0, 5.0),
            end_time + SimDuration::from_secs(2.0),
        ));
        a.extend(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.length(), 25.0);
    }

    #[test]
    fn collect_from_iterator() {
        let pts = vec![
            TrajectoryPoint::stationary(Vec3::ZERO, SimTime::ZERO),
            TrajectoryPoint::stationary(Vec3::UNIT_X, SimTime::from_secs(1.0)),
        ];
        let t: Trajectory = pts.clone().into_iter().collect();
        assert_eq!(t.len(), 2);
        let collected: Vec<_> = (&t).into_iter().copied().collect();
        assert_eq!(collected, pts);
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        let _ = Trajectory::from_waypoints(&[Vec3::ZERO, Vec3::UNIT_X], 0.0, SimTime::ZERO);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", straight_line()).is_empty());
    }
}
