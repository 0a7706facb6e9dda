//! Point-mass quadrotor model with velocity and acceleration limits.
//!
//! MAVBench's evaluation depends on the vehicle's velocity/acceleration
//! envelope (which bounds the compute-limited maximum safe velocity of the
//! paper's Eq. 2), its physical size (which sets the collision radius and the
//! OctoMap resolution the drone can tolerate) and its mass (which enters the
//! rotor power model). A point-mass integrator with commanded-velocity
//! tracking captures exactly that envelope.

use crate::state::MavState;
use mav_types::Vec3;
use std::fmt;

/// Physical parameters of a quadrotor airframe.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadrotorConfig {
    /// Human-readable model name.
    pub name: String,
    /// Take-off mass including battery and payload, kilograms.
    pub mass: f64,
    /// Maximum horizontal velocity the airframe can mechanically sustain, m/s.
    pub max_velocity: f64,
    /// Maximum vertical velocity, m/s.
    pub max_vertical_velocity: f64,
    /// Maximum linear acceleration, m/s².
    pub max_acceleration: f64,
    /// Collision radius used for planning (half of the diagonal width), metres.
    pub radius: f64,
    /// Default cruise altitude used by the applications, metres.
    pub cruise_altitude: f64,
}

impl QuadrotorConfig {
    /// DJI Matrice 100 class vehicle — the drone the paper's heat-map
    /// experiments are configured for.
    pub fn dji_matrice_100() -> Self {
        QuadrotorConfig {
            name: "DJI Matrice 100".to_string(),
            mass: 2.431,
            max_velocity: 17.0,
            max_vertical_velocity: 4.0,
            max_acceleration: 5.0,
            radius: 0.325, // 0.65 m diagonal width per the paper's footnote
            cruise_altitude: 2.5,
        }
    }

    /// 3DR Solo class vehicle — the drone the paper's power measurements use.
    pub fn solo_3dr() -> Self {
        QuadrotorConfig {
            name: "3DR Solo".to_string(),
            mass: 1.8,
            max_velocity: 13.0,
            max_vertical_velocity: 3.0,
            max_acceleration: 4.0,
            radius: 0.25,
            cruise_altitude: 2.0,
        }
    }

    /// Validates the configuration, returning a descriptive error string for
    /// the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.mass.is_nan() || self.mass <= 0.0 {
            return Err(format!("mass must be positive, got {}", self.mass));
        }
        if self.max_velocity.is_nan() || self.max_velocity <= 0.0 {
            return Err("max_velocity must be positive".to_string());
        }
        if self.max_acceleration.is_nan() || self.max_acceleration <= 0.0 {
            return Err("max_acceleration must be positive".to_string());
        }
        if self.radius.is_nan() || self.radius <= 0.0 {
            return Err("radius must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for QuadrotorConfig {
    fn default() -> Self {
        QuadrotorConfig::dji_matrice_100()
    }
}

impl mav_types::ToJson for QuadrotorConfig {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::object()
            .field("name", self.name.as_str())
            .field("mass", self.mass)
            .field("max_velocity", self.max_velocity)
            .field("max_vertical_velocity", self.max_vertical_velocity)
            .field("max_acceleration", self.max_acceleration)
            .field("radius", self.radius)
            .field("cruise_altitude", self.cruise_altitude)
    }
}

impl mav_types::FromJson for QuadrotorConfig {
    /// Reads an airframe description; omitted fields keep the default
    /// (DJI Matrice 100) values.
    fn from_json(json: &mav_types::Json) -> Result<Self, String> {
        json.check_fields(&[
            "name",
            "mass",
            "max_velocity",
            "max_vertical_velocity",
            "max_acceleration",
            "radius",
            "cruise_altitude",
        ])?;
        let base = QuadrotorConfig::default();
        Ok(QuadrotorConfig {
            name: json.parse_field_or("name", base.name)?,
            mass: json.parse_field_or("mass", base.mass)?,
            max_velocity: json.parse_field_or("max_velocity", base.max_velocity)?,
            max_vertical_velocity: json
                .parse_field_or("max_vertical_velocity", base.max_vertical_velocity)?,
            max_acceleration: json.parse_field_or("max_acceleration", base.max_acceleration)?,
            radius: json.parse_field_or("radius", base.radius)?,
            cruise_altitude: json.parse_field_or("cruise_altitude", base.cruise_altitude)?,
        })
    }
}

impl fmt::Display for QuadrotorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} kg, vmax {} m/s)",
            self.name, self.mass, self.max_velocity
        )
    }
}

/// Point-mass quadrotor integrator.
///
/// The vehicle tracks a commanded velocity: each step the commanded velocity
/// is clamped to the airframe envelope, the acceleration needed to reach it is
/// clamped to `max_acceleration`, and position/velocity are integrated with
/// semi-implicit Euler.
///
/// # Example
///
/// ```
/// use mav_dynamics::{Quadrotor, QuadrotorConfig};
/// use mav_types::{Pose, Vec3};
///
/// let mut quad = Quadrotor::new(QuadrotorConfig::dji_matrice_100(), Pose::origin());
/// for _ in 0..100 {
///     quad.step(Vec3::new(5.0, 0.0, 0.0), 0.1);
/// }
/// assert!(quad.state().speed() > 4.0);
/// assert!(quad.state().pose.position.x > 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quadrotor {
    config: QuadrotorConfig,
    state: MavState,
}

impl Quadrotor {
    /// Creates a quadrotor at rest at `pose`.
    pub fn new(config: QuadrotorConfig, pose: mav_types::Pose) -> Self {
        Quadrotor {
            config,
            state: MavState::at_rest(pose),
        }
    }

    /// The airframe configuration.
    pub fn config(&self) -> &QuadrotorConfig {
        &self.config
    }

    /// The current state.
    pub fn state(&self) -> &MavState {
        &self.state
    }

    /// Clamps a commanded velocity to the airframe envelope (horizontal and
    /// vertical limits applied separately).
    pub fn clamp_velocity(&self, commanded: Vec3) -> Vec3 {
        let horizontal = commanded.horizontal().clamp_norm(self.config.max_velocity);
        let vertical_z = commanded.z.clamp(
            -self.config.max_vertical_velocity,
            self.config.max_vertical_velocity,
        );
        Vec3::new(horizontal.x, horizontal.y, vertical_z)
    }

    /// Advances the vehicle by `dt` seconds while tracking `commanded_velocity`.
    ///
    /// Returns the achieved acceleration for this step.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dt` is not strictly positive.
    pub fn step(&mut self, commanded_velocity: Vec3, dt: f64) -> Vec3 {
        debug_assert!(dt > 0.0, "dt must be positive");
        let target = self.clamp_velocity(commanded_velocity);
        let delta_v = target - self.state.twist.linear;
        // Acceleration needed this step, clamped to the airframe limit.
        let accel = (delta_v / dt).clamp_norm(self.config.max_acceleration);
        let new_velocity = self.state.twist.linear + accel * dt;
        let new_position = self.state.pose.position + new_velocity * dt;
        let yaw = if new_velocity.norm_xy() > 0.1 {
            new_velocity.heading()
        } else {
            self.state.pose.yaw
        };
        self.state.acceleration = accel;
        self.state.twist.linear = new_velocity;
        self.state.pose.position = new_position;
        self.state.pose.yaw = yaw;
        accel
    }

    /// Minimum distance needed to come to a complete stop from the current
    /// speed, using the airframe's maximum deceleration: `v² / (2 a)`.
    pub fn stopping_distance(&self) -> f64 {
        let v = self.state.speed();
        v * v / (2.0 * self.config.max_acceleration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_types::Pose;

    fn quad() -> Quadrotor {
        Quadrotor::new(QuadrotorConfig::dji_matrice_100(), Pose::origin())
    }

    #[test]
    fn configs_validate() {
        assert!(QuadrotorConfig::dji_matrice_100().validate().is_ok());
        assert!(QuadrotorConfig::solo_3dr().validate().is_ok());
        let bad = QuadrotorConfig {
            mass: 0.0,
            ..QuadrotorConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn velocity_clamping_respects_envelope() {
        let q = quad();
        let clamped = q.clamp_velocity(Vec3::new(100.0, 0.0, 50.0));
        assert!((clamped.norm_xy() - q.config().max_velocity).abs() < 1e-9);
        assert_eq!(clamped.z, q.config().max_vertical_velocity);
        // Velocities inside the envelope are untouched.
        let inside = Vec3::new(1.0, 1.0, -1.0);
        assert_eq!(q.clamp_velocity(inside), inside);
    }

    #[test]
    fn acceleration_is_limited() {
        let mut q = quad();
        let accel = q.step(Vec3::new(100.0, 0.0, 0.0), 0.1);
        assert!(accel.norm() <= q.config().max_acceleration + 1e-9);
        // The velocity after one step cannot exceed a_max * dt.
        assert!(q.state().speed() <= q.config().max_acceleration * 0.1 + 1e-9);
    }

    #[test]
    fn converges_to_commanded_velocity() {
        let mut q = quad();
        for _ in 0..200 {
            q.step(Vec3::new(3.0, 4.0, 0.0), 0.05);
        }
        assert!((q.state().speed() - 5.0).abs() < 0.1);
        assert!((q.state().pose.yaw - Vec3::new(3.0, 4.0, 0.0).heading()).abs() < 0.05);
    }

    #[test]
    fn stopping_distance_grows_with_speed() {
        let mut q = quad();
        assert_eq!(q.stopping_distance(), 0.0);
        for _ in 0..100 {
            q.step(Vec3::new(10.0, 0.0, 0.0), 0.1);
        }
        let d_fast = q.stopping_distance();
        assert!(d_fast > 5.0);
        // v²/(2a) with v≈10, a=5 → ≈10 m.
        assert!((d_fast - 10.0).abs() < 2.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", QuadrotorConfig::default()).is_empty());
    }
}
