//! PID controller.
//!
//! Aerial Photography closes its loop with a PID controller that keeps the
//! tracked subject centred in the camera frame; the same controller type is
//! reused for altitude and position hold elsewhere in the stack.

use std::fmt;

/// Symmetric clamp on the integral term (anti-windup).
const INTEGRAL_LIMIT: f64 = 5.0;

/// PID gains and output limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Symmetric output saturation (the output is clamped to ±this value).
    pub output_limit: f64,
}

impl PidConfig {
    /// Creates a configuration with the given gains and a generous output
    /// limit.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        PidConfig {
            kp,
            ki,
            kd,
            output_limit: 10.0,
        }
    }

    /// Overrides the output limit (builder style).
    pub fn with_output_limit(mut self, limit: f64) -> Self {
        self.output_limit = limit.abs();
        self
    }
}

impl Default for PidConfig {
    fn default() -> Self {
        PidConfig::new(1.0, 0.0, 0.1)
    }
}

/// A single-axis PID controller.
///
/// # Example
///
/// ```
/// use mav_control::{Pid, PidConfig};
///
/// let mut pid = Pid::new(PidConfig::new(0.8, 0.1, 0.05));
/// // Regulate a first-order plant towards the setpoint 1.0.
/// let mut x: f64 = 0.0;
/// for _ in 0..1000 {
///     let u = pid.update(1.0 - x, 0.05);
///     x += u * 0.05;
/// }
/// assert!((x - 1.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    last_error: Option<f64>,
}

impl Pid {
    /// Creates a controller with zeroed state.
    pub fn new(config: PidConfig) -> Self {
        Pid {
            config,
            integral: 0.0,
            last_error: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// Computes the control output for the given error over a step of `dt`
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `dt` is not strictly positive.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        debug_assert!(dt > 0.0, "dt must be positive");
        self.integral = (self.integral + error * dt).clamp(-INTEGRAL_LIMIT, INTEGRAL_LIMIT);
        let derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        self.last_error = Some(error);
        let raw =
            self.config.kp * error + self.config.ki * self.integral + self.config.kd * derivative;
        raw.clamp(-self.config.output_limit, self.config.output_limit)
    }

    /// Clears the integral and derivative history (e.g. after a large setpoint
    /// change).
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pid[kp={} ki={} kd={}]",
            self.config.kp, self.config.ki, self.config.kd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_drives_towards_setpoint() {
        let mut pid = Pid::new(PidConfig::new(2.0, 0.0, 0.0));
        let mut x = 0.0;
        for _ in 0..500 {
            let u = pid.update(5.0 - x, 0.01);
            x += u * 0.01;
        }
        assert!((x - 5.0).abs() < 0.1);
    }

    #[test]
    fn integral_removes_steady_state_error() {
        // Plant with a constant disturbance: P alone leaves an offset, PI
        // removes it.
        let simulate = |config: PidConfig| {
            let mut pid = Pid::new(config);
            let mut x = 0.0;
            for _ in 0..4000 {
                let u = pid.update(1.0 - x, 0.01);
                x += (u - 0.5) * 0.01; // -0.5 disturbance
            }
            x
        };
        let p_only = simulate(PidConfig::new(1.0, 0.0, 0.0));
        let pi = simulate(PidConfig::new(1.0, 0.5, 0.0));
        assert!((1.0 - pi).abs() < (1.0 - p_only).abs());
        assert!((1.0 - pi).abs() < 0.05);
    }

    #[test]
    fn output_is_saturated() {
        let mut pid = Pid::new(PidConfig::new(100.0, 0.0, 0.0).with_output_limit(3.0));
        assert_eq!(pid.update(10.0, 0.1), 3.0);
        assert_eq!(pid.update(-10.0, 0.1), -3.0);
    }

    #[test]
    fn integral_windup_is_bounded() {
        let mut pid = Pid::new(PidConfig::new(0.0, 1.0, 0.0));
        for _ in 0..1000 {
            pid.update(10.0, 0.1);
        }
        // After saturation, a sign flip of the error must take effect quickly
        // rather than fighting a huge accumulated integral: one step of -1
        // from the clamped integral.
        let out = pid.update(-10.0, 0.1);
        assert_eq!(out, INTEGRAL_LIMIT - 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(PidConfig::new(1.0, 1.0, 1.0));
        pid.update(3.0, 0.1);
        pid.update(2.0, 0.1);
        pid.reset();
        // After reset the derivative term is zero on the next update.
        let out = pid.update(1.0, 0.1);
        assert!((out - (1.0 + 1.0 * 0.1)).abs() < 1e-9);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Pid::new(PidConfig::default())).is_empty());
    }
}
