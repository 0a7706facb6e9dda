//! Lawnmower coverage planning.
//!
//! The Scanning workload covers a rectangular area with a boustrophedon
//! ("lawnmower") sweep: parallel passes separated by the sensor footprint,
//! flown at a fixed altitude. Obstacles are assumed to be absent at scanning
//! altitude, so no collision checking is required (matching the paper).

use mav_types::{MavError, Result, Vec3};

/// Configuration of the lawnmower planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LawnmowerConfig {
    /// South-west corner of the area to cover.
    pub origin: Vec3,
    /// Width of the area along +x, metres.
    pub width: f64,
    /// Length of the area along +y, metres.
    pub length: f64,
    /// Spacing between passes (the sensor swath), metres.
    pub lane_spacing: f64,
    /// Altitude of the sweep, metres.
    pub altitude: f64,
}

impl LawnmowerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MavError::InvalidConfig`] when any dimension is not strictly
    /// positive.
    pub fn validate(&self) -> Result<()> {
        if self.width <= 0.0 || self.length <= 0.0 {
            return Err(MavError::invalid_config(
                "coverage area must have positive dimensions",
            ));
        }
        if self.lane_spacing <= 0.0 {
            return Err(MavError::invalid_config("lane spacing must be positive"));
        }
        if self.altitude <= 0.0 {
            return Err(MavError::invalid_config("scan altitude must be positive"));
        }
        Ok(())
    }
}

impl Default for LawnmowerConfig {
    fn default() -> Self {
        LawnmowerConfig {
            origin: Vec3::new(-50.0, -50.0, 0.0),
            width: 100.0,
            length: 100.0,
            lane_spacing: 10.0,
            altitude: 10.0,
        }
    }
}

/// Plans a lawnmower sweep, returning the waypoint sequence (the Scanning
/// workload's motion-planning kernel).
///
/// The sweep runs lanes parallel to the y axis, stepping along x by the lane
/// spacing, alternating direction each lane.
///
/// # Errors
///
/// Returns [`MavError::InvalidConfig`] for degenerate areas.
///
/// # Example
///
/// ```
/// use mav_planning::{plan_lawnmower, LawnmowerConfig};
/// let waypoints = plan_lawnmower(&LawnmowerConfig::default()).unwrap();
/// assert!(waypoints.len() >= 4);
/// ```
pub fn plan_lawnmower(config: &LawnmowerConfig) -> Result<Vec<Vec3>> {
    config.validate()?;
    let lanes = (config.width / config.lane_spacing).ceil() as usize + 1;
    let mut waypoints = Vec::with_capacity(lanes * 2);
    for lane in 0..lanes {
        let x = config.origin.x + (lane as f64 * config.lane_spacing).min(config.width);
        let (y0, y1) = if lane % 2 == 0 {
            (config.origin.y, config.origin.y + config.length)
        } else {
            (config.origin.y + config.length, config.origin.y)
        };
        waypoints.push(Vec3::new(x, y0, config.altitude));
        waypoints.push(Vec3::new(x, y1, config.altitude));
    }
    Ok(waypoints)
}

/// Total length of a waypoint sequence, metres.
pub fn path_length(waypoints: &[Vec3]) -> f64 {
    waypoints.windows(2).map(|w| w[0].distance(&w[1])).sum()
}

/// Fraction of the area covered by a sweep with the given lane spacing and a
/// sensor swath of `swath` metres (1.0 when the swath is at least the lane
/// spacing).
pub fn coverage_fraction(config: &LawnmowerConfig, swath: f64) -> f64 {
    if config.lane_spacing <= 0.0 {
        return 0.0;
    }
    (swath / config.lane_spacing).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_requested_area() {
        let cfg = LawnmowerConfig {
            origin: Vec3::new(0.0, 0.0, 0.0),
            width: 40.0,
            length: 60.0,
            lane_spacing: 10.0,
            altitude: 12.0,
        };
        let wps = plan_lawnmower(&cfg).unwrap();
        assert_eq!(wps.len(), 10); // 5 lanes × 2 endpoints
                                   // Every waypoint at the requested altitude and inside the area.
        for w in &wps {
            assert_eq!(w.z, 12.0);
            assert!(w.x >= 0.0 && w.x <= 40.0);
            assert!(w.y >= 0.0 && w.y <= 60.0);
        }
        // The first and last lanes are at the area's x extremes.
        assert_eq!(wps[0].x, 0.0);
        assert_eq!(wps.last().unwrap().x, 40.0);
        // Alternating sweep direction: consecutive lanes start at opposite y.
        assert_eq!(wps[0].y, 0.0);
        assert_eq!(wps[2].y, 60.0);
    }

    #[test]
    fn total_length_scales_with_area() {
        let small = LawnmowerConfig {
            origin: Vec3::ZERO,
            width: 20.0,
            length: 20.0,
            lane_spacing: 10.0,
            altitude: 10.0,
        };
        let large = LawnmowerConfig {
            width: 80.0,
            length: 80.0,
            ..small
        };
        let l_small = path_length(&plan_lawnmower(&small).unwrap());
        let l_large = path_length(&plan_lawnmower(&large).unwrap());
        assert!(l_large > 3.0 * l_small);
    }

    #[test]
    fn tighter_lanes_increase_path_length_and_coverage() {
        let coarse = LawnmowerConfig {
            lane_spacing: 20.0,
            ..Default::default()
        };
        let fine = LawnmowerConfig {
            lane_spacing: 5.0,
            ..Default::default()
        };
        assert!(
            path_length(&plan_lawnmower(&fine).unwrap())
                > path_length(&plan_lawnmower(&coarse).unwrap())
        );
        assert!(coverage_fraction(&fine, 8.0) > coverage_fraction(&coarse, 8.0));
        assert_eq!(coverage_fraction(&fine, 8.0), 1.0);
        assert_eq!(coverage_fraction(&coarse, 10.0), 0.5);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        for bad in [
            LawnmowerConfig {
                width: 0.0,
                ..Default::default()
            },
            LawnmowerConfig {
                length: -5.0,
                ..Default::default()
            },
            LawnmowerConfig {
                lane_spacing: 0.0,
                ..Default::default()
            },
            LawnmowerConfig {
                altitude: 0.0,
                ..Default::default()
            },
        ] {
            assert!(plan_lawnmower(&bad).is_err());
        }
    }
}
