//! Property-based tests on cross-crate invariants of the MAVBench-RS stack.

use mavbench::compute::{table1_profile, ApplicationId, KernelId, OperatingPoint};
use mavbench::core::velocity::max_safe_velocity;
use mavbench::energy::{Battery, BatteryConfig, RotorPowerModel};
use mavbench::perception::{Occupancy, OctoMap};
use mavbench::planning::{PathSmoother, SmootherConfig};
use mavbench::types::{Frequency, Power, SimDuration, SimTime, Vec3};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. 2: more latency never increases the safe velocity, and the bound is
    /// always positive and below the zero-latency kinematic limit.
    #[test]
    fn eq2_monotone_and_bounded(dt1 in 0.0f64..5.0, dt2 in 0.0f64..5.0, d in 0.5f64..30.0, a in 0.5f64..10.0) {
        let (lo, hi) = if dt1 <= dt2 { (dt1, dt2) } else { (dt2, dt1) };
        let v_lo = max_safe_velocity(SimDuration::from_secs(lo), d, a);
        let v_hi = max_safe_velocity(SimDuration::from_secs(hi), d, a);
        prop_assert!(v_hi <= v_lo + 1e-9);
        prop_assert!(v_lo <= (2.0 * a * d).sqrt() + 1e-9);
        prop_assert!(v_hi > 0.0);
    }

    /// Kernel latency never improves when frequency drops or cores are removed.
    #[test]
    fn kernel_latency_is_monotone_in_the_operating_point(
        app_idx in 0usize..5,
        cores in 1u32..=4,
        ghz in 0.5f64..2.2,
    ) {
        let app = ApplicationId::all()[app_idx];
        let profile = table1_profile(app);
        let slower = OperatingPoint::new(cores, Frequency::from_ghz(ghz));
        let reference = OperatingPoint::reference();
        for (_, kernel_profile) in profile.iter() {
            let at_ref = kernel_profile.latency(&reference);
            let at_slower = kernel_profile.latency(&slower);
            prop_assert!(at_slower >= at_ref);
        }
    }

    /// The battery's state of charge is non-increasing, stays in [0, 1], and
    /// the voltage stays within the pack's physical limits under any discharge
    /// pattern.
    #[test]
    fn battery_invariants(powers in proptest::collection::vec(0.0f64..900.0, 1..60)) {
        let cfg = BatteryConfig::matrice_tb47();
        let mut battery = Battery::new(cfg);
        let mut last_soc = battery.state_of_charge();
        for p in powers {
            battery.discharge(Power::from_watts(p), SimDuration::from_secs(5.0));
            let soc = battery.state_of_charge();
            prop_assert!(soc <= last_soc + 1e-12);
            prop_assert!((0.0..=1.0).contains(&soc));
            let v = battery.voltage();
            prop_assert!(v <= cfg.cell_full_voltage * cfg.cells as f64 + 1e-9);
            prop_assert!(v >= cfg.cell_empty_voltage * cfg.cells as f64 - 1e-9);
            last_soc = soc;
        }
    }

    /// Rotor power grows with horizontal speed at any acceleration.
    #[test]
    fn rotor_power_monotone_in_speed(v1 in 0.0f64..15.0, v2 in 0.0f64..15.0, a in 0.0f64..5.0) {
        let model = RotorPowerModel::dji_matrice_100();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        let p_lo = model.power(&Vec3::new(lo, 0.0, 0.0), &Vec3::new(a, 0.0, 0.0), &Vec3::ZERO);
        let p_hi = model.power(&Vec3::new(hi, 0.0, 0.0), &Vec3::new(a, 0.0, 0.0), &Vec3::ZERO);
        prop_assert!(p_hi >= p_lo);
    }

    /// Smoothed trajectories always respect the velocity/acceleration limits
    /// they were given and preserve their endpoints.
    #[test]
    fn smoothing_respects_limits(
        xs in proptest::collection::vec(-30.0f64..30.0, 2..6),
        vmax in 1.0f64..12.0,
        amax in 1.0f64..6.0,
    ) {
        let waypoints: Vec<Vec3> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| Vec3::new(*x, (i as f64) * 7.0, 3.0))
            .collect();
        let smoother = PathSmoother::new(SmootherConfig::new(vmax, amax));
        let traj = smoother.smooth(&waypoints, SimTime::ZERO).unwrap();
        prop_assert!(traj.max_speed() <= vmax + 1e-6);
        prop_assert!(traj.max_acceleration() <= amax + 1e-6);
        prop_assert!(traj.first().unwrap().position.distance(&waypoints[0]) < 1e-6);
        prop_assert!(traj.last().unwrap().position.distance(waypoints.last().unwrap()) < 1e-6);
    }

    /// Inserting a ray into the occupancy map always marks the endpoint voxel
    /// occupied and never marks voxels beyond it.
    #[test]
    fn octomap_ray_endpoint_is_occupied(
        x in 2.0f64..20.0,
        y in -15.0f64..15.0,
        z in 0.5f64..10.0,
        resolution in 0.2f64..1.0,
    ) {
        let mut map = OctoMap::new(resolution, 40.0);
        let origin = Vec3::new(0.0, 0.0, 1.0);
        let endpoint = Vec3::new(x, y, z);
        map.insert_ray(&origin, &endpoint);
        prop_assert_eq!(map.query(&endpoint), Occupancy::Occupied);
        // A point well beyond the endpoint along the same ray is unknown.
        let beyond = origin + (endpoint - origin) * 1.6;
        if map.in_domain(&beyond) && beyond.distance(&endpoint) > 2.0 * resolution {
            prop_assert_ne!(map.query(&beyond), Occupancy::Occupied);
        }
    }

    /// Kernel ids used by any application profile are always attributed to one
    /// of the three pipeline stages.
    #[test]
    fn every_profiled_kernel_has_a_stage(app_idx in 0usize..5) {
        let app = ApplicationId::all()[app_idx];
        for (kernel, _) in table1_profile(app).iter() {
            let _stage = kernel.stage();
            prop_assert!(!kernel.short_name().is_empty());
            prop_assert!(KernelId::all().contains(kernel));
        }
    }
}
