//! Integration tests for the three case studies: sensor-cloud offload
//! (performance), OctoMap resolution (energy) and depth-noise injection
//! (reliability). Scenarios are scaled down so the suite stays fast in debug
//! builds; the full-size sweeps live in the `mav-bench` harness binaries.

use mavbench::compute::ApplicationId;
use mavbench::core::experiments::{
    cloud_offload_study, noise_reliability_study, quick_config, resolution_study, CloudComparison,
};
use mavbench::core::{MissionConfig, ResolutionPolicy, SweepRunner};

fn small(cfg: MissionConfig) -> MissionConfig {
    let mut cfg = quick_config(cfg);
    cfg.environment.extent = 24.0;
    cfg.environment.obstacle_density = cfg.environment.obstacle_density.min(1.0);
    cfg
}

#[test]
fn cloud_offload_reduces_mission_time_for_mapping() {
    let CloudComparison { edge, cloud } =
        cloud_offload_study(&SweepRunner::new(), |cfg| small(cfg).with_seed(4));
    assert!(edge.success(), "{:?}", edge.failure);
    assert!(cloud.success(), "{:?}", cloud.failure);
    // Fig. 16: the sensor-cloud drone hovers less and finishes sooner.
    assert!(
        cloud.mission_time_secs < edge.mission_time_secs,
        "cloud {} s vs edge {} s",
        cloud.mission_time_secs,
        edge.mission_time_secs
    );
    assert!(cloud.hover_time_secs < edge.hover_time_secs);
    assert!(cloud.energy_kj() <= edge.energy_kj() * 1.02);
}

#[test]
fn dynamic_resolution_is_cheaper_than_static_fine() {
    // Fig. 19 direction on a small Package Delivery scenario: the dynamic
    // policy completes the mission at least as fast as the fine static policy
    // (it spends less compute on OctoMap updates while outdoors) and retains
    // at least as much battery.
    let rows = resolution_study(&SweepRunner::new(), ApplicationId::PackageDelivery, |cfg| {
        small(cfg).with_seed(12)
    });
    assert_eq!(rows.len(), 3);
    let fine = rows
        .iter()
        .find(|r| r.value.starts_with("static") && r.value.contains("0.15"))
        .unwrap();
    let dynamic = rows
        .iter()
        .find(|r| r.value.starts_with("dynamic"))
        .unwrap();
    assert!(dynamic.report.success(), "{:?}", dynamic.report.failure);
    assert!(fine.report.success(), "{:?}", fine.report.failure);
    assert!(
        dynamic.report.mission_time_secs <= fine.report.mission_time_secs * 1.05,
        "dynamic {} s vs fine {} s",
        dynamic.report.mission_time_secs,
        fine.report.mission_time_secs
    );
    assert!(dynamic.report.battery_remaining_pct >= fine.report.battery_remaining_pct - 1.0);
}

#[test]
fn resolution_policy_selection_logic() {
    // The dynamic policy must actually switch with density.
    let policy = ResolutionPolicy::dynamic_default();
    assert_eq!(policy.resolution_for_density(0.0), 0.80);
    assert_eq!(policy.resolution_for_density(0.2), 0.15);
    // And the octomap-cost model must make fine resolution more expensive.
    assert!(
        ResolutionPolicy::octomap_cost_multiplier(0.15)
            > ResolutionPolicy::octomap_cost_multiplier(0.8)
    );
}

#[test]
fn depth_noise_degrades_package_delivery() {
    // Table II direction: injected depth noise never improves the mission —
    // it either triggers more re-planning (longer missions) or outright
    // failures. Two runs per level keep the debug-mode runtime bounded.
    let rows = noise_reliability_study(&SweepRunner::new(), &[0.0, 1.0], 2, small);
    assert_eq!(rows.len(), 2);
    let clean = &rows[0];
    let noisy = &rows[1];
    assert!((0.0..=1.0).contains(&clean.failure_rate));
    assert!((0.0..=1.0).contains(&noisy.failure_rate));
    let degraded = noisy.failure_rate > clean.failure_rate
        || noisy.mean_replans >= clean.mean_replans
        || noisy.mean_mission_time >= clean.mean_mission_time;
    assert!(
        degraded,
        "noise improved the mission: clean (fail {:.2}, replans {:.1}, {:.1} s) vs noisy (fail {:.2}, replans {:.1}, {:.1} s)",
        clean.failure_rate,
        clean.mean_replans,
        clean.mean_mission_time,
        noisy.failure_rate,
        noisy.mean_replans,
        noisy.mean_mission_time
    );
}
