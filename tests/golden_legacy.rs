//! Golden-output tests pinning the legacy closed loop bit-for-bit.
//!
//! The node-graph refactor (PR 2) moved every application's closed loop onto
//! the `mav_runtime::Executor`. With `RateConfig::legacy()` (the default) the
//! executor must reproduce the pre-refactor sequential loop *exactly*: same
//! kernel charges in the same order, same clock arithmetic, same physics
//! steps. These fixtures were captured from the pre-refactor engine and
//! compare every metric by its raw f64 bit pattern, so any drift — a
//! reordered kernel charge, an extra clamp, a changed tick length — fails
//! loudly instead of shifting figures by fractions of a percent.
//!
//! If a future PR *intentionally* changes legacy mission arithmetic, re-run
//! the capture (see the fixture layout below) and update the constants in the
//! same commit, calling the change out in CHANGES.md.

use mav_compute::{ApplicationId, CloudConfig};
use mav_core::{run_mission, MissionConfig, MissionReport, ResolutionPolicy};

/// Exact (bit-pattern) snapshot of one legacy mission's report.
struct GoldenReport {
    success: bool,
    mission_time_secs: u64,
    hover_time_secs: u64,
    distance_m: u64,
    velocity_cap: u64,
    total_energy_j: u64,
    battery_remaining_pct: u64,
    replans: u32,
    detections: u32,
    mapped_volume: u64,
    tracking_error: u64,
    kernel_total_secs: u64,
}

fn assert_bits(label: &str, metric: &str, actual: f64, expected: u64) {
    assert_eq!(
        actual.to_bits(),
        expected,
        "{label}: {metric} drifted from the pre-refactor engine \
         (got {actual} = {:#018x}, want {:#018x})",
        actual.to_bits(),
        expected,
    );
}

fn check(label: &str, report: &MissionReport, golden: &GoldenReport) {
    assert_eq!(
        report.success(),
        golden.success,
        "{label}: success flag changed ({:?})",
        report.failure
    );
    assert_bits(
        label,
        "mission_time_secs",
        report.mission_time_secs,
        golden.mission_time_secs,
    );
    assert_bits(
        label,
        "hover_time_secs",
        report.hover_time_secs,
        golden.hover_time_secs,
    );
    assert_bits(label, "distance_m", report.distance_m, golden.distance_m);
    assert_bits(
        label,
        "velocity_cap",
        report.velocity_cap,
        golden.velocity_cap,
    );
    assert_bits(
        label,
        "total_energy_j",
        report.total_energy.as_joules(),
        golden.total_energy_j,
    );
    assert_bits(
        label,
        "battery_remaining_pct",
        report.battery_remaining_pct,
        golden.battery_remaining_pct,
    );
    assert_eq!(report.replans, golden.replans, "{label}: replans changed");
    assert_eq!(
        report.detections, golden.detections,
        "{label}: detections changed"
    );
    assert_bits(
        label,
        "mapped_volume",
        report.mapped_volume,
        golden.mapped_volume,
    );
    assert_bits(
        label,
        "tracking_error",
        report.tracking_error,
        golden.tracking_error,
    );
    assert_bits(
        label,
        "kernel_total_secs",
        report.kernel_timer.grand_total().as_secs(),
        golden.kernel_total_secs,
    );
}

#[test]
fn legacy_scanning_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::Scanning).with_seed(3);
    cfg.environment.extent = 30.0;
    check(
        "scanning seed 3",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x403b63b645a1cb08,
            hover_time_secs: 0x3fc84189374bc6a8,
            distance_m: 0x4064cd0ce535e339,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40c84d1f87aaf048,
            battery_remaining_pct: 0x40583cd89e26df2b,
            replans: 0,
            detections: 0,
            mapped_volume: 0x0000000000000000,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x3fe004189374bc6d,
        },
    );
}

#[test]
fn legacy_package_delivery_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery).with_seed(9);
    cfg.environment.extent = 30.0;
    cfg.environment.obstacle_density = 1.0;
    check(
        "package delivery seed 9",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x402e6e978d4fdf61,
            hover_time_secs: 0x4010428f5c28f5bc,
            distance_m: 0x4047ce1618687ad1,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40b7727c1d9289cd,
            battery_remaining_pct: 0x4058a1e05c6d1b11,
            replans: 0,
            detections: 0,
            mapped_volume: 0x40baa04189374bc8,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x402c06666666666b,
        },
    );
}

#[test]
fn legacy_mapping_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::Mapping3D).with_seed(4);
    cfg.environment.extent = 25.0;
    check(
        "mapping seed 4",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x401f8e147ae14799,
            hover_time_secs: 0x400cddb22d0e55fc,
            distance_m: 0x402b242b71fb9c7a,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40ab82414305e698,
            battery_remaining_pct: 0x4058c8ca9b1e8d87,
            replans: 0,
            detections: 0,
            mapped_volume: 0x40ba27ef9db22d10,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x40206395810624dc,
        },
    );
}

#[test]
fn legacy_search_and_rescue_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::SearchAndRescue).with_seed(6);
    cfg.environment.extent = 25.0;
    cfg.environment.people = 6;
    check(
        "search and rescue seed 6",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x3fe152f1a9fbe76c,
            hover_time_secs: 0x3fe152f1a9fbe76c,
            distance_m: 0x0000000000000000,
            velocity_cap: 0x401e98e6214965c5,
            total_energy_j: 0x406701bc4dca8e2e,
            battery_remaining_pct: 0x4058fd1d5328042a,
            replans: 0,
            detections: 1,
            mapped_volume: 0x406dd2f1a9fbe76f,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x3fe152f1a9fbe76d,
        },
    );
}

#[test]
fn legacy_aerial_photography_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::AerialPhotography).with_seed(8);
    cfg.environment.extent = 40.0;
    cfg.environment.obstacle_density = 0.2;
    cfg.time_budget_secs = 60.0;
    check(
        "aerial photography seed 8",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x40352a2339c0ec1a,
            hover_time_secs: 0x4000339c0ebedfa7,
            distance_m: 0x404445abb3036254,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40bf8efffb387bc2,
            battery_remaining_pct: 0x4058814dfc510b46,
            replans: 0,
            detections: 24,
            mapped_volume: 0x0000000000000000,
            tracking_error: 0x3fbdd459f1e8fa28,
            kernel_total_secs: 0x4032aa9fbe76c8b8,
        },
    );
}

#[test]
fn legacy_dynamic_resolution_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery)
        .with_seed(13)
        .with_resolution_policy(ResolutionPolicy::dynamic_default());
    cfg.environment.extent = 30.0;
    cfg.environment.obstacle_density = 1.0;
    check(
        "delivery dynamic resolution seed 13",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x4031f1fbe76c8b60,
            hover_time_secs: 0x4010428f5c28f5bc,
            distance_m: 0x4048eeedf175b913,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40bb6177eff8975c,
            battery_remaining_pct: 0x40589214ed6e4836,
            replans: 0,
            detections: 0,
            mapped_volume: 0x40b6722d0e56041a,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x4030bde353f7ceda,
        },
    );
}

#[test]
fn legacy_cloud_offload_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::Mapping3D)
        .with_seed(4)
        .with_cloud(CloudConfig::planning_offload());
    cfg.environment.extent = 25.0;
    check(
        "mapping cloud offload seed 4",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x40186bf258bf257d,
            hover_time_secs: 0x3ffd32dbd1942384,
            distance_m: 0x402b242b71fb9c84,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40a6c5acf71c4acd,
            battery_remaining_pct: 0x4058d24c765b8b76,
            replans: 0,
            detections: 0,
            mapped_volume: 0x40ba245a1cac0833,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x4019a508dfea2798,
        },
    );
}

#[test]
fn legacy_noise_sweep_point_is_bit_identical() {
    let mut cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery)
        .with_seed(1000)
        .with_depth_noise(1.0);
    cfg.environment.extent = 30.0;
    cfg.environment.obstacle_density = 1.0;
    check(
        "delivery noise 1.0 seed 1000",
        &run_mission(cfg),
        &GoldenReport {
            success: true,
            mission_time_secs: 0x402e6e978d4fdf61,
            hover_time_secs: 0x4010428f5c28f5bc,
            distance_m: 0x40472d3feb5529cd,
            velocity_cap: 0x4020000000000000,
            total_energy_j: 0x40b76ce2ef847243,
            battery_remaining_pct: 0x4058a1f6d6f820e8,
            replans: 0,
            detections: 0,
            mapped_volume: 0x40b8926e978d4fe1,
            tracking_error: 0x0000000000000000,
            kernel_total_secs: 0x402c06666666666b,
        },
    );
}
