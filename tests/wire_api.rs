//! Wire-API round-trip properties: `from_json(to_json(c)) == c` for every
//! config type the `mav-server` job spec carries.
//!
//! The job cache keys on the canonical JSON of the parsed spec, so the wire
//! encoding must be lossless: any config the simulator can run must survive
//! a trip through `ToJson` → text → `Json::parse` → `FromJson` unchanged.
//! Rust's shortest-round-trip float formatting makes this exact for `f64`
//! fields (whole floats render as integers and come back through `as_f64`),
//! and these properties pin that across randomized, validate()-passing
//! configs rather than a few handpicked ones.

use mavbench::compute::{ApplicationId, OperatingPoint};
use mavbench::core::{
    BrakePolicy, DegradationConfig, ExecModel, FaultPlan, MissionConfig, NodeOpConfig, RateConfig,
    ReplanMode, ResolutionPolicy, ScenarioGenerator,
};
use mavbench::perception::OctoMap;
use mavbench::types::{Frequency, FromJson, Json, ToJson};
use proptest::prelude::*;

/// Full text round trip, exactly what the server does to a stored spec:
/// render, parse the rendered text back, decode.
fn round_trip<T: ToJson + FromJson>(value: &T) -> Result<T, String> {
    let text = value.to_json().to_string_compact();
    let json = Json::parse(&text).map_err(|e| e.to_string())?;
    T::from_json(&json)
}

fn point(cores: u32, ghz: f64) -> OperatingPoint {
    OperatingPoint::new(cores, Frequency::from_ghz(ghz))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rate_config_round_trips(
        mask in 0usize..16,
        cam in 0.5f64..120.0,
        map in 0.2f64..60.0,
        plan in 0.1f64..30.0,
        ctrl in 1.0f64..200.0,
    ) {
        let rates = RateConfig {
            camera_fps: (mask & 1 != 0).then_some(cam),
            mapping_hz: (mask & 2 != 0).then_some(map),
            replan_hz: (mask & 4 != 0).then_some(plan),
            control_hz: (mask & 8 != 0).then_some(ctrl),
        };
        prop_assert_eq!(round_trip(&rates), Ok(rates));
    }

    #[test]
    fn node_op_config_round_trips(
        mask in 0usize..16,
        cores in (1u32..=8, 1u32..=8, 1u32..=8, 1u32..=8),
        ghz in (0.3f64..3.0, 0.3f64..3.0, 0.3f64..3.0, 0.3f64..3.0),
    ) {
        let ops = NodeOpConfig {
            camera: (mask & 1 != 0).then(|| point(cores.0, ghz.0)),
            mapping: (mask & 2 != 0).then(|| point(cores.1, ghz.1)),
            planning: (mask & 4 != 0).then(|| point(cores.2, ghz.2)),
            control: (mask & 8 != 0).then(|| point(cores.3, ghz.3)),
        };
        prop_assert_eq!(round_trip(&ops), Ok(ops));
    }

    #[test]
    fn fault_plan_round_trips(
        cam_drop in 0.0f64..1.0,
        frames in 1u32..=12,
        noise_burst in 0.0f64..1.0,
        burst_std in 0.0f64..2.0,
        spike in 0.0f64..1.0,
        spike_factor in 1.0f64..8.0,
        plan_factor in 1.0f64..4.0,
        topic_drop in 0.0f64..1.0,
        fade in 0.0f64..0.9,
    ) {
        let plan = FaultPlan {
            camera_dropout: cam_drop,
            camera_dropout_frames: frames,
            noise_burst,
            noise_burst_std: burst_std,
            kernel_spike: spike,
            kernel_spike_factor: spike_factor,
            plan_timeout_factor: plan_factor,
            topic_drop,
            battery_fade: fade,
        };
        prop_assert_eq!(round_trip(&plan), Ok(plan));
    }

    #[test]
    fn degradation_config_round_trips(
        watchdog in 0u8..2,
        grace in 1.0f64..10.0,
        has_timeout in 0u8..2,
        timeout in 0.1f64..30.0,
        brake in 0u8..2,
        splicing in 0u8..2,
    ) {
        let degradation = DegradationConfig {
            perception_watchdog: watchdog == 1,
            stale_grace_factor: grace,
            plan_timeout_secs: (has_timeout == 1).then_some(timeout),
            brake_policy: if brake == 1 { BrakePolicy::Graded } else { BrakePolicy::Binary },
            plan_splicing: splicing == 1,
        };
        prop_assert_eq!(round_trip(&degradation), Ok(degradation));
    }

    #[test]
    fn mission_config_round_trips(
        app_idx in 0usize..5,
        seed in 0u64..1_000_000,
        noise in 0.0f64..0.5,
        budget in 30.0f64..3600.0,
        stop in 1.0f64..30.0,
        cruise in 0.5f64..15.0,
        dt in 0.01f64..0.2,
        replan in 0u8..2,
        exec in 0u8..2,
        resolution in 0.1f64..1.0,
        cam_fps in 2.0f64..60.0,
        rate_on in 0u8..2,
        spike in 0.0f64..0.5,
        grace in 1.0f64..5.0,
    ) {
        let mut config = MissionConfig::new(ApplicationId::all()[app_idx])
            .with_seed(seed)
            .with_depth_noise(noise)
            .with_resolution_policy(ResolutionPolicy::Static { resolution })
            .with_replan_mode(if replan == 1 { ReplanMode::PlanInMotion } else { ReplanMode::HoverToPlan })
            .with_exec_model(if exec == 1 { ExecModel::Pipelined } else { ExecModel::Serial })
            .with_fault_plan(FaultPlan { kernel_spike: spike, ..FaultPlan::none() })
            .with_degradation(DegradationConfig { stale_grace_factor: grace, ..DegradationConfig::off() });
        config.time_budget_secs = budget;
        config.stopping_distance = stop;
        config.cruise_velocity = cruise;
        config.physics_dt = dt;
        if rate_on == 1 {
            config.rates.camera_fps = Some(cam_fps);
        }
        prop_assert!(config.validate().is_ok(), "draw must be valid: {:?}", config.validate());
        prop_assert_eq!(round_trip(&config), Ok(config));
    }

    /// The canonical text itself is a fixed point: encoding the decoded
    /// config reproduces the exact bytes the cache key is hashed from.
    #[test]
    fn canonical_text_is_a_fixed_point(app_idx in 0usize..5, seed in 0u64..1_000_000) {
        let config = MissionConfig::new(ApplicationId::all()[app_idx]).with_seed(seed);
        let text = config.to_json().to_string_compact();
        let reparsed = MissionConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(reparsed.to_json().to_string_compact(), text);
    }
}

/// Dynamic resolution policies and the sweep scenario generator round-trip
/// too (deterministic spot checks; their field spaces are small).
#[test]
fn dynamic_resolution_and_scenario_generator_round_trip() {
    let policy = ResolutionPolicy::Dynamic {
        outdoor: 0.8,
        indoor: 0.15,
        density_threshold: 0.02,
    };
    assert_eq!(round_trip(&policy), Ok(policy));

    let mut generator = ScenarioGenerator::new(ApplicationId::Mapping3D, 7);
    generator.extents = vec![14.0, 30.0];
    generator.noise_levels = vec![0.0, 0.25];
    generator.replan_modes = vec![ReplanMode::HoverToPlan, ReplanMode::PlanInMotion];
    assert_eq!(round_trip(&generator), Ok(generator));
}

/// Operating points survive both wire forms: the structured object and the
/// CLI string (`big@2.2`) decode to the same point, and the structured form
/// is the lossless one the canonical encoding uses.
#[test]
fn operating_point_wire_forms_agree() {
    let p = point(4, 2.2);
    assert_eq!(round_trip(&p), Ok(p));
    let from_cli = OperatingPoint::from_json(&Json::String("big@2.2".into())).unwrap();
    assert_eq!(from_cli, p);
}

/// A resolution too fine for the mission's map is a spec error, so the job
/// server answers 400 instead of a worker building a map that needs more
/// than `OctoMap::MAX_DEPTH` levels (a shift overflow in debug builds, a
/// degenerate domain in release). Static and dynamic policies alike.
#[test]
fn map_resolution_is_bounded_by_the_map_depth() {
    let spec = |policy: &str| {
        let text = format!(r#"{{"application":"package-delivery","resolution_policy":{policy}}}"#);
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    for policy in [
        "1e-300",
        "1e-6",
        r#"{"kind":"dynamic","outdoor":0.8,"indoor":1e-6,"density_threshold":0.02}"#,
    ] {
        let err = spec(policy).expect_err(policy);
        assert!(err.contains("-level map"), "{policy}: {err}");
    }
    let config = spec("0.15").unwrap();
    assert_eq!(
        config.resolution_policy,
        ResolutionPolicy::Static { resolution: 0.15 }
    );
    assert_eq!(config.map_half_extent(), 85.0);
    let too_fine = config.with_resolution_policy(ResolutionPolicy::Static { resolution: 1e-300 });
    assert!(too_fine.validate().is_err());

    // Every dynamic switch rebuilds the map over the requested ±85 m, so the
    // bound is exact: 4e-5 m needs 23 levels there and is rejected, 4.5e-5 m
    // needs 22 and passes the depth bound, static and dynamic alike. (The
    // collision radius then spans 8,334 voxels, so the inflation bound of
    // `inflation_radius_is_bounded_in_voxels` refuses it next.)
    let dynamic = |indoor: f64| {
        format!(r#"{{"kind":"dynamic","outdoor":0.8,"indoor":{indoor:e},"density_threshold":0}}"#)
    };
    let err = spec(&dynamic(4e-5)).expect_err("switch to 4e-5 m");
    assert!(err.contains("23-level map over ±85 m"), "{err}");
    assert_eq!(OctoMap::depth_for(4.5e-5, 85.0), OctoMap::MAX_DEPTH);
    for policy in [dynamic(4.5e-5), "4.5e-5".to_string()] {
        let err = spec(&policy).expect_err(&policy);
        assert!(!err.contains("-level map"), "{policy}: {err}");
        assert!(err.contains("64-voxel limit"), "{policy}: {err}");
    }
}

/// A camera too large to capture is a spec error: the first capture would
/// reserve one `f64` per pixel, and a product past `usize::MAX` would wrap.
/// The server answers 400 for both; Fig. 18's 128×96 camera passes.
#[test]
fn camera_size_is_bounded() {
    let spec = |width: u64, height: u64| {
        let text = format!(
            r#"{{"application":"package_delivery","camera":{{"width":{width},"height":{height}}}}}"#
        );
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    for (width, height) in [(100_000, 100_000), (1 << 32, 1 << 32)] {
        let err = spec(width, height).expect_err("oversized camera");
        assert!(err.contains("pixel frame limit"), "{width}x{height}: {err}");
    }
    let config = spec(128, 96).unwrap();
    assert_eq!((config.camera.width, config.camera.height), (128, 96));
    let mut too_large = config;
    too_large.camera.width = 100_000;
    too_large.camera.height = 100_000;
    assert!(too_large.validate().is_err());
}

/// A field of view past π turns the camera's edge rays behind it (7 rad
/// wraps them past the yaw) and a range of at most zero reads no return on
/// any pixel, so both are spec errors; a π × π camera passes.
#[test]
fn camera_view_is_bounded() {
    let spec = |camera: &str| {
        let text = format!(r#"{{"application":"package_delivery","camera":{{{camera}}}}}"#);
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    for (camera, field) in [
        (r#""fov_horizontal":7.0"#, "fov_horizontal"),
        (r#""fov_horizontal":0"#, "fov_horizontal"),
        (r#""fov_vertical":3.2"#, "fov_vertical"),
        (r#""fov_vertical":-1"#, "fov_vertical"),
        (r#""max_range":-5"#, "max_range"),
        (r#""max_range":0"#, "max_range"),
    ] {
        let err = spec(camera).expect_err(camera);
        assert!(err.contains(field), "{camera}: {err}");
    }
    let pi = std::f64::consts::PI;
    let config = spec(&format!(r#""fov_horizontal":{pi},"fov_vertical":{pi}"#)).unwrap();
    assert_eq!(config.camera.fov_horizontal, pi);
    let mut wide = config;
    wide.camera.fov_horizontal = 7.0;
    assert!(wide.validate().is_err());
}

/// A battery of zero capacity reports a NaN charge and one of negative
/// capacity never drains, so both are spec errors, as are a pack without
/// cells and per-cell voltages out of order; a one-cell pack whose nominal
/// voltage is its full voltage passes.
#[test]
fn battery_is_validated() {
    let spec = |battery: &str| {
        let text = format!(r#"{{"application":"package_delivery","battery":{{{battery}}}}}"#);
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    for (battery, field) in [
        (r#""capacity_mah":0"#, "capacity_mah"),
        (r#""capacity_mah":-100"#, "capacity_mah"),
        (r#""capacity_mah":1e400"#, "capacity_mah"),
        (r#""cells":0"#, "cells"),
        (r#""cell_full_voltage":-4.2"#, "cell_full_voltage"),
        (r#""cell_empty_voltage":4.3"#, "cell_empty_voltage"),
        (r#""cell_nominal_voltage":4.5"#, "cell_nominal_voltage"),
        (r#""cell_nominal_voltage":3.0"#, "cell_nominal_voltage"),
    ] {
        let err = spec(battery).expect_err(battery);
        assert!(err.contains(field), "{battery}: {err}");
    }
    let config = spec(r#""cells":1,"cell_nominal_voltage":4.2"#).unwrap();
    assert_eq!(config.battery.cells, 1);
    let mut empty = config;
    empty.battery.capacity_mah = 0.0;
    let err = empty.validate().expect_err("zero capacity");
    assert!(err.contains("battery"), "{err}");
}

/// A clock too slow to simulate is a spec error: kernel latencies scale by
/// 2.2 GHz / f, so 1e-9 GHz turns one kernel charge into about 2e8
/// simulated seconds of physics steps and hangs the worker running it. The
/// server answers 400 for the mission-global point in both wire forms and
/// for a per-node point; 0.1 GHz, the floor, passes.
#[test]
fn operating_point_frequency_is_bounded() {
    let spec = |knob: &str| {
        let text = format!(r#"{{"application":"scanning",{knob}}}"#);
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    for knob in [
        r#""operating_point":"big@1e-9""#,
        r#""operating_point":{"cores":4,"frequency_ghz":1e-9}"#,
        r#""node_ops":"plan=big@1e-9""#,
        r#""node_ops":{"planning":{"cores":4,"frequency_ghz":1e-9}}"#,
    ] {
        let err = spec(knob).expect_err(knob);
        assert!(err.contains("at least 0.1 GHz"), "{knob}: {err}");
    }
    let config = spec(r#""operating_point":"1c@0.1""#).unwrap();
    assert_eq!(config.operating_point, point(1, 0.1));
    spec(r#""node_ops":"plan=little@0.1""#).unwrap();
    let too_slow = config.with_operating_point(point(4, 0.099));
    assert!(too_slow.validate().is_err());
}

/// A sparse `environment` object overlays the application's own world, like
/// every other omitted knob: Search and Rescue keeps its three people,
/// Aerial Photography its subject and Scanning its open field.
#[test]
fn sparse_environment_keeps_the_application_world() {
    for &app in ApplicationId::all() {
        let text = format!(
            r#"{{"application":{},"environment":{{"seed":5}}}}"#,
            app.to_json().to_string_compact()
        );
        let config = MissionConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        let preset = MissionConfig::new(app).environment.with_seed(5);
        assert_eq!(config.environment, preset, "{app}");
        let world = config.environment.generate();
        assert_eq!(world.name(), preset.name, "{app}");
    }
    let sar = MissionConfig::from_json(
        &Json::parse(r#"{"application":"search_and_rescue","environment":{"seed":5}}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(sar.environment.people, 3);
    let scanning = MissionConfig::from_json(
        &Json::parse(r#"{"application":"scanning","environment":{"extent":14.0}}"#).unwrap(),
    )
    .unwrap();
    assert_eq!(scanning.environment.extent, 14.0);
    assert_eq!(scanning.environment.obstacle_density, 0.05);
}

/// Every spec the environment generator cannot build, or that asks for
/// more obstacles than a capture can raycast, is a spec error naming the
/// field; a reversed range used to panic `EnvironmentConfig::generate`.
#[test]
fn environment_is_validated() {
    for (environment, expect) in [
        (r#"{"obstacle_size":[6,1]}"#, "obstacle_size"),
        (r#"{"obstacle_height":[6,1]}"#, "obstacle_height"),
        (r#"{"obstacle_height":[-1,1]}"#, "obstacle_height"),
        (r#"{"extent":0}"#, "extent"),
        (r#"{"extent":1e5,"obstacle_density":0}"#, "extent"),
        (r#"{"height":-3}"#, "height"),
        (r#"{"height":1e4}"#, "height"),
        (r#"{"dynamic_speed":-1}"#, "dynamic_speed"),
        (r#"{"door_width":-0.5}"#, "door_width"),
        (r#"{"obstacle_density":1e9}"#, "obstacles"),
        (r#"{"people":1000000}"#, "obstacles"),
    ] {
        let text = format!(r#"{{"application":"package_delivery","environment":{environment}}}"#);
        let err = MissionConfig::from_json(&Json::parse(&text).unwrap()).expect_err(environment);
        assert!(err.contains("environment: "), "{environment}: {err}");
        assert!(err.contains(expect), "{environment}: {err}");
    }
    let mut config = MissionConfig::new(ApplicationId::PackageDelivery);
    config.environment.obstacle_size = (6.0, 1.0);
    assert!(config.validate().is_err());
    // The extent bound itself: a 2 km square without clutter.
    MissionConfig::from_json(
        &Json::parse(
            r#"{"application":"scanning","environment":{"extent":1000,"height":1000,"obstacle_density":0}}"#,
        )
        .unwrap(),
    )
    .unwrap();
}

/// Every stretch of one kernel charge is bounded like the operating-point
/// floor (about 100× its Table I time): fault multipliers, the cloud's
/// speed-up and the link's transfer time. Each used to hang a worker in
/// `MissionContext::advance`.
#[test]
fn charge_stretch_factors_are_bounded() {
    let spec = |knob: &str| {
        let text = format!(r#"{{"application":"3d-mapping","{knob}}}"#);
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    let cloud = |speedup: &str, bandwidth: &str, latency: &str, payload: &str| {
        format!(
            r#"cloud":{{"speedup":{speedup},"link":{{"bandwidth_mbps":{bandwidth},"latency_ms":{latency}}},"payload_megabytes":{payload},"offloaded":["MP","FE","Smooth"]}}"#
        )
    };
    for (knob, expect) in [
        (
            r#"fault_plan":"kernel-spike=1@1e12""#.to_string(),
            "kernel-spike factor",
        ),
        (
            r#"fault_plan":"plan-timeout=1e12x""#.to_string(),
            "plan-timeout factor",
        ),
        (
            r#"fault_plan":{"kernel_spike":0.5,"kernel_spike_factor":101}"#.to_string(),
            "kernel-spike factor",
        ),
        (cloud("1e-12", "1000", "1", "0.5"), "cloud: speedup"),
        (cloud("0", "1000", "1", "0.5"), "cloud: speedup"),
        (cloud("3", "1e-300", "1", "0.5"), "transfer"),
        (cloud("3", "0", "1", "0.5"), "bandwidth_mbps"),
        (cloud("3", "1000", "1e12", "0.5"), "transfer"),
        (cloud("3", "1000", "-1", "0.5"), "latency_ms"),
        (cloud("3", "1000", "1", "1e12"), "transfer"),
        (cloud("3", "1000", "1", "-1"), "payload_megabytes"),
        // Both sides of the transfer time overflow: inf / inf is NaN.
        (cloud("3", "1e303", "1", "1e302"), "transfer"),
    ] {
        let err = spec(&knob).expect_err(&knob);
        assert!(err.contains(expect), "{knob}: {err}");
    }
    spec(r#"fault_plan":"kernel-spike=1@100,plan-timeout=100x""#).unwrap();
    spec(&cloud("0.01", "50", "30", "20")).unwrap();
    let mut config = MissionConfig::new(ApplicationId::Mapping3D)
        .with_cloud(mavbench::compute::CloudConfig::planning_offload());
    config.validate().unwrap();
    if let Some(cloud) = config.cloud.as_mut() {
        cloud.speedup = 1e-9;
    }
    assert!(
        config.validate().is_err(),
        "configs built in Rust are checked too"
    );
}

/// The collision checker's inflation ball spans `ceil(radius / resolution)`
/// voxels each way, one byte per offset: a 5 m airframe at 1 cm asked for a
/// 1 GB ball. Specs past 64 voxels at any of the mission's resolutions are
/// rejected; the default airframe needs 3 at the paper's finest 0.15 m.
#[test]
fn inflation_radius_is_bounded_in_voxels() {
    let spec = |knobs: &str| {
        let text = format!(r#"{{"application":"package_delivery",{knobs}}}"#);
        MissionConfig::from_json(&Json::parse(&text).unwrap())
    };
    for knobs in [
        r#""quadrotor":{"radius":5.0},"resolution_policy":0.01"#,
        r#""resolution_policy":0.001"#,
        r#""resolution_policy":{"kind":"dynamic","outdoor":0.8,"indoor":0.001,"density_threshold":0.02}"#,
    ] {
        let err = spec(knobs).expect_err(knobs);
        assert!(err.contains("quadrotor radius"), "{knobs}: {err}");
        assert!(err.contains("64-voxel"), "{knobs}: {err}");
    }
    // 0.375 m spans 3 voxels at 0.15 m; 64 voxels is the bound itself.
    let fine = spec(r#""resolution_policy":0.15"#).unwrap();
    assert_eq!((fine.collision_radius() / 0.15).ceil(), 3.0);
    spec(r#""quadrotor":{"radius":0.45},"resolution_policy":0.0078125"#).unwrap();
    spec(r#""quadrotor":{"radius":0.46},"resolution_policy":0.0078125"#).unwrap_err();
}
