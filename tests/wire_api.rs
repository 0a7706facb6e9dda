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
