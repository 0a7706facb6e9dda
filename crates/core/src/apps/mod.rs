//! The five MAVBench benchmark applications.
//!
//! Each application composes the perception / planning / control kernels into
//! the end-to-end closed-loop dataflow of the paper's Fig. 7 and runs it on
//! the [`crate::MissionContext`] engine, producing a [`crate::MissionReport`].

pub mod aerial_photography;
pub mod mapping;
pub mod package_delivery;
pub mod scanning;
pub mod search_rescue;

use crate::config::MissionConfig;
use crate::context::MissionContext;
use crate::qof::{MissionFailure, MissionReport};
use crate::scratch::EpisodeScratch;
use mav_compute::ApplicationId;

/// Runs the benchmark application selected by `config.application` and returns
/// its mission report.
///
/// This is the single entry point used by the examples, the integration tests
/// and every experiment harness. The mission takes its occupancy map and
/// point-cloud buffers from this thread's [`EpisodeScratch`] and hands them
/// back when it finishes.
///
/// # Example
///
/// ```no_run
/// use mav_compute::ApplicationId;
/// use mav_core::{run_mission, MissionConfig};
///
/// let report = run_mission(MissionConfig::fast_test(ApplicationId::Scanning));
/// println!("{report}");
/// ```
pub fn run_mission(config: MissionConfig) -> MissionReport {
    let application = config.application;
    match MissionContext::new(config) {
        Ok(ctx) => match application {
            ApplicationId::Scanning => scanning::run(ctx),
            ApplicationId::AerialPhotography => aerial_photography::run(ctx),
            ApplicationId::PackageDelivery => package_delivery::run(ctx),
            ApplicationId::Mapping3D => mapping::run(ctx),
            ApplicationId::SearchAndRescue => search_rescue::run(ctx),
        },
        Err(reason) => invalid_config_report(application, reason),
    }
}

/// [`run_mission`] on the caller's `scratch` instead of this thread's own:
/// the two are swapped for the duration of the call, so the mission takes
/// its occupancy map and point-cloud buffers from `scratch` and leaves them
/// there when it finishes. Bit-identical to [`run_mission`] — reuse recycles
/// allocations, never state — which the tests pin with full-report equality
/// on warm and cold scratches.
pub fn run_mission_with_scratch(
    config: MissionConfig,
    scratch: &mut EpisodeScratch,
) -> MissionReport {
    EpisodeScratch::swapped_in(scratch, || run_mission(config))
}

fn invalid_config_report(application: ApplicationId, reason: String) -> MissionReport {
    use mav_compute::OperatingPoint;
    use mav_energy::EnergyAccount;
    use mav_runtime::KernelTimer;
    use mav_types::SimDuration;
    MissionReport::from_counters(
        application,
        OperatingPoint::reference(),
        Some(MissionFailure::Other(format!(
            "invalid configuration: {reason}"
        ))),
        SimDuration::ZERO,
        SimDuration::ZERO,
        0.0,
        0.0,
        &EnergyAccount::new(),
        100.0,
        0,
        0,
        0.0,
        0.0,
        KernelTimer::new(),
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick_config;

    #[test]
    fn scratch_reuse_reproduces_fresh_missions_bit_for_bit() {
        // Three runs per case: on one warm scratch carried across every
        // application and both world shapes (the map is reshaped, the cloud
        // buffers are reused), on a cold scratch (a new map, empty buffers),
        // and on this thread's own scratch. Every report must be equal,
        // field for field.
        let mut warm = EpisodeScratch::new();
        for &app in ApplicationId::all() {
            for (seed, extent) in [(3u64, 18.0), (5u64, 24.0)] {
                let mut cfg = quick_config(MissionConfig::fast_test(app)).with_seed(seed);
                cfg.environment.extent = extent;
                let reused = run_mission_with_scratch(cfg.clone(), &mut warm);
                let cold = run_mission_with_scratch(cfg.clone(), &mut EpisodeScratch::new());
                let own = run_mission(cfg);
                assert_eq!(cold, reused, "{app:?} seed {seed} extent {extent}");
                assert_eq!(cold, own, "{app:?} seed {seed} extent {extent}");
            }
        }
    }

    #[test]
    fn repeated_config_reproduces_its_report() {
        let mut scratch = EpisodeScratch::new();
        let cfg = quick_config(MissionConfig::fast_test(ApplicationId::Scanning)).with_seed(9);
        let first = run_mission_with_scratch(cfg.clone(), &mut scratch);
        let second = run_mission_with_scratch(cfg.clone(), &mut scratch);
        assert_eq!(first, second);
        assert_eq!(first, run_mission(cfg));
    }

    #[test]
    fn invalid_configuration_yields_a_failed_report() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::Scanning);
        cfg.physics_dt = -1.0;
        let report = run_mission(cfg);
        assert!(!report.success());
        assert_eq!(report.application, ApplicationId::Scanning);
    }
}
