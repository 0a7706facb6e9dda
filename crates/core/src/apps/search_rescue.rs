//! The Search and Rescue application.
//!
//! The MAV explores an unknown disaster area exactly like 3D Mapping, but the
//! perception stage additionally runs an object-detection kernel every
//! iteration; the mission ends successfully as soon as a person has been
//! found (or unsuccessfully when exploration is exhausted without a find).
//! The flight episodes ride on the shared [`explore`] loop, so the PR 3
//! replanning modes (hover-to-plan vs plan-in-motion over the latched plan
//! topic) apply here unchanged.

use crate::apps::mapping::{explore, MappingGoal};
use crate::context::MissionContext;
use crate::qof::{MissionFailure, MissionReport};
use mav_compute::KernelId;
use mav_env::ObstacleClass;
use mav_perception::{DetectorConfig, ObjectDetector};
use std::ops::ControlFlow;

/// Runs the Search and Rescue mission.
pub fn run(mut ctx: MissionContext) -> MissionReport {
    let mut detector = ObjectDetector::new(DetectorConfig {
        seed: ctx.config.seed,
        ..Default::default()
    });
    let goal = MappingGoal {
        target_volume: f64::INFINITY,
        max_iterations: 16,
    };
    let outcome = explore(&mut ctx, goal, |ctx| {
        // Perception hook: charge and run object detection on this iteration's
        // viewpoint; any person seen ends the mission successfully.
        let op = ctx.node_op_for_kernel(KernelId::ObjectDetection);
        let latency = ctx.charge_kernel_at(KernelId::ObjectDetection, op);
        ctx.hover(latency);
        let pose = ctx.pose();
        let found = detector
            .detect(&ctx.world, &pose)
            .iter()
            .any(|d| d.class == ObstacleClass::Person);
        if found {
            ctx.note_detection();
            return ControlFlow::Break(None);
        }
        ControlFlow::Continue(())
    });
    let failure = match outcome {
        ControlFlow::Break(outcome) => outcome,
        ControlFlow::Continue(()) => Some(MissionFailure::Other(
            "search exhausted without finding a person".to_string(),
        )),
    };
    ctx.finish(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissionConfig;
    use mav_compute::ApplicationId;

    #[test]
    fn search_and_rescue_runs_detection_and_exploration() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::SearchAndRescue).with_seed(6);
        cfg.environment.extent = 25.0;
        cfg.environment.people = 6; // plenty of targets in a small area
        let report = crate::apps::run_mission(cfg);
        // The mission must exercise both detection and frontier exploration.
        assert!(report.kernel_timer.invocations(KernelId::ObjectDetection) >= 1);
        assert!(report.kernel_timer.invocations(KernelId::OctomapGeneration) >= 1);
        // With six people scattered in a 50 m square the search normally
        // succeeds; if it does not, the failure must be the explicit
        // "exhausted" outcome rather than a crash/collision.
        if !report.success() {
            match report.failure.as_ref().unwrap() {
                MissionFailure::Other(msg) => assert!(msg.contains("exhausted")),
                MissionFailure::Timeout | MissionFailure::BatteryExhausted => {}
                other => panic!("unexpected failure {other:?}"),
            }
        } else {
            assert!(report.detections >= 1);
        }
    }
}
