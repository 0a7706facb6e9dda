//! The in-flight replanning comparison (PR 3) and its paper-predicted
//! direction.
//!
//! MAVBench charges planning latency while the vehicle hovers — the most
//! expensive possible policy, because every planner millisecond is a
//! millisecond of zero progress at full rotor power. `ReplanMode::PlanInMotion`
//! makes the alternative schedulable: the planner node charges the same
//! `MotionPlanning`/`PathSmoothing` kernels across executor rounds while the
//! tracker keeps flying the stale plan, then swaps the fresh trajectory in
//! through the latched plan topic. Same kernels, same collision alerts —
//! strictly less mission time.

use mav_core::experiments::{replan_mode_sweep, replan_scenario};
use mav_core::{run_mission, MissionConfig, ReplanMode, SweepRunner};

use mav_compute::ApplicationId;

#[test]
fn plan_in_motion_shortens_the_mission_at_equal_collision_counts() {
    let sweep = replan_mode_sweep(&SweepRunner::new(), replan_scenario);
    assert_eq!(sweep.len(), 2);
    let hover = &sweep[0];
    let motion = &sweep[1];
    assert_eq!(hover.value, ReplanMode::HoverToPlan);
    assert_eq!(motion.value, ReplanMode::PlanInMotion);
    assert!(
        hover.report.success(),
        "hover-to-plan failed: {:?}",
        hover.report.failure
    );
    assert!(
        motion.report.success(),
        "plan-in-motion failed: {:?}",
        motion.report.failure
    );
    // The scenario must actually exercise replanning: without collision
    // alerts the two policies are identical and the comparison is vacuous.
    assert!(
        hover.report.replans >= 1,
        "scenario raised no collision alerts"
    );
    // Equal collision counts: both runs answered the same number of alerts
    // (hover counts episode-ending replans, motion counts in-flight ones).
    assert_eq!(
        hover.report.replans, motion.report.replans,
        "collision counts diverged; the mission-time comparison is not like-for-like"
    );
    // The direction: planning while flying strictly beats planning while
    // hovering. (The win can come from either mechanism — planning latency
    // flown instead of hovered when the threat is distant, or replanning
    // from the in-flight position instead of a hover point, which yields a
    // shorter continuation route; in this scenario the route is the larger
    // effect.)
    assert!(
        motion.report.mission_time_secs < hover.report.mission_time_secs,
        "plan-in-motion did not shorten the mission: {:.1} s vs {:.1} s",
        motion.report.mission_time_secs,
        hover.report.mission_time_secs,
    );
}

#[test]
fn plan_in_motion_missions_are_deterministic() {
    let config = || {
        replan_scenario(MissionConfig::new(ApplicationId::PackageDelivery))
            .with_replan_mode(ReplanMode::PlanInMotion)
    };
    let a = run_mission(config());
    let b = run_mission(config());
    assert_eq!(a, b, "two identical plan-in-motion missions diverged");
    assert!(
        a.success(),
        "plan-in-motion mission failed: {:?}",
        a.failure
    );
}

#[test]
fn hover_to_plan_is_the_default_and_unchanged() {
    // The default mode must remain HoverToPlan so the golden legacy pins
    // (tests/golden_legacy.rs) keep guarding the historical arithmetic.
    let cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery);
    assert_eq!(cfg.replan_mode, ReplanMode::HoverToPlan);
}
