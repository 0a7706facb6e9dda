//! The pipelined executor (PR 5) and its charging invariants, plus the
//! per-node operating-point (big.LITTLE DVFS) semantics.
//!
//! The paper charges each executor round as the *sum* of the round's node
//! latencies — one core running the whole graph back to back. Real MAV
//! stacks pipeline: the camera captures frame N+1 while the mapper
//! integrates frame N on another core. `ExecModel::Pipelined` charges the
//! round's critical path over pipeline stages instead; these tests pin the
//! ordering invariants (serial ≥ pipelined ≥ slowest stage), the mission
//! direction, and the per-node DVFS accounting.

use mav_compute::{ApplicationId, KernelId, OperatingPoint};
use mav_core::experiments::{exec_model_scenario, exec_model_sweep};
use mav_core::{
    run_mission, ExecModel, ExecStage, MissionConfig, MissionContext, NodeOpConfig,
    ResolutionPolicy, SweepRunner,
};
use mav_runtime::{Executor, Node, NodeOutput, SimClock};
use mav_types::{Frequency, Result, SimDuration, SimTime};
use proptest::prelude::*;

/// A fixed-cost node pinned to one stage.
struct StagedNode {
    name: String,
    stage: ExecStage,
    cost: SimDuration,
}

impl Node<SimClock> for StagedNode {
    fn name(&self) -> &str {
        &self.name
    }
    fn period(&self) -> SimDuration {
        SimDuration::ZERO
    }
    fn stage(&self) -> ExecStage {
        self.stage
    }
    fn tick(&mut self, _ctx: &mut SimClock, _now: SimTime) -> Result<NodeOutput> {
        Ok(self.cost)
    }
}

const STAGES: [ExecStage; 6] = [
    ExecStage::Housekeeping,
    ExecStage::Sensing,
    ExecStage::Perception,
    ExecStage::Planning,
    ExecStage::Control,
    ExecStage::Monolithic,
];

/// One round's charge for the given (cost ms, stage index) node set.
fn one_round_charge(nodes: &[(f64, usize)], model: ExecModel) -> f64 {
    let mut clock = SimClock::new();
    let mut exec = Executor::new().with_exec_model(model);
    for (i, &(cost_ms, stage_idx)) in nodes.iter().enumerate() {
        exec.add_node(StagedNode {
            name: format!("node{i}"),
            stage: STAGES[stage_idx % STAGES.len()],
            cost: SimDuration::from_millis(cost_ms),
        });
    }
    exec.step(&mut clock).unwrap().as_millis()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any node set: serial round latency ≥ pipelined round latency ≥
    /// the slowest single node. (The pipelined charge is also ≥ the widest
    /// stage sum by construction, of which the slowest node is a lower
    /// bound.)
    #[test]
    fn serial_ge_pipelined_ge_slowest_node(
        nodes in proptest::collection::vec((0.0f64..400.0, 0usize..6), 1..8)
    ) {
        let serial = one_round_charge(&nodes, ExecModel::Serial);
        let pipelined = one_round_charge(&nodes, ExecModel::Pipelined);
        let slowest = nodes.iter().map(|(c, _)| *c).fold(0.0f64, f64::max);
        prop_assert!(
            serial >= pipelined - 1e-9,
            "serial {serial} ms < pipelined {pipelined} ms"
        );
        prop_assert!(
            pipelined >= slowest - 1e-9,
            "pipelined {pipelined} ms < slowest node {slowest} ms"
        );
        // And with every node monolithic (the default stage), pipelined
        // degenerates to the serial sum exactly.
        let all_mono: Vec<(f64, usize)> = nodes.iter().map(|(c, _)| (*c, 5)).collect();
        let mono_pipelined = one_round_charge(&all_mono, ExecModel::Pipelined);
        let mono_serial = one_round_charge(&all_mono, ExecModel::Serial);
        prop_assert!((mono_pipelined - mono_serial).abs() < 1e-9);
    }
}

#[test]
fn pipelined_mission_is_strictly_shorter_on_the_overlap_scenario() {
    // The camera+mapper overlap scenario at mission scope: the same delivery
    // flight under both charging models. Rounds shorten to the critical path,
    // so control and the collision monitor run at a finer grain and the
    // episode's convergence tail shrinks — mission time strictly shorter,
    // everything else like-for-like (same route, same alert count).
    let rows = exec_model_sweep(&SweepRunner::new(), exec_model_scenario);
    assert_eq!(rows.len(), 4);
    let serial = &rows[0];
    let pipelined = &rows[1];
    assert_eq!(serial.value.0, ExecModel::Serial);
    assert_eq!(pipelined.value.0, ExecModel::Pipelined);
    for row in &rows {
        assert!(
            row.report.success(),
            "{} failed: {:?}",
            row.value.2,
            row.report.failure
        );
    }
    assert_eq!(
        serial.report.replans, pipelined.report.replans,
        "alert counts diverged; the comparison is not like-for-like"
    );
    assert_eq!(
        serial.report.velocity_cap.to_bits(),
        pipelined.report.velocity_cap.to_bits(),
        "the Eq. 2 cap is schedule-analytic and must not depend on the exec model"
    );
    assert!(
        pipelined.report.mission_time_secs < serial.report.mission_time_secs,
        "pipelined charging did not shorten the mission: {:.3} s vs {:.3} s",
        pipelined.report.mission_time_secs,
        serial.report.mission_time_secs,
    );

    // The DVFS pair: rows 3 (all-little) and 4 (big.LITTLE) share identical
    // perception/control points, hence an identical velocity cap — and both
    // are lower than the mission-global reference cap (downclocked
    // perception erodes Eq. 2).
    let little = &rows[2];
    let split = &rows[3];
    assert_eq!(
        little.report.velocity_cap.to_bits(),
        split.report.velocity_cap.to_bits(),
        "identical perception/control points must give an identical cap"
    );
    assert!(
        little.report.velocity_cap < serial.report.velocity_cap,
        "downclocking perception must lower the Eq. 2 cap"
    );
    // Keeping planning on the big cluster buys hover time back at an
    // identical cap: strictly less hover and mission time than all-little.
    assert!(
        split.report.hover_time_secs < little.report.hover_time_secs,
        "big-cluster planning did not reduce hover: {:.3} s vs {:.3} s",
        split.report.hover_time_secs,
        little.report.hover_time_secs,
    );
    assert!(
        split.report.mission_time_secs < little.report.mission_time_secs,
        "big-cluster planning did not shorten the mission: {:.3} s vs {:.3} s",
        split.report.mission_time_secs,
        little.report.mission_time_secs,
    );
}

#[test]
fn pipelined_missions_are_deterministic() {
    let config = || {
        exec_model_scenario(MissionConfig::new(ApplicationId::PackageDelivery))
            .with_exec_model(ExecModel::Pipelined)
            .with_node_ops(NodeOpConfig::big_little())
    };
    let a = run_mission(config());
    let b = run_mission(config());
    assert_eq!(a, b, "two identical pipelined missions diverged");
    assert!(a.success(), "pipelined mission failed: {:?}", a.failure);
}

#[test]
fn serial_is_the_default_and_unchanged() {
    // The default model must remain Serial at mission-global points so the
    // golden legacy pins (tests/golden_legacy.rs) keep guarding the
    // historical arithmetic.
    let cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery);
    assert_eq!(cfg.exec_model, ExecModel::Serial);
    assert!(cfg.node_ops.is_mission_global());
}

#[test]
fn per_node_points_scale_only_their_own_kernels() {
    let little = OperatingPoint::little_cluster(Frequency::from_ghz(0.8));
    let base = MissionConfig::fast_test(ApplicationId::PackageDelivery).with_seed(9);

    // Slowing the *planner* cluster: planning kernels slower, perception
    // kernels untouched, velocity cap untouched (planning is not on the
    // Eq. 2 reactive path).
    let mut reference = MissionContext::new(base.clone()).unwrap();
    let mut slow_plan = MissionContext::new(
        base.clone()
            .with_node_ops(NodeOpConfig::mission_global().with_planning(little)),
    )
    .unwrap();
    let ref_plan = reference.charge_kernel(KernelId::MotionPlanning);
    let slow = slow_plan.charge_kernel_at(
        KernelId::MotionPlanning,
        slow_plan.node_op_for_kernel(KernelId::MotionPlanning),
    );
    assert!(slow > ref_plan, "planner cluster did not slow planning");
    let ref_octo = reference.charge_kernel(KernelId::OctomapGeneration);
    let octo = slow_plan.charge_kernel_at(
        KernelId::OctomapGeneration,
        slow_plan.node_op_for_kernel(KernelId::OctomapGeneration),
    );
    assert_eq!(
        octo.as_secs().to_bits(),
        ref_octo.as_secs().to_bits(),
        "planner cluster must not touch perception latency"
    );
    assert_eq!(
        reference.velocity_cap().to_bits(),
        slow_plan.velocity_cap().to_bits(),
        "planner cluster must not move the Eq. 2 cap"
    );

    // Slowing the *mapping* cluster: the cap must drop (perception is the
    // reactive path).
    let slow_map = MissionContext::new(
        base.clone()
            .with_node_ops(NodeOpConfig::mission_global().with_mapping(little)),
    )
    .unwrap();
    assert!(
        slow_map.velocity_cap() < reference.velocity_cap(),
        "downclocked perception must lower the Eq. 2 cap"
    );

    // Reaction-irrelevant overrides — a camera point (scales nothing) or a
    // planner point — must keep the cap *bit*-identical even at a non-default
    // map resolution, where the re-summed per-kernel form of the reaction
    // latency would differ from the historical expression at the ulp level.
    let fine = |cfg: MissionConfig| cfg.with_resolution_policy(ResolutionPolicy::static_fine());
    let fine_reference = MissionContext::new(fine(base.clone())).unwrap();
    for ops in [
        NodeOpConfig::mission_global().with_camera(little),
        NodeOpConfig::mission_global().with_planning(little),
    ] {
        let overridden = MissionContext::new(fine(base.clone()).with_node_ops(ops)).unwrap();
        assert_eq!(
            fine_reference.velocity_cap().to_bits(),
            overridden.velocity_cap().to_bits(),
            "a reaction-irrelevant override ({}) moved the cap",
            ops.label()
        );
    }
}

#[test]
fn hover_to_plan_episodes_charge_the_planner_cluster() {
    // The per-node planning point must reach the applications' hover-to-plan
    // planning episodes (charged outside the executor graph), not only the
    // in-flight planning jobs: the same mission with a slower planner cluster
    // hovers strictly longer while everything else (route, cap) is identical.
    let config = |ops: NodeOpConfig| {
        exec_model_scenario(MissionConfig::new(ApplicationId::PackageDelivery)).with_node_ops(ops)
    };
    let reference = run_mission(config(NodeOpConfig::mission_global()));
    let slow_planner = run_mission(config(
        NodeOpConfig::mission_global()
            .with_planning(OperatingPoint::little_cluster(Frequency::from_ghz(0.8))),
    ));
    assert!(reference.success() && slow_planner.success());
    assert_eq!(
        reference.velocity_cap.to_bits(),
        slow_planner.velocity_cap.to_bits()
    );
    assert!(
        slow_planner.hover_time_secs > reference.hover_time_secs,
        "slow planner cluster did not lengthen hover: {:.3} s vs {:.3} s",
        slow_planner.hover_time_secs,
        reference.hover_time_secs,
    );
    assert!(slow_planner.mission_time_secs > reference.mission_time_secs);
}
