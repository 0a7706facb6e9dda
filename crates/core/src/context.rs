//! The closed-loop mission engine shared by every benchmark application.
//!
//! [`MissionContext`] owns the whole simulated system — environment, vehicle,
//! battery, energy accounting, compute platform, sensors and occupancy map —
//! and exposes the operations the five applications compose: charge a kernel's
//! latency to the mission clock, hover while planning, fly a trajectory under
//! the Eq. 2 velocity cap with continuous perception and collision checking,
//! and produce the final QoF report.
//!
//! Since PR 2 the trajectory-following closed loop is not a hand-written
//! `loop` any more: [`MissionContext::fly_trajectory`] assembles the
//! [`crate::flight`] node graph (energy watchdog, depth camera, OctoMap,
//! path tracker, collision monitor, planner trigger) and drives it on the
//! [`mav_runtime::Executor`] at the per-node rates in
//! [`crate::config::RateConfig`].

use crate::config::{MissionConfig, ResolutionPolicy};
use crate::faults::{DegradedState, DegradedSummary, FaultInjector};
use crate::flight::{
    CollisionAlert, CollisionMonitorNode, DepthCameraNode, EnergyNode, FlightCtx, FlightEvent,
    InMotionPlanner, OctoMapNode, PathTrackerNode, PlannerNode, Timeline,
};
use crate::qof::{MissionFailure, MissionReport};
use crate::scratch::{CloudScratch, EpisodeScratch};
use crate::velocity::max_safe_velocity;
use mav_compute::{ComputePlatform, KernelId, OperatingPoint};
use mav_dynamics::Quadrotor;
use mav_energy::{Battery, ComputePowerModel, EnergyAccount, FlightPhaseLabel, RotorPowerModel};
use mav_env::World;
use mav_perception::{OctoMap, OctoMapConfig};
use mav_planning::{CollisionChecker, PlannerConfig, PlannerKind, ShortestPathPlanner};
use mav_runtime::{Executor, FifoTopic, KernelTimer, SimClock, Topic};
use mav_sensors::{DepthCamera, DepthImage, DepthNoiseModel};
use mav_types::{Aabb, Pose, SimDuration, Trajectory, Vec3};
use std::cell::RefCell;
use std::rc::Rc;

/// In-flight replans allowed per episode under
/// [`crate::config::ReplanMode::PlanInMotion`] before the planner falls back
/// to ending the episode (matching the applications' per-leg replan budgets).
const MAX_INFLIGHT_REPLANS: u32 = 12;

/// Why a trajectory-following episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// The end of the trajectory was reached.
    Completed,
    /// The continuously updated map shows the remaining plan in collision;
    /// the caller should re-plan.
    NeedsReplan,
    /// The mission-level budget (time, battery, collision) was blown.
    Aborted,
}

/// The closed-loop mission engine.
pub struct MissionContext {
    /// The mission configuration.
    pub config: MissionConfig,
    /// Ground-truth world.
    pub world: World,
    /// The vehicle.
    pub quad: Quadrotor,
    /// The battery pack being drained.
    pub battery: Battery,
    /// Per-subsystem energy account.
    pub energy: EnergyAccount,
    /// Companion-computer model.
    pub platform: ComputePlatform,
    /// Per-kernel simulated-time totals.
    pub timer: KernelTimer,
    /// Mission clock.
    pub clock: SimClock,
    /// The occupancy map being built.
    pub map: OctoMap,
    rotor_power: RotorPowerModel,
    compute_power: ComputePowerModel,
    camera: DepthCamera,
    depth_noise: DepthNoiseModel,
    current_resolution: f64,
    hover_time: SimDuration,
    distance: f64,
    collided: bool,
    replans: u32,
    detections: u32,
    tracking_error_sum: f64,
    tracking_error_samples: u32,
    mapped_volume: f64,
    clouds: CloudScratch,
    scratch: Option<Rc<RefCell<EpisodeScratch>>>,
    /// Compiled fault injector; `None` for the default empty plan, keeping
    /// every historical code path structurally untouched.
    faults: Option<FaultInjector>,
    /// Degraded-mode bookkeeping the flight nodes report into.
    degraded: DegradedState,
}

impl MissionContext {
    /// Builds a mission from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when the configuration is invalid.
    pub fn new(config: MissionConfig) -> Result<Self, String> {
        Self::with_scratch_slot(config, None)
    }

    /// [`MissionContext::new`], optionally sourcing the world, occupancy map
    /// and point-cloud buffers from an [`EpisodeScratch`] slot. The finished
    /// mission deposits its reusable state back into the slot in
    /// [`MissionContext::finish`]. Construction with a slot is bit-identical
    /// to construction without one: the scratch only recycles allocations,
    /// never state.
    pub(crate) fn with_scratch_slot(
        config: MissionConfig,
        scratch: Option<Rc<RefCell<EpisodeScratch>>>,
    ) -> Result<Self, String> {
        config.validate()?;
        let (world, clouds) = match &scratch {
            Some(slot) => {
                let mut s = slot.borrow_mut();
                (s.world_for(&config.environment), s.take_clouds())
            }
            None => (config.environment.generate(), CloudScratch::default()),
        };
        let start = Pose::new(Vec3::new(0.0, 0.0, config.quadrotor.cruise_altitude), 0.0);
        let quad = Quadrotor::new(config.quadrotor.clone(), start);
        let faults = FaultInjector::compile(&config.fault_plan, config.seed);
        // Battery capacity fade: an aged pack starts the mission with part of
        // its rated capacity gone. Gated on the injector so the fault-free
        // constructor input is the exact same `config.battery` as ever.
        let battery = match faults.as_ref().filter(|inj| inj.plan().battery_fade > 0.0) {
            Some(inj) => {
                let mut pack = config.battery;
                pack.capacity_mah *= inj.battery_capacity_scale();
                Battery::new(pack)
            }
            None => Battery::new(config.battery),
        };
        let rotor_power = RotorPowerModel::new(Default::default(), config.quadrotor.mass);
        let platform = match &config.cloud {
            Some(cloud) => mav_compute::ComputePlatform::tx2_with_cloud(
                config.application,
                config.operating_point,
                cloud.clone(),
            ),
            None => mav_compute::ComputePlatform::tx2(config.application, config.operating_point),
        };
        let resolution = config.resolution_policy.initial_resolution();
        let half_extent = config.map_half_extent();
        let map = match &scratch {
            Some(slot) => slot
                .borrow_mut()
                .map_for(OctoMapConfig::with_resolution(resolution), half_extent),
            None => OctoMap::new(OctoMapConfig::with_resolution(resolution), half_extent),
        };
        let camera = DepthCamera::new(config.camera);
        let depth_noise = DepthNoiseModel::new(config.depth_noise_std, config.seed);
        Ok(MissionContext {
            world,
            quad,
            battery,
            energy: EnergyAccount::new(),
            platform,
            timer: KernelTimer::new(),
            clock: SimClock::new(),
            map,
            rotor_power,
            compute_power: ComputePowerModel::tx2(),
            camera,
            depth_noise,
            current_resolution: resolution,
            hover_time: SimDuration::ZERO,
            distance: 0.0,
            collided: false,
            replans: 0,
            detections: 0,
            tracking_error_sum: 0.0,
            tracking_error_samples: 0,
            mapped_volume: 0.0,
            clouds,
            scratch,
            faults,
            degraded: DegradedState::default(),
            config,
        })
    }

    /// The vehicle's current pose.
    pub fn pose(&self) -> Pose {
        self.quad.state().pose
    }

    /// Total hover time so far.
    pub fn hover_time(&self) -> SimDuration {
        self.hover_time
    }

    /// Distance travelled so far, metres.
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Number of re-planning episodes recorded so far.
    pub fn replans(&self) -> u32 {
        self.replans
    }

    /// Records a re-planning episode.
    pub fn note_replan(&mut self) {
        self.replans += 1;
    }

    /// Records a target detection.
    pub fn note_detection(&mut self) {
        self.detections += 1;
    }

    /// Records one framing-error sample (aerial photography).
    pub fn note_tracking_error(&mut self, error: f64) {
        self.tracking_error_sum += error.abs();
        self.tracking_error_samples += 1;
    }

    /// The current OctoMap resolution in metres.
    pub fn current_resolution(&self) -> f64 {
        self.current_resolution
    }

    /// The collision checker matched to the vehicle.
    pub fn collision_checker(&self) -> CollisionChecker {
        CollisionChecker::new(self.config.quadrotor.radius.max(0.05) + 0.05)
    }

    /// A shortest-path planner over the world bounds.
    pub fn shortest_path_planner(&self, kind: PlannerKind) -> ShortestPathPlanner {
        let b = self.world.bounds();
        let bounds = Aabb::new(
            Vec3::new(b.min.x + 1.0, b.min.y + 1.0, 0.5),
            Vec3::new(b.max.x - 1.0, b.max.y - 1.0, (b.max.z - 1.0).min(12.0)),
        );
        ShortestPathPlanner::new(
            PlannerConfig::new(kind, bounds).with_seed(self.config.seed ^ 0x51ed),
        )
    }

    /// Compute power at the configured operating point.
    fn compute_power_now(&self) -> mav_types::Power {
        self.compute_power.power(
            self.config.operating_point.cores,
            self.config.operating_point.frequency.as_ghz(),
        )
    }

    /// Latency of one invocation of `kernel`, with the OctoMap-resolution cost
    /// multiplier applied to the map-update kernel, charged to the kernel
    /// timer. The caller decides whether the vehicle hovers or flies while the
    /// kernel runs.
    pub fn charge_kernel(&mut self, kernel: KernelId) -> SimDuration {
        self.charge_kernel_at(kernel, None)
    }

    /// [`MissionContext::charge_kernel`] with the edge latency pinned to a
    /// per-node operating point (PR 5): `None` charges at the mission-global
    /// point, bit-identically to the historical accounting. This is how a
    /// flight-graph node carrying its own core/frequency setting turns it
    /// into charged time.
    pub fn charge_kernel_at(
        &mut self,
        kernel: KernelId,
        op: Option<OperatingPoint>,
    ) -> SimDuration {
        let mut latency = match op {
            None => self.platform.kernel_latency(kernel),
            Some(point) => self.platform.kernel_latency_at(kernel, &point),
        };
        if kernel == KernelId::OctomapGeneration {
            latency = latency * ResolutionPolicy::octomap_cost_multiplier(self.current_resolution);
        }
        // Fault injection: kernel latency spikes and planner-latency stretch.
        // This is the single chokepoint every kernel charge passes through,
        // so spiked time lands in the timer, the executor round, and the
        // energy account exactly like honest latency. Absent an injector the
        // expression above is the historical one, untouched.
        if let Some(inj) = self.faults.as_mut() {
            latency = latency * inj.kernel_latency_factor(kernel);
        }
        self.timer.record(kernel, latency);
        latency
    }

    /// The per-node operating point charged for `kernel` under the current
    /// [`crate::config::NodeOpConfig`], resolved to *the node that charges
    /// it* in the flight graphs: the OctoMap node's perception batch
    /// (point cloud, map update, collision check, localization) and the other
    /// perception kernels (detection, tracking) at the mapping point; every
    /// planning kernel (motion planning, frontier, lawnmower, smoothing) at
    /// the planner point; PID and path tracking at the control point. `None`
    /// when nothing is overridden (the mission-global point). Used wherever a
    /// charge is not issued by a single flight-graph node — the photography
    /// follow node (which spans the whole pipeline), the applications'
    /// hover-to-plan planning episodes, and the Eq. 2 reaction latency — so a
    /// per-node DVFS mapping means the same thing everywhere.
    pub fn node_op_for_kernel(&self, kernel: KernelId) -> Option<OperatingPoint> {
        match kernel {
            KernelId::PointCloudGeneration
            | KernelId::OctomapGeneration
            | KernelId::CollisionCheck
            | KernelId::Localization
            | KernelId::ObjectDetection
            | KernelId::TrackingBuffered
            | KernelId::TrackingRealTime => self.config.node_ops.mapping,
            KernelId::MotionPlanning
            | KernelId::FrontierExploration
            | KernelId::LawnmowerPlanning
            | KernelId::PathSmoothing => self.config.node_ops.planning,
            KernelId::PidControl | KernelId::PathTracking => self.config.node_ops.control,
            // KernelId is non-exhaustive: future kernels default to the
            // mission-global point until they are mapped to a node.
            _ => None,
        }
    }

    /// The perception-to-actuation latency δt of the reactive path at the
    /// current operating point(s) and map resolution. With per-node operating
    /// points set, each reactive kernel is priced at the point of the node
    /// that charges it — downclocking perception directly erodes the Eq. 2
    /// safe velocity, while a slow *planner* cluster does not (planning
    /// latency determines hover time, not reaction time).
    pub fn reaction_latency(&mut self) -> SimDuration {
        // Only the mapping and control nodes charge reactive kernels, so only
        // their overrides can move δt. Branching on those two (rather than on
        // `is_mission_global`) keeps reaction-irrelevant overrides — a camera
        // point (which scales nothing) or a planner point (hover time, not
        // reaction time) — on the historical expression, whose floating-point
        // association differs from the re-summed per-kernel form below at the
        // ulp level: the cap must be *bit*-identical whenever no reactive
        // kernel is re-priced (golden-legacy pins and the to_bits determinism
        // contracts depend on it).
        let node_ops = self.config.node_ops;
        if node_ops.mapping.is_none() && node_ops.control.is_none() {
            // The historical arithmetic, kept verbatim (and float-identical).
            let base = self.platform.reaction_latency();
            let octo = self.platform.kernel_latency(KernelId::OctomapGeneration);
            let scaled_octo =
                octo * ResolutionPolicy::octomap_cost_multiplier(self.current_resolution);
            return base - octo + scaled_octo;
        }
        let reactive = [
            KernelId::PointCloudGeneration,
            KernelId::OctomapGeneration,
            KernelId::CollisionCheck,
            KernelId::Localization,
            KernelId::ObjectDetection,
            KernelId::TrackingRealTime,
            KernelId::PidControl,
            KernelId::PathTracking,
        ];
        reactive
            .iter()
            .map(|&kernel| {
                let latency = match self.node_op_for_kernel(kernel) {
                    None => self.platform.kernel_latency(kernel),
                    Some(point) => self.platform.kernel_latency_at(kernel, &point),
                };
                if kernel == KernelId::OctomapGeneration {
                    latency * ResolutionPolicy::octomap_cost_multiplier(self.current_resolution)
                } else {
                    latency
                }
            })
            .sum()
    }

    /// The Eq. 2 velocity cap the mission currently flies under: the minimum
    /// of the application cruise limit, the airframe limit and the
    /// compute-bounded maximum safe velocity.
    ///
    /// δt is the reactive-kernel latency plus, for explicit (non-legacy)
    /// [`crate::config::RateConfig`] schedules, the worst-case sensing
    /// staleness: an obstacle appearing right after a frame waits up to one
    /// camera period to be seen and one mapping period to reach the map, so
    /// a slower perception rate directly lowers the safe velocity — the
    /// paper's Fig. 8b trade-off, now emerging from the schedule. The
    /// staleness term only applies to applications whose flight graph
    /// actually schedules the camera → OctoMap pipeline (Table I: the
    /// OctoMap-generation kernel); Scanning and Aerial Photography fly
    /// without an occupancy map, so camera/mapping rates cannot slow them.
    pub fn velocity_cap(&mut self) -> f64 {
        let staleness = if mav_compute::table1_profile(self.config.application)
            .uses(KernelId::OctomapGeneration)
        {
            self.config.rates.sensing_interval()
        } else {
            SimDuration::ZERO
        };
        let dt = self.reaction_latency() + staleness;
        let safe = max_safe_velocity(
            dt,
            self.config.stopping_distance,
            self.config.quadrotor.max_acceleration,
        );
        safe.min(self.config.cruise_velocity)
            .min(self.config.quadrotor.max_velocity)
    }

    /// Advances the whole simulation by `duration` while the vehicle tracks
    /// `velocity_cmd`. Physics, dynamic obstacles, collision detection, energy
    /// and battery are all integrated.
    pub fn advance(&mut self, velocity_cmd: Vec3, duration: SimDuration) {
        let mut remaining = duration.as_secs();
        let dt = self.config.physics_dt;
        let hovering = velocity_cmd.norm() < 0.05;
        while remaining > 1e-9 {
            let step = remaining.min(dt);
            self.quad.step(velocity_cmd, step);
            self.world.step_dynamics(step);
            let state = *self.quad.state();
            // Ground-truth collision check.
            if self
                .world
                .collides_sphere(&state.pose.position, self.config.quadrotor.radius)
            {
                self.collided = true;
            }
            let rotor =
                self.rotor_power
                    .power(&state.twist.linear, &state.acceleration, &Vec3::ZERO);
            let compute = self.compute_power_now();
            let phase = if hovering {
                FlightPhaseLabel::Hovering
            } else {
                FlightPhaseLabel::Flying
            };
            let step_d = SimDuration::from_secs(step);
            self.energy
                .record(self.clock.now(), step_d, rotor, compute, phase);
            self.battery
                .discharge(rotor + compute + mav_types::Power::from_watts(2.0), step_d);
            self.distance += state.twist.linear.norm() * step;
            if hovering {
                self.hover_time += step_d;
            }
            self.degraded.accumulate(step_d);
            self.clock.advance(step_d);
            remaining -= step;
        }
    }

    /// Hovers in place for `duration` (e.g. while a planning kernel runs).
    pub fn hover(&mut self, duration: SimDuration) {
        self.advance(Vec3::ZERO, duration);
    }

    /// Charges the given kernels and hovers for their combined latency — the
    /// "drone waits for its mission planner" behaviour whose cost the paper
    /// attributes to slow compute. Each kernel is priced at the operating
    /// point of the node that owns it ([`MissionContext::node_op_for_kernel`])
    /// so per-node DVFS reaches the applications' hover-to-plan episodes too,
    /// not just the executor graph; with no per-node points set this is the
    /// historical mission-global charge, bit for bit.
    pub fn hover_while_running(&mut self, kernels: &[KernelId]) -> SimDuration {
        let latency = kernels
            .iter()
            .map(|&k| {
                let op = self.node_op_for_kernel(k);
                self.charge_kernel_at(k, op)
            })
            .sum();
        self.hover(latency);
        latency
    }

    /// Captures a depth frame from the current pose (with the configured
    /// noise model applied).
    pub fn capture_depth(&mut self) -> DepthImage {
        let pose = self.pose();
        let mut frame = self.camera.capture(&self.world, &pose);
        self.depth_noise.apply(&mut frame);
        frame
    }

    /// [`MissionContext::capture_depth`] subject to fault injection: `None`
    /// when the frame is lost to a dropout window, and noise bursts stack
    /// extra Gaussian error on top of the configured sensor noise. Without
    /// an injector this is exactly `capture_depth` — the flight graph's
    /// camera node calls this so faults reach the closed loop.
    pub fn capture_depth_faulted(&mut self) -> Option<DepthImage> {
        let dropped = match self.faults.as_mut() {
            None => false,
            Some(inj) => inj.drop_frame(),
        };
        if dropped {
            return None;
        }
        let mut frame = self.capture_depth();
        if let Some(inj) = self.faults.as_mut() {
            inj.maybe_burst(&mut frame);
        }
        Some(frame)
    }

    /// Whether fault injection eats the guarded topic publish happening right
    /// now (collision alerts, velocity commands). Always `false` without an
    /// injector.
    pub fn fault_drop_message(&mut self) -> bool {
        match self.faults.as_mut() {
            None => false,
            Some(inj) => inj.drop_message(),
        }
    }

    /// Marks a degradation response active (stale-perception cap decay,
    /// planner-timeout fallback). Idempotent while already degraded.
    pub fn note_degraded(&mut self) {
        let now = self.clock.now();
        self.degraded.note_degraded(now);
    }

    /// Marks the active degradation response cleared, counting the recovery.
    pub fn note_recovered(&mut self) {
        let now = self.clock.now();
        self.degraded.note_recovered(now);
    }

    /// The degraded-mode summary so far (`None` if never degraded).
    pub fn degraded_summary(&self, failed: bool) -> Option<DegradedSummary> {
        self.degraded.summary(self.clock.now().as_secs(), failed)
    }

    /// Integrates a depth frame into the occupancy map: point-cloud
    /// generation, optional dynamic-resolution switch, and the OctoMap update.
    /// Returns the combined simulated latency of the perception kernels
    /// (charged to the timer, not yet to the clock). Priced at the mapping
    /// node's operating point when one is configured, so the applications'
    /// pre-planning map refreshes agree with the flight graph's accounting.
    pub fn update_map(&mut self, frame: &DepthImage) -> SimDuration {
        let op = self.config.node_ops.mapping;
        self.update_map_at(frame, op)
    }

    /// [`MissionContext::update_map`] with the perception batch priced at a
    /// per-node operating point (the [`crate::flight::OctoMapNode`]'s own
    /// core/frequency setting); `None` charges at the mission-global point,
    /// bit-identically to the historical accounting.
    pub fn update_map_at(&mut self, frame: &DepthImage, op: Option<OperatingPoint>) -> SimDuration {
        // Dynamic resolution policy: sample the local obstacle density and
        // switch the map resolution when the policy asks for it. A switch
        // rebuilds the map over the mission's requested half-extent, which
        // `MissionConfig::validate` has vetted at both resolutions.
        let density = self.world.obstacle_density_near(&self.pose().position, 8.0);
        let wanted = self
            .config
            .resolution_policy
            .resolution_for_density(density);
        if (wanted - self.current_resolution).abs() > 1e-9 {
            self.map = self.map.reresolved(wanted);
            self.current_resolution = wanted;
        }
        let mut latency = SimDuration::ZERO;
        for kernel in [
            KernelId::PointCloudGeneration,
            KernelId::OctomapGeneration,
            KernelId::CollisionCheck,
            KernelId::Localization,
        ] {
            latency += self.charge_kernel_at(kernel, op);
        }
        let CloudScratch {
            raw,
            cells,
            downsampled,
        } = &mut self.clouds;
        raw.fill_from_depth_image(frame);
        raw.downsample_into(self.current_resolution, cells, downsampled);
        self.map.insert_point_cloud(downsampled);
        self.mapped_volume = self.map.mapped_volume();
        latency
    }

    /// Checks the mission-level budgets. Returns the failure that ends the
    /// mission, if any.
    pub fn budget_failure(&self) -> Option<MissionFailure> {
        if self.collided {
            return Some(MissionFailure::Collision);
        }
        if self.battery.is_exhausted() {
            return Some(MissionFailure::BatteryExhausted);
        }
        if self.clock.now().as_secs() > self.config.time_budget_secs {
            return Some(MissionFailure::Timeout);
        }
        None
    }

    /// Flies a planned trajectory under the Eq. 2 velocity cap with continuous
    /// perception, by assembling the [`crate::flight`] node graph and driving
    /// it on the [`Executor`]. Per-node periods come from
    /// [`crate::config::RateConfig`]; the legacy schedule runs every node on
    /// every round, reproducing the historical sequential loop bit-for-bit
    /// (depth capture → map update → path tracking → collision check →
    /// physics for the round's serialized kernel latency). The plan travels
    /// on a latched `Topic<Arc<Trajectory>>`; under
    /// [`crate::config::ReplanMode::PlanInMotion`] the planner node answers
    /// collision alerts by publishing a fresh trajectory on that topic while
    /// the vehicle keeps flying, instead of ending the episode. Returns why
    /// the episode ended.
    pub fn fly_trajectory(&mut self, trajectory: &Trajectory) -> FlightOutcome {
        if trajectory.is_empty() {
            return FlightOutcome::Completed;
        }
        let cap = self.velocity_cap();
        let checker = self.collision_checker();
        let start_time = self.clock.now();
        let Some(first) = trajectory.first() else {
            return FlightOutcome::Completed;
        };
        let goal = trajectory.last().map(|p| p.position);
        let timeline = Timeline::EpisodeRelative {
            episode_start: start_time,
            traj_start: first.time,
        };
        // Guard against pathological plans: bound the episode duration.
        let max_episode = crate::flight::episode_watchdog_budget(trajectory);
        let rates = self.config.rates;
        let replan_mode = self.config.replan_mode;

        let events: FifoTopic<FlightEvent> = FifoTopic::new("flight/events");
        let commands: Topic<Vec3> = Topic::new("flight/velocity_cmd");
        let frames: Topic<std::sync::Arc<DepthImage>> = Topic::new("flight/depth_frames");
        let alerts: FifoTopic<CollisionAlert> = FifoTopic::new("flight/collision_alerts");
        // The latched plan topic: seeded with the episode's trajectory,
        // re-published by the planner on an in-motion replan, observed by
        // tracker and monitor through sequence-numbered subscriptions.
        let plan: Topic<std::sync::Arc<Trajectory>> = Topic::new("flight/plan");
        plan.publish(std::sync::Arc::new(trajectory.clone()));
        // Latched threat topic: the nearest flagged obstruction while an
        // in-motion planning job runs (`None` once released). The tracker
        // checks its distance on every tick and brakes inside the stopping
        // distance. Never published in hover-to-plan mode.
        let threats: Topic<Option<Vec3>> = Topic::new("flight/replan_threats");

        // Registration order is dispatch order: sensing feeds mapping feeds
        // control feeds the collision monitor, with the energy watchdog ahead
        // of everything (the budget check opens every round). Each node
        // declares its pipeline stage, so under ExecModel::Pipelined the
        // round charges the critical path (camera capturing while the mapper
        // integrates) instead of the serialized sum; per-node operating
        // points ride in the same way, scaling each node's charged kernel
        // latencies independently.
        let node_ops = self.config.node_ops;
        let degradation = self.config.degradation;
        // A fresh validated plan is the recovery point of every degraded
        // interval that ends in a successful replan: close any open one now.
        if !degradation.is_off() {
            self.note_recovered();
        }
        let mut exec: Executor<FlightCtx> = Executor::new().with_exec_model(self.config.exec_model);
        let mut energy = EnergyNode::new(events.clone()).with_watchdog(start_time, max_episode);
        if replan_mode == crate::config::ReplanMode::PlanInMotion {
            // An in-flight replan re-arms the watchdog for the fresh plan.
            energy = energy.with_plan_watchdog(plan.clone());
        }
        exec.add_node(energy);
        exec.add_node(DepthCameraNode::new(frames.clone(), rates.camera_period()));
        exec.add_node(
            OctoMapNode::new(frames.clone(), rates.mapping_period())
                .with_operating_point(node_ops.mapping),
        );
        let mut tracker_node = PathTrackerNode::new(
            plan.clone(),
            timeline,
            vec![KernelId::PathTracking],
            cap,
            commands.clone(),
            events.clone(),
            rates.control_period(),
        )
        .with_operating_point(node_ops.control)
        .with_brake_policy(degradation.brake_policy);
        if degradation.perception_watchdog {
            tracker_node = tracker_node.with_stale_guard(
                frames,
                rates.camera_period(),
                degradation.stale_grace_factor,
            );
        }
        if replan_mode == crate::config::ReplanMode::PlanInMotion {
            tracker_node =
                tracker_node.with_brake_guard(threats.clone(), self.config.stopping_distance);
        }
        exec.add_node(tracker_node);
        exec.add_node(CollisionMonitorNode::new(
            checker,
            plan.clone(),
            timeline,
            alerts.clone(),
            rates.replan_period(),
        ));
        let mut planner_node = PlannerNode::new(alerts, events.clone(), rates.replan_period())
            .with_operating_point(node_ops.planning)
            .with_brake_policy(degradation.brake_policy)
            .with_splicing(degradation.plan_splicing);
        if let Some(budget) = degradation.plan_timeout_secs {
            planner_node = planner_node.with_job_budget(SimDuration::from_secs(budget));
        }
        if replan_mode == crate::config::ReplanMode::PlanInMotion {
            if let Some(goal) = goal {
                planner_node = planner_node.with_in_motion(InMotionPlanner {
                    plan,
                    planner: self.shortest_path_planner(PlannerKind::Rrt),
                    checker,
                    goal,
                    max_acceleration: self.config.quadrotor.max_acceleration,
                    max_replans: MAX_INFLIGHT_REPLANS,
                    commands: commands.clone(),
                    threats,
                    stopping_distance: self.config.stopping_distance,
                });
            }
        }
        exec.add_node(planner_node);

        let mut flight_ctx = FlightCtx {
            mission: self,
            events,
            commands,
            min_tick: SimDuration::from_millis(50.0),
        };
        match crate::flight::run_to_event(&mut exec, &mut flight_ctx) {
            Ok(FlightEvent::Completed) => FlightOutcome::Completed,
            Ok(FlightEvent::NeedsReplan) => FlightOutcome::NeedsReplan,
            // An executor error cannot carry through the payload-free
            // FlightOutcome; none of the built-in nodes fail, so a bare
            // abort (the budget/watchdog outcome) is the correct collapse.
            Ok(FlightEvent::Aborted) | Err(_) => FlightOutcome::Aborted,
        }
    }

    /// Finalises the mission into a report, depositing the reusable map and
    /// cloud buffers back into the episode scratch when one was attached.
    pub fn finish(mut self, failure: Option<MissionFailure>) -> MissionReport {
        let velocity_cap = self.velocity_cap();
        if let Some(slot) = self.scratch.take() {
            let map = std::mem::replace(
                &mut self.map,
                OctoMap::new(OctoMapConfig::with_resolution(1.0), 1.0),
            );
            let clouds = std::mem::take(&mut self.clouds);
            slot.borrow_mut().deposit(map, clouds);
        }
        let tracking_error = if self.tracking_error_samples > 0 {
            self.tracking_error_sum / self.tracking_error_samples as f64
        } else {
            0.0
        };
        let degraded = self.degraded_summary(failure.is_some());
        MissionReport::from_counters(
            self.config.application,
            self.config.operating_point,
            failure,
            self.clock.now().since(mav_types::SimTime::ZERO),
            self.hover_time,
            self.distance,
            velocity_cap,
            &self.energy,
            self.battery.percentage(),
            self.replans,
            self.detections,
            self.mapped_volume,
            tracking_error,
            self.timer,
            degraded,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_compute::{ApplicationId, OperatingPoint};
    use mav_types::SimTime;

    fn ctx(app: ApplicationId) -> MissionContext {
        MissionContext::new(MissionConfig::fast_test(app)).unwrap()
    }

    #[test]
    fn construction_succeeds_for_every_application() {
        for &app in ApplicationId::all() {
            let c = ctx(app);
            assert_eq!(c.pose().position.z, c.config.quadrotor.cruise_altitude);
            assert_eq!(c.battery.percentage(), 100.0);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::Scanning);
        cfg.physics_dt = 0.0;
        assert!(MissionContext::new(cfg).is_err());
    }

    #[test]
    fn advancing_burns_energy_and_moves_the_clock() {
        let mut c = ctx(ApplicationId::Scanning);
        c.advance(Vec3::new(4.0, 0.0, 0.0), SimDuration::from_secs(5.0));
        assert!(c.clock.now().as_secs() >= 5.0 - 1e-9);
        assert!(c.distance() > 5.0);
        assert!(c.energy.total_energy().as_joules() > 0.0);
        assert!(c.battery.percentage() < 100.0);
        assert!(c.energy.rotor_fraction() > 0.9);
    }

    #[test]
    fn hovering_accumulates_hover_time() {
        let mut c = ctx(ApplicationId::Scanning);
        c.hover(SimDuration::from_secs(3.0));
        assert!((c.hover_time().as_secs() - 3.0).abs() < 0.1);
        assert!(c.distance() < 0.5);
    }

    #[test]
    fn kernel_charging_scales_with_operating_point() {
        let mut fast = ctx(ApplicationId::PackageDelivery);
        let mut slow = MissionContext::new(
            MissionConfig::fast_test(ApplicationId::PackageDelivery)
                .with_operating_point(OperatingPoint::slowest()),
        )
        .unwrap();
        let lf = fast.charge_kernel(KernelId::OctomapGeneration);
        let ls = slow.charge_kernel(KernelId::OctomapGeneration);
        assert!(ls > lf);
        assert_eq!(fast.timer.invocations(KernelId::OctomapGeneration), 1);
    }

    #[test]
    fn velocity_cap_improves_with_compute() {
        let mut fast = ctx(ApplicationId::PackageDelivery);
        let mut slow = MissionContext::new(
            MissionConfig::fast_test(ApplicationId::PackageDelivery)
                .with_operating_point(OperatingPoint::slowest()),
        )
        .unwrap();
        assert!(fast.velocity_cap() > slow.velocity_cap());
        // Scanning has almost no reactive kernels, so its cap equals the
        // application cruise limit at every operating point.
        let mut scan = ctx(ApplicationId::Scanning);
        assert!(
            (scan.velocity_cap()
                - scan
                    .config
                    .cruise_velocity
                    .min(scan.config.quadrotor.max_velocity))
            .abs()
                < 1e-6
        );
    }

    #[test]
    fn depth_capture_and_map_update_populate_the_map() {
        let mut c = ctx(ApplicationId::PackageDelivery);
        let frame = c.capture_depth();
        let latency = c.update_map(&frame);
        assert!(!latency.is_zero());
        assert!(c.map.known_voxel_count() > 0);
        assert!(c.timer.invocations(KernelId::OctomapGeneration) == 1);
    }

    #[test]
    fn resolution_switches_keep_the_requested_domain() {
        // Toggle the policy on every frame (a density is never below 0 and
        // never infinite, so threshold 0 asks for the indoor resolution and
        // an infinite one for the outdoor resolution). Every switch happens,
        // and every map covers the mission's requested half-extent aligned
        // at its own resolution, so 0.8 m ↔ 0.15 m round trips never grow
        // the domain.
        let mut c = ctx(ApplicationId::PackageDelivery);
        let frame = c.capture_depth();
        let requested = c.config.map_half_extent();
        let first = c.map.half_extent();
        assert_eq!(first, OctoMap::aligned_half_extent(0.8, requested));
        for i in 0..40 {
            c.config.resolution_policy = ResolutionPolicy::Dynamic {
                outdoor: 0.8,
                indoor: 0.15,
                density_threshold: if i % 2 == 0 { 0.0 } else { f64::INFINITY },
            };
            c.update_map(&frame);
            let wanted = if i % 2 == 0 { 0.15 } else { 0.8 };
            assert_eq!(c.current_resolution, wanted, "frame {i}");
            assert_eq!(c.map.resolution(), wanted, "frame {i}");
            assert_eq!(
                c.map.half_extent(),
                OctoMap::aligned_half_extent(wanted, requested),
                "frame {i}"
            );
        }
        assert_eq!(c.map.half_extent(), first);
        assert!(c.map.known_voxel_count() > 0);
    }

    #[test]
    fn budget_failure_detects_timeout() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::Scanning);
        cfg.time_budget_secs = 1.0;
        let mut c = MissionContext::new(cfg).unwrap();
        assert!(c.budget_failure().is_none());
        c.hover(SimDuration::from_secs(2.0));
        assert_eq!(c.budget_failure(), Some(MissionFailure::Timeout));
    }

    #[test]
    fn fly_trajectory_reaches_an_open_space_goal() {
        let mut c = ctx(ApplicationId::Scanning);
        let start = c.pose().position;
        let goal = start + Vec3::new(20.0, -15.0, 0.0);
        let traj = Trajectory::from_waypoints(&[start, goal], 4.0, SimTime::ZERO);
        let outcome = c.fly_trajectory(&traj);
        assert_eq!(outcome, FlightOutcome::Completed);
        assert!(c.pose().position.distance(&goal) < 2.0);
        assert!(c.distance() > 15.0);
    }

    #[test]
    fn finish_produces_a_consistent_report() {
        let mut c = ctx(ApplicationId::Scanning);
        c.advance(Vec3::new(3.0, 0.0, 0.0), SimDuration::from_secs(10.0));
        let report = c.finish(None);
        assert!(report.success());
        assert!(report.mission_time_secs >= 10.0 - 1e-6);
        assert!(report.distance_m > 20.0);
        assert!(report.average_velocity > 1.0);
        assert!(report.total_energy.as_joules() > 0.0);
    }
}
