//! The closed-loop flight graph: `mav_runtime` nodes over the live mission.
//!
//! Before PR 2 the closed loop lived in one sequential function
//! (`MissionContext::fly_trajectory`): capture a frame, update the map,
//! track the path, collision-check, integrate physics — all at one implicit
//! rate. This module decomposes that loop into the ROS-style node graph of
//! the paper's Fig. 7 and schedules it on the [`Executor`]:
//!
//! ```text
//!   EnergyNode ─────────────▶ events (budget / watchdog aborts, session end)
//!   DepthCameraNode ──frames─▶ OctoMapNode ──(map in MissionContext)
//!   PathTrackerNode ─────────▶ commands (velocity), events (completed)
//!   CollisionMonitorNode ──alerts─▶ PlannerNode ─▶ events (needs-replan)
//!                                        │
//!                 plan topic (latched)   ▼  PlanInMotion only
//!   PathTrackerNode ◀──── Topic<Arc<Trajectory>> ◀──── fresh trajectory
//!   CollisionMonitorNode ◀──┘  (swap detected by sequence number)
//! ```
//!
//! Since PR 3 the trajectory the tracker and monitor fly is not a frozen
//! `Arc<Trajectory>` handle but a *latched plan topic*
//! (`Topic<Arc<Trajectory>>`): both nodes hold a [`PlanSubscription`] and
//! swap to the newest plan whenever the topic's sequence number advances.
//! Under [`crate::config::ReplanMode::PlanInMotion`] the [`PlannerNode`]
//! reacts to a collision alert by running a multi-round planning job —
//! charging the `MotionPlanning` and `PathSmoothing` kernels across
//! successive executor rounds while the vehicle keeps flying the stale plan —
//! and then publishes the fresh trajectory on the plan topic, so planning
//! latency is paid at cruise velocity instead of at hover. Under the default
//! [`crate::config::ReplanMode::HoverToPlan`] the planner keeps the
//! historical behaviour: the alert ends the episode and the application
//! re-plans while hovering.
//!
//! Each node has its own period from [`crate::config::RateConfig`]; nodes
//! due at the same
//! instant run in registration order (the executor's determinism contract),
//! and the round's serialized kernel latency is charged to mission time by
//! [`FlightCtx::charge`], which integrates vehicle physics, energy and
//! battery drain for the charged duration — the drone literally flies
//! (or hovers) while its compute runs.
//!
//! With [`crate::config::RateConfig::legacy`] every node is tick-synchronous
//! and the graph
//! reproduces the historical loop bit-for-bit (`tests/golden_legacy.rs`).
//! With explicit rates, new phenomena emerge in configuration alone: a slow
//! camera drops frames into a latched topic, a slow mapper starves the
//! collision monitor, a slow planner lets the vehicle fly on a colliding
//! plan until the next replan tick.

use crate::config::BrakePolicy;
use crate::context::MissionContext;
use mav_compute::{KernelId, OperatingPoint};
use mav_control::{PathTracker, PathTrackerConfig};
use mav_planning::{CollisionChecker, PathSmoother, ShortestPathPlanner, SmootherConfig};
use mav_runtime::{ExecStage, Executor, FifoTopic, Node, NodeContext, NodeOutput, Topic};
use mav_sensors::DepthImage;
use mav_types::{Result, SimDuration, SimTime, Trajectory, Vec3};
use std::sync::Arc;

/// A terminal event that ends a closed-loop episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// The end of the trajectory (or session) was reached.
    Completed,
    /// The remaining plan is in collision; the application should re-plan.
    NeedsReplan,
    /// A mission-level budget (time, battery, collision, watchdog) was blown.
    Aborted,
}

impl FlightEvent {
    /// Severity used by [`run_to_event`] to resolve rounds that drained more
    /// than one terminal event: an abort always outranks a replan request,
    /// which outranks completion, independent of node registration order.
    fn severity(self) -> u8 {
        match self {
            FlightEvent::Aborted => 2,
            FlightEvent::NeedsReplan => 1,
            FlightEvent::Completed => 0,
        }
    }
}

/// A collision alert raised by the monitor, consumed by the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionAlert {
    /// When the colliding plan segment was detected.
    pub at: SimTime,
    /// Position of the first colliding plan sample: the in-motion planner
    /// brakes when this threat is inside the stopping distance instead of
    /// blind-flying the stale plan into it.
    pub position: Vec3,
}

/// How a node maps mission time onto the trajectory's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timeline {
    /// Sample the trajectory at the mission clock directly (trajectories
    /// smoothed "from now", e.g. the Scanning sweep).
    MissionClock,
    /// Sample at `traj_start + (now - episode_start)` — the trajectory's own
    /// timeline, offset by when the episode began (the historical
    /// `fly_trajectory` arithmetic, kept verbatim for bit-identical replays).
    EpisodeRelative {
        /// Mission time at which the episode began.
        episode_start: SimTime,
        /// Timestamp of the trajectory's first point.
        traj_start: SimTime,
    },
}

impl Timeline {
    /// The trajectory-timeline instant corresponding to mission time `now`.
    pub fn plan_time(&self, now: SimTime) -> SimTime {
        match *self {
            Timeline::MissionClock => now,
            Timeline::EpisodeRelative {
                episode_start,
                traj_start,
            } => traj_start + now.since(episode_start),
        }
    }
}

/// The episode watchdog budget for a plan: generous slack over the plan's
/// own duration, so tracking corrections never trip a healthy episode.
/// Shared by [`MissionContext::fly_trajectory`](crate::context::MissionContext::fly_trajectory)
/// (the initial guard) and [`EnergyNode`]'s plan-watchdog re-arm, so an
/// in-flight replan always restarts the watchdog with the same formula the
/// episode began with.
pub fn episode_watchdog_budget(trajectory: &Trajectory) -> f64 {
    trajectory.duration_secs() * 4.0 + 60.0
}

/// A node's subscription to the latched plan topic.
///
/// The tracker and monitor do not hold frozen `Arc<Trajectory>` handles any
/// more: they hold one of these, and [`PlanSubscription::refresh`] swaps in
/// the newest published plan whenever the topic's sequence number advances —
/// which is how an in-flight replan propagates through the graph. The
/// initial plan (published before the nodes are constructed) keeps the
/// episode's constructor-supplied [`Timeline`]; every *later* plan was
/// smoothed "from now" at publication, so subscribers sample it at
/// [`Timeline::MissionClock`].
#[derive(Debug)]
pub struct PlanSubscription {
    topic: Topic<Arc<Trajectory>>,
    sequence: u64,
    trajectory: Arc<Trajectory>,
    timeline: Timeline,
}

impl PlanSubscription {
    /// Subscribes to `topic`, snapshotting the currently latched plan (the
    /// episode's initial trajectory) and sampling it on `timeline`.
    pub fn new(topic: Topic<Arc<Trajectory>>, timeline: Timeline) -> Self {
        let trajectory = topic
            .latest()
            .unwrap_or_else(|| Arc::new(Trajectory::new()));
        let sequence = topic.sequence();
        PlanSubscription {
            topic,
            sequence,
            trajectory,
            timeline,
        }
    }

    /// Swaps in the newest plan if the topic's sequence number advanced since
    /// the last call. Returns `true` when a swap happened.
    pub fn refresh(&mut self) -> bool {
        let sequence = self.topic.sequence();
        if sequence == self.sequence {
            return false;
        }
        self.sequence = sequence;
        if let Some(trajectory) = self.topic.latest() {
            self.trajectory = trajectory;
            // Replanned trajectories are smoothed from the mission clock at
            // publication time, so every subscriber samples them there —
            // no per-subscriber re-anchoring, hence no tracker/monitor skew.
            self.timeline = Timeline::MissionClock;
        }
        true
    }

    /// The currently subscribed plan.
    pub fn trajectory(&self) -> &Arc<Trajectory> {
        &self.trajectory
    }

    /// How mission time maps onto the current plan's timeline.
    pub fn timeline(&self) -> Timeline {
        self.timeline
    }

    /// The topic sequence number of the current plan.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }
}

/// The scheduling context of one closed-loop episode: the live mission plus
/// the graph's shared topics. Implements the executor's latency-charging
/// hook by flying the vehicle for the charged duration under the latest
/// velocity command.
pub struct FlightCtx<'m> {
    /// The live mission state every node reads and writes.
    pub mission: &'m mut MissionContext,
    /// Terminal-event queue; any entry halts the executor round.
    pub events: FifoTopic<FlightEvent>,
    /// Latched latest velocity command from the control node.
    pub commands: Topic<Vec3>,
    /// Minimum round length: even a round of near-zero kernel latency flies
    /// the vehicle this long (50 ms in the historical loop, 100 ms for the
    /// Scanning sweep).
    pub min_tick: SimDuration,
}

impl NodeContext for FlightCtx<'_> {
    fn now(&self) -> SimTime {
        self.mission.clock.now()
    }

    fn halted(&self) -> bool {
        !self.events.is_empty()
    }

    fn charge(&mut self, consumed: SimDuration, _idle_step: SimDuration) -> Result<()> {
        let velocity = self.commands.latest().unwrap_or(Vec3::ZERO);
        self.mission.advance(velocity, consumed.max(self.min_tick));
        Ok(())
    }
}

/// Budget watchdog.
///
/// Runs first in every graph (registration order), mirroring the historical
/// loop's budget check at the top of each iteration: a blown mission budget
/// (collision, battery, time) or an episode-watchdog overrun publishes
/// [`FlightEvent::Aborted`]; an elapsed filming session publishes
/// [`FlightEvent::Completed`].
pub struct EnergyNode {
    events: FifoTopic<FlightEvent>,
    /// Optional episode watchdog: abort once `now - start` exceeds the limit.
    watchdog: Option<(SimTime, f64)>,
    /// Optional plan-topic subscription: an in-flight replan re-arms the
    /// watchdog for the fresh trajectory instead of aborting a healthy
    /// episode that merely outlived the *original* plan's budget.
    watchdog_plan: Option<(Topic<Arc<Trajectory>>, u64)>,
    /// Optional session end (seconds of mission time): completing, not
    /// aborting (aerial photography's "filmed the whole session" success).
    session_end_secs: Option<f64>,
}

impl EnergyNode {
    /// A plain budget monitor.
    pub fn new(events: FifoTopic<FlightEvent>) -> Self {
        EnergyNode {
            events,
            watchdog: None,
            watchdog_plan: None,
            session_end_secs: None,
        }
    }

    /// Adds an episode watchdog: abort when more than `max_secs` of mission
    /// time elapse after `start`.
    pub fn with_watchdog(mut self, start: SimTime, max_secs: f64) -> Self {
        self.watchdog = Some((start, max_secs));
        self
    }

    /// Re-arms the watchdog whenever a new plan appears on `plan`: the
    /// deadline restarts at the swap with the fresh trajectory's own budget
    /// (the same `duration × 4 + 60 s` guard the episode started with).
    pub fn with_plan_watchdog(mut self, plan: Topic<Arc<Trajectory>>) -> Self {
        let sequence = plan.sequence();
        self.watchdog_plan = Some((plan, sequence));
        self
    }

    /// Adds a session deadline: complete (successfully) at `end_secs`.
    pub fn with_session_end(mut self, end_secs: f64) -> Self {
        self.session_end_secs = Some(end_secs);
        self
    }
}

impl Node<FlightCtx<'_>> for EnergyNode {
    fn name(&self) -> &str {
        "energy"
    }

    fn period(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn stage(&self) -> ExecStage {
        ExecStage::Housekeeping
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, now: SimTime) -> Result<NodeOutput> {
        if ctx.mission.budget_failure().is_some() {
            self.events.publish(FlightEvent::Aborted);
            return Ok(SimDuration::ZERO);
        }
        if let Some((plan, last_sequence)) = &mut self.watchdog_plan {
            let sequence = plan.sequence();
            if sequence != *last_sequence {
                *last_sequence = sequence;
                if let (Some(trajectory), Some(_)) = (plan.latest(), self.watchdog) {
                    self.watchdog = Some((now, episode_watchdog_budget(&trajectory)));
                }
            }
        }
        if let Some((start, max_secs)) = self.watchdog {
            if now.since(start).as_secs() > max_secs {
                self.events.publish(FlightEvent::Aborted);
                return Ok(SimDuration::ZERO);
            }
        }
        if let Some(end_secs) = self.session_end_secs {
            if now.as_secs() >= end_secs {
                self.events.publish(FlightEvent::Completed);
            }
        }
        Ok(SimDuration::ZERO)
    }
}

/// Captures a depth frame from the current pose and publishes it on the
/// latched frame topic. At explicit camera rates, frames a slow mapper never
/// consumes are simply overwritten — latest-value semantics are the frame
/// drop model. Frames travel as `Arc`s so consuming the latched value is a
/// pointer clone, not a pixel-buffer copy.
pub struct DepthCameraNode {
    frames: Topic<Arc<DepthImage>>,
    period: SimDuration,
}

impl DepthCameraNode {
    /// Creates the camera node publishing on `frames`.
    pub fn new(frames: Topic<Arc<DepthImage>>, period: SimDuration) -> Self {
        DepthCameraNode { frames, period }
    }
}

impl Node<FlightCtx<'_>> for DepthCameraNode {
    fn name(&self) -> &str {
        "depth_camera"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn stage(&self) -> ExecStage {
        ExecStage::Sensing
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, _now: SimTime) -> Result<NodeOutput> {
        // A fault-injected dropout window returns `None`: no frame is
        // published, the latched topic keeps its stale value, and the
        // mapper's sequence gate simply sees nothing new — exactly the frame
        // drop model the latched-topic semantics already define. Without an
        // injector this is `capture_depth` verbatim.
        if let Some(frame) = ctx.mission.capture_depth_faulted() {
            self.frames.publish(Arc::new(frame));
        }
        Ok(SimDuration::ZERO)
    }
}

/// Integrates the newest unseen depth frame into the occupancy map, charging
/// the perception kernels (point-cloud generation, OctoMap update, collision
/// check, localization). Skips rounds with no new frame.
pub struct OctoMapNode {
    frames: Topic<Arc<DepthImage>>,
    period: SimDuration,
    last_sequence: u64,
    /// Per-node operating point for the perception batch (`None`:
    /// mission-global).
    op: Option<OperatingPoint>,
}

impl OctoMapNode {
    /// Creates the mapping node consuming `frames`.
    pub fn new(frames: Topic<Arc<DepthImage>>, period: SimDuration) -> Self {
        OctoMapNode {
            frames,
            period,
            last_sequence: 0,
            op: None,
        }
    }

    /// Pins the node's kernel charges to its own operating point (builder
    /// style): the big.LITTLE-style per-node DVFS hook.
    pub fn with_operating_point(mut self, op: Option<OperatingPoint>) -> Self {
        self.op = op;
        self
    }
}

impl Node<FlightCtx<'_>> for OctoMapNode {
    fn name(&self) -> &str {
        "octomap"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn stage(&self) -> ExecStage {
        ExecStage::Perception
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, _now: SimTime) -> Result<NodeOutput> {
        let sequence = self.frames.sequence();
        if sequence == self.last_sequence {
            return Ok(SimDuration::ZERO);
        }
        self.last_sequence = sequence;
        let Some(frame) = self.frames.latest() else {
            return Ok(SimDuration::ZERO);
        };
        Ok(ctx.mission.update_map_at(&frame, self.op))
    }
}

/// The stale-perception watchdog state carried by [`PathTrackerNode`] when
/// [`crate::config::DegradationConfig::perception_watchdog`] is on.
///
/// Watches the depth-frame topic's sequence number: while fresh frames keep
/// arriving the guard is inert, but once the sensing age grows past a grace
/// window (a configured multiple of the expected frame interval) it decays
/// the Eq. 2 velocity cap in proportion to the overrun — the degraded-mode
/// alternative to flying blind at full speed on a map that is no longer
/// being updated. The expected interval self-calibrates to the larger of the
/// configured camera period and the tracker's own observed tick gap, so
/// legacy tick-synchronous schedules (camera period zero) are judged against
/// the cadence the graph actually runs at.
#[derive(Debug)]
pub struct StaleGuard {
    frames: Topic<Arc<DepthImage>>,
    last_sequence: u64,
    last_fresh: Option<SimTime>,
    last_tick: Option<SimTime>,
    camera_period: SimDuration,
    grace_factor: f64,
}

/// Hard floor on the stale-perception cap decay: even arbitrarily old
/// sensing keeps the vehicle crawling toward safety instead of freezing it
/// mid-air (a hover burns battery without making progress or re-observing
/// anything new).
const STALE_CAP_FLOOR: f64 = 0.2;

/// How many samples of the stale plan a splice may keep: the validated
/// prefix only ever covers the near future — the far tail was going to be
/// replaced by the fresh segment anyway, and shorter prefixes keep the
/// smoother's waypoint count bounded.
const SPLICE_HORIZON: usize = 32;

/// Downsampling stride from (dense) plan samples to smoother waypoints when
/// splicing: the smoother re-times the corridor, it does not need every
/// sample back.
const SPLICE_STRIDE: usize = 4;

impl StaleGuard {
    /// Creates a guard watching `frames`, expecting a frame roughly every
    /// `camera_period` and tolerating `grace_factor` missed intervals before
    /// the decay starts.
    pub fn new(
        frames: Topic<Arc<DepthImage>>,
        camera_period: SimDuration,
        grace_factor: f64,
    ) -> Self {
        StaleGuard {
            last_sequence: frames.sequence(),
            frames,
            last_fresh: None,
            last_tick: None,
            camera_period,
            grace_factor,
        }
    }

    /// The velocity-cap scale for this tick: `1.0` while sensing is fresh,
    /// `grace / age` (floored at [`STALE_CAP_FLOOR`]) once the sensing age
    /// exceeds the grace window.
    fn cap_scale(&mut self, now: SimTime) -> f64 {
        let own_gap = self
            .last_tick
            .map(|t| now.since(t))
            .unwrap_or(SimDuration::ZERO);
        self.last_tick = Some(now);
        let sequence = self.frames.sequence();
        if sequence != self.last_sequence || self.last_fresh.is_none() {
            self.last_sequence = sequence;
            self.last_fresh = Some(now);
            return 1.0;
        }
        let age = now.since(self.last_fresh.unwrap_or(now)).as_secs();
        let expected = self.camera_period.as_secs().max(own_gap.as_secs());
        let grace = self.grace_factor * expected;
        if grace <= 0.0 || age <= grace {
            1.0
        } else {
            (grace / age).max(STALE_CAP_FLOOR)
        }
    }
}

/// Samples the current plan at the current plan time and publishes a clamped
/// velocity command; publishes [`FlightEvent::Completed`] when the end of
/// the plan has been reached. Charges the configured control kernels
/// each tick (path tracking alone in the mainline graph; localization + path
/// tracking for the Scanning sweep). The plan arrives through a
/// [`PlanSubscription`], so an in-flight replan swaps the trajectory under
/// the tracker between two ticks without ending the episode.
pub struct PathTrackerNode {
    tracker: PathTracker,
    plan: PlanSubscription,
    kernels: Vec<KernelId>,
    cap: f64,
    commands: Topic<Vec3>,
    events: FifoTopic<FlightEvent>,
    period: SimDuration,
    /// In-motion brake guard: the latched threat topic plus the stopping
    /// distance the tracker checks it against on every tick.
    brake_guard: Option<(Topic<Option<Vec3>>, f64)>,
    /// How a close threat maps to a brake command (binary stop by default).
    brake_policy: BrakePolicy,
    /// Stale-perception watchdog (degraded-mode cap decay), off by default.
    stale_guard: Option<StaleGuard>,
    /// Per-node operating point for the control kernels (`None`:
    /// mission-global).
    op: Option<OperatingPoint>,
}

impl PathTrackerNode {
    /// Creates the control node for one trajectory-following episode. The
    /// episode's initial trajectory must already be latched on `plan`; the
    /// same topic handle is shared (not copied) with the collision monitor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        plan: Topic<Arc<Trajectory>>,
        timeline: Timeline,
        kernels: Vec<KernelId>,
        cap: f64,
        commands: Topic<Vec3>,
        events: FifoTopic<FlightEvent>,
        period: SimDuration,
    ) -> Self {
        PathTrackerNode {
            tracker: PathTracker::new(PathTrackerConfig::default()),
            plan: PlanSubscription::new(plan, timeline),
            kernels,
            cap,
            commands,
            events,
            period,
            brake_guard: None,
            brake_policy: BrakePolicy::Binary,
            stale_guard: None,
            op: None,
        }
    }

    /// Pins the node's kernel charges to its own operating point (builder
    /// style): the big.LITTLE-style per-node DVFS hook.
    pub fn with_operating_point(mut self, op: Option<OperatingPoint>) -> Self {
        self.op = op;
        self
    }

    /// Honours the in-motion planner's latched threat topic (builder style):
    /// while a planning job keeps a threat latched, the tracker checks the
    /// threat's distance against `stopping_distance` on *every* tick and
    /// publishes a stop instead of its tracking command when it is close.
    /// Evaluating proximity here — at the control rate — is what closes the
    /// gap between planner ticks: a threat that crosses into the stopping
    /// distance mid-job brakes the vehicle within one control period, not
    /// one replan period.
    pub fn with_brake_guard(
        mut self,
        threats: Topic<Option<Vec3>>,
        stopping_distance: f64,
    ) -> Self {
        self.brake_guard = Some((threats, stopping_distance));
        self
    }

    /// Selects how a close threat maps to a brake command (builder style).
    /// [`BrakePolicy::Binary`] is the bit-identical historical default.
    pub fn with_brake_policy(mut self, policy: BrakePolicy) -> Self {
        self.brake_policy = policy;
        self
    }

    /// Arms the stale-perception watchdog (builder style): the tracker decays
    /// its velocity cap once the depth-frame topic stops advancing for longer
    /// than `grace_factor` expected frame intervals.
    pub fn with_stale_guard(
        mut self,
        frames: Topic<Arc<DepthImage>>,
        camera_period: SimDuration,
        grace_factor: f64,
    ) -> Self {
        self.stale_guard = Some(StaleGuard::new(frames, camera_period, grace_factor));
        self
    }

    /// The sequence number of the plan the tracker currently flies.
    pub fn plan_sequence(&self) -> u64 {
        self.plan.sequence()
    }
}

impl Node<FlightCtx<'_>> for PathTrackerNode {
    fn name(&self) -> &str {
        "path_tracker"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn stage(&self) -> ExecStage {
        ExecStage::Control
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, now: SimTime) -> Result<NodeOutput> {
        self.plan.refresh();
        let mut latency = SimDuration::ZERO;
        for &kernel in &self.kernels {
            latency += ctx.mission.charge_kernel_at(kernel, self.op);
        }
        let plan_time = self.plan.timeline().plan_time(now);
        let state = *ctx.mission.quad.state();
        let cmd = self
            .tracker
            .command(self.plan.trajectory(), &state, plan_time);
        if cmd.completed {
            self.events.publish(FlightEvent::Completed);
            return Ok(latency);
        }
        // Stale-perception watchdog: with no fresh depth frame for longer
        // than the grace window, the Eq. 2 cap decays with sensing age and
        // the mission is marked degraded until frames resume. Without the
        // guard (the default) `cap == self.cap` and the command below is
        // bit-identical to the historical one.
        let cap = match self.stale_guard.as_mut() {
            Some(guard) => {
                let scale = guard.cap_scale(now);
                if scale < 1.0 {
                    ctx.mission.note_degraded();
                } else {
                    ctx.mission.note_recovered();
                }
                self.cap * scale
            }
            None => self.cap,
        };
        // A latched threat (in-motion planning job in progress) inside the
        // stopping distance overrides the tracking command until the planner
        // releases the latch: a full stop under the binary policy, a
        // slow-down proportional to the remaining threat distance under the
        // graded one.
        let threat_proximity = self.brake_guard.as_ref().and_then(|(threats, stop)| {
            threats
                .latest()
                .flatten()
                .map(|threat| (state.pose.position.distance(&threat), *stop))
                .filter(|(distance, stop)| distance < stop)
        });
        let command = match threat_proximity {
            Some((distance, stop)) => {
                cmd.velocity.clamp_norm(cap) * self.brake_policy.brake_factor(distance, stop)
            }
            None => cmd.velocity.clamp_norm(cap),
        };
        // A fault-injected message drop loses this tick's command: the
        // latched topic keeps the previous one, exactly like a lost wire
        // message under latest-value semantics.
        if !ctx.mission.fault_drop_message() {
            self.commands.publish(command);
        }
        Ok(latency)
    }
}

/// Collision-checks the remainder of the plan against the (continuously
/// updated) occupancy map and raises a [`CollisionAlert`] when it is
/// obstructed. The alert is consumed by the [`PlannerNode`]; at explicit
/// replan rates the vehicle keeps flying the stale plan until the planner's
/// next tick — replanning-rate starvation as a schedule property.
pub struct CollisionMonitorNode {
    checker: CollisionChecker,
    plan: PlanSubscription,
    alerts: FifoTopic<CollisionAlert>,
    period: SimDuration,
}

impl CollisionMonitorNode {
    /// Creates the monitor for one episode (subscribing to the same plan
    /// topic as the tracker).
    pub fn new(
        checker: CollisionChecker,
        plan: Topic<Arc<Trajectory>>,
        timeline: Timeline,
        alerts: FifoTopic<CollisionAlert>,
        period: SimDuration,
    ) -> Self {
        CollisionMonitorNode {
            checker,
            plan: PlanSubscription::new(plan, timeline),
            alerts,
            period,
        }
    }

    /// The sequence number of the plan the monitor currently checks.
    pub fn plan_sequence(&self) -> u64 {
        self.plan.sequence()
    }
}

impl Node<FlightCtx<'_>> for CollisionMonitorNode {
    fn name(&self) -> &str {
        "collision_monitor"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn stage(&self) -> ExecStage {
        ExecStage::Planning
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, now: SimTime) -> Result<NodeOutput> {
        self.plan.refresh();
        let plan_time = self.plan.timeline().plan_time(now);
        let points = self.plan.trajectory().points();
        // Only the *remaining* plan is checked. A plan time past the last
        // sample means nothing is left to check; falling back to index 0
        // (the historical bug) re-checked already-flown segments and raised
        // spurious alerts at the end of every episode.
        let from_index = points
            .iter()
            .position(|p| p.time >= plan_time)
            .unwrap_or(points.len());
        if let Some(hit) = self.checker.first_collision_report(
            &ctx.mission.map,
            self.plan.trajectory(),
            from_index,
        ) {
            // Aim the alert at the occupied voxel that actually blocks the
            // plan (reported by the DDA corridor in the same pass that found
            // the collision) rather than the colliding plan *sample*: the
            // in-motion brake guard measures threat distance from this
            // position, and a sample can sit a whole inflation radius away
            // from the obstruction it grazes.
            //
            // A fault-injected message drop loses the alert: the planner
            // stays oblivious until the monitor's next tick re-detects the
            // obstruction — the degraded-mode scenario the stale-perception
            // watchdog exists to survive.
            if !ctx.mission.fault_drop_message() {
                self.alerts.publish(CollisionAlert {
                    at: now,
                    position: hit.blocking_voxel,
                });
            }
        }
        Ok(SimDuration::ZERO)
    }
}

/// The in-motion planning machinery handed to [`PlannerNode::with_in_motion`]:
/// everything the planner needs to produce and publish a fresh plan while
/// the vehicle keeps flying.
pub struct InMotionPlanner {
    /// The latched plan topic shared with tracker and monitor.
    pub plan: Topic<Arc<Trajectory>>,
    /// The path planner (seeded from the mission config — deterministic).
    pub planner: ShortestPathPlanner,
    /// Collision checker matched to the vehicle.
    pub checker: CollisionChecker,
    /// The episode goal: the final waypoint of the original plan.
    pub goal: Vec3,
    /// Airframe acceleration limit for re-smoothing.
    pub max_acceleration: f64,
    /// In-flight replans allowed per episode before falling back to a
    /// [`FlightEvent::NeedsReplan`] (the hover-to-plan escape hatch).
    pub max_replans: u32,
    /// The velocity-command topic: while a job runs with the threat inside
    /// [`InMotionPlanner::stopping_distance`], the planner overrides the
    /// tracker's command with a stop — plan in motion only when it is safe
    /// to keep moving.
    pub commands: Topic<Vec3>,
    /// The latched threat topic the tracker honours via
    /// [`PathTrackerNode::with_brake_guard`]: `Some(position)` of the
    /// nearest flagged obstruction while a job runs, `None` once released.
    /// Latching the *threat* (not a brake flag) lets the tracker re-check
    /// proximity at the control rate, so a threat that crosses into the
    /// stopping distance between two planner ticks still brakes the vehicle
    /// within one control period.
    pub threats: Topic<Option<Vec3>>,
    /// The Eq. 2 stopping-distance budget (metres): closer threats brake the
    /// vehicle for the remainder of the planning job.
    pub stopping_distance: f64,
}

/// The kernels of one in-motion planning job, charged one per executor
/// round: motion planning in the alert round, smoothing (and publication)
/// in the next.
const PLANNING_JOB: [KernelId; 2] = [KernelId::MotionPlanning, KernelId::PathSmoothing];

/// The planning node.
///
/// In the default hover-to-plan configuration it is a pure trigger: pending
/// collision alerts become a [`FlightEvent::NeedsReplan`], ending the episode
/// so the application can plan a fresh trajectory while hovering (charging
/// the planning kernels at zero velocity). Runs at the replan rate; in the
/// legacy schedule it reacts in the same round the monitor raised the alert.
///
/// With [`PlannerNode::with_in_motion`] it becomes a real planning node: a
/// collision alert starts a *multi-round planning job* that charges the
/// `MotionPlanning` and `PathSmoothing` kernels on successive executor rounds
/// — mission time during which the tracker keeps flying the stale plan — and
/// then plans from the vehicle's current position to the episode goal on the
/// current map, smooths from the mission clock, and publishes the result on
/// the latched plan topic. Planning failures (blocked goal, exhausted sample
/// budget, too many in-flight replans) fall back to the hover-to-plan
/// episode end instead of aborting the mission.
pub struct PlannerNode {
    alerts: FifoTopic<CollisionAlert>,
    events: FifoTopic<FlightEvent>,
    period: SimDuration,
    in_motion: Option<InMotionPlanner>,
    /// Remaining kernel charges of the active planning job (in charge order):
    /// a tail of [`PLANNING_JOB`], empty when no job runs.
    job: &'static [KernelId],
    /// First flagged obstruction of the plan the active job is replacing.
    threat: Option<Vec3>,
    replans: u32,
    /// Hard latency budget for one planning job (degradation response): a
    /// job whose accumulated kernel charges exceed it is abandoned in favour
    /// of the hover-to-plan fallback. `None` (the default) never times out.
    job_budget: Option<SimDuration>,
    /// Kernel latency charged by the active job so far.
    job_spent: SimDuration,
    /// Splice the fresh segment onto the validated prefix of the stale plan
    /// instead of replacing the whole plan (off by default).
    splice: bool,
    /// How a close threat maps to a brake command (binary stop by default).
    brake_policy: BrakePolicy,
    /// Per-node operating point for the planning kernels (`None`:
    /// mission-global).
    op: Option<OperatingPoint>,
}

impl PlannerNode {
    /// Creates the (hover-to-plan) planner trigger.
    pub fn new(
        alerts: FifoTopic<CollisionAlert>,
        events: FifoTopic<FlightEvent>,
        period: SimDuration,
    ) -> Self {
        PlannerNode {
            alerts,
            events,
            period,
            in_motion: None,
            job: &[],
            threat: None,
            replans: 0,
            job_budget: None,
            job_spent: SimDuration::ZERO,
            splice: false,
            brake_policy: BrakePolicy::Binary,
            op: None,
        }
    }

    /// Caps one planning job's accumulated kernel latency (builder style):
    /// exceeding the budget abandons the job and falls back to the
    /// hover-to-plan path, marking the mission degraded.
    pub fn with_job_budget(mut self, budget: SimDuration) -> Self {
        self.job_budget = Some(budget);
        self
    }

    /// Enables partial-trajectory splicing on replan (builder style): the
    /// fresh segment is grafted onto the still-collision-free prefix of the
    /// stale plan instead of replacing it wholesale.
    pub fn with_splicing(mut self, splice: bool) -> Self {
        self.splice = splice;
        self
    }

    /// Selects how a close threat maps to a brake command (builder style).
    /// [`BrakePolicy::Binary`] is the bit-identical historical default.
    pub fn with_brake_policy(mut self, policy: BrakePolicy) -> Self {
        self.brake_policy = policy;
        self
    }

    /// Pins the node's kernel charges to its own operating point (builder
    /// style): the big.LITTLE-style per-node DVFS hook.
    pub fn with_operating_point(mut self, op: Option<OperatingPoint>) -> Self {
        self.op = op;
        self
    }

    /// Upgrades the trigger into an in-motion planning node (builder style).
    pub fn with_in_motion(mut self, in_motion: InMotionPlanner) -> Self {
        self.in_motion = Some(in_motion);
        self
    }

    /// `true` while a planning job is charging kernels across rounds.
    pub fn planning_in_progress(&self) -> bool {
        !self.job.is_empty()
    }

    /// In-flight replans published so far by this node.
    pub fn replans(&self) -> u32 {
        self.replans
    }

    /// Completes the active job: plans from the current position to the goal
    /// on the current map and publishes the smoothed trajectory, or falls
    /// back to ending the episode when no plan can be found.
    fn finish_plan(&mut self, ctx: &mut FlightCtx<'_>) {
        let Some(im) = &self.in_motion else { return };
        // Partial-trajectory splicing (off by default): plan the fresh
        // segment from the end of the still-collision-free prefix of the
        // stale plan and smooth the concatenated waypoints, instead of
        // throwing the validated prefix away and planning from the current
        // pose. With an empty prefix (splicing off, empty plan, or nothing
        // validated ahead of the vehicle) this is the historical code path
        // verbatim.
        let prefix = if self.splice {
            self.validated_prefix(ctx)
        } else {
            Vec::new()
        };
        let pose = ctx.mission.pose().position;
        let cap = ctx.mission.velocity_cap();
        let now = ctx.mission.clock.now();
        let build = |start: Vec3, prefix: &[Vec3]| {
            im.planner
                .plan(&ctx.mission.map, &im.checker, start, im.goal)
                .map(|path| path.shortcut(&ctx.mission.map, &im.checker))
                .and_then(|path| {
                    let smoother =
                        PathSmoother::new(SmootherConfig::new(cap.max(0.5), im.max_acceleration));
                    if prefix.is_empty() {
                        smoother.smooth(&path.waypoints, now)
                    } else {
                        let mut waypoints = prefix.to_vec();
                        for &w in &path.waypoints {
                            if waypoints.last().is_none_or(|last| last.distance(&w) > 1e-9) {
                                waypoints.push(w);
                            }
                        }
                        smoother.smooth(&waypoints, now)
                    }
                })
        };
        let mut smoothed = match prefix.last().copied() {
            Some(start) => build(start, &prefix),
            None => build(pose, &[]),
        };
        // A spliced trajectory is only published if it is still collision-free
        // end to end on the current map: smoothing across the splice junction
        // can cut a corner the raw prefix samples cleared. On any hit, fall
        // back to the historical replace-the-whole-plan path.
        if !prefix.is_empty() {
            let collides = smoothed.as_ref().map_or(true, |trajectory| {
                im.checker
                    .first_collision_report(&ctx.mission.map, trajectory, 0)
                    .is_some()
            });
            if collides {
                smoothed = build(pose, &[]);
            }
        }
        match smoothed {
            Ok(trajectory) => {
                ctx.mission.note_replan();
                self.replans += 1;
                im.plan.publish(Arc::new(trajectory));
            }
            // No in-flight plan available: hand the episode back to the
            // application, which replans while hovering (the historical
            // path). This keeps blocked-goal scenarios mission-safe.
            Err(_) => self.events.publish(FlightEvent::NeedsReplan),
        }
        // The threat is NOT cleared here: the tracker already published this
        // round's command from the stale plan (it runs earlier in the round),
        // so the publication round must still brake if the threat is close.
        // The caller clears it after that last brake check.
    }

    /// The still-collision-free prefix of the currently latched plan, from
    /// the sample nearest the vehicle forward: downsampled to smoother
    /// waypoints, capped at [`SPLICE_HORIZON`] samples, cut at the first
    /// colliding sample. Empty when nothing ahead of the vehicle is
    /// validated (which makes [`PlannerNode::finish_plan`] fall back to the
    /// replace-the-whole-plan path).
    fn validated_prefix(&self, ctx: &FlightCtx<'_>) -> Vec<Vec3> {
        let Some(im) = &self.in_motion else {
            return Vec::new();
        };
        let Some(plan) = im.plan.latest() else {
            return Vec::new();
        };
        let points = plan.points();
        if points.is_empty() {
            return Vec::new();
        }
        let pose = ctx.mission.pose().position;
        let nearest = points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.position
                    .distance(&pose)
                    .total_cmp(&b.position.distance(&pose))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let first_hit = im
            .checker
            .first_collision_report(&ctx.mission.map, &plan, nearest)
            .map(|hit| hit.index)
            .unwrap_or(points.len());
        // The flagged obstruction that triggered this replan is typically NOT
        // in the map yet (the alert races map integration), so the map check
        // above cannot see it: cut the prefix before the first sample inside
        // the threat's stopping-distance bubble as well.
        let threat_hit = self
            .threat
            .and_then(|threat| {
                points[nearest..]
                    .iter()
                    .position(|p| p.position.distance(&threat) < im.stopping_distance)
            })
            .map(|offset| nearest + offset)
            .unwrap_or(points.len());
        let end = first_hit.min(threat_hit).min(nearest + SPLICE_HORIZON);
        if end <= nearest + 1 {
            return Vec::new();
        }
        let mut prefix: Vec<Vec3> = points[nearest..end]
            .iter()
            .step_by(SPLICE_STRIDE)
            .map(|p| p.position)
            .collect();
        let tail = points[end - 1].position;
        if prefix.last().is_none_or(|last| last.distance(&tail) > 1e-9) {
            prefix.push(tail);
        }
        prefix
    }

    /// Folds newly drained alerts into the tracked threat, keeping whichever
    /// flagged obstruction is nearest to the vehicle right now.
    fn track_nearest_threat(&mut self, ctx: &FlightCtx<'_>, alerts: &[CollisionAlert]) {
        let pose = ctx.mission.pose().position;
        for alert in alerts {
            let closer = match self.threat {
                Some(threat) => alert.position.distance(&pose) < threat.distance(&pose),
                None => true,
            };
            if closer {
                self.threat = Some(alert.position);
            }
        }
    }

    /// `true` while the tracked threat sits inside the stopping distance.
    fn threat_is_close(&self, ctx: &FlightCtx<'_>) -> bool {
        let (Some(im), Some(threat)) = (&self.in_motion, self.threat) else {
            return false;
        };
        ctx.mission.pose().position.distance(&threat) < im.stopping_distance
    }

    /// The brake command for the currently latched threat: a full stop under
    /// the binary policy, the latest command scaled by the remaining threat
    /// distance (down to the hard-stop core) under the graded one.
    fn braked_command(&self, ctx: &FlightCtx<'_>, im: &InMotionPlanner) -> Vec3 {
        let Some(threat) = self.threat else {
            return Vec3::ZERO;
        };
        let distance = ctx.mission.pose().position.distance(&threat);
        let factor = self
            .brake_policy
            .brake_factor(distance, im.stopping_distance);
        im.commands.latest().unwrap_or(Vec3::ZERO) * factor
    }

    /// While a job runs, flying on towards a threat inside the stopping
    /// distance would blind-fly the vehicle into an obstacle it has already
    /// seen. Latches the nearest threat for the tracker's per-tick proximity
    /// check and, when already close, brakes the command for the current
    /// round's charge (the tracker ran earlier in this round).
    fn brake_if_threat_close(&self, ctx: &mut FlightCtx<'_>) {
        let Some(im) = &self.in_motion else { return };
        im.threats.publish(self.threat);
        if self.threat_is_close(ctx) {
            let command = self.braked_command(ctx, im);
            im.commands.publish(command);
        }
    }

    /// Releases the latched threat so the tracker resumes on its next tick.
    fn release_brake(&self) {
        if let Some(im) = &self.in_motion {
            im.threats.publish(None);
        }
    }

    /// `true` once the active job's accumulated kernel latency blew the
    /// configured budget. Always `false` without a budget (the default).
    fn job_timed_out(&self) -> bool {
        self.job_budget
            .is_some_and(|budget| self.job_spent > budget)
    }

    /// Charges the active job's next kernel and removes it from the job.
    fn charge_next_kernel(&mut self, ctx: &mut FlightCtx<'_>) -> SimDuration {
        let Some((&kernel, rest)) = self.job.split_first() else {
            return SimDuration::ZERO;
        };
        self.job = rest;
        let latency = ctx.mission.charge_kernel_at(kernel, self.op);
        self.job_spent += latency;
        latency
    }

    /// Planner-timeout degradation response: abandons the active job,
    /// releases the brake latch and hands the episode back to the
    /// application through the existing hover-to-plan path, marking the
    /// mission degraded.
    fn abandon_job(&mut self, ctx: &mut FlightCtx<'_>) {
        ctx.mission.note_degraded();
        self.job = &[];
        self.release_brake();
        self.threat = None;
        self.events.publish(FlightEvent::NeedsReplan);
    }
}

impl Node<FlightCtx<'_>> for PlannerNode {
    fn name(&self) -> &str {
        "planner"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn stage(&self) -> ExecStage {
        ExecStage::Planning
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, _now: SimTime) -> Result<NodeOutput> {
        let Some(max_replans) = self.in_motion.as_ref().map(|im| im.max_replans) else {
            // Hover-to-plan: a pending alert ends the episode (bit-identical
            // to the pre-PR 3 trigger).
            if !self.alerts.drain().is_empty() {
                self.events.publish(FlightEvent::NeedsReplan);
            }
            return Ok(SimDuration::ZERO);
        };
        // An active job charges one planning kernel per round; the executor
        // turns that latency into flight time on the stale plan (or braking,
        // when the threat is close). The final charge completes the job and
        // publishes the fresh plan.
        if !self.job.is_empty() {
            // The monitor keeps checking the stale plan while the job runs:
            // an alert raised mid-job may flag a *closer* obstruction than
            // the one that started the job, and the brake guard must react
            // to whichever threat is nearest. Draining here also retires the
            // alerts for good — once the fresh plan publishes, the monitor
            // re-checks it from scratch.
            self.track_nearest_threat(ctx, &self.alerts.drain());
            let latency = self.charge_next_kernel(ctx);
            // Planner-timeout degradation response: a job whose accumulated
            // kernel latency blew the budget (e.g. under injected latency
            // spikes or a plan-timeout stretch) is abandoned — the latch is
            // released and the episode falls back to the existing
            // hover-to-plan path instead of flying the stale plan for an
            // unbounded planning stall. With no budget (the default) the
            // branch is never taken.
            if self.job_timed_out() {
                self.abandon_job(ctx);
            } else if self.job.is_empty() {
                self.finish_plan(ctx);
                // The fresh plan only reaches the tracker *next* round; this
                // round's charge still flies the tracker's stale-plan
                // command, so a close threat brakes it one last time. The
                // latch is released either way — from the next round the
                // tracker flies whatever the plan topic now holds.
                if self.threat_is_close(ctx) {
                    if let Some(im) = &self.in_motion {
                        let command = self.braked_command(ctx, im);
                        im.commands.publish(command);
                    }
                }
                self.release_brake();
                self.threat = None;
            } else {
                self.brake_if_threat_close(ctx);
            }
            return Ok(latency);
        }
        let pending = self.alerts.drain();
        if !pending.is_empty() {
            if self.replans >= max_replans {
                self.events.publish(FlightEvent::NeedsReplan);
                return Ok(SimDuration::ZERO);
            }
            // Start the planning job in the alert round itself: motion
            // planning now, smoothing (and publication) next round.
            self.track_nearest_threat(ctx, &pending);
            self.job = &PLANNING_JOB;
            self.job_spent = SimDuration::ZERO;
            let latency = self.charge_next_kernel(ctx);
            if self.job_timed_out() {
                self.abandon_job(ctx);
            } else {
                self.brake_if_threat_close(ctx);
            }
            return Ok(latency);
        }
        Ok(SimDuration::ZERO)
    }
}

/// Drives an episode graph to its first terminal event.
///
/// Steps the executor until a node publishes a [`FlightEvent`]. When a round
/// drains *several* terminal events (one node publishing more than one, or a
/// future graph with several event sources), the winner is decided by
/// severity — `Aborted > NeedsReplan > Completed` — not by the registration
/// order of whichever nodes happened to publish, so episode outcomes stay
/// deterministic under graph refactors. A node or context error (none of the
/// built-in nodes produce any) is propagated so the caller can put the real
/// message into its mission report instead of a generic abort. The event
/// queue is drained so the graph can be reused for a subsequent episode.
///
/// # Errors
///
/// Returns the first error raised by a node's `tick` or the context's
/// `charge`.
pub fn run_to_event<'m>(
    exec: &mut Executor<FlightCtx<'m>>,
    ctx: &mut FlightCtx<'m>,
) -> Result<FlightEvent> {
    loop {
        exec.step(ctx)?;
        let drained = ctx.events.drain();
        // Ties can only be duplicates of the same variant, so max_by_key's
        // last-wins tie-breaking cannot introduce nondeterminism.
        if let Some(&event) = drained.iter().max_by_key(|event| event.severity()) {
            return Ok(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissionConfig;
    use mav_compute::ApplicationId;

    fn mission() -> MissionContext {
        let mut cfg = MissionConfig::fast_test(ApplicationId::PackageDelivery).with_seed(9);
        cfg.environment.extent = 30.0;
        cfg.environment.obstacle_density = 1.0;
        MissionContext::new(cfg).unwrap()
    }

    fn graph_topics() -> (FifoTopic<FlightEvent>, Topic<Vec3>) {
        (FifoTopic::new("t/events"), Topic::new("t/cmd"))
    }

    #[test]
    fn timeline_arithmetic_matches_legacy_formula() {
        let t = Timeline::EpisodeRelative {
            episode_start: SimTime::from_secs(10.0),
            traj_start: SimTime::from_secs(3.0),
        };
        assert_eq!(
            t.plan_time(SimTime::from_secs(12.5)),
            SimTime::from_secs(3.0) + SimTime::from_secs(12.5).since(SimTime::from_secs(10.0))
        );
        assert_eq!(
            Timeline::MissionClock.plan_time(SimTime::from_secs(7.0)),
            SimTime::from_secs(7.0)
        );
    }

    #[test]
    fn energy_node_aborts_on_blown_budget() {
        let mut m = mission();
        m.config.time_budget_secs = 1.0;
        m.hover(SimDuration::from_secs(2.0));
        let (events, commands) = graph_topics();
        let mut node = EnergyNode::new(events.clone());
        let mut fctx = FlightCtx {
            mission: &mut m,
            events: events.clone(),
            commands,
            min_tick: SimDuration::from_millis(50.0),
        };
        let now = fctx.now();
        node.tick(&mut fctx, now).unwrap();
        assert_eq!(events.drain(), vec![FlightEvent::Aborted]);
    }

    #[test]
    fn energy_node_watchdog_and_session_end() {
        let mut m = mission();
        m.hover(SimDuration::from_secs(5.0));
        let (events, commands) = graph_topics();
        let mut node = EnergyNode::new(events.clone()).with_watchdog(mav_types::SimTime::ZERO, 2.0);
        let mut fctx = FlightCtx {
            mission: &mut m,
            events: events.clone(),
            commands: commands.clone(),
            min_tick: SimDuration::from_millis(50.0),
        };
        let now = fctx.now();
        node.tick(&mut fctx, now).unwrap();
        assert_eq!(events.drain(), vec![FlightEvent::Aborted]);

        let mut session = EnergyNode::new(events.clone()).with_session_end(4.0);
        let mut fctx = FlightCtx {
            mission: &mut m,
            events: events.clone(),
            commands,
            min_tick: SimDuration::from_millis(50.0),
        };
        let now = fctx.now();
        session.tick(&mut fctx, now).unwrap();
        assert_eq!(events.drain(), vec![FlightEvent::Completed]);
    }

    #[test]
    fn camera_feeds_octomap_through_the_frame_topic() {
        let mut m = mission();
        let (events, commands) = graph_topics();
        let frames: Topic<Arc<DepthImage>> = Topic::new("t/frames");
        let mut camera = DepthCameraNode::new(frames.clone(), SimDuration::ZERO);
        let mut mapper = OctoMapNode::new(frames.clone(), SimDuration::ZERO);
        let mut fctx = FlightCtx {
            mission: &mut m,
            events,
            commands,
            min_tick: SimDuration::from_millis(50.0),
        };
        // No frame yet: the mapper idles.
        let out = mapper.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert!(out.is_zero());
        camera.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert_eq!(frames.sequence(), 1);
        let out = mapper.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert!(!out.is_zero(), "perception kernels must be charged");
        assert!(fctx.mission.map.known_voxel_count() > 0);
        // Same frame again: the mapper must not re-integrate it.
        let out = mapper.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert!(out.is_zero());
    }

    #[test]
    fn monitor_does_not_rescan_flown_segments_past_plan_end() {
        let mut m = mission();
        // A two-point plan whose first sample sits inside an occupied voxel:
        // exactly the state at the end of an episode, where the vehicle has
        // flown past (and mapped) its own departure corridor.
        let p0 = Vec3::new(2.0, 0.0, 2.0);
        let p1 = Vec3::new(12.0, 0.0, 2.0);
        m.map
            .insert_ray(&Vec3::new(0.0, 0.0, 2.0), &Vec3::new(2.0, 0.0, 2.0));
        let mut traj = Trajectory::new();
        traj.push(mav_types::TrajectoryPoint::stationary(p0, SimTime::ZERO));
        traj.push(mav_types::TrajectoryPoint::stationary(
            p1,
            SimTime::from_secs(1.0),
        ));
        let plan: Topic<Arc<Trajectory>> = Topic::new("t/plan");
        plan.publish(Arc::new(traj));
        let alerts: FifoTopic<CollisionAlert> = FifoTopic::new("t/alerts");
        let mut monitor = CollisionMonitorNode::new(
            m.collision_checker(),
            plan,
            Timeline::MissionClock,
            alerts.clone(),
            SimDuration::ZERO,
        );
        let (events, commands) = graph_topics();
        let mut fctx = FlightCtx {
            mission: &mut m,
            events,
            commands,
            min_tick: SimDuration::from_millis(50.0),
        };
        // Mid-plan: the occupied first sample is behind the plan time, the
        // remainder is free — no alert.
        monitor.tick(&mut fctx, SimTime::from_secs(0.5)).unwrap();
        // Past the end of the plan: nothing is left to check. The historical
        // `.unwrap_or(0)` fell back to re-checking the whole (already-flown)
        // trajectory here and raised a spurious alert.
        monitor.tick(&mut fctx, SimTime::from_secs(10.0)).unwrap();
        assert!(
            alerts.drain().is_empty(),
            "monitor re-checked already-flown segments"
        );
        // And at the very start the occupied sample *is* the remaining plan:
        // the monitor must still alert.
        monitor.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert_eq!(alerts.len(), 1, "genuine collision must still alert");
    }

    #[test]
    fn run_to_event_resolves_multi_event_rounds_by_severity() {
        for (published, expected) in [
            (
                vec![FlightEvent::Completed, FlightEvent::Aborted],
                FlightEvent::Aborted,
            ),
            (
                vec![FlightEvent::Aborted, FlightEvent::Completed],
                FlightEvent::Aborted,
            ),
            (
                vec![FlightEvent::Completed, FlightEvent::NeedsReplan],
                FlightEvent::NeedsReplan,
            ),
            (
                vec![FlightEvent::NeedsReplan, FlightEvent::Aborted],
                FlightEvent::Aborted,
            ),
            (vec![FlightEvent::Completed], FlightEvent::Completed),
        ] {
            let mut m = mission();
            let (events, commands) = graph_topics();
            for event in &published {
                events.publish(*event);
            }
            let mut fctx = FlightCtx {
                mission: &mut m,
                events,
                commands,
                min_tick: SimDuration::from_millis(50.0),
            };
            let mut exec: Executor<FlightCtx> = Executor::new();
            assert_eq!(
                run_to_event(&mut exec, &mut fctx).unwrap(),
                expected,
                "wrong winner for {published:?}"
            );
        }
    }

    #[test]
    fn plan_swap_propagates_to_tracker_and_monitor_by_sequence() {
        let mut m = mission();
        let (events, commands) = graph_topics();
        let start = m.pose().position;
        let original = Trajectory::from_waypoints(
            &[start, start + Vec3::new(20.0, 0.0, 0.0)],
            4.0,
            SimTime::ZERO,
        );
        let plan: Topic<Arc<Trajectory>> = Topic::new("t/plan");
        plan.publish(Arc::new(original));
        let alerts: FifoTopic<CollisionAlert> = FifoTopic::new("t/alerts");
        let mut tracker = PathTrackerNode::new(
            plan.clone(),
            Timeline::MissionClock,
            vec![KernelId::PathTracking],
            8.0,
            commands.clone(),
            events.clone(),
            SimDuration::ZERO,
        );
        let mut monitor = CollisionMonitorNode::new(
            m.collision_checker(),
            plan.clone(),
            Timeline::MissionClock,
            alerts,
            SimDuration::ZERO,
        );
        let mut fctx = FlightCtx {
            mission: &mut m,
            events,
            commands: commands.clone(),
            min_tick: SimDuration::from_millis(50.0),
        };
        tracker.tick(&mut fctx, SimTime::from_secs(1.0)).unwrap();
        monitor.tick(&mut fctx, SimTime::from_secs(1.0)).unwrap();
        assert_eq!(tracker.plan_sequence(), 1);
        assert_eq!(monitor.plan_sequence(), 1);
        let cmd = commands.latest().unwrap();
        assert!(cmd.x > 0.0, "original plan points +x, got {cmd:?}");

        // A replan publishes a fresh trajectory pointing the other way; both
        // subscribers must swap on their next tick, by sequence number alone.
        let fresh = Trajectory::from_waypoints(
            &[start, start + Vec3::new(0.0, -20.0, 0.0)],
            4.0,
            SimTime::from_secs(1.0),
        );
        plan.publish(Arc::new(fresh));
        tracker.tick(&mut fctx, SimTime::from_secs(2.0)).unwrap();
        monitor.tick(&mut fctx, SimTime::from_secs(2.0)).unwrap();
        assert_eq!(tracker.plan_sequence(), 2);
        assert_eq!(monitor.plan_sequence(), 2);
        let cmd = commands.latest().unwrap();
        assert!(
            cmd.y < 0.0 && cmd.x.abs() < 1.0,
            "tracker still flying the stale plan: {cmd:?}"
        );
    }

    #[test]
    fn tracker_honours_the_latched_threat_until_released() {
        let mut m = mission();
        let (events, commands) = graph_topics();
        let start = m.pose().position;
        let plan: Topic<Arc<Trajectory>> = Topic::new("t/plan");
        plan.publish(Arc::new(Trajectory::from_waypoints(
            &[start, start + Vec3::new(20.0, 0.0, 0.0)],
            4.0,
            SimTime::ZERO,
        )));
        let threats: Topic<Option<Vec3>> = Topic::new("t/threats");
        let mut tracker = PathTrackerNode::new(
            plan,
            Timeline::MissionClock,
            vec![KernelId::PathTracking],
            8.0,
            commands.clone(),
            events.clone(),
            SimDuration::ZERO,
        )
        .with_brake_guard(threats.clone(), 10.0);
        let mut fctx = FlightCtx {
            mission: &mut m,
            events,
            commands: commands.clone(),
            min_tick: SimDuration::from_millis(50.0),
        };
        tracker.tick(&mut fctx, SimTime::from_secs(1.0)).unwrap();
        assert!(commands.latest().unwrap().x > 0.0);
        // A latched threat beyond the stopping distance does not brake.
        threats.publish(Some(start + Vec3::new(50.0, 0.0, 0.0)));
        tracker.tick(&mut fctx, SimTime::from_secs(1.05)).unwrap();
        assert!(commands.latest().unwrap().x > 0.0);
        // Inside the stopping distance: every tracker tick re-evaluates the
        // proximity and publishes the stop, so the brake holds across rounds
        // in which the planner does not run — and engages within one control
        // period of the threat crossing the boundary.
        threats.publish(Some(start + Vec3::new(5.0, 0.0, 0.0)));
        tracker.tick(&mut fctx, SimTime::from_secs(1.1)).unwrap();
        assert_eq!(commands.latest(), Some(Vec3::ZERO));
        tracker.tick(&mut fctx, SimTime::from_secs(1.2)).unwrap();
        assert_eq!(commands.latest(), Some(Vec3::ZERO));
        // Released: the tracker resumes its tracking command.
        threats.publish(None);
        tracker.tick(&mut fctx, SimTime::from_secs(1.3)).unwrap();
        assert!(commands.latest().unwrap().x > 0.0);
    }

    #[test]
    fn in_motion_replan_flies_the_stale_plan_until_publication() {
        use mav_planning::PlannerKind;
        let mut m = mission();
        let start = m.pose().position;
        let goal = start + Vec3::new(10.0, 0.0, 0.0);
        let plan: Topic<Arc<Trajectory>> = Topic::new("t/plan");
        plan.publish(Arc::new(Trajectory::from_waypoints(
            &[start, goal],
            4.0,
            SimTime::ZERO,
        )));
        let alerts: FifoTopic<CollisionAlert> = FifoTopic::new("t/alerts");
        let (events, commands) = graph_topics();
        let checker = m.collision_checker();
        let planner = m.shortest_path_planner(PlannerKind::Rrt);
        let max_acceleration = m.config.quadrotor.max_acceleration;
        let threats: Topic<Option<Vec3>> = Topic::new("t/threats");
        let mut node = PlannerNode::new(alerts.clone(), events.clone(), SimDuration::ZERO)
            .with_in_motion(InMotionPlanner {
                plan: plan.clone(),
                planner,
                checker,
                goal,
                max_acceleration,
                max_replans: 12,
                commands: commands.clone(),
                threats: threats.clone(),
                stopping_distance: 10.0,
            });
        let mut fctx = FlightCtx {
            mission: &mut m,
            events: events.clone(),
            commands: commands.clone(),
            min_tick: SimDuration::from_millis(50.0),
        };
        // No alert: the planner idles.
        let out = node.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert!(out.is_zero());
        assert!(!node.planning_in_progress());

        // Alert round: the job starts and charges motion planning, but the
        // plan topic is untouched — the tracker keeps flying sequence 1.
        // The threat (the far end of the plan) is outside the stopping
        // distance, so the planner must NOT brake the vehicle.
        commands.publish(Vec3::new(4.0, 0.0, 0.0));
        alerts.publish(CollisionAlert {
            at: SimTime::ZERO,
            position: start + Vec3::new(50.0, 0.0, 0.0),
        });
        let out = node.tick(&mut fctx, SimTime::ZERO).unwrap();
        let timer = &fctx.mission.timer;
        assert_eq!(out, timer.total(KernelId::MotionPlanning));
        assert_eq!(timer.invocations(KernelId::MotionPlanning), 1);
        assert_eq!(timer.invocations(KernelId::PathSmoothing), 0);
        assert!(node.planning_in_progress());
        assert_eq!(plan.sequence(), 1, "no plan may appear mid-job");
        assert_eq!(
            commands.latest(),
            Some(Vec3::new(4.0, 0.0, 0.0)),
            "a distant threat must not brake the vehicle"
        );
        assert_eq!(
            threats.latest(),
            Some(Some(start + Vec3::new(50.0, 0.0, 0.0))),
            "the threat must be latched for the tracker's per-tick check"
        );

        // Mid-job the monitor flags a *closer* obstruction on the stale plan:
        // the brake guard must react to the nearest threat, not the one that
        // started the job.
        alerts.publish(CollisionAlert {
            at: SimTime::from_secs(0.05),
            position: start + Vec3::new(5.0, 0.0, 0.0),
        });

        // Next round: smoothing is charged, the job completes, and the fresh
        // plan lands on the topic; the episode never saw a terminal event.
        let out = node.tick(&mut fctx, SimTime::from_secs(0.05)).unwrap();
        let timer = &fctx.mission.timer;
        assert_eq!(out, timer.total(KernelId::PathSmoothing));
        assert_eq!(timer.invocations(KernelId::MotionPlanning), 1);
        assert_eq!(timer.invocations(KernelId::PathSmoothing), 1);
        assert!(!node.planning_in_progress());
        assert_eq!(plan.sequence(), 2, "fresh plan must be published");
        assert_eq!(node.replans(), 1);
        assert_eq!(fctx.mission.replans(), 1);
        assert_eq!(
            commands.latest(),
            Some(Vec3::ZERO),
            "the closer mid-job threat must brake the publication round"
        );
        assert_eq!(
            threats.latest(),
            Some(None),
            "the latch must be released with the publication so the tracker \
             resumes on the fresh plan next round"
        );
        assert!(
            fctx.events.is_empty(),
            "in-motion replan must not end the episode"
        );
    }

    #[test]
    fn in_motion_replan_falls_back_to_needs_replan_when_blocked() {
        use mav_planning::PlannerKind;
        let mut m = mission();
        let start = m.pose().position;
        // Goal inside an occupied voxel: planning must fail and the node must
        // surface the hover-to-plan fallback instead of looping forever.
        let goal = Vec3::new(5.0, 0.0, 2.0);
        m.map.insert_ray(&start, &goal);
        let plan: Topic<Arc<Trajectory>> = Topic::new("t/plan");
        plan.publish(Arc::new(Trajectory::from_waypoints(
            &[start, goal],
            4.0,
            SimTime::ZERO,
        )));
        let alerts: FifoTopic<CollisionAlert> = FifoTopic::new("t/alerts");
        let (events, commands) = graph_topics();
        let checker = m.collision_checker();
        let planner = m.shortest_path_planner(PlannerKind::Rrt);
        let max_acceleration = m.config.quadrotor.max_acceleration;
        let threats: Topic<Option<Vec3>> = Topic::new("t/threats");
        let mut node = PlannerNode::new(alerts.clone(), events.clone(), SimDuration::ZERO)
            .with_in_motion(InMotionPlanner {
                plan: plan.clone(),
                planner,
                checker,
                goal,
                max_acceleration,
                max_replans: 12,
                commands: commands.clone(),
                threats: threats.clone(),
                stopping_distance: 10.0,
            });
        let mut fctx = FlightCtx {
            mission: &mut m,
            events: events.clone(),
            commands: commands.clone(),
            min_tick: SimDuration::from_millis(50.0),
        };
        // The threat is dead ahead, inside the stopping distance: the job
        // must brake the vehicle while it runs — and *latch* the threat, so
        // the tracker re-applies the stop between planner ticks at explicit
        // control rates.
        commands.publish(Vec3::new(4.0, 0.0, 0.0));
        alerts.publish(CollisionAlert {
            at: SimTime::ZERO,
            position: goal,
        });
        node.tick(&mut fctx, SimTime::ZERO).unwrap();
        assert_eq!(
            commands.latest(),
            Some(Vec3::ZERO),
            "a close threat must brake the vehicle during the job"
        );
        assert_eq!(
            threats.latest(),
            Some(Some(goal)),
            "the threat must be latched"
        );
        // The tracker republishes its stale-plan command at the top of the
        // final round; the brake must hold through that round as well — its
        // charge is still flown on the stale command.
        commands.publish(Vec3::new(4.0, 0.0, 0.0));
        // A fresh mid-job alert (the monitor keeps checking the stale plan)
        // must also be folded into the tracked threat.
        alerts.publish(CollisionAlert {
            at: SimTime::from_secs(0.05),
            position: start + Vec3::new(2.0, 0.0, 0.0),
        });
        node.tick(&mut fctx, SimTime::from_secs(0.05)).unwrap();
        assert_eq!(
            commands.latest(),
            Some(Vec3::ZERO),
            "a close threat must brake through the publication round"
        );
        assert_eq!(plan.sequence(), 1, "no plan can exist to a blocked goal");
        assert_eq!(events.drain(), vec![FlightEvent::NeedsReplan]);
    }

    #[test]
    fn charge_flies_the_latest_command() {
        let mut m = mission();
        let (events, commands) = graph_topics();
        commands.publish(Vec3::new(3.0, 0.0, 0.0));
        let mut fctx = FlightCtx {
            mission: &mut m,
            events,
            commands,
            min_tick: SimDuration::from_millis(50.0),
        };
        fctx.charge(SimDuration::from_secs(2.0), SimDuration::from_millis(50.0))
            .unwrap();
        assert!(fctx.mission.clock.now().as_secs() >= 2.0 - 1e-9);
        assert!(fctx.mission.distance() > 3.0);
        // Zero consumed still advances by the minimum tick.
        let before = fctx.mission.clock.now();
        fctx.charge(SimDuration::ZERO, SimDuration::from_millis(50.0))
            .unwrap();
        assert!(fctx.mission.clock.now().since(before).as_millis() >= 50.0 - 1e-9);
    }
}
