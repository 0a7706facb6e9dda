//! The Aerial Photography application.
//!
//! The MAV follows a moving subject: an object detector finds the subject, a
//! correlation-style tracker keeps the estimate fresh between detections, and
//! a PID controller steers the vehicle to keep the subject centred in frame at
//! a fixed stand-off distance. The mission lasts as long as the subject can be
//! tracked; unlike the other workloads a *longer* mission time is better, and
//! the QoF error metric is the mean framing error. There is no planned
//! trajectory to swap, so this is the one application the PR 3 plan topic
//! does not reach: the follow node *is* the planner, re-aiming every tick —
//! plan-in-motion by construction.

use crate::context::MissionContext;
use crate::flight::{EnergyNode, FlightCtx, FlightEvent};
use crate::qof::{MissionFailure, MissionReport};
use mav_compute::KernelId;
use mav_control::{Pid, PidConfig};
use mav_env::ObstacleClass;
use mav_perception::{DetectorConfig, ObjectDetector, TargetTracker, TrackerConfig};
use mav_runtime::{Executor, FifoTopic, Node, NodeOutput, Topic};
use mav_types::{Result, SimDuration, SimTime, Vec3};

/// Stand-off distance behind the subject, metres.
const STANDOFF: f64 = 6.0;
/// Filming altitude, metres.
const FILM_ALTITUDE: f64 = 4.0;
/// The detector runs once every this many control ticks; the (cheaper)
/// real-time tracker runs every tick.
const DETECTION_PERIOD: u32 = 3;
/// Consecutive ticks without a live track before the subject is declared lost.
const MAX_LOST_TICKS: u32 = 12;
/// Upper bound on the filming session, seconds of mission time.
const MAX_SESSION_SECS: f64 = 150.0;
/// Kernels charged on every tick, in charge order: real-time tracking and
/// control.
const TRACK_KERNELS: [KernelId; 3] = [
    KernelId::TrackingRealTime,
    KernelId::PidControl,
    KernelId::PathTracking,
];
/// Kernels charged on detection ticks, in charge order: [`TRACK_KERNELS`]
/// followed by detection and buffered tracking.
const DETECT_KERNELS: [KernelId; 5] = [
    KernelId::TrackingRealTime,
    KernelId::PidControl,
    KernelId::PathTracking,
    KernelId::ObjectDetection,
    KernelId::TrackingBuffered,
];

/// The subject-following node: detection every few ticks, real-time tracking
/// and PID control every tick. Publishes velocity commands (or zero while
/// re-acquiring a lost subject) and [`FlightEvent::Completed`] once the
/// subject escapes for good.
struct SubjectFollowNode {
    detector: ObjectDetector,
    tracker: TargetTracker,
    pid_x: Pid,
    pid_y: Pid,
    pid_z: Pid,
    tick_index: u32,
    lost_ticks: u32,
    last_invocation: Option<SimTime>,
    commands: Topic<Vec3>,
    events: FifoTopic<FlightEvent>,
    period: SimDuration,
    min_tick: SimDuration,
}

impl SubjectFollowNode {
    fn new(
        seed: u64,
        commands: Topic<Vec3>,
        events: FifoTopic<FlightEvent>,
        period: SimDuration,
        min_tick: SimDuration,
    ) -> Self {
        SubjectFollowNode {
            detector: ObjectDetector::new(DetectorConfig {
                seed,
                ..Default::default()
            }),
            tracker: TargetTracker::new(TrackerConfig::default()),
            pid_x: Pid::new(PidConfig::new(0.9, 0.05, 0.2).with_output_limit(8.0)),
            pid_y: Pid::new(PidConfig::new(0.9, 0.05, 0.2).with_output_limit(8.0)),
            pid_z: Pid::new(PidConfig::new(1.0, 0.0, 0.1).with_output_limit(3.0)),
            tick_index: 0,
            lost_ticks: 0,
            last_invocation: None,
            commands,
            events,
            period,
            min_tick,
        }
    }
}

impl Node<FlightCtx<'_>> for SubjectFollowNode {
    fn name(&self) -> &str {
        "subject_follow"
    }

    fn period(&self) -> SimDuration {
        self.period
    }

    fn tick(&mut self, ctx: &mut FlightCtx<'_>, now: SimTime) -> Result<NodeOutput> {
        // Perception: detection every few ticks, real-time tracking every tick.
        let run_detector = self.tick_index.is_multiple_of(DETECTION_PERIOD);
        let kernels: &[KernelId] = if run_detector {
            &DETECT_KERNELS
        } else {
            &TRACK_KERNELS
        };
        // The follow node is the whole pipeline in one node (ExecStage's
        // monolithic default), but its kernels still belong to different
        // stages, so each is priced at the operating point of the node group
        // that owns it — per-node DVFS reaches photography too.
        let mut latency = SimDuration::ZERO;
        for &kernel in kernels {
            let op = ctx.mission.node_op_for_kernel(kernel);
            latency += ctx.mission.charge_kernel_at(kernel, op);
        }
        // The tracker and PID must integrate over the real time between
        // invocations. Tick-synchronous (legacy) this node is the graph's
        // only latency source, so the upcoming round tick is exactly its
        // kernel total floored by the minimum round length; at an explicit
        // control rate, rounds elapse between invocations, so use the
        // measured inter-invocation interval instead.
        let latency_tick = latency.max(self.min_tick);
        let tick = if self.period.is_zero() {
            latency_tick
        } else {
            match self.last_invocation {
                Some(last) => now.since(last).max(latency_tick),
                None => latency_tick,
            }
        };
        self.last_invocation = Some(now);
        self.tick_index += 1;

        let pose = ctx.mission.pose();
        let detection = if run_detector {
            self.detector
                .detect_class(&ctx.mission.world, &pose, ObstacleClass::PhotographySubject)
        } else {
            None
        };
        if detection.is_some() {
            ctx.mission.note_detection();
        }
        if let Some(d) = &detection {
            ctx.mission.note_tracking_error(d.image_offset.abs());
        }
        let track = if run_detector {
            self.tracker.update(detection.as_ref(), tick)
        } else {
            self.tracker.predict(tick)
        };

        let Some(track) = track else {
            self.lost_ticks += 1;
            if self.lost_ticks > MAX_LOST_TICKS {
                // The subject escaped: the session ends here. This is not a
                // failure — the mission time *is* the metric — but shorter
                // sessions indicate weaker compute.
                self.events.publish(FlightEvent::Completed);
                return Ok(latency);
            }
            // Hover while trying to re-acquire.
            self.commands.publish(Vec3::ZERO);
            return Ok(latency);
        };
        self.lost_ticks = 0;

        // Planning/control: PID towards the stand-off point behind the subject,
        // kept inside the world bounds (the subject may hug the boundary).
        let raw_desired = follow_point(&track.position, &track.velocity);
        let b = ctx.mission.world.bounds();
        let desired = raw_desired.clamp(&(b.min + Vec3::splat(2.0)), &(b.max - Vec3::splat(2.0)));
        let error = desired - pose.position;
        let dt = tick.as_secs().max(1e-3);
        let command = Vec3::new(
            self.pid_x.update(error.x, dt),
            self.pid_y.update(error.y, dt),
            self.pid_z.update(error.z, dt),
        );
        let cap = ctx.mission.velocity_cap();
        self.commands.publish(command.clamp_norm(cap));
        Ok(latency)
    }
}

/// Runs the Aerial Photography mission.
pub fn run(mut ctx: MissionContext) -> MissionReport {
    if ctx
        .world
        .dynamic_obstacle_of_class(ObstacleClass::PhotographySubject)
        .is_none()
    {
        return ctx.finish(Some(MissionFailure::Other(
            "no photography subject in the environment".to_string(),
        )));
    }

    let session_budget = MAX_SESSION_SECS.min(ctx.config.time_budget_secs);
    let min_tick = SimDuration::from_millis(50.0);
    let event = {
        let events: FifoTopic<FlightEvent> = FifoTopic::new("photo/events");
        let commands: Topic<Vec3> = Topic::new("photo/velocity_cmd");
        let mut exec: Executor<FlightCtx> = Executor::new().with_exec_model(ctx.config.exec_model);
        exec.add_node(EnergyNode::new(events.clone()).with_session_end(session_budget));
        exec.add_node(SubjectFollowNode::new(
            ctx.config.seed,
            commands.clone(),
            events.clone(),
            ctx.config.rates.control_period(),
            min_tick,
        ));
        let mut flight_ctx = FlightCtx {
            mission: &mut ctx,
            events,
            commands,
            min_tick,
        };
        crate::flight::run_to_event(&mut exec, &mut flight_ctx)
    };
    match event {
        // Either the subject was tracked for the whole session (the energy
        // node's session deadline) or it escaped: both end the session
        // successfully — the mission time itself is the metric.
        Ok(FlightEvent::Completed) => ctx.finish(None),
        Ok(FlightEvent::Aborted | FlightEvent::NeedsReplan) => {
            let failure = ctx
                .budget_failure()
                .unwrap_or(MissionFailure::Other("filming session aborted".to_string()));
            ctx.finish(Some(failure))
        }
        Err(error) => ctx.finish(Some(MissionFailure::Other(format!(
            "filming executor error: {error}"
        )))),
    }
}

/// The camera position that keeps the subject framed: a stand-off behind the
/// subject's direction of motion at the filming altitude.
fn follow_point(subject: &Vec3, subject_velocity: &Vec3) -> Vec3 {
    let behind = if subject_velocity.norm_xy() > 0.2 {
        -subject_velocity.horizontal().normalized()
    } else {
        Vec3::new(-1.0, 0.0, 0.0)
    };
    Vec3::new(
        subject.x + behind.x * STANDOFF,
        subject.y + behind.y * STANDOFF,
        FILM_ALTITUDE,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MissionConfig;
    use mav_compute::ApplicationId;

    #[test]
    fn follow_point_sits_behind_the_subject() {
        let p = follow_point(&Vec3::new(10.0, 0.0, 1.0), &Vec3::new(2.0, 0.0, 0.0));
        assert!(p.x < 10.0);
        assert_eq!(p.z, FILM_ALTITUDE);
        // A stationary subject still gets a well-defined stand-off point.
        let q = follow_point(&Vec3::new(5.0, 5.0, 1.0), &Vec3::ZERO);
        assert!((q.distance(&Vec3::new(5.0 - STANDOFF, 5.0, FILM_ALTITUDE))) < 1e-9);
    }

    #[test]
    fn photography_tracks_the_subject_for_a_while() {
        let mut cfg = MissionConfig::fast_test(ApplicationId::AerialPhotography).with_seed(8);
        cfg.environment.extent = 40.0;
        cfg.environment.obstacle_density = 0.2;
        cfg.time_budget_secs = 60.0;
        let report = crate::apps::run_mission(cfg);
        assert!(report.success(), "photography failed: {:?}", report.failure);
        assert!(report.detections >= 1, "subject never detected");
        assert!(report.kernel_timer.invocations(KernelId::TrackingRealTime) >= 5);
        assert!(report.mission_time_secs > 5.0);
        assert!(report.tracking_error >= 0.0);
    }
}
