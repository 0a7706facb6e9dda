//! The deterministic closed-loop node executor.
//!
//! The executor mirrors the structure of a ROS application: a set of named
//! nodes, each with an invocation period, scheduled against a simulated
//! mission clock. Every invocation reports the simulated compute latency it
//! consumed; at the end of each round the executor charges the round's
//! latency to the scheduling context — the serialized sum under the default
//! [`ExecModel::Serial`], the critical path over [`ExecStage`]s under
//! [`ExecModel::Pipelined`] — which is exactly how compute
//! speed turns into mission time in MAVBench. Since PR 2 this is the engine
//! the five benchmark applications actually fly on: `mav_core::flight` wires
//! camera, mapping, planning, control and energy nodes onto an
//! [`Executor`] over the live mission state, so kernel latency, frame
//! staleness and control-rate starvation all emerge from the schedule instead
//! of being hand-coded into one loop.
//!
//! # Determinism contract
//!
//! Runs are reproducible by construction:
//!
//! * **Same-tick ordering.** All nodes due at the same instant run in
//!   *registration order*, every time. There is no priority field and no
//!   hash-ordered container anywhere in the dispatch path.
//! * **Time only moves through [`NodeContext::charge`].** Nodes never touch
//!   the clock directly; the context advances it by the round's charged
//!   compute latency (or the idle step when nothing ran), so a schedule is a
//!   pure function of the node set, the execution model and the context's
//!   initial state.
//! * **Halting is checked after every node.** When the context reports
//!   [`NodeContext::halted`], the round stops before any later node runs and
//!   before any latency is charged — mirroring a sequential loop's early
//!   `return`.
//! * **One thread.** A graph is built, driven and dropped on one thread, as
//!   under ROS 2's default single-threaded executor. Nodes need not be `Send`
//!   and topic handles are not, so the compiler, not a lock, keeps a graph on
//!   its thread.

use crate::clock::SimClock;
use mav_types::{Result, SimDuration, SimTime};
use std::fmt;

/// The pipeline stage a [`Node`] occupies, for the purposes of
/// [`ExecModel::Pipelined`] latency charging.
///
/// A real MAV stack does not run its ROS nodes back to back: the camera
/// driver captures frame N+1 while the mapper integrates frame N and the
/// planner chews on the map from frame N-1 — different stages live on
/// different cores. Stages model exactly that resource partition: within one
/// executor round, nodes on the *same* stage serialize (their latencies sum —
/// they share a core), while nodes on *different* stages overlap (the round
/// costs the slowest stage, i.e. the critical path).
///
/// [`ExecStage::Monolithic`] is the default for nodes that do not declare a
/// stage: a monolithic node is assumed to need the whole pipeline, so it
/// serializes with *everything* (its latency is added on top of the critical
/// path). Pipelining is therefore strictly opt-in per node, and a graph of
/// undeclared nodes charges exactly like [`ExecModel::Serial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ExecStage {
    /// Zero-cost bookkeeping (budget and episode watchdogs). Never on the
    /// critical path in practice, but modelled as an ordinary overlapping
    /// stage.
    Housekeeping,
    /// Sensor capture — the camera grabbing the next frame.
    Sensing,
    /// Sensor interpretation — point-cloud generation, map integration,
    /// detection and tracking.
    Perception,
    /// Path/motion planning and collision monitoring.
    Planning,
    /// Trajectory following and command issue.
    Control,
    /// The whole-pipeline default: serializes with every other node.
    #[default]
    Monolithic,
}

impl ExecStage {
    /// Every named (overlappable) stage plus the monolithic bucket.
    pub const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            ExecStage::Housekeeping => 0,
            ExecStage::Sensing => 1,
            ExecStage::Perception => 2,
            ExecStage::Planning => 3,
            ExecStage::Control => 4,
            ExecStage::Monolithic => 5,
        }
    }
}

/// How an [`Executor`] turns one round's per-node latencies into the single
/// duration charged to the [`NodeContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecModel {
    /// Nodes run back to back on one core: the round charges the *sum* of
    /// every node's latency. This is the paper's accounting and the
    /// historical behaviour, reproduced bit-for-bit (`tests/golden_legacy.rs`
    /// pins it).
    #[default]
    Serial,
    /// Nodes on different [`ExecStage`]s overlap: the round charges the
    /// *critical path* — the maximum over stages of the per-stage latency
    /// sums, plus the sum of any [`ExecStage::Monolithic`] nodes (which
    /// serialize with everything). The camera captures the next frame while
    /// the mapper integrates the last one.
    Pipelined,
}

impl ExecModel {
    /// The CLI/figure label of this model.
    pub fn label(&self) -> &'static str {
        match self {
            ExecModel::Serial => "serial",
            ExecModel::Pipelined => "pipelined",
        }
    }

    /// Parses the CLI/wire spelling: `serial`, or `pipelined` (alias
    /// `pipeline`). Shared by the harness `--exec-model` flag and the
    /// `mav-server` job spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(value: &str) -> std::result::Result<ExecModel, String> {
        match value.trim() {
            "serial" => Ok(ExecModel::Serial),
            "pipelined" | "pipeline" => Ok(ExecModel::Pipelined),
            other => Err(format!(
                "unknown exec model `{other}` (expected serial or pipelined)"
            )),
        }
    }
}

impl fmt::Display for ExecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl mav_types::ToJson for ExecModel {
    fn to_json(&self) -> mav_types::Json {
        mav_types::Json::String(self.label().to_string())
    }
}

impl mav_types::FromJson for ExecModel {
    fn from_json(json: &mav_types::Json) -> std::result::Result<Self, String> {
        let label = json
            .as_str()
            .ok_or_else(|| format!("expected an exec-model string, got {json}"))?;
        ExecModel::parse(label)
    }
}

/// Per-stage latency accumulator for one [`ExecModel::Pipelined`] round.
#[derive(Debug, Default)]
struct StageLatencies {
    sums: [SimDuration; ExecStage::COUNT],
}

impl StageLatencies {
    fn add(&mut self, stage: ExecStage, latency: SimDuration) {
        self.sums[stage.index()] += latency;
    }

    /// The round's pipelined charge: max over overlappable stages, plus the
    /// monolithic bucket, which occupies every stage and therefore cannot
    /// overlap anything.
    fn critical_path(&self) -> SimDuration {
        let monolithic = self.sums[ExecStage::Monolithic.index()];
        let widest = self.sums[..ExecStage::Monolithic.index()]
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        monolithic + widest
    }
}

/// Outcome of one node invocation: the simulated compute time it consumed.
/// The per-kernel breakdown of that time lives in the mission's own ledger
/// (`MissionContext::timer`), which every kernel charge records into.
pub type NodeOutput = SimDuration;

/// The scheduling context an [`Executor`] runs against.
///
/// The context owns mission time. The plain [`SimClock`] implementation turns
/// the executor into the standalone scheduler used in unit tests and
/// examples; `mav_core`'s flight context integrates vehicle physics, energy
/// and battery drain for the charged duration, so "the planner took 600 ms"
/// literally becomes "the drone flew 600 ms on a stale plan".
pub trait NodeContext {
    /// The current mission time.
    fn now(&self) -> SimTime;

    /// Returns `true` when the run must stop immediately (e.g. a node
    /// published a terminal event). Checked before every node invocation; a
    /// halted round charges nothing.
    fn halted(&self) -> bool {
        false
    }

    /// Charges one round's serialized compute latency to mission time.
    /// `consumed` is the sum over every node that ran this round;
    /// `idle_step` is the executor's fallback granularity for rounds in which
    /// no node was due.
    ///
    /// # Errors
    ///
    /// Contexts may fail the run (e.g. a physics integration error).
    fn charge(&mut self, consumed: SimDuration, idle_step: SimDuration) -> Result<()>;
}

impl NodeContext for SimClock {
    fn now(&self) -> SimTime {
        SimClock::now(self)
    }

    fn charge(&mut self, consumed: SimDuration, idle_step: SimDuration) -> Result<()> {
        self.advance(if consumed.is_zero() {
            idle_step
        } else {
            consumed
        });
        Ok(())
    }
}

/// A node in the application graph, generic over the scheduling context `C`
/// it reads and writes (shared state such as the occupancy map lives in the
/// context; streams such as depth frames travel over
/// [`Topic`](crate::Topic)s whose handles each node owns).
pub trait Node<C> {
    /// The node's name (unique within an executor).
    fn name(&self) -> &str;

    /// How often the node wants to run. [`SimDuration::ZERO`] means "every
    /// round" — the node is tick-synchronous with the loop, which is how the
    /// legacy sequential pipeline is expressed.
    fn period(&self) -> SimDuration;

    /// The pipeline stage this node occupies under
    /// [`ExecModel::Pipelined`] charging. Ignored by [`ExecModel::Serial`].
    /// Defaults to [`ExecStage::Monolithic`], which serializes with every
    /// other node — pipelined overlap is strictly opt-in per node.
    fn stage(&self) -> ExecStage {
        ExecStage::Monolithic
    }

    /// Runs the node once at simulated time `now` and returns the simulated
    /// compute time the invocation consumed.
    ///
    /// # Errors
    ///
    /// Nodes may fail (e.g. a planner that cannot find a path); the executor
    /// surfaces the first error to its caller.
    fn tick(&mut self, ctx: &mut C, now: SimTime) -> Result<NodeOutput>;
}

struct Registration<C> {
    node: Box<dyn Node<C>>,
    next_due: SimTime,
}

/// The closed-loop executor.
///
/// # Example
///
/// ```
/// use mav_runtime::{Executor, Node, NodeOutput, SimClock};
/// use mav_types::{Result, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// struct Heartbeat(Rc<Cell<u32>>);
/// impl Node<SimClock> for Heartbeat {
///     fn name(&self) -> &str { "heartbeat" }
///     fn period(&self) -> SimDuration { SimDuration::from_millis(100.0) }
///     fn tick(&mut self, _ctx: &mut SimClock, _now: SimTime) -> Result<NodeOutput> {
///         self.0.set(self.0.get() + 1);
///         Ok(SimDuration::from_millis(1.0))
///     }
/// }
///
/// let beats = Rc::new(Cell::new(0));
/// let mut clock = SimClock::new();
/// let mut exec = Executor::new();
/// exec.add_node(Heartbeat(Rc::clone(&beats)));
/// exec.run_for(&mut clock, SimDuration::from_secs(1.0)).unwrap();
/// assert!(beats.get() >= 9);
/// ```
pub struct Executor<C> {
    nodes: Vec<Registration<C>>,
    /// The granularity the context is asked to advance by when no node is
    /// due in a round. Defaults to 50 ms.
    pub idle_step: SimDuration,
    /// How the round's per-node latencies become the charged duration:
    /// [`ExecModel::Serial`] (default) sums them, [`ExecModel::Pipelined`]
    /// charges the critical path over [`ExecStage`]s.
    pub exec_model: ExecModel,
}

impl<C: NodeContext> Executor<C> {
    /// Creates an empty executor (serial charging).
    pub fn new() -> Self {
        Executor {
            nodes: Vec::new(),
            idle_step: SimDuration::from_millis(50.0),
            exec_model: ExecModel::default(),
        }
    }

    /// Overrides the execution model (builder style).
    pub fn with_exec_model(mut self, model: ExecModel) -> Self {
        self.exec_model = model;
        self
    }

    /// Registers a node. Nodes due at the same instant run in registration
    /// order — the same-tick ordering contract that keeps runs reproducible.
    pub fn add_node<N: Node<C> + 'static>(&mut self, node: N) {
        self.nodes.push(Registration {
            node: Box::new(node),
            next_due: SimTime::ZERO,
        });
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Registered node names in registration (dispatch) order.
    pub fn node_names(&self) -> Vec<&str> {
        self.nodes.iter().map(|r| r.node.name()).collect()
    }

    /// Runs every due node once (registration order) and charges the round's
    /// latency to the context: the serialized sum under
    /// [`ExecModel::Serial`], the critical path over [`ExecStage`]s under
    /// [`ExecModel::Pipelined`] (nodes on different stages overlap — the
    /// camera captures the next frame while the mapper integrates the last
    /// one — so the round costs its slowest stage, not the sum). Dispatch is
    /// identical under both models: same nodes, same order, same kernel
    /// charges; only the charged duration differs. Returns the charged
    /// compute time; a round halted by the context charges nothing and
    /// returns zero.
    ///
    /// # Errors
    ///
    /// Propagates the first node or context error.
    pub fn step(&mut self, ctx: &mut C) -> Result<SimDuration> {
        if ctx.halted() {
            return Ok(SimDuration::ZERO);
        }
        let now = ctx.now();
        // The serial sum is kept as its own running accumulator (not derived
        // from the stage buckets) so the default model's floating-point
        // arithmetic is exactly the historical `consumed += latency` chain —
        // the golden-legacy bit patterns depend on it.
        let mut consumed = SimDuration::ZERO;
        let mut stages = StageLatencies::default();
        for reg in &mut self.nodes {
            if reg.next_due <= now {
                let latency = reg.node.tick(ctx, now)?;
                consumed += latency;
                if self.exec_model == ExecModel::Pipelined {
                    stages.add(reg.node.stage(), latency);
                }
                // Anchor the schedule to the period grid instead of the round
                // start: a node due at t=100 ms that only gets dispatched in a
                // round opening at t=130 ms is next due at 200 ms, not 230 ms,
                // so effective rates do not sag below nominal under compute
                // load. When the grid has fallen more than a full period
                // behind (a long round elsewhere), the missed ticks are
                // dropped and the node is re-anchored at `now + period`,
                // preserving the minimum inter-invocation spacing — a 10 Hz
                // camera never captures two frames 50 ms apart to "catch up".
                // ZERO-period (tick-synchronous) nodes are unaffected: both
                // expressions reduce to `now`, exactly the old arithmetic.
                let period = reg.node.period();
                let anchored = reg.next_due + period;
                reg.next_due = if anchored < now {
                    now + period
                } else {
                    anchored
                };
                // A terminal event ends the round exactly where a sequential
                // loop would `return`: later nodes do not run and the clock
                // does not move.
                if ctx.halted() {
                    return Ok(SimDuration::ZERO);
                }
            }
        }
        let charged = match self.exec_model {
            ExecModel::Serial => consumed,
            ExecModel::Pipelined => stages.critical_path(),
        };
        ctx.charge(charged, self.idle_step)?;
        Ok(charged)
    }

    /// Runs rounds until the context's clock has advanced by `duration` (or
    /// the context halts).
    ///
    /// # Errors
    ///
    /// Propagates the first node or context error.
    pub fn run_for(&mut self, ctx: &mut C, duration: SimDuration) -> Result<()> {
        let deadline = ctx.now() + duration;
        while ctx.now() < deadline && !ctx.halted() {
            self.step(ctx)?;
        }
        Ok(())
    }
}

impl<C: NodeContext> Default for Executor<C> {
    fn default() -> Self {
        Executor::new()
    }
}

impl<C> fmt::Debug for Executor<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("nodes", &self.nodes.len())
            .field("idle_step", &self.idle_step)
            .field("exec_model", &self.exec_model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_types::MavError;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    struct Counter {
        name: &'static str,
        period: SimDuration,
        cost: SimDuration,
        stage: ExecStage,
        ticks: Rc<Cell<u32>>,
        fail_at: Option<u32>,
    }

    impl Counter {
        fn new(name: &'static str, period_ms: f64, cost_ms: f64) -> Self {
            Counter {
                name,
                period: SimDuration::from_millis(period_ms),
                cost: SimDuration::from_millis(cost_ms),
                stage: ExecStage::Monolithic,
                ticks: Rc::new(Cell::new(0)),
                fail_at: None,
            }
        }

        fn on_stage(mut self, stage: ExecStage) -> Self {
            self.stage = stage;
            self
        }

        /// The node's tick count, readable after the executor owns the node.
        fn ticks(&self) -> Rc<Cell<u32>> {
            Rc::clone(&self.ticks)
        }
    }

    impl Node<SimClock> for Counter {
        fn name(&self) -> &str {
            self.name
        }
        fn period(&self) -> SimDuration {
            self.period
        }
        fn stage(&self) -> ExecStage {
            self.stage
        }
        fn tick(&mut self, _ctx: &mut SimClock, _now: SimTime) -> Result<NodeOutput> {
            self.ticks.set(self.ticks.get() + 1);
            if Some(self.ticks.get()) == self.fail_at {
                return Err(MavError::runtime("node failed"));
            }
            Ok(self.cost)
        }
    }

    /// Runs one counter alone for `secs` of mission time and returns its
    /// tick count.
    fn ticks_of(counter: Counter, model: ExecModel, secs: f64) -> u32 {
        let ticks = counter.ticks();
        let mut clock = SimClock::new();
        let mut exec = Executor::new().with_exec_model(model);
        exec.add_node(counter);
        exec.run_for(&mut clock, SimDuration::from_secs(secs))
            .unwrap();
        ticks.get()
    }

    #[test]
    fn nodes_run_at_their_period() {
        let mut clock = SimClock::new();
        let mut exec = Executor::new();
        let fast = Counter::new("fast", 100.0, 10.0);
        let slow = Counter::new("slow", 1000.0, 200.0);
        let (fast_ticks, slow_ticks) = (fast.ticks(), slow.ticks());
        exec.add_node(fast);
        exec.add_node(slow);
        exec.run_for(&mut clock, SimDuration::from_secs(5.0))
            .unwrap();
        let (fast, slow) = (fast_ticks.get(), slow_ticks.get());
        assert!(
            fast > slow,
            "fast node should run more often ({fast} vs {slow})"
        );
        assert!(slow >= 3);
        assert_eq!(exec.node_count(), 2);
        assert_eq!(exec.node_names(), vec!["fast", "slow"]);
    }

    #[test]
    fn compute_time_advances_the_clock() {
        // The node's simulated time must be accounted on the clock: at least
        // 2 s / 0.5 s = 4 invocations happened, but not many more since each
        // invocation costs 0.5 s of mission time.
        let n = ticks_of(Counter::new("heavy", 100.0, 500.0), ExecModel::Serial, 2.0);
        assert!((4..=6).contains(&n), "unexpected invocation count {n}");
    }

    #[test]
    fn periods_are_anchored_not_restarted_per_round() {
        // A 100 ms node in a loop whose rounds never line up with its grid:
        // the node costs 30 ms and idle rounds advance by the 50 ms idle
        // step, so dispatch happens up to one round after each due time.
        // Restarting the period at the round start (the old `now + period`)
        // loses that offset every cycle and sags the effective rate to
        // ~1/(130..180 ms); anchoring (`next_due += period`) keeps it at
        // 10 Hz. 10 s of mission time must show ~100 invocations, not ~70.
        let n = ticks_of(
            Counter::new("anchored", 100.0, 30.0),
            ExecModel::Serial,
            10.0,
        );
        assert!(
            (95..=101).contains(&n),
            "effective rate drifted from nominal: {n} invocations in 10 s at 10 Hz"
        );
    }

    #[test]
    fn overloaded_node_degrades_without_catchup_bursts() {
        // A node whose cost (300 ms) dwarfs its period (100 ms): the clamp
        // must drop the missed ticks instead of replaying them, i.e. exactly
        // one invocation per round, each round ~300 ms long.
        let n = ticks_of(
            Counter::new("overloaded", 100.0, 300.0),
            ExecModel::Serial,
            3.0,
        );
        assert!(
            (10..=11).contains(&n),
            "expected one invocation per 300 ms round, got {n} in 3 s"
        );
    }

    #[test]
    fn delayed_rounds_never_refire_below_period_spacing() {
        // A long round elsewhere (the blocker's 375 ms charge) pushes the
        // 125 ms node more than a full period past its grid. The missed
        // ticks must be dropped — clamping `next_due` to `now` instead of
        // `now + period` would let the node run again in the very next
        // round, one 62.5 ms idle step after its previous invocation (two
        // "8 Hz camera frames" 62.5 ms apart). All values are dyadic so the
        // schedule arithmetic is float-exact.
        struct Stamper {
            times: Rc<RefCell<Vec<f64>>>,
        }
        impl Node<SimClock> for Stamper {
            fn name(&self) -> &str {
                "stamper"
            }
            fn period(&self) -> SimDuration {
                SimDuration::from_millis(125.0)
            }
            fn tick(&mut self, _ctx: &mut SimClock, now: SimTime) -> Result<NodeOutput> {
                self.times.borrow_mut().push(now.as_secs());
                Ok(SimDuration::ZERO)
            }
        }
        let times = Rc::new(RefCell::new(Vec::new()));
        let mut clock = SimClock::new();
        let mut exec = Executor::new();
        exec.idle_step = SimDuration::from_millis(62.5);
        exec.add_node(Counter::new("blocker", 1000.0, 375.0));
        exec.add_node(Stamper {
            times: Rc::clone(&times),
        });
        exec.run_for(&mut clock, SimDuration::from_secs(3.0))
            .unwrap();
        let times = times.borrow();
        assert!(times.len() >= 15, "stamper barely ran: {}", times.len());
        for pair in times.windows(2) {
            assert!(
                pair[1] - pair[0] >= 0.125 - 1e-9,
                "sub-period refire: invocations at {:.4} s and {:.4} s",
                pair[0],
                pair[1]
            );
        }
    }

    /// The camera+mapper overlap scenario of the pipelined model: a 125 ms
    /// camera on the sensing stage and a 250 ms mapper on the perception
    /// stage, both tick-synchronous. Serial charges 375 ms per round;
    /// pipelined charges the critical path — the 250 ms mapper — so the same
    /// twenty frames cost strictly less mission time, but never less than the
    /// slowest stage alone. All values are dyadic, so the clock arithmetic is
    /// float-exact and the bounds can be asserted with equality.
    #[test]
    fn pipelined_rounds_charge_the_critical_path_not_the_sum() {
        let run = |model: ExecModel| {
            let mut clock = SimClock::new();
            let mut exec = Executor::new().with_exec_model(model);
            let mapper = Counter::new("mapper", 0.0, 250.0).on_stage(ExecStage::Perception);
            let frames = mapper.ticks();
            exec.add_node(Counter::new("camera", 0.0, 125.0).on_stage(ExecStage::Sensing));
            exec.add_node(mapper);
            for _ in 0..20 {
                exec.step(&mut clock).unwrap();
            }
            (NodeContext::now(&clock).as_secs(), frames.get())
        };
        let (serial_secs, serial_frames) = run(ExecModel::Serial);
        let (pipelined_secs, pipelined_frames) = run(ExecModel::Pipelined);
        // Dispatch is identical: same frames integrated under both models.
        assert_eq!(serial_frames, 20);
        assert_eq!(pipelined_frames, 20);
        assert_eq!(serial_secs, 20.0 * 0.375, "serial must charge the sum");
        assert_eq!(
            pipelined_secs,
            20.0 * 0.25,
            "pipelined must charge the slowest stage (the mapper)"
        );
        assert!(pipelined_secs < serial_secs);
    }

    #[test]
    fn nodes_on_the_same_stage_still_serialize() {
        let mut clock = SimClock::new();
        let mut exec = Executor::new().with_exec_model(ExecModel::Pipelined);
        for name in ["detector", "tracker"] {
            exec.add_node(Counter::new(name, 0.0, 50.0).on_stage(ExecStage::Perception));
        }
        let charged = exec.step(&mut clock).unwrap();
        assert_eq!(
            charged.as_millis(),
            100.0,
            "same-stage nodes share a core: their latencies sum"
        );
    }

    #[test]
    fn monolithic_nodes_serialize_with_every_stage() {
        // A monolithic node occupies the whole pipeline, so its latency is
        // added on top of the critical path instead of overlapping it — and a
        // graph of only undeclared (monolithic) nodes charges exactly like
        // the serial model.
        let mut clock = SimClock::new();
        let mut exec = Executor::new().with_exec_model(ExecModel::Pipelined);
        exec.add_node(Counter::new("whole", 0.0, 80.0));
        exec.add_node(Counter::new("camera", 0.0, 100.0).on_stage(ExecStage::Sensing));
        exec.add_node(Counter::new("mapper", 0.0, 200.0).on_stage(ExecStage::Perception));
        let charged = exec.step(&mut clock).unwrap();
        assert_eq!(charged.as_millis(), 80.0 + 200.0);

        let mut clock = SimClock::new();
        let mut exec = Executor::new().with_exec_model(ExecModel::Pipelined);
        exec.add_node(Counter::new("a", 0.0, 30.0));
        exec.add_node(Counter::new("b", 0.0, 40.0));
        let charged = exec.step(&mut clock).unwrap();
        assert_eq!(
            charged.as_millis(),
            70.0,
            "undeclared nodes must charge like the serial model"
        );
    }

    #[test]
    fn pipelined_periods_stay_anchored_to_the_grid() {
        // The PR 3 drift fix must survive the new charging model: a 100 ms
        // node whose rounds never line up with its grid (30 ms cost, 50 ms
        // idle steps) still runs at 10 Hz effective rate under pipelined
        // charging — `next_due + period` anchoring is independent of how the
        // round's latency is charged.
        let n = ticks_of(
            Counter::new("anchored", 100.0, 30.0).on_stage(ExecStage::Control),
            ExecModel::Pipelined,
            10.0,
        );
        assert!(
            (95..=101).contains(&n),
            "effective rate drifted from nominal under pipelined charging: \
             {n} invocations in 10 s at 10 Hz"
        );
    }

    #[test]
    fn idle_executor_still_advances() {
        let mut clock = SimClock::new();
        let mut exec: Executor<SimClock> = Executor::new();
        exec.run_for(&mut clock, SimDuration::from_secs(1.0))
            .unwrap();
        assert!(NodeContext::now(&clock).as_secs() >= 1.0);
        assert!(!format!("{exec:?}").is_empty());
    }

    #[test]
    fn node_errors_propagate() {
        let mut clock = SimClock::new();
        let mut exec = Executor::new();
        let mut failing = Counter::new("flaky", 100.0, 1.0);
        failing.fail_at = Some(3);
        exec.add_node(failing);
        let err = exec
            .run_for(&mut clock, SimDuration::from_secs(10.0))
            .unwrap_err();
        assert!(matches!(err, MavError::Runtime { .. }));
    }

    /// A context that records the order nodes ran in and can halt on demand.
    struct Script {
        clock: SimClock,
        log: Vec<String>,
        halt_after: Option<usize>,
    }

    impl NodeContext for Script {
        fn now(&self) -> SimTime {
            self.clock.now()
        }
        fn halted(&self) -> bool {
            self.halt_after.is_some_and(|n| self.log.len() >= n)
        }
        fn charge(&mut self, consumed: SimDuration, idle_step: SimDuration) -> Result<()> {
            self.clock.advance(if consumed.is_zero() {
                idle_step
            } else {
                consumed
            });
            Ok(())
        }
    }

    struct Tracer(String);
    impl Node<Script> for Tracer {
        fn name(&self) -> &str {
            &self.0
        }
        fn period(&self) -> SimDuration {
            SimDuration::ZERO
        }
        fn tick(&mut self, ctx: &mut Script, _now: SimTime) -> Result<NodeOutput> {
            ctx.log.push(self.0.clone());
            Ok(SimDuration::from_millis(10.0))
        }
    }

    #[test]
    fn same_tick_nodes_run_in_registration_order() {
        let mut ctx = Script {
            clock: SimClock::new(),
            log: Vec::new(),
            halt_after: None,
        };
        let mut exec = Executor::new();
        for name in ["sense", "map", "plan", "control"] {
            exec.add_node(Tracer(name.to_string()));
        }
        for _ in 0..3 {
            exec.step(&mut ctx).unwrap();
        }
        assert_eq!(
            ctx.log,
            vec![
                "sense", "map", "plan", "control", // round 1
                "sense", "map", "plan", "control", // round 2
                "sense", "map", "plan", "control", // round 3
            ]
        );
    }

    #[test]
    fn halting_stops_the_round_before_later_nodes_and_charges_nothing() {
        let mut ctx = Script {
            clock: SimClock::new(),
            log: Vec::new(),
            halt_after: Some(2),
        };
        let mut exec = Executor::new();
        for name in ["a", "b", "c"] {
            exec.add_node(Tracer(name.to_string()));
        }
        let charged = exec.step(&mut ctx).unwrap();
        assert_eq!(ctx.log, vec!["a", "b"], "node c must not run after halt");
        assert!(charged.is_zero(), "halted rounds charge nothing");
        assert!(ctx.clock.now().as_secs() == 0.0, "clock must not move");
        // A halted context makes further steps no-ops.
        assert!(exec.step(&mut ctx).unwrap().is_zero());
        assert_eq!(ctx.log.len(), 2);
    }
}
