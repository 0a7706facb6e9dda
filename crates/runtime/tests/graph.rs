//! Integration tests for Topic semantics under the Executor and for the
//! executor's determinism contract (the runtime-level mirror of the
//! `SweepRunner` bit-identical-results tests in `mav-core`).

use mav_runtime::{Executor, FifoTopic, Node, NodeContext, NodeOutput, SimClock, Topic};
use mav_types::{Result, SimDuration, SimTime};

/// Publishes an incrementing sequence on both a latched and a FIFO topic.
struct Producer {
    latched: Topic<u64>,
    backlog: FifoTopic<u64>,
    period: SimDuration,
    next: u64,
}

impl Node<SimClock> for Producer {
    fn name(&self) -> &str {
        "producer"
    }
    fn period(&self) -> SimDuration {
        self.period
    }
    fn tick(&mut self, _ctx: &mut SimClock, _now: SimTime) -> Result<NodeOutput> {
        self.latched.publish(self.next);
        self.backlog.publish(self.next);
        self.next += 1;
        Ok(SimDuration::from_millis(1.0))
    }
}

/// Consumes both topics at a slower rate, logging what it observes.
struct Consumer {
    latched: Topic<u64>,
    backlog: FifoTopic<u64>,
    period: SimDuration,
    observations: FifoTopic<Observation>,
}

impl Node<SimClock> for Consumer {
    fn name(&self) -> &str {
        "consumer"
    }
    fn period(&self) -> SimDuration {
        self.period
    }
    fn tick(&mut self, _ctx: &mut SimClock, now: SimTime) -> Result<NodeOutput> {
        self.observations
            .publish((now.as_secs(), self.latched.latest(), self.backlog.drain()));
        Ok(SimDuration::ZERO)
    }
}

/// What the consumer saw at one tick: (time, latched latest, FIFO backlog).
type Observation = (f64, Option<u64>, Vec<u64>);

fn run_graph(producer_ms: f64, consumer_ms: f64) -> (SimClock, Vec<Observation>) {
    let latched: Topic<u64> = Topic::new("frames");
    let backlog: FifoTopic<u64> = FifoTopic::new("events");
    let observations: FifoTopic<Observation> = FifoTopic::new("observations");
    let mut clock = SimClock::new();
    let mut exec = Executor::new();
    exec.add_node(Producer {
        latched: latched.clone(),
        backlog: backlog.clone(),
        period: SimDuration::from_millis(producer_ms),
        next: 0,
    });
    exec.add_node(Consumer {
        latched,
        backlog,
        period: SimDuration::from_millis(consumer_ms),
        observations: observations.clone(),
    });
    exec.run_for(&mut clock, SimDuration::from_secs(2.0))
        .unwrap();
    (clock, observations.drain())
}

#[test]
fn latched_topics_drop_stale_messages_fifo_topics_keep_them_all() {
    // Producer every round (~1 ms compute + idle quantisation), consumer at
    // 300 ms: the latched topic must only ever show the newest sequence
    // number (frames are dropped), while the FIFO backlog delivers every
    // message exactly once, in order.
    let (_, observations) = run_graph(0.0, 300.0);
    assert!(observations.len() >= 4, "too few consumer ticks");
    let mut all_backlog = Vec::new();
    for (_, latest, backlog) in &observations {
        // Latched: the latest value equals the newest element of the backlog
        // received this tick (publication order is registration order, so
        // both were written by the same producer tick).
        assert_eq!(latest.unwrap(), *backlog.last().unwrap());
        all_backlog.extend_from_slice(backlog);
    }
    // FIFO saw every message exactly once, in publication order.
    let expected: Vec<u64> = (0..all_backlog.len() as u64).collect();
    assert_eq!(all_backlog, expected);
    // And the consumer genuinely skipped latched values (drops happened):
    // more messages were produced per consumer tick than consumer ticks.
    assert!(all_backlog.len() > 2 * observations.len());
}

#[test]
fn same_rate_nodes_deliver_same_round_in_registration_order() {
    // Producer and consumer both tick-synchronous: the consumer (registered
    // second) must observe the producer's value from the *same* round —
    // the executor's same-tick registration ordering at work.
    let (_, observations) = run_graph(0.0, 0.0);
    for (index, (_, latest, backlog)) in observations.iter().enumerate() {
        assert_eq!(*latest, Some(index as u64));
        assert_eq!(*backlog, vec![index as u64]);
    }
}

#[test]
fn executor_runs_are_bit_identical() {
    // The runtime mirror of the SweepRunner determinism tests: two runs of
    // the same graph produce identical clocks and identical observation
    // streams, including every floating-point timestamp bit.
    let (clock_a, obs_a) = run_graph(70.0, 150.0);
    let (clock_b, obs_b) = run_graph(70.0, 150.0);
    assert_eq!(clock_a.now(), clock_b.now());
    assert_eq!(obs_a.len(), obs_b.len());
    for (a, b) in obs_a.iter().zip(&obs_b) {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "timestamp drifted");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }
    // NodeContext is implemented for the plain clock (sanity check that the
    // standalone context advances).
    assert!(NodeContext::now(&clock_a).as_secs() >= 2.0);
}
