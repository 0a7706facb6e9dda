//! A minimal ROS-like runtime for MAVBench-RS: latched and FIFO topics, a
//! simulated mission clock, per-kernel time accounting and a deterministic
//! closed-loop node executor.
//!
//! The original MAVBench structures each workload as a ROS graph whose nodes
//! exchange messages over publish/subscribe topics and whose kernel latencies
//! directly shape mission time. This crate provides the same structure without
//! ROS: nodes are trait objects generic over a scheduling context, topics are
//! typed in-process channels, and all time is simulated so runs are
//! reproducible. The five MAVBench applications fly on this executor — see
//! `mav_core::flight` for the camera/mapping/planning/control node graph and
//! [`executor`] for the determinism contract (same-tick registration
//! ordering, latency charging through [`NodeContext`]).
//!
//! # Example
//!
//! ```
//! use mav_runtime::{FifoTopic, Topic};
//!
//! let map_topic: Topic<String> = Topic::new("octomap");
//! map_topic.publish("map-v1".to_string());
//! assert_eq!(map_topic.latest().as_deref(), Some("map-v1"));
//!
//! let collisions: FifoTopic<u32> = FifoTopic::new("collision");
//! collisions.publish(1);
//! assert_eq!(collisions.drain(), vec![1]);
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod executor;
pub mod kernel_timer;
pub mod topic;

pub use clock::SimClock;
pub use executor::{ExecModel, ExecStage, Executor, Node, NodeContext, NodeOutput};
pub use kernel_timer::KernelTimer;
pub use topic::{FifoTopic, Topic};
