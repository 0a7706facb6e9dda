//! Error types shared across the MAVBench-RS workspace.

use std::error::Error as StdError;
use std::fmt;

/// Convenience alias used by fallible MAVBench-RS APIs.
pub type Result<T> = std::result::Result<T, MavError>;

/// Errors produced by MAVBench-RS components.
///
/// Crates higher in the stack (planning, applications) return this error so
/// that downstream users have a single error type to handle. How a mission
/// ends is not an error: that is `mav_core::MissionFailure`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MavError {
    /// A configuration value was invalid (out of range, inconsistent, …).
    InvalidConfig {
        /// Human-readable description of what was wrong.
        reason: String,
    },
    /// A motion planner could not find a collision-free path.
    PlanningFailed {
        /// Which planner failed.
        planner: String,
        /// Why it failed.
        reason: String,
    },
    /// A runtime node or topic was missing or mis-wired.
    Runtime {
        /// Human-readable description.
        reason: String,
    },
}

impl MavError {
    /// Shorthand constructor for [`MavError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        MavError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`MavError::PlanningFailed`].
    pub fn planning_failed(planner: impl Into<String>, reason: impl Into<String>) -> Self {
        MavError::PlanningFailed {
            planner: planner.into(),
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`MavError::Runtime`].
    pub fn runtime(reason: impl Into<String>) -> Self {
        MavError::Runtime {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for MavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MavError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            MavError::PlanningFailed { planner, reason } => {
                write!(f, "{planner} planning failed: {reason}")
            }
            MavError::Runtime { reason } => write!(f, "runtime error: {reason}"),
        }
    }
}

impl StdError for MavError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = vec![
            MavError::invalid_config("resolution must be positive"),
            MavError::planning_failed("rrt", "no path within sample budget"),
            MavError::runtime("topic 'octomap' has no publisher"),
        ];
        for e in errors {
            let msg = format!("{e}");
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_trait_and_send_sync() {
        fn assert_traits<T: StdError + Send + Sync + 'static>() {}
        assert_traits::<MavError>();
    }

    #[test]
    fn constructors_capture_fields() {
        match MavError::planning_failed("prm", "graph disconnected") {
            MavError::PlanningFailed { planner, reason } => {
                assert_eq!(planner, "prm");
                assert_eq!(reason, "graph disconnected");
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }
}
