//! Mission-simulation-as-a-service for MAVBench-RS.
//!
//! `mav-server` exposes the closed-loop simulator over a small HTTP/1.1 job
//! API — submit a mission or reliability-sweep spec, poll its progress,
//! fetch its result — built entirely on `std::net` (the build environment is
//! offline, so there is no HTTP framework underneath; see [`http`]).
//!
//! The moving parts:
//!
//! * [`spec`] — the wire job spec. It parses through the same typed
//!   `FromJson`/`parse` functions the CLI flags use, so every mission knob a
//!   `fig*` binary accepts is reachable from a job document, and defines the
//!   content-addressed cache key (SHA-256 of the canonical compact JSON).
//! * [`service`] — the bounded job queue (429 backpressure), the workers
//!   that claim jobs from it (one episode scratch per worker), and the
//!   result cache whose hits are byte-identical to fresh runs.
//! * [`server`] — request routing and the TCP accept loop.
//! * [`http`] — the request reader and response writer the server uses,
//!   and the [`http::Client`] that `server_load` and the API tests drive
//!   it with; both directions read headers and bodies through one reader.

#![warn(missing_docs)]

pub mod http;
pub mod server;
pub mod service;
pub mod spec;

pub use server::{handle, Server};
pub use service::{DeleteOutcome, JobService, JobState, ResultFetch, ServiceOptions, SubmitError};
pub use spec::{parse_spec, JobSpec};
