//! File classification: which rules apply where.
//!
//! The determinism contract is not uniform across the tree. Simulation
//! library crates must be bit-deterministic; the bench harness is *allowed*
//! to read the wall clock (that is its job: measuring host throughput); the
//! shims mirror external crate APIs; tests may do whatever proves the point.
//! Each rule declares the scopes it fires in, and this module maps a
//! repo-relative path to its scope.

/// The audit scope a file belongs to, derived from its repo-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileScope {
    /// A simulation library crate (`crates/*` except the harness/tool
    /// crates): the code whose outputs are pinned bit-for-bit by the golden
    /// and SHA-256 determinism tests. The strictest scope.
    SimLib,
    /// Harness/tooling code: `crates/bench` (figures, tables, the CLI
    /// driver), the facade crate `src/`, and this lint tool itself. Allowed
    /// to measure wall time; still must not break determinism of *results*.
    Harness,
    /// The job server (`crates/server`): service code wrapping the
    /// simulation. Its *results* carry the full determinism contract (the
    /// cache-hit byte-identity test pins them), so wall-clock reads are
    /// banned as in `SimLib`; its listener/dispatcher/worker threads are
    /// documented allowlist entries ([`SPAWN_ALLOWED_FILES`]) rather than
    /// baseline budget, because threading is the crate's purpose.
    Server,
    /// Offline stand-ins for external crates (`shims/*`). They mirror
    /// foreign APIs (criterion reads the wall clock because criterion does),
    /// so only universally-safe rules apply.
    Shim,
    /// Test code: anything under a `tests/`, `benches/` or `examples/`
    /// directory. Exercises the contract rather than carrying it.
    Test,
}

/// Classifies a repo-relative path (forward slashes) into its scope.
pub fn classify(rel_path: &str) -> FileScope {
    let components: Vec<&str> = rel_path.split('/').collect();
    if components
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples"))
    {
        return FileScope::Test;
    }
    match components.first().copied() {
        Some("shims") => FileScope::Shim,
        Some("crates") => match components.get(1).copied() {
            Some("bench") | Some("lint") => FileScope::Harness,
            Some("server") => FileScope::Server,
            _ => FileScope::SimLib,
        },
        // The facade crate `src/` plus any stray root-level file.
        _ => FileScope::Harness,
    }
}

/// Files inside the wall-clock-banned scopes that are *documented*
/// wall-clock holders: DET-WALLCLOCK stays silent here. Keep this list short
/// and justified — every entry is a boundary where wall time is measured but
/// provably never flows into mission results. No simulation file is on it.
///
/// - `crates/server/src/bin/server_load.rs`: the load client measures host
///   jobs/sec for `mav-server`. Job *results* are pure functions of the job
///   spec (pinned by the cache-hit byte-identity test); the wall clock only
///   times the client's own request loop.
pub const WALLCLOCK_ALLOWED_FILES: &[&str] = &["crates/server/src/bin/server_load.rs"];

/// Whether `rel_path` is one of the documented wall-clock boundary files.
pub fn wallclock_allowed(rel_path: &str) -> bool {
    WALLCLOCK_ALLOWED_FILES.contains(&rel_path)
}

/// Files allowed to call `std::thread::spawn` directly: the job server's
/// threading boundary. Everywhere else parallelism goes through the rayon
/// shim / `SweepRunner`, whose schedules are proven bit-deterministic; these
/// files *are* the service plumbing around that machinery.
///
/// - `crates/server/src/service.rs`: the dispatcher thread and the worker
///   pool. Workers run jobs through `run_mission` and the sharded sweep, so
///   scheduling order cannot reach result bytes — the cache-hit
///   byte-identity test would catch it if it did.
/// - `crates/server/src/server.rs`: the TCP accept loop and the
///   per-connection handler threads. Connections only shuttle bytes between
///   sockets and the service; no simulation state lives here.
pub const SPAWN_ALLOWED_FILES: &[&str] = &[
    "crates/server/src/service.rs",
    "crates/server/src/server.rs",
];

/// Whether `rel_path` is one of the documented raw-spawn boundary files.
pub fn spawn_allowed(rel_path: &str) -> bool {
    SPAWN_ALLOWED_FILES.contains(&rel_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify("crates/perception/src/octomap.rs"),
            FileScope::SimLib
        );
        assert_eq!(classify("crates/core/src/sweep.rs"), FileScope::SimLib);
        // The fault injector lives inside the deterministic simulation core:
        // it must stay under the DET-THREAD-RNG / DET-WALLCLOCK rules, never
        // graduate into a harness or allowlisted boundary file.
        assert_eq!(classify("crates/core/src/faults.rs"), FileScope::SimLib);
        assert_eq!(classify("crates/bench/src/figures.rs"), FileScope::Harness);
        assert_eq!(classify("crates/lint/src/rules.rs"), FileScope::Harness);
        assert_eq!(classify("crates/server/src/service.rs"), FileScope::Server);
        assert_eq!(
            classify("crates/server/src/bin/server_load.rs"),
            FileScope::Server
        );
        assert_eq!(
            classify("crates/server/tests/server_api.rs"),
            FileScope::Test
        );
        assert_eq!(classify("src/lib.rs"), FileScope::Harness);
        assert_eq!(classify("shims/rayon/src/lib.rs"), FileScope::Shim);
        assert_eq!(classify("tests/golden_legacy.rs"), FileScope::Test);
        assert_eq!(classify("crates/runtime/tests/graph.rs"), FileScope::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileScope::Test);
        assert_eq!(classify("crates/bench/benches/energy.rs"), FileScope::Test);
    }

    #[test]
    fn wallclock_allowlist() {
        assert!(wallclock_allowed("crates/server/src/bin/server_load.rs"));
        // No simulation file reads the wall clock, the sweep runner included.
        assert!(!wallclock_allowed("crates/core/src/sweep.rs"));
        assert!(!wallclock_allowed("crates/core/src/flight.rs"));
        assert!(!wallclock_allowed("crates/core/src/faults.rs"));
        // The server's service/routing code must NOT read the wall clock:
        // only the load client is a documented timing boundary.
        assert!(!wallclock_allowed("crates/server/src/service.rs"));
        assert!(!wallclock_allowed("crates/server/src/server.rs"));
    }

    #[test]
    fn spawn_allowlist() {
        assert!(spawn_allowed("crates/server/src/service.rs"));
        assert!(spawn_allowed("crates/server/src/server.rs"));
        // The spec layer and everything outside the server keep going
        // through the rayon shim / SweepRunner.
        assert!(!spawn_allowed("crates/server/src/spec.rs"));
        assert!(!spawn_allowed("crates/core/src/sweep.rs"));
        assert!(!spawn_allowed("crates/bench/src/figures.rs"));
    }
}
