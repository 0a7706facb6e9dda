//! End-to-end tests of the job API over real sockets: submit → poll →
//! result, backpressure, malformed specs, cache-hit byte-identity, and the
//! delete/conflict corners.

use mav_server::http::{self, Reply};
use mav_server::{Server, ServiceOptions};

struct Client(http::Client);

impl Client {
    fn connect(server: &Server) -> Client {
        Client(http::Client::connect(server.addr()).expect("connect to test server"))
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> Reply {
        self.0.send(method, path, body).expect("round trip")
    }

    fn job_id(reply: &Reply) -> u64 {
        let json = mav_types::Json::parse(&reply.body).expect("status document parses");
        json.get("id")
            .and_then(mav_types::Json::as_i128)
            .expect("status document has an id") as u64
    }

    fn wait_done(&mut self, id: u64) {
        loop {
            let status = self.send("GET", &format!("/jobs/{id}"), "");
            assert_eq!(status.status, 200, "{}", status.body);
            if status.body.contains("\"status\": \"done\"") {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}

fn start(workers: usize, queue_capacity: usize) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServiceOptions {
            workers,
            queue_capacity,
        },
    )
    .expect("bind ephemeral port")
}

const MISSION_SPEC: &str = r#"{"type":"mission","config":{"application":"scanning","seed":11,"environment":{"extent":14.0},"camera":{"width":16,"height":12},"time_budget_secs":90.0}}"#;

const SWEEP_SPEC: &str = r#"{"type":"sweep","scenario":{"application":"scanning","base_seed":4,"extents":[14.0],"densities":[0.4],"noise_levels":[0.0]},"episodes":2,"shard_size":2}"#;

#[test]
fn submit_poll_result_happy_path() {
    let server = start(1, 8);
    let mut client = Client::connect(&server);

    let submitted = client.send("POST", "/jobs", MISSION_SPEC);
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    assert!(
        submitted.body.contains("\"cached\": false"),
        "{}",
        submitted.body
    );
    let id = Client::job_id(&submitted);

    client.wait_done(id);
    let result = client.send("GET", &format!("/jobs/{id}/result"), "");
    assert_eq!(result.status, 200);
    assert!(
        result.body.contains("\"kind\": \"mission\""),
        "{}",
        result.body
    );
    assert!(result.body.contains("\"report\""), "{}", result.body);
    // The result echoes the canonical spec, so archives are self-describing.
    assert!(result.body.contains("\"spec\""), "{}", result.body);

    let list = client.send("GET", "/jobs", "");
    assert_eq!(list.status, 200);
    assert!(list.body.contains("\"jobs\""), "{}", list.body);
    server.stop();
}

#[test]
fn sweep_jobs_report_progress_and_finish() {
    let server = start(1, 8);
    let mut client = Client::connect(&server);
    let submitted = client.send("POST", "/jobs", SWEEP_SPEC);
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    assert!(
        submitted.body.contains("\"total\": 2"),
        "{}",
        submitted.body
    );
    let id = Client::job_id(&submitted);
    client.wait_done(id);
    let result = client.send("GET", &format!("/jobs/{id}/result"), "");
    assert_eq!(result.status, 200);
    assert!(
        result.body.contains("\"kind\": \"sweep\""),
        "{}",
        result.body
    );
    assert!(result.body.contains("\"stats\""), "{}", result.body);
    server.stop();
}

#[test]
fn full_queue_returns_429_with_retry_after() {
    // Zero workers: nothing drains, so the queue fills deterministically.
    let server = start(0, 2);
    let mut client = Client::connect(&server);
    let one = client.send("POST", "/jobs", MISSION_SPEC);
    assert_eq!(one.status, 202, "{}", one.body);
    let second_spec = MISSION_SPEC.replace("\"seed\":11", "\"seed\":12");
    assert_eq!(client.send("POST", "/jobs", &second_spec).status, 202);
    let third_spec = MISSION_SPEC.replace("\"seed\":11", "\"seed\":13");
    let rejected = client.send("POST", "/jobs", &third_spec);
    assert_eq!(rejected.status, 429);
    assert!(rejected.body.contains("\"error\""), "{}", rejected.body);
    server.stop();
}

#[test]
fn malformed_specs_get_400_with_json_error_body() {
    let server = start(0, 2);
    let mut client = Client::connect(&server);
    for (body, expect) in [
        ("{not json", "invalid JSON"),
        (r#"{"type":"teleport"}"#, "unknown job type"),
        (r#"{"config":{"application":"scanning"}}"#, "missing field"),
        (
            r#"{"type":"mission","config":{"application":"scanning","sede":1}}"#,
            "unknown field",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","physics_dt":-1.0}}"#,
            "physics_dt",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","physics_dt":1e-300}}"#,
            "physics_dt",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","time_budget_secs":1e400}}"#,
            "time_budget_secs",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","cruise_velocity":1e400}}"#,
            "cruise_velocity",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","map_insert_threads":2}}"#,
            "unknown field",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","camera":{"width":100000,"height":100000}}}"#,
            "pixel frame limit",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","camera":{"width":4294967296,"height":4294967296}}}"#,
            "pixel frame limit",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","camera":{"fov_horizontal":7.0}}}"#,
            "fov_horizontal",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","camera":{"max_range":-5}}}"#,
            "max_range",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","battery":{"capacity_mah":0}}}"#,
            "capacity_mah",
        ),
        (
            r#"{"type":"sweep","scenario":{"application":"scanning","rates":[]},"episodes":4}"#,
            "non-empty",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","operating_point":"big@1e-9"}}"#,
            "at least 0.1 GHz",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","operating_point":{"cores":4,"frequency_ghz":1e-9}}}"#,
            "at least 0.1 GHz",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","node_ops":"plan=big@1e-9"}}"#,
            "at least 0.1 GHz",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","environment":{"obstacle_size":[6,1]}}}"#,
            "obstacle_size",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","environment":{"obstacle_height":[6,1]}}}"#,
            "obstacle_height",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","environment":{"obstacle_density":1e9}}}"#,
            "obstacles",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","environment":{"extent":1e5,"obstacle_density":0}}}"#,
            "extent",
        ),
        (
            r#"{"type":"sweep","scenario":{"application":"scanning","extents":[0.5]},"episodes":2}"#,
            "extent must be in",
        ),
        (
            r#"{"type":"sweep","scenario":{"application":"package_delivery","extents":[18,1000],"densities":[0.4,3]},"episodes":2}"#,
            "obstacles",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","fault_plan":"kernel-spike=1@1e12"}}"#,
            "kernel-spike factor",
        ),
        (
            r#"{"type":"mission","config":{"application":"scanning","fault_plan":"plan-timeout=1e12x"}}"#,
            "plan-timeout factor",
        ),
        (
            r#"{"type":"mission","config":{"application":"3d-mapping","cloud":{"speedup":1e-12,"link":{"bandwidth_mbps":1000,"latency_ms":1},"payload_megabytes":0.5,"offloaded":["MP"]}}}"#,
            "speedup",
        ),
        (
            r#"{"type":"mission","config":{"application":"3d-mapping","cloud":{"speedup":3,"link":{"bandwidth_mbps":1e-300,"latency_ms":1},"payload_megabytes":0.5,"offloaded":["MP"]}}}"#,
            "transfer",
        ),
        (
            r#"{"type":"mission","config":{"application":"3d-mapping","cloud":{"speedup":3,"link":{"bandwidth_mbps":1000,"latency_ms":1e12},"payload_megabytes":0.5,"offloaded":["MP"]}}}"#,
            "transfer",
        ),
        (
            r#"{"type":"mission","config":{"application":"3d-mapping","cloud":{"speedup":3,"link":{"bandwidth_mbps":1000,"latency_ms":1},"payload_megabytes":1e12,"offloaded":["MP"]}}}"#,
            "transfer",
        ),
        (
            r#"{"type":"mission","config":{"application":"package_delivery","quadrotor":{"radius":5.0},"resolution_policy":0.01}}"#,
            "quadrotor radius",
        ),
    ] {
        let reply = client.send("POST", "/jobs", body);
        assert_eq!(reply.status, 400, "spec {body} → {}", reply.body);
        assert!(reply.body.contains("\"error\""), "{}", reply.body);
        assert!(
            reply.body.contains(expect),
            "expected {expect:?} in {}",
            reply.body
        );
    }
    server.stop();
}

#[test]
fn cache_hits_are_byte_identical_to_fresh_runs() {
    let server = start(2, 8);
    let mut client = Client::connect(&server);

    let cold = client.send("POST", "/jobs", MISSION_SPEC);
    assert_eq!(cold.status, 202);
    let cold_id = Client::job_id(&cold);
    client.wait_done(cold_id);
    let cold_result = client.send("GET", &format!("/jobs/{cold_id}/result"), "");
    assert_eq!(cold_result.status, 200);

    // Same spec, but sparse/reordered: canonicalisation must find the cache.
    let resubmitted = client.send(
        "POST",
        "/jobs",
        r#"{"config":{"camera":{"height":12,"width":16},"time_budget_secs":90.0,"environment":{"extent":14.0},"application":"scanning","seed":11},"type":"mission"}"#,
    );
    assert_eq!(resubmitted.status, 200, "{}", resubmitted.body);
    assert!(
        resubmitted.body.contains("\"cached\": true"),
        "{}",
        resubmitted.body
    );
    let hit_id = Client::job_id(&resubmitted);
    let hit_result = client.send("GET", &format!("/jobs/{hit_id}/result"), "");
    assert_eq!(hit_result.status, 200);
    assert_eq!(
        hit_result.body, cold_result.body,
        "cache hit must be byte-identical to the fresh run"
    );
    server.stop();

    // Cross-instance: a brand-new server (empty cache) must produce the very
    // same bytes — results are pure functions of the canonical spec.
    let second_server = start(1, 8);
    let mut second_client = Client::connect(&second_server);
    let fresh = second_client.send("POST", "/jobs", MISSION_SPEC);
    assert_eq!(fresh.status, 202);
    let fresh_id = Client::job_id(&fresh);
    second_client.wait_done(fresh_id);
    let fresh_result = second_client.send("GET", &format!("/jobs/{fresh_id}/result"), "");
    assert_eq!(fresh_result.body, cold_result.body);
    second_server.stop();
}

#[test]
fn missing_jobs_conflicts_and_delete() {
    let server = start(0, 4);
    let mut client = Client::connect(&server);

    assert_eq!(client.send("GET", "/jobs/99", "").status, 404);
    assert_eq!(client.send("GET", "/jobs/99/result", "").status, 404);
    assert_eq!(client.send("DELETE", "/jobs/99", "").status, 404);
    assert_eq!(client.send("GET", "/jobs/abc", "").status, 404);
    assert_eq!(client.send("PUT", "/jobs", "").status, 405);
    assert_eq!(client.send("GET", "/nope", "").status, 404);

    let submitted = client.send("POST", "/jobs", MISSION_SPEC);
    assert_eq!(submitted.status, 202);
    let id = Client::job_id(&submitted);
    // No workers: the job stays queued, so its result is a 409 conflict…
    let pending = client.send("GET", &format!("/jobs/{id}/result"), "");
    assert_eq!(pending.status, 409);
    assert!(pending.body.contains("queued"), "{}", pending.body);
    // …and deleting it works and frees its queue slot.
    let deleted = client.send("DELETE", &format!("/jobs/{id}"), "");
    assert_eq!(deleted.status, 200);
    assert!(deleted.body.contains("\"deleted\""), "{}", deleted.body);
    assert_eq!(client.send("GET", &format!("/jobs/{id}"), "").status, 404);
    server.stop();
}

#[test]
fn readme_example_specs_are_accepted() {
    let readme = include_str!("../../../README.md");
    let examples: Vec<&str> = readme
        .split("```json\n")
        .skip(1)
        .map(|block| block.split("```").next().unwrap_or(block))
        .collect();
    assert_eq!(examples.len(), 2, "the README's mission and sweep examples");
    // Zero workers: the examples are only parsed and queued, never run.
    let server = start(0, examples.len());
    let mut client = Client::connect(&server);
    for spec in examples {
        let reply = client.send("POST", "/jobs", spec);
        assert_eq!(reply.status, 202, "README spec {spec} → {}", reply.body);
    }
    server.stop();
}
