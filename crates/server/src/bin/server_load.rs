//! `server_load` — the mav-server load client.
//!
//! Drives a running `mav-server` with a mixed batch of mission and sweep
//! jobs over several keep-alive connections, twice: first cold (every spec
//! unique → every job runs), then again with the identical specs (every job
//! a cache hit). Reports jobs/sec for both phases and verifies the cached
//! result bytes match the cold-run bytes.
//!
//! This is harness code: it measures *host* throughput of the server, so it
//! reads the wall clock. No wall time flows into any job result — results
//! are pure functions of the job spec (see `crates/server/src/service.rs`).

use mav_server::http::Client;
use mav_types::Json;

const USAGE: &str = "server_load — load client for mav-server

USAGE:
    server_load [--addr HOST:PORT] [--jobs N] [--connections M] [--fast] [--json]

OPTIONS:
    --addr HOST:PORT  Server to drive (default: 127.0.0.1:8088)
    --jobs N          Jobs per phase (default: 24)
    --connections M   Concurrent keep-alive connections (default: 4)
    --fast            Small batch for smoke tests (8 jobs, 2 connections)
    --json            Emit the measurements as JSON
    -h, --help        This help";

struct Args {
    addr: String,
    jobs: usize,
    connections: usize,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:8088".into(),
        jobs: 24,
        connections: 4,
        json: false,
    };
    let mut jobs_set = false;
    let mut connections_set = false;
    let mut fast = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value_for = |flag: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value\n\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = value_for("--addr"),
            "--jobs" => {
                args.jobs = parse_count(&value_for("--jobs"), "--jobs");
                jobs_set = true;
            }
            "--connections" => {
                args.connections = parse_count(&value_for("--connections"), "--connections");
                connections_set = true;
            }
            "--fast" | "--quick" => fast = true,
            "--json" => args.json = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if fast {
        if !jobs_set {
            args.jobs = 8;
        }
        if !connections_set {
            args.connections = 2;
        }
    }
    args.jobs = args.jobs.max(1);
    args.connections = args.connections.clamp(1, args.jobs);
    args
}

fn parse_count(value: &str, flag: &str) -> usize {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("error: invalid {flag} value `{value}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// The mixed job batch: mostly quick missions with distinct seeds, plus a
/// small sweep every sixth job. Specs are deterministic in the job index, so
/// phase two resubmits byte-identical documents.
fn job_specs(jobs: usize) -> Vec<String> {
    (0..jobs)
        .map(|i| {
            if i % 6 == 5 {
                format!(
                    r#"{{"type":"sweep","scenario":{{"application":"scanning","base_seed":{i},"extents":[14.0],"densities":[0.4],"noise_levels":[0.0]}},"episodes":2,"shard_size":2}}"#
                )
            } else {
                format!(
                    r#"{{"type":"mission","config":{{"application":"scanning","seed":{i},"environment":{{"extent":14.0}},"camera":{{"width":16,"height":12}},"time_budget_secs":90.0}}}}"#
                )
            }
        })
        .collect()
}

/// Runs one spec to completion on one connection: submit (retrying 429
/// backpressure), poll status until done, fetch the result bytes. Returns
/// `(result_bytes, was_cache_hit)`.
fn run_job(conn: &mut Client, spec: &str) -> Result<(String, bool), String> {
    let submitted = loop {
        let response = conn
            .send("POST", "/jobs", spec)
            .map_err(|e| format!("submit: {e}"))?;
        match response.status {
            200 | 202 => break response,
            429 => std::thread::sleep(std::time::Duration::from_millis(20)),
            status => return Err(format!("submit: HTTP {status}: {}", response.body)),
        }
    };
    let cached = submitted.status == 200;
    let id = Json::parse(&submitted.body)
        .ok()
        .and_then(|json| json.get("id").and_then(Json::as_i128))
        .ok_or_else(|| format!("submit response has no id: {}", submitted.body))?;

    let status_path = format!("/jobs/{id}");
    loop {
        let response = conn
            .send("GET", &status_path, "")
            .map_err(|e| format!("poll: {e}"))?;
        if response.status != 200 {
            return Err(format!("poll: HTTP {}: {}", response.status, response.body));
        }
        let done = response.body.contains("\"status\": \"done\"");
        if done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let result = conn
        .send("GET", &format!("/jobs/{id}/result"), "")
        .map_err(|e| format!("result: {e}"))?;
    if result.status != 200 {
        return Err(format!("result: HTTP {}: {}", result.status, result.body));
    }
    Ok((result.body, cached))
}

/// Drives one phase: all specs across `connections` worker threads, each on
/// its own keep-alive connection. Returns per-job results (spec order) plus
/// the cache-hit count.
fn run_phase(
    addr: &str,
    specs: &[String],
    connections: usize,
) -> Result<(Vec<String>, usize), String> {
    let mut slots: Vec<Option<(String, bool)>> = vec![None; specs.len()];
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for (chunk_index, (spec_chunk, slot_chunk)) in specs
            .chunks(specs.len().div_ceil(connections))
            .zip(slots.chunks_mut(specs.len().div_ceil(connections)))
            .enumerate()
        {
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut conn =
                    Client::connect(addr).map_err(|e| format!("connection {chunk_index}: {e}"))?;
                for (spec, slot) in spec_chunk.iter().zip(slot_chunk.iter_mut()) {
                    *slot = Some(run_job(&mut conn, spec)?);
                }
                Ok(())
            }));
        }
        for handle in handles {
            handle
                .join()
                .map_err(|_| "worker thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let mut results = Vec::with_capacity(specs.len());
    let mut cache_hits = 0;
    for slot in slots {
        let (body, cached) = slot.ok_or("job never ran")?;
        if cached {
            cache_hits += 1;
        }
        results.push(body);
    }
    Ok((results, cache_hits))
}

fn main() {
    let args = parse_args();
    let specs = job_specs(args.jobs);

    // Harness wall-clock boundary: jobs/sec is host throughput metadata and
    // never flows into a job result (results are pure functions of specs).
    #[allow(clippy::disallowed_methods)]
    let clock = std::time::Instant::now;

    let cold_start = clock();
    let (cold_results, cold_hits) = match run_phase(&args.addr, &specs, args.connections) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("server_load: cold phase failed: {e}");
            std::process::exit(1);
        }
    };
    let cold_secs = cold_start.elapsed().as_secs_f64();

    let hit_start = clock();
    let (hit_results, cache_hits) = match run_phase(&args.addr, &specs, args.connections) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("server_load: cache-hit phase failed: {e}");
            std::process::exit(1);
        }
    };
    let hit_secs = hit_start.elapsed().as_secs_f64();

    let byte_identical = cold_results == hit_results;
    let cold_rate = args.jobs as f64 / cold_secs.max(1e-9);
    let hit_rate = args.jobs as f64 / hit_secs.max(1e-9);

    if args.json {
        let document = Json::object()
            .field("bench", "server_load")
            .field("addr", args.addr.as_str())
            .field("jobs", args.jobs as u64)
            .field("connections", args.connections as u64)
            .field("cold_secs", cold_secs)
            .field("cold_jobs_per_sec", cold_rate)
            .field("cold_cache_hits", cold_hits as u64)
            .field("cache_hit_secs", hit_secs)
            .field("cache_hit_jobs_per_sec", hit_rate)
            .field("cache_hits", cache_hits as u64)
            .field("byte_identical", byte_identical);
        println!("{}", document.to_string_pretty());
    } else {
        println!(
            "== server_load: {} jobs over {} connections ==",
            args.jobs, args.connections
        );
        println!("cold:      {cold_secs:.2} s  ({cold_rate:.1} jobs/s, {cold_hits} cache hits)");
        println!("cache-hit: {hit_secs:.2} s  ({hit_rate:.1} jobs/s, {cache_hits} cache hits)");
        println!(
            "cached results byte-identical to cold run: {}",
            if byte_identical { "yes" } else { "NO" }
        );
    }

    if !byte_identical {
        eprintln!("server_load: cache-hit results differ from cold-run results");
        std::process::exit(1);
    }
    if cache_hits != args.jobs {
        eprintln!(
            "server_load: expected {} cache hits in phase two, saw {cache_hits}",
            args.jobs
        );
        std::process::exit(1);
    }
}
