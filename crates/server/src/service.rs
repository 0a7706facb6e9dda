//! The job service: a bounded queue drained by a worker pool, plus the
//! content-addressed result cache.
//!
//! Submission is synchronous and cheap: the spec is parsed and validated by
//! the caller, the cache is consulted, and the job either lands in the
//! bounded queue (backpressure: a full queue is the caller's 429) or is born
//! `done` on a cache hit. The queue, the job table and the cache share one
//! lock. A free worker waits on that lock's condition variable and claims the
//! front job in the same critical section that marks it `running`, so a job
//! counts against the queue's capacity, and can be deleted, until a worker
//! actually starts it (a bounded-buffer monitor: Hoare, CACM 1974). Workers
//! run missions with [`mav_core::run_mission`], which reuses the worker
//! thread's map and buffers, and sweeps through the sharded reliability
//! engine: exactly the code paths the harness binaries use.
//!
//! Determinism: a job's result document is a pure function of its canonical
//! spec. Missions run on the simulated clock; sweeps run the sharded
//! shard-order-merge path whose bytes are thread-count invariant. The result
//! cache therefore returns byte-identical documents to a fresh run — pinned
//! by `tests/server_api.rs`.

use crate::spec::JobSpec;
use mav_core::reliability::reliability_sweep_classified_observed;
use mav_core::{run_mission, SweepRunner};
use mav_types::{Json, ToJson};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How the pool is shaped.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Worker threads. `0` is a deliberate test hook: nothing ever runs, so
    /// the queue fills deterministically and 429 behaviour is observable.
    pub workers: usize,
    /// Jobs the queue holds before submissions are rejected.
    pub queue_capacity: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            workers: 2,
            queue_capacity: 64,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// Picked up by a worker.
    Running,
    /// Finished; the result document is available.
    Done,
}

impl JobState {
    /// The wire label used in status documents.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// Everything the table remembers about one job. The spec itself waits in
/// the queue until a worker takes it.
struct JobEntry {
    cache_key: String,
    state: JobState,
    cached: bool,
    progress: Arc<AtomicU64>,
    total: u64,
    result: Option<Arc<String>>,
}

impl JobEntry {
    fn status_json(&self, id: u64) -> Json {
        Json::object()
            .field("id", id)
            .field("status", self.state.label())
            .field(
                "progress",
                Json::object()
                    .field(
                        "done",
                        self.progress.load(Ordering::Relaxed).min(self.total),
                    )
                    .field("total", self.total),
            )
            .field("cached", self.cached)
            .field("cache_key", self.cache_key.as_str())
    }
}

/// Mutable service state behind one lock.
struct TableState {
    next_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<(u64, JobSpec)>,
    cache: BTreeMap<String, Arc<String>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<TableState>,
    work_ready: Condvar,
    queue_capacity: usize,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity: try again later (HTTP 429).
    QueueFull,
}

/// Outcome of asking for a job's result.
pub enum ResultFetch {
    /// The job finished; these are the result bytes.
    Ready(Arc<String>),
    /// The job exists but has not finished; the label is its current state.
    NotDone(&'static str),
    /// No such job.
    Missing,
}

/// Outcome of a delete request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The job was removed (its cached result, if any, stays in the cache).
    Deleted,
    /// The job is mid-run and cannot be removed.
    Running,
    /// No such job.
    Missing,
}

/// The worker-pool job service.
pub struct JobService {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl JobService {
    /// Starts `options.workers` workers.
    pub fn start(options: ServiceOptions) -> JobService {
        let inner = Arc::new(Inner {
            state: Mutex::new(TableState {
                next_id: 1,
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                cache: BTreeMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            queue_capacity: options.queue_capacity.max(1),
        });
        let threads = (0..options.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        JobService {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// Submits a parsed spec. A cache hit creates a job that is already
    /// `done` (flagged `cached`); otherwise the job is queued, or rejected
    /// when the queue is full.
    pub fn submit(&self, spec: JobSpec) -> Result<(u64, bool), SubmitError> {
        let cache_key = spec.cache_key();
        let total = spec.total_units();
        let mut state = self.inner.state.lock().expect("service lock");
        if let Some(result) = state.cache.get(&cache_key).cloned() {
            let id = state.next_id;
            state.next_id += 1;
            state.jobs.insert(
                id,
                JobEntry {
                    cache_key,
                    state: JobState::Done,
                    cached: true,
                    progress: Arc::new(AtomicU64::new(total)),
                    total,
                    result: Some(result),
                },
            );
            return Ok((id, true));
        }
        if state.queue.len() >= self.inner.queue_capacity {
            return Err(SubmitError::QueueFull);
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            JobEntry {
                cache_key,
                state: JobState::Queued,
                cached: false,
                progress: Arc::new(AtomicU64::new(0)),
                total,
                result: None,
            },
        );
        state.queue.push_back((id, spec));
        drop(state);
        self.inner.work_ready.notify_one();
        Ok((id, false))
    }

    /// The status document for one job, or `None` when unknown.
    pub fn status(&self, id: u64) -> Option<Json> {
        let state = self.inner.state.lock().expect("service lock");
        state.jobs.get(&id).map(|entry| entry.status_json(id))
    }

    /// The status documents of every job, in id order.
    pub fn list(&self) -> Json {
        let state = self.inner.state.lock().expect("service lock");
        let jobs: Vec<Json> = state
            .jobs
            .iter()
            .map(|(id, entry)| entry.status_json(*id))
            .collect();
        Json::object().field("jobs", Json::Array(jobs))
    }

    /// The result bytes for one job.
    pub fn result(&self, id: u64) -> ResultFetch {
        let state = self.inner.state.lock().expect("service lock");
        match state.jobs.get(&id) {
            None => ResultFetch::Missing,
            Some(entry) => match &entry.result {
                Some(result) => ResultFetch::Ready(Arc::clone(result)),
                None => ResultFetch::NotDone(entry.state.label()),
            },
        }
    }

    /// Removes a queued or finished job. Running jobs cannot be removed; a
    /// finished job's result stays in the content-addressed cache.
    pub fn delete(&self, id: u64) -> DeleteOutcome {
        let mut state = self.inner.state.lock().expect("service lock");
        match state.jobs.get(&id).map(|e| e.state) {
            None => DeleteOutcome::Missing,
            Some(JobState::Running) => DeleteOutcome::Running,
            Some(JobState::Queued) => {
                state.queue.retain(|(queued, _)| *queued != id);
                state.jobs.remove(&id);
                DeleteOutcome::Deleted
            }
            Some(JobState::Done) => {
                state.jobs.remove(&id);
                DeleteOutcome::Deleted
            }
        }
    }

    /// Stops the workers and joins them. Queued jobs are abandoned; a
    /// running job completes first.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().expect("service lock");
            state.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        let mut threads = self.threads.lock().expect("threads lock");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (id, spec, progress) = {
            let mut state = inner.state.lock().expect("service lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some((id, spec)) = state.queue.pop_front() {
                    // Ids enter the queue alongside their entry, and delete()
                    // removes both together, so the entry exists.
                    let Some(entry) = state.jobs.get_mut(&id) else {
                        continue;
                    };
                    entry.state = JobState::Running;
                    break (id, spec, Arc::clone(&entry.progress));
                }
                state = inner.work_ready.wait(state).expect("service lock");
            }
        };
        let result = Arc::new(execute(spec, &progress));
        let mut guard = inner.state.lock().expect("service lock");
        let state = &mut *guard;
        // A running job cannot be deleted, so its entry is still here.
        if let Some(entry) = state.jobs.get_mut(&id) {
            state
                .cache
                .insert(entry.cache_key.clone(), Arc::clone(&result));
            entry.state = JobState::Done;
            entry.result = Some(result);
        }
    }
}

/// Runs one job to its result document. Pure in the spec: no job id, no
/// timestamps, no host detail — the cache-hit byte-identity test depends on
/// it, and so does serving the same cached bytes to every later submitter.
fn execute(spec: JobSpec, progress: &AtomicU64) -> String {
    let spec_json = spec.to_json();
    let result = match spec {
        JobSpec::Mission { config } => {
            let report = run_mission(*config);
            progress.store(1, Ordering::Relaxed);
            Json::object()
                .field("kind", "mission")
                .field("report", report.to_json())
        }
        JobSpec::Sweep {
            scenario,
            episodes,
            shard_size,
        } => {
            // One sweep thread per worker: parallelism comes from the pool,
            // and the sharded merge makes the bytes thread-count invariant
            // anyway — this just avoids nested thread pools.
            let runner = SweepRunner::new().with_threads(1);
            let (stats, classes) = reliability_sweep_classified_observed(
                &runner,
                &scenario,
                episodes,
                shard_size,
                &|_| {
                    progress.fetch_add(1, Ordering::Relaxed);
                },
            );
            let classes_json = classes.iter().fold(Json::object(), |json, (name, class)| {
                json.field(name, class.to_json())
            });
            Json::object()
                .field("kind", "sweep")
                .field("stats", stats.to_json())
                .field("classes", classes_json)
        }
    };
    let document = Json::object()
        .field("spec", spec_json)
        .field("result", result);
    document.to_string_pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn mission_spec(seed: u64) -> JobSpec {
        let body = format!(
            r#"{{"type":"mission","config":{{"application":"scanning","seed":{seed},
                "environment":{{"extent":14.0}},"camera":{{"width":16,"height":12}},
                "time_budget_secs":60.0}}}}"#
        );
        parse_spec(body.as_bytes()).expect("test spec parses")
    }

    fn wait_done(service: &JobService, id: u64) -> Arc<String> {
        loop {
            match service.result(id) {
                ResultFetch::Ready(result) => return result,
                ResultFetch::NotDone(_) => std::thread::yield_now(),
                ResultFetch::Missing => panic!("job {id} vanished"),
            }
        }
    }

    #[test]
    fn submit_run_and_cache_hit() {
        let service = JobService::start(ServiceOptions {
            workers: 1,
            queue_capacity: 8,
        });
        let (id, cached) = service.submit(mission_spec(3)).unwrap();
        assert!(!cached);
        let fresh = wait_done(&service, id);
        assert!(fresh.contains("\"kind\": \"mission\""));

        let (hit_id, cached) = service.submit(mission_spec(3)).unwrap();
        assert!(cached, "second submission of the same spec is a cache hit");
        assert_ne!(hit_id, id, "cache hits still get their own job id");
        match service.result(hit_id) {
            ResultFetch::Ready(hit) => assert_eq!(*hit, *fresh, "cache hit is byte-identical"),
            _ => panic!("cache-hit job should be done immediately"),
        }
    }

    /// A job's state as its result endpoint reports it.
    fn state_of(service: &JobService, id: u64) -> &'static str {
        match service.result(id) {
            ResultFetch::Ready(_) => "done",
            ResultFetch::NotDone(label) => label,
            ResultFetch::Missing => "missing",
        }
    }

    #[test]
    fn a_job_counts_against_the_queue_and_stays_deletable_until_claimed() {
        let service = JobService::start(ServiceOptions {
            workers: 1,
            queue_capacity: 1,
        });
        // Holds the one worker: 64 Package Delivery episodes take hundreds of
        // milliseconds even in release, the checks below microseconds.
        let slow = parse_spec(
            br#"{"type":"sweep","scenario":{"application":"package_delivery","base_seed":1},
                "episodes":64,"shard_size":8}"#,
        )
        .expect("slow spec parses");
        let (slow_id, _) = service.submit(slow).unwrap();
        while state_of(&service, slow_id) == "queued" {
            std::thread::yield_now();
        }
        assert_eq!(state_of(&service, slow_id), "running");

        let (second, cached) = service.submit(mission_spec(1)).unwrap();
        assert!(!cached);
        assert_eq!(state_of(&service, second), "queued");
        assert_eq!(service.submit(mission_spec(2)), Err(SubmitError::QueueFull));
        assert_eq!(service.delete(second), DeleteOutcome::Deleted);
        assert_eq!(
            state_of(&service, slow_id),
            "running",
            "the slow job must outlast the checks above"
        );

        // One worker runs jobs in claim order, so once a later job is done,
        // everything claimed before it has run.
        let (later, _) = service.submit(mission_spec(3)).unwrap();
        wait_done(&service, later);
        assert_eq!(
            service.submit(mission_spec(1)).map(|(_, cached)| cached),
            Ok(false),
            "a deleted queued job never runs, so its spec is not cached"
        );
    }

    #[test]
    fn zero_workers_fill_the_queue_deterministically() {
        let service = JobService::start(ServiceOptions {
            workers: 0,
            queue_capacity: 2,
        });
        assert!(service.submit(mission_spec(1)).is_ok());
        assert!(service.submit(mission_spec(2)).is_ok());
        assert_eq!(service.submit(mission_spec(3)), Err(SubmitError::QueueFull));
        // Deleting a queued job frees capacity again.
        assert_eq!(service.delete(1), DeleteOutcome::Deleted);
        assert!(service.submit(mission_spec(3)).is_ok());
        assert_eq!(service.delete(99), DeleteOutcome::Missing);
    }

    #[test]
    fn status_and_list_render_job_state() {
        let service = JobService::start(ServiceOptions {
            workers: 0,
            queue_capacity: 4,
        });
        let (id, _) = service.submit(mission_spec(5)).unwrap();
        let status = service.status(id).unwrap().to_string_compact();
        assert!(status.contains("\"status\":\"queued\""), "{status}");
        assert!(status.contains("\"cached\":false"), "{status}");
        let list = service.list().to_string_compact();
        assert!(list.contains("\"jobs\":["), "{list}");
        assert!(service.status(id + 1).is_none());
        match service.result(id) {
            ResultFetch::NotDone(label) => assert_eq!(label, "queued"),
            _ => panic!("queued job must not have a result"),
        }
    }
}
