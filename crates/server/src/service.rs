//! The in-process job service: a bounded worker pool over a shared queue,
//! fronted by the [`ResultCache`] and deduplicated at enqueue time.
//!
//! A submitted job takes one of three paths, decided under one lock:
//!
//! * **cache hit** — the key is cached: the stored document is returned
//!   immediately, byte-identical to a fresh run;
//! * **coalesce** — an identical job is already queued or running: the
//!   submission attaches as a waiter and shares that single execution;
//! * **execute** — the job enters the queue; a worker claims it, runs it
//!   through the crash-isolated
//!   [`execute_job`](platoon_sim::exec::execute_job) core, and (on
//!   success) caches the document before fanning it out to every waiter.
//!
//! Queue wait is measured from enqueue to claim and reported separately
//! from execution time ([`JobTiming`]); the optional per-job wall-time
//! budget is charged against execution only, so a deep queue can never
//! time a healthy job out.

use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::job::{cache_key, JobSpec};
use platoon_sim::exec::{self, JobOutcome, JobTiming};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service sizing knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-job wall-time budget (execution only); `None` = unbounded.
    pub job_budget: Option<Duration>,
    /// Engine threads corridor cells run with (results are invariant to
    /// this, so it is a throughput knob, not a cache-key input).
    pub engine_threads: usize,
    /// Result-cache sizing and persistence.
    pub cache: CacheConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: platoon_sim::harness::default_workers(),
            job_budget: None,
            engine_threads: 1,
            cache: CacheConfig::default(),
        }
    }
}

/// How one submitted job was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Served from the cache at enqueue time.
    Hit,
    /// Executed (or coalesced onto an execution) in this batch.
    Executed,
    /// The execution panicked or blew its budget.
    Failed,
}

impl JobStatus {
    /// Whether this result came straight from the cache.
    pub fn is_hit(&self) -> bool {
        matches!(self, JobStatus::Hit)
    }
}

/// One completed submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Position of the job in its submitted batch.
    pub index: usize,
    /// The spec's display label.
    pub label: String,
    /// The content-address key.
    pub key: u64,
    /// How the result was obtained.
    pub status: JobStatus,
    /// The canonical result document (`None` on failure).
    pub document: Option<Arc<str>>,
    /// The failure reason (`None` on success).
    pub error: Option<String>,
    /// Queue-wait vs execution split (zero for cache hits).
    pub timing: JobTiming,
}

/// Submission/coalescing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted (over every batch).
    pub submitted: u64,
    /// Submissions served from the cache at enqueue time.
    pub hits: u64,
    /// Submissions coalesced onto an already-in-flight execution.
    pub coalesced: u64,
    /// Unique executions completed successfully.
    pub executed: u64,
    /// Unique executions that failed.
    pub failed: u64,
}

/// A point-in-time view of the service and cache counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Submission/coalescing counters.
    pub service: ServiceStats,
    /// Cache hit/miss/churn counters.
    pub cache: CacheStats,
    /// Documents currently cached.
    pub cache_entries: usize,
    /// Document bytes currently cached.
    pub cache_bytes: usize,
}

/// One submission waiting on an execution.
struct Waiter {
    index: usize,
    tx: mpsc::Sender<JobResult>,
}

/// One queued-or-running unique job.
struct InFlight {
    spec: JobSpec,
    enqueued: Instant,
    waiters: Vec<Waiter>,
}

struct State {
    cache: ResultCache,
    /// Keys awaiting a worker, FIFO.
    queue: VecDeque<u64>,
    /// Every queued or running key, with its waiters.
    inflight: HashMap<u64, InFlight>,
    stats: ServiceStats,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
}

/// The running service: worker threads plus the shared state. Dropping it
/// drains the queue and joins the workers.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Opens the cache (loading any persisted entries) and starts the
    /// worker pool.
    pub fn start(config: ServiceConfig) -> std::io::Result<Service> {
        let cache = ResultCache::open(config.cache.clone())?;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                cache,
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                stats: ServiceStats::default(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let engine_threads = config.engine_threads;
                let budget = config.job_budget;
                std::thread::Builder::new()
                    .name(format!("platoon-server-worker-{i}"))
                    .spawn(move || worker_loop(&inner, engine_threads, budget))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Service { inner, workers })
    }

    /// Submits a batch; results arrive on the returned channel in
    /// *completion* order, each tagged with its batch index. Cache hits are
    /// delivered before this returns.
    pub fn submit_batch(&self, specs: Vec<JobSpec>) -> mpsc::Receiver<JobResult> {
        let (tx, rx) = mpsc::channel();
        let mut state = self.inner.state.lock().expect("service state poisoned");
        let mut enqueued_any = false;
        for (index, spec) in specs.into_iter().enumerate() {
            let key = cache_key(&spec);
            state.stats.submitted += 1;
            if let Some(document) = state.cache.get(key) {
                state.stats.hits += 1;
                let _ = tx.send(JobResult {
                    index,
                    label: spec.label(),
                    key,
                    status: JobStatus::Hit,
                    document: Some(document),
                    error: None,
                    timing: JobTiming::default(),
                });
                continue;
            }
            let waiter = Waiter {
                index,
                tx: tx.clone(),
            };
            if let Some(inflight) = state.inflight.get_mut(&key) {
                inflight.waiters.push(waiter);
                state.stats.coalesced += 1;
                continue;
            }
            state.inflight.insert(
                key,
                InFlight {
                    spec,
                    enqueued: Instant::now(),
                    waiters: vec![waiter],
                },
            );
            state.queue.push_back(key);
            enqueued_any = true;
        }
        drop(state);
        if enqueued_any {
            self.inner.work_ready.notify_all();
        }
        rx
    }

    /// Submits a batch and blocks for every result, returned in submission
    /// order. (Results for jobs abandoned by a concurrent shutdown are
    /// simply absent.)
    pub fn run_batch(&self, specs: Vec<JobSpec>) -> Vec<JobResult> {
        let n = specs.len();
        let rx = self.submit_batch(specs);
        let mut results: Vec<JobResult> = rx.into_iter().take(n).collect();
        results.sort_by_key(|r| r.index);
        results
    }

    /// The current counters.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let state = self.inner.state.lock().expect("service state poisoned");
        ServiceSnapshot {
            service: state.stats,
            cache: state.cache.stats(),
            cache_entries: state.cache.len(),
            cache_bytes: state.cache.bytes(),
        }
    }

    /// Asks the workers to drain the queue and exit. Idempotent; actual
    /// joining happens on drop.
    pub fn shutdown(&self) {
        self.inner
            .state
            .lock()
            .expect("service state poisoned")
            .shutdown = true;
        self.inner.work_ready.notify_all();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner, engine_threads: usize, budget: Option<Duration>) {
    loop {
        // Claim the next key, or exit once shutdown is set and the queue
        // has drained.
        let (key, spec, enqueued) = {
            let mut state = inner.state.lock().expect("service state poisoned");
            loop {
                if let Some(key) = state.queue.pop_front() {
                    let inflight = state
                        .inflight
                        .get(&key)
                        .expect("queued key is always in flight");
                    break (key, inflight.spec.clone(), inflight.enqueued);
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_ready
                    .wait(state)
                    .expect("service state poisoned");
            }
        };

        let queue_wait = enqueued.elapsed();
        let job_spec = spec.clone();
        let executed = exec::execute_job(
            Box::new(move |_seed| job_spec.execute(engine_threads)),
            0,
            budget,
            queue_wait,
        );

        let mut state = inner.state.lock().expect("service state poisoned");
        let inflight = state
            .inflight
            .remove(&key)
            .expect("finished key was in flight");
        match executed.outcome {
            JobOutcome::Ok(document) => {
                // A failed disk write is counted in the cache stats; the
                // document is still served, uncached.
                let shared = state
                    .cache
                    .insert(key, &document)
                    .unwrap_or_else(|_| Arc::from(document.as_str()));
                state.stats.executed += 1;
                for waiter in inflight.waiters {
                    let _ = waiter.tx.send(JobResult {
                        index: waiter.index,
                        label: spec.label(),
                        key,
                        status: JobStatus::Executed,
                        document: Some(shared.clone()),
                        error: None,
                        timing: executed.timing,
                    });
                }
            }
            JobOutcome::Failed { reason } => {
                state.stats.failed += 1;
                for waiter in inflight.waiters {
                    let _ = waiter.tx.send(JobResult {
                        index: waiter.index,
                        label: spec.label(),
                        key,
                        status: JobStatus::Failed,
                        document: None,
                        error: Some(reason.clone()),
                        timing: executed.timing,
                    });
                }
            }
        }
    }
}
