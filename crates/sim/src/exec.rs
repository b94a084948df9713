//! The per-job execution core shared by the batch harness and the job
//! service.
//!
//! [`Batch`](crate::harness::Batch) (launch-and-exit grids) and the
//! long-running `platoon-server` job service run every unit of work through
//! [`execute_job`], which gives:
//!
//! * **crash isolation** — a panicking job becomes a
//!   [`JobOutcome::Failed`] entry instead of unwinding into the scheduler;
//! * **bounded wall time** — with a budget set (the service's option), a
//!   hung job times out on a watchdog thread instead of stalling its
//!   worker;
//! * **honest timing** — queue wait and execution time are measured
//!   *separately* ([`JobTiming`]), so a service-side timeout can never
//!   misattribute scheduler delay to the job itself: the budget clock only
//!   starts once a worker actually picks the job up.
//!
//! This module is that single code path, so the two schedulers cannot
//! diverge.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one job ended.
///
/// Every executor in the workspace wraps job bodies in `catch_unwind`
/// (and, when a wall-time budget is set, a watchdog), so a single crashing
/// cell degrades to a `Failed` entry instead of poisoning the scheduler.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome<T> {
    /// The job returned normally.
    Ok(T),
    /// The job panicked or blew its wall-time budget.
    Failed {
        /// Human-readable cause (panic message or budget diagnostics).
        reason: String,
    },
}

impl<T> JobOutcome<T> {
    /// The value, if the job succeeded.
    pub fn as_ok(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// The failure reason, if the job failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed { reason } => Some(reason),
        }
    }
}

/// Where one job's wall-clock time went, split at the moment a worker
/// claimed it.
///
/// `queue_wait` is scheduler delay (the job sat behind other work);
/// `execution` is the job's own running time, and is the only component a
/// [wall-time budget](execute_job) is charged against. Timing is
/// measurement, never input: no simulation result depends on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// Time between enqueue and a worker claiming the job.
    pub queue_wait: Duration,
    /// Time the job spent actually executing (until it returned, panicked,
    /// or its budget expired).
    pub execution: Duration,
}

/// One executed job: its outcome plus where its wall-clock time went.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutedJob<T> {
    /// How the job ended.
    pub outcome: JobOutcome<T>,
    /// Queue-wait vs execution split.
    pub timing: JobTiming,
}

/// Runs one claimed job to an [`ExecutedJob`].
///
/// `catch_unwind` converts a panic into [`JobOutcome::Failed`]; when
/// `budget` is set the job runs on a watchdog thread so an over-budget cell
/// times out instead of stalling its worker. The budget is charged against
/// *execution* time only — `queue_wait` (how long the job sat enqueued
/// before this call, as measured by the caller) is recorded verbatim and
/// surfaced in the timeout diagnostics, never counted against the job.
///
/// The watchdog thread is joined as soon as the job finishes under budget;
/// only a job that never returns detaches and leaks its thread until
/// process exit (the budget bounds scheduler latency, not resource
/// reclamation for genuinely hung jobs).
pub fn execute_job<T: Send + 'static>(
    run: Box<dyn FnOnce(u64) -> T + Send>,
    seed: u64,
    budget: Option<Duration>,
    queue_wait: Duration,
) -> ExecutedJob<T> {
    let started = Instant::now();
    let done = |outcome| ExecutedJob {
        outcome,
        timing: JobTiming {
            queue_wait,
            execution: started.elapsed(),
        },
    };
    let Some(limit) = budget else {
        return done(match catch_unwind(AssertUnwindSafe(|| run(seed))) {
            Ok(value) => JobOutcome::Ok(value),
            Err(payload) => JobOutcome::Failed {
                reason: format!("job panicked: {}", panic_message(payload.as_ref())),
            },
        });
    };
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("batch-job-watchdog".into())
        .spawn(move || {
            // A send into a receiver that already timed out is harmless.
            let _ = tx.send(catch_unwind(AssertUnwindSafe(|| run(seed))));
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(_) => {
            return done(JobOutcome::Failed {
                reason: "could not spawn the job watchdog thread".into(),
            })
        }
    };
    match rx.recv_timeout(limit) {
        Ok(result) => {
            // The job finished under budget: the watchdog thread has sent
            // its result and is exiting — reap it here so large budgeted
            // batches do not accumulate one lingering thread per
            // completed job. (Its own panics were already caught and
            // shipped through the channel, so join cannot re-raise.)
            let _ = handle.join();
            done(match result {
                Ok(value) => JobOutcome::Ok(value),
                Err(payload) => JobOutcome::Failed {
                    reason: format!("job panicked: {}", panic_message(payload.as_ref())),
                },
            })
        }
        Err(_) => {
            // Over budget: the job is still running and cannot be
            // cancelled cooperatively — detach the watchdog (it leaks
            // until process exit; the budget bounds grid latency, not
            // resource reclamation for genuinely hung jobs).
            drop(handle);
            done(JobOutcome::Failed {
                reason: format!(
                    "job exceeded its wall-time budget of {limit:?} \
                     (execution time only; {queue_wait:?} of queue wait excluded)"
                ),
            })
        }
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn execution_time_excludes_queue_wait() {
        let queued = Duration::from_millis(250);
        let job = execute_job(
            Box::new(|seed| {
                std::thread::sleep(Duration::from_millis(20));
                seed + 1
            }),
            41,
            None,
            queued,
        );
        assert_eq!(job.outcome, JobOutcome::Ok(42));
        assert_eq!(
            job.timing.queue_wait, queued,
            "queue wait recorded verbatim"
        );
        assert!(
            job.timing.execution >= Duration::from_millis(20),
            "execution covers the job body: {:?}",
            job.timing.execution
        );
        assert!(
            job.timing.execution < Duration::from_millis(200),
            "execution must not absorb the queue wait: {:?}",
            job.timing.execution
        );
    }

    #[test]
    fn budget_is_charged_against_execution_not_queue_wait() {
        // A job that sat in the queue for longer than the whole budget must
        // still complete: only its own running time counts.
        let job = execute_job(
            Box::new(|_| {
                std::thread::sleep(Duration::from_millis(10));
                7u64
            }),
            0,
            Some(Duration::from_millis(500)),
            Duration::from_secs(3600),
        );
        assert_eq!(job.outcome, JobOutcome::Ok(7));
    }

    #[test]
    fn timeout_diagnostics_name_the_excluded_queue_wait() {
        let queued = Duration::from_millis(125);
        let job = execute_job(
            Box::new(|_| -> u64 {
                std::thread::sleep(Duration::from_secs(600));
                0
            }),
            0,
            Some(Duration::from_millis(50)),
            queued,
        );
        let reason = job.outcome.failure().expect("job timed out");
        assert!(reason.contains("wall-time budget"), "{reason}");
        assert!(
            reason.contains("queue wait excluded"),
            "timeout must disclaim scheduler delay: {reason}"
        );
        assert_eq!(job.timing.queue_wait, queued);
    }

    #[test]
    fn a_job_finished_under_budget_has_its_watchdog_thread_joined() {
        // The watchdog thread runs its thread-locals' destructors after the
        // job has sent its result, so only a join waits for this one.
        struct RaiseOnExit(Arc<AtomicBool>);
        impl Drop for RaiseOnExit {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(200));
                self.0.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<RaiseOnExit>> = const { RefCell::new(None) };
        }
        let exited = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&exited);
        let job = execute_job(
            Box::new(move |seed| {
                ON_EXIT.with(|slot| *slot.borrow_mut() = Some(RaiseOnExit(flag)));
                seed
            }),
            5,
            Some(Duration::from_secs(60)),
            Duration::ZERO,
        );
        assert_eq!(job.outcome, JobOutcome::Ok(5));
        assert!(
            exited.load(Ordering::SeqCst),
            "execute_job returned before its watchdog thread exited"
        );
    }

    #[test]
    fn panics_carry_their_message() {
        let job = execute_job(
            Box::new(|_| -> u64 { panic!("exec-core probe") }),
            0,
            None,
            Duration::ZERO,
        );
        let reason = job.outcome.failure().expect("job panicked");
        assert!(reason.contains("exec-core probe"), "{reason}");
    }
}
