//! The job layer: one table holding every job's state machine and the
//! bounded FIFO queue that feeds the worker pool.
//!
//! Lifecycle (see DESIGN.md for the full diagram):
//!
//! ```text
//! POST /v1/batches ──▶ Queued ──▶ Running ──▶ Done
//!                        │           │
//!                        └── DELETE ─┴──────▶ Cancelled
//! ```
//!
//! A `DELETE` never yanks a job out of the pipeline — it fires the
//! job's [`CancelToken`] and lets the run settle. A queued job still
//! gets claimed by a worker and runs against its already-fired token,
//! which is the engine's all-cancelled fast path: every page comes back
//! `Cancelled`/degraded, byte-identical to an in-process run with a
//! pre-fired token. That keeps exactly one code path producing results
//! and keeps cancelled jobs queryable like any finished job.
//!
//! **One lock.** The job map, the queue of waiting ids, the next id
//! and the closed flag sit behind one `Mutex`, with one `Condvar` for
//! idle workers. Every operation is a map or deque step of a few
//! microseconds against milliseconds of extraction per job, so the
//! lock is never the bottleneck — and a submit registers and enqueues
//! a job in one critical section, so there is nothing to back out.
//! Finished results are `Arc`-shared: readers clone the `Arc` under
//! the lock and serialize after releasing it.
//!
//! **Poison recovery.** Every lock acquisition recovers from
//! poisoning instead of panicking: the table holds plain data whose
//! invariants do not span a critical section, so a worker that
//! panicked while holding the lock (already isolated per page by
//! `catch_unwind` upstream) must degrade that one job, not wedge every
//! future request into a `lock().expect()` panic cascade.

use metaform_extractor::AdaptiveBatch;
use metaform_parser::CancelToken;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Locks with poison recovery: a panic under the lock marks the data
/// un-poisoned and keeps serving. See the module docs for why that is
/// sound here.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is extracting it.
    Running,
    /// Finished; results available; no cancellation observed.
    Done,
    /// Finished with its cancel token fired; results (degraded for the
    /// abandoned pages) still available.
    Cancelled,
}

impl JobPhase {
    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// True once results are available.
    pub fn is_finished(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Cancelled)
    }
}

/// One submitted batch job. Cloning is cheap (shared pages, token and
/// result), which is how readers take a snapshot out of the table.
#[derive(Clone, Debug)]
pub struct Job {
    /// The submitted pages, shared with the worker that runs them.
    pub pages: Arc<Vec<String>>,
    /// Per-job override of the adaptive retry cap, when the submission
    /// carried one.
    pub max_retries: Option<usize>,
    /// This job's cancel token; `DELETE` fires it.
    pub token: CancelToken,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// The finished run, present once `phase.is_finished()`.
    pub result: Option<Arc<AdaptiveBatch>>,
}

/// What a worker needs to run a job it claimed.
#[derive(Clone, Debug)]
pub struct Claim {
    /// The job's id.
    pub id: u64,
    /// The submitted pages.
    pub pages: Arc<Vec<String>>,
    /// Per-job override of the adaptive retry cap.
    pub max_retries: Option<usize>,
    /// The job's cancel token.
    pub token: CancelToken,
}

#[derive(Debug, Default)]
struct Table {
    /// Every job the service knows. Ids are monotone, so the map's
    /// order is submission order. Jobs are kept after completion so
    /// results stay queryable for the life of the process (the
    /// work-queue protocol has no expiry).
    jobs: BTreeMap<u64, Job>,
    /// Ids waiting for a worker, oldest first.
    queued: VecDeque<u64>,
    next_id: u64,
    closed: bool,
}

/// Every job, and the bounded FIFO queue between the HTTP handlers
/// (producers) and the worker pool (consumers), behind one lock.
#[derive(Debug)]
pub struct JobTable {
    table: Mutex<Table>,
    ready: Condvar,
    capacity: usize,
}

impl JobTable {
    /// An empty table whose queue holds at most `capacity` waiting
    /// jobs (`capacity` 0 is promoted to 1 — a queue that can never
    /// accept would deadlock the service).
    pub fn new(capacity: usize) -> Self {
        JobTable {
            table: Mutex::default(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Registers and enqueues a new job, returning its id. `None` when
    /// the queue is at capacity or the table is closed — the caller
    /// answers 503 and no job exists. Ids are dense: a refused
    /// submission takes none.
    pub fn submit(&self, pages: Vec<String>, max_retries: Option<usize>) -> Option<u64> {
        let mut table = lock_clean(&self.table);
        if table.closed || table.queued.len() >= self.capacity {
            return None;
        }
        table.next_id += 1;
        let id = table.next_id;
        table.jobs.insert(
            id,
            Job {
                pages: Arc::new(pages),
                max_retries,
                token: CancelToken::new(),
                phase: JobPhase::Queued,
                result: None,
            },
        );
        table.queued.push_back(id);
        drop(table);
        self.ready.notify_one();
        Some(id)
    }

    /// Blocks until a job is queued, then claims the oldest: marks it
    /// `Running` and hands back what the run needs. Returns `None`
    /// only when the table is closed **and** drained, so every
    /// accepted job still runs during a graceful shutdown.
    pub fn claim_next(&self) -> Option<Claim> {
        let mut table = lock_clean(&self.table);
        loop {
            if let Some(id) = table.queued.pop_front() {
                let job = table.jobs.get_mut(&id).expect("queued ids are in the map");
                job.phase = JobPhase::Running;
                return Some(Claim {
                    id,
                    pages: Arc::clone(&job.pages),
                    max_retries: job.max_retries,
                    token: job.token.clone(),
                });
            }
            if table.closed {
                return None;
            }
            table = self.ready.wait(table).unwrap_or_else(|poisoned| {
                self.table.clear_poison();
                poisoned.into_inner()
            });
        }
    }

    /// Records a finished run. The final phase reads the token, not the
    /// batch: a token fired mid-run settles as `Cancelled` even if
    /// every page had already completed.
    pub fn finish(&self, id: u64, result: AdaptiveBatch) {
        let result = Arc::new(result);
        if let Some(job) = lock_clean(&self.table).jobs.get_mut(&id) {
            job.phase = if job.token.is_cancelled() {
                JobPhase::Cancelled
            } else {
                JobPhase::Done
            };
            job.result = Some(result);
        }
    }

    /// A snapshot of the job, if it exists.
    pub fn get(&self, id: u64) -> Option<Job> {
        lock_clean(&self.table).jobs.get(&id).cloned()
    }

    /// Every known job as `(id, phase, pages)`, in id (submission)
    /// order, for the `/v1/jobs` listing.
    pub fn list(&self) -> Vec<(u64, JobPhase, usize)> {
        lock_clean(&self.table)
            .jobs
            .iter()
            .map(|(&id, job)| (id, job.phase, job.pages.len()))
            .collect()
    }

    /// Fires the job's cancel token. Returns the phase the job was in,
    /// or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobPhase> {
        lock_clean(&self.table).jobs.get(&id).map(|job| {
            job.token.cancel();
            job.phase
        })
    }

    /// Stops accepting jobs and wakes every blocked worker. Queued jobs
    /// still drain.
    pub fn close(&self) {
        lock_clean(&self.table).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn table_walks_the_lifecycle() {
        let jobs = JobTable::new(4);
        let id = jobs
            .submit(vec!["<form>A</form>".to_string()], Some(1))
            .expect("accepts");
        let job = jobs.get(id).expect("job exists");
        assert_eq!((job.phase, job.pages.len()), (JobPhase::Queued, 1));

        let claim = jobs.claim_next().expect("claims");
        assert_eq!(claim.id, id);
        assert_eq!(claim.pages.len(), 1);
        assert_eq!(claim.max_retries, Some(1));
        assert!(!claim.token.is_cancelled());
        assert_eq!(jobs.get(id).map(|j| j.phase), Some(JobPhase::Running));

        jobs.finish(id, AdaptiveBatch::default());
        let job = jobs.get(id).expect("job exists");
        assert_eq!(job.phase, JobPhase::Done);
        assert!(job.result.is_some());

        // Unknown ids are None everywhere.
        assert!(jobs.get(999).is_none());
        assert!(jobs.cancel(999).is_none());
    }

    #[test]
    fn cancel_fires_the_token_and_the_finish_phase_reads_it() {
        let jobs = JobTable::new(4);
        let id = jobs.submit(vec![], None).expect("accepts");
        let was = jobs.cancel(id).expect("job exists");
        assert_eq!(was, JobPhase::Queued);
        let claim = jobs.claim_next().expect("claims");
        assert!(claim.token.is_cancelled(), "cancel fired the shared token");
        jobs.finish(id, AdaptiveBatch::default());
        assert_eq!(jobs.get(id).map(|j| j.phase), Some(JobPhase::Cancelled));
        assert!(JobPhase::Cancelled.is_finished());
        assert_eq!(JobPhase::Cancelled.as_str(), "cancelled");
    }

    #[test]
    fn list_is_sorted_by_id() {
        let jobs = JobTable::new(4);
        let a = jobs
            .submit(vec!["<form>a</form>".to_string()], None)
            .expect("accepts");
        let b = jobs.submit(vec![], None).expect("accepts");
        jobs.claim_next();
        jobs.claim_next();
        jobs.finish(b, AdaptiveBatch::default());
        let c = jobs
            .submit(
                vec!["<form>c</form>".to_string(), "<form>d</form>".to_string()],
                None,
            )
            .expect("accepts");
        assert_eq!(
            jobs.list(),
            vec![
                (a, JobPhase::Running, 1),
                (b, JobPhase::Done, 0),
                (c, JobPhase::Queued, 2),
            ]
        );
    }

    #[test]
    fn ids_are_dense_and_monotone() {
        let jobs = JobTable::new(2);
        let a = jobs.submit(vec![], None).expect("accepts");
        let b = jobs.submit(vec![], None).expect("accepts");
        assert_eq!(jobs.submit(vec![], None), None, "over capacity");
        jobs.claim_next();
        let c = jobs.submit(vec![], None).expect("accepts");
        assert!(a < b && b < c);
        assert_eq!(c - a, 2, "a refused submission takes no id");
    }

    #[test]
    fn table_survives_a_panic_under_the_lock() {
        let jobs = JobTable::new(4);
        let id = jobs.submit(vec![], None).expect("accepts");
        // Poison the one mutex.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = jobs.table.lock();
            panic!("worker bug")
        }));
        assert!(jobs.table.is_poisoned());
        // Every operation still works.
        assert_eq!(jobs.get(id).map(|j| j.phase), Some(JobPhase::Queued));
        let other = jobs.submit(vec![], None).expect("accepts");
        assert_eq!(jobs.claim_next().map(|c| c.id), Some(id));
        assert_eq!(jobs.claim_next().map(|c| c.id), Some(other));
        jobs.finish(other, AdaptiveBatch::default());
        assert_eq!(jobs.get(other).map(|j| j.phase), Some(JobPhase::Done));
        assert_eq!(jobs.list().len(), 2);
    }

    #[test]
    fn queue_bounds_accepts_and_drains_on_close() {
        let jobs = JobTable::new(2);
        assert_eq!(jobs.submit(vec![], None), Some(1));
        assert_eq!(jobs.submit(vec![], None), Some(2));
        assert_eq!(jobs.submit(vec![], None), None, "over capacity");
        assert!(jobs.get(3).is_none(), "a refused job does not exist");

        jobs.close();
        assert_eq!(jobs.submit(vec![], None), None, "closed");
        // Close drains what was accepted, then signals exhaustion.
        assert_eq!(jobs.claim_next().map(|c| c.id), Some(1));
        assert_eq!(jobs.claim_next().map(|c| c.id), Some(2));
        assert!(jobs.claim_next().is_none());
        assert!(jobs.claim_next().is_none(), "stays exhausted");
    }

    #[test]
    fn claims_are_fifo() {
        let jobs = JobTable::new(64);
        let ids: Vec<u64> = (0..32)
            .map(|_| jobs.submit(vec![], None).expect("accepts"))
            .collect();
        let order: Vec<u64> = (0..32)
            .map(|_| jobs.claim_next().expect("has a job").id)
            .collect();
        assert_eq!(order, ids);
    }

    #[test]
    fn claim_blocks_until_a_submit_arrives() {
        let jobs = Arc::new(JobTable::new(4));
        let consumer = {
            let jobs = Arc::clone(&jobs);
            std::thread::spawn(move || jobs.claim_next().map(|c| c.id))
        };
        // Give the consumer a moment to block, then feed it.
        std::thread::sleep(Duration::from_millis(20));
        let id = jobs.submit(vec![], None).expect("accepts");
        assert_eq!(consumer.join().expect("joins"), Some(id));
    }

    #[test]
    fn zero_capacity_is_promoted_to_one() {
        let jobs = JobTable::new(0);
        assert!(jobs.submit(vec![], None).is_some());
        assert!(jobs.submit(vec![], None).is_none());
    }

    /// An idle worker wakes as soon as a job is submitted: 64 submits,
    /// each after a 1 ms pause, reach a consumer blocked in
    /// `claim_next` in well under 1 ms apiece. A timed rescan in the
    /// wait (a worker parked somewhere the submit does not notify)
    /// costs milliseconds per job and fails the bound.
    #[test]
    fn an_idle_worker_wakes_on_submit() {
        const JOBS: usize = 64;
        let jobs = Arc::new(JobTable::new(JOBS));
        let consumer = {
            let jobs = Arc::clone(&jobs);
            std::thread::spawn(move || {
                (0..JOBS)
                    .map(|_| {
                        jobs.claim_next().expect("a job arrives");
                        Instant::now()
                    })
                    .collect::<Vec<Instant>>()
            })
        };
        let submitted: Vec<Instant> = (0..JOBS)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(1));
                let at = Instant::now();
                jobs.submit(vec![], None).expect("accepts");
                at
            })
            .collect();
        let claimed = consumer.join().expect("joins");
        let total: Duration = submitted
            .iter()
            .zip(&claimed)
            .map(|(&s, &c)| c.saturating_duration_since(s))
            .sum();
        assert!(
            total < Duration::from_millis(JOBS as u64),
            "{JOBS} handoffs took {total:?} in sum"
        );
    }
}
