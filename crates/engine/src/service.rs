//! A long-lived worker pool with a bounded dispatch queue — the serving
//! half of the engine.
//!
//! A server needs N threads that outlive any one statement, a *bounded*
//! queue in front of them so overload turns into an explicit, retryable
//! refusal instead of an unbounded backlog, and per-job panic isolation so
//! one poisoned statement never takes a worker (or the process) down.
//!
//! [`ServicePool`] provides exactly that surface:
//!
//! * [`ServicePool::try_submit`] — non-blocking admission. A full queue
//!   returns [`SubmitError::Full`] immediately; the caller (the server's
//!   front door) sheds the request with `SERVER_BUSY`.
//! * [`ServicePool::queued`] and [`ServicePool::busy`] — the jobs waiting
//!   and the jobs running, for the `queue_depth` and `workers_busy` health
//!   gauges.
//! * [`ServicePool::shutdown`] — closes the queue, lets the workers
//!   *drain* every already-accepted job, then joins them. Nothing
//!   accepted is ever dropped; nothing new gets in.
//!
//! The pool also grants each job its [`degree`](crate::degree), the one
//! place that policy lives: a job that starts as the only job running or
//! queued gets all cores, since nothing else wants them; any other job
//! gets 1, so concurrent statements do not fan out over each other's
//! cores.
//!
//! Jobs run under `catch_unwind`: a panicking job increments
//! [`ServicePool::panics`] and the worker moves on. Callers that need
//! richer panic handling (e.g. session teardown) should wrap their own
//! `catch_unwind` inside the job; this one is the backstop that keeps
//! the pool alive.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::job::{cores, with_degree};

/// A unit of work for the pool.
pub type ServiceJob = Box<dyn FnOnce() + Send + 'static>;

/// Why [`ServicePool::try_submit`] refused a job. The job is handed back
/// so the caller can reply to the client without re-building it.
pub enum SubmitError {
    /// The bounded dispatch queue is at capacity — shed the request.
    Full(ServiceJob),
    /// The pool is shutting down (or already shut down).
    Closed(ServiceJob),
}

impl std::fmt::Debug for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "SubmitError::Full"),
            SubmitError::Closed(_) => write!(f, "SubmitError::Closed"),
        }
    }
}

#[derive(Default)]
struct Gauges {
    queued: AtomicU64,
    running: AtomicU64,
    panics: AtomicU64,
}

/// A fixed-size pool of long-lived workers behind a bounded queue.
pub struct ServicePool {
    /// `None` after shutdown. Behind a mutex so shutdown works through a
    /// shared reference (servers hold their pool in an `Arc`).
    tx: Mutex<Option<SyncSender<ServiceJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    gauges: Arc<Gauges>,
}

impl ServicePool {
    /// Spawns `workers` threads (clamped to ≥ 1) behind a queue holding
    /// at most `queue_cap` waiting jobs (clamped to ≥ 1).
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<ServiceJob>(queue_cap.max(1));
        // MPMC by Mutex: idle workers pull from one queue.
        let rx = Arc::new(Mutex::new(rx));
        let gauges = Arc::new(Gauges::default());
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let gauges = Arc::clone(&gauges);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &gauges))
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            gauges,
        }
    }

    /// Non-blocking admission. `Err(Full)` means the queue is at capacity
    /// *right now* — the canonical load-shedding signal.
    pub fn try_submit(&self, job: ServiceJob) -> Result<(), SubmitError> {
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            return Err(SubmitError::Closed(job));
        };
        // Count before sending so a racing worker's decrement can never
        // observe the queue at depth "-1".
        self.gauges.queued.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(job)) => {
                self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::Full(job))
            }
            Err(TrySendError::Disconnected(job)) => {
                self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
                Err(SubmitError::Closed(job))
            }
        }
    }

    /// Jobs currently waiting on the dispatch queue (admitted, not yet
    /// picked up by a worker).
    pub fn queued(&self) -> u64 {
        self.gauges.queued.load(Ordering::Relaxed)
    }

    /// Jobs workers are running right now.
    pub fn busy(&self) -> u64 {
        self.gauges.running.load(Ordering::Relaxed)
    }

    /// Jobs that panicked (and were contained) since the pool started.
    pub fn panics(&self) -> u64 {
        self.gauges.panics.load(Ordering::Relaxed)
    }

    /// The worker-thread count. Zero after shutdown.
    pub fn workers(&self) -> usize {
        self.workers.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Closes the queue and joins the workers after they drain every
    /// already-accepted job. Idempotent via `Drop` (dropping an
    /// un-shutdown pool performs the same drain).
    pub fn shutdown(self) {
        self.drain();
    }

    /// [`ServicePool::shutdown`] through a shared reference — for pools
    /// owned by an `Arc`-shared server. Idempotent; concurrent callers
    /// both observe a fully drained pool before returning.
    pub fn drain(&self) {
        // Dropping the sender disconnects the channel once the queue is
        // empty; workers exit their recv loop after draining it.
        *self.tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for handle in handles {
            // A worker that panicked outside catch_unwind (impossible for
            // job code, but defensive) must not poison shutdown.
            let _ = handle.join();
        }
    }
}

impl Drop for ServicePool {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(rx: &Mutex<Receiver<ServiceJob>>, gauges: &Gauges) {
    loop {
        let job = {
            let queue = rx.lock().unwrap_or_else(|e| e.into_inner());
            queue.recv()
        };
        let Ok(job) = job else { break };
        let waiting = gauges.queued.fetch_sub(1, Ordering::SeqCst) - 1;
        let running = gauges.running.fetch_add(1, Ordering::SeqCst) + 1;
        let degree = if running == 1 && waiting == 0 {
            cores()
        } else {
            1
        };
        if catch_unwind(AssertUnwindSafe(|| with_degree(degree, job))).is_err() {
            gauges.panics.fetch_add(1, Ordering::Relaxed);
        }
        gauges.running.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = ServicePool::new(2, 8);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            let mut job: ServiceJob = Box::new(move || tx.send(i).unwrap());
            // The queue may momentarily be full; admission is best-effort.
            loop {
                match pool.try_submit(job) {
                    Ok(()) => break,
                    Err(SubmitError::Full(j)) => {
                        job = j;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        }
        let mut got: Vec<u32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let pool = ServicePool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        // Occupy the worker…
        let rx = Arc::clone(&release_rx);
        pool.try_submit(Box::new(move || {
            rx.lock().unwrap().recv().unwrap();
        }))
        .unwrap();
        // …then fill the 1-slot queue. One of these two lands in the
        // queue; keep trying until the worker has dequeued the blocker.
        let mut queued = false;
        for _ in 0..100 {
            let rx = Arc::clone(&release_rx);
            match pool.try_submit(Box::new(move || {
                rx.lock().unwrap().recv().unwrap();
            })) {
                Ok(()) if pool.queued() == 1 => {
                    queued = true;
                    break;
                }
                Ok(()) => continue,
                Err(SubmitError::Full(_)) => {
                    queued = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(queued);
        // With the worker busy and the queue holding a job, the next
        // submit must shed.
        let mut shed = false;
        for _ in 0..100 {
            match pool.try_submit(Box::new(|| {})) {
                Err(SubmitError::Full(_)) => {
                    shed = true;
                    break;
                }
                Ok(()) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed, "bounded queue never refused admission");
        drop(release_tx); // unblock (recv errors, jobs finish)
        pool.shutdown();
    }

    #[test]
    fn panicking_job_is_contained() {
        let pool = ServicePool::new(1, 4);
        let ran_after = Arc::new(AtomicUsize::new(0));
        pool.try_submit(Box::new(|| panic!("boom"))).unwrap();
        let flag = Arc::clone(&ran_after);
        pool.try_submit(Box::new(move || {
            flag.store(1, Ordering::SeqCst);
        }))
        .unwrap();
        // Drain via shutdown: both jobs ran, one panicked, pool survived.
        let panics = {
            let p = &pool;
            for _ in 0..500 {
                if p.panics() == 1 && ran_after.load(Ordering::SeqCst) == 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            p.panics()
        };
        assert_eq!(panics, 1);
        assert_eq!(ran_after.load(Ordering::SeqCst), 1);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let pool = ServicePool::new(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::SeqCst);
            }))
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 32, "shutdown must drain");
    }

    /// Holds a worker until the returned sender is dropped; returns once
    /// the job is running.
    fn occupy(pool: &ServicePool) -> mpsc::Sender<()> {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_submit(Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = release_rx.recv();
        }))
        .unwrap();
        started_rx.recv().unwrap();
        release_tx
    }

    /// A job that reports the degree it was granted, then waits on
    /// `barrier` (if any).
    fn report_degree(
        pool: &ServicePool,
        tx: &mpsc::Sender<usize>,
        barrier: Option<&Arc<std::sync::Barrier>>,
    ) {
        let (tx, barrier) = (tx.clone(), barrier.cloned());
        pool.try_submit(Box::new(move || {
            tx.send(crate::degree()).unwrap();
            if let Some(barrier) = barrier {
                barrier.wait();
            }
        }))
        .unwrap();
    }

    #[test]
    fn a_lone_job_is_granted_every_core() {
        let pool = ServicePool::new(2, 8);
        let (tx, rx) = mpsc::channel();
        report_degree(&pool, &tx, None);
        assert_eq!(rx.recv().unwrap(), cores());
        assert_eq!(crate::degree(), cores(), "the grant stays on the worker");
        pool.shutdown();
    }

    #[test]
    fn jobs_running_together_are_granted_one() {
        let pool = ServicePool::new(2, 8);
        let (tx, rx) = mpsc::channel();
        let gate = occupy(&pool);
        // One starts beside the gate, the other after it, beside the first:
        // the barrier holds both running at once.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        report_degree(&pool, &tx, Some(&barrier));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(pool.busy(), 2);
        report_degree(&pool, &tx, Some(&barrier));
        drop(gate);
        assert_eq!(rx.recv().unwrap(), 1);
        pool.shutdown();
    }

    #[test]
    fn a_job_started_while_another_is_queued_is_granted_one() {
        let pool = ServicePool::new(1, 8);
        let (tx, rx) = mpsc::channel();
        let gate = occupy(&pool);
        report_degree(&pool, &tx, None);
        report_degree(&pool, &tx, None);
        drop(gate);
        // The first starts with the second queued; the second starts alone.
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), cores());
        pool.shutdown();
    }

    #[test]
    fn submit_after_shutdown_reports_closed() {
        let pool = ServicePool::new(1, 1);
        pool.drain();
        assert!(matches!(
            pool.try_submit(Box::new(|| {})),
            Err(SubmitError::Closed(_))
        ));
    }
}
