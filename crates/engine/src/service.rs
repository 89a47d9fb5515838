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
//!
//! A pool built [`with_idle`](ServicePool::with_idle) also has an *idle
//! lane* below every statement: one [`IdleJob`] (for `dualtabled`, the
//! compaction tick) that a worker runs when its wait on the queue times
//! out, i.e. when no statement is queued, or, once statements have put
//! it off for [`STARVED`], after the statement it took instead. At most
//! one copy runs at a time, and it is due again after the delay it
//! returns, or at once after a panic. It is counted in
//! [`busy`](ServicePool::busy), runs under the same `catch_unwind` and is
//! granted its degree like any job, so a statement that starts beside it
//! gets 1. A pool without one blocks on the queue as before.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::job::{cores, with_degree};

/// A unit of work for the pool.
pub type ServiceJob = Box<dyn FnOnce() + Send + 'static>;

/// The idle lane's job. It is passed `true` when it fell due while
/// statements held the queue (it waited for them), and returns the delay
/// before it is due again.
pub type IdleJob = Box<dyn FnMut(bool) -> Duration + Send + 'static>;

/// How long a worker waits for a statement while another worker runs the
/// idle job, before it looks at the lane again.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// How long statements may put off a due idle job. After that the next
/// worker to finish a statement runs it, queue or not, so sustained load
/// slows maintenance but never stops it.
const STARVED: Duration = Duration::from_millis(100);

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

impl Gauges {
    /// Runs `job` counted in `running` and under `catch_unwind`, at all
    /// cores if it starts as the only job running or queued (`waiting`
    /// others wait on the queue), else at 1. `None` if it panicked.
    fn run<T>(&self, waiting: u64, job: impl FnOnce() -> T) -> Option<T> {
        let running = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        let degree = if running == 1 && waiting == 0 {
            cores()
        } else {
            1
        };
        let out = catch_unwind(AssertUnwindSafe(|| with_degree(degree, job)));
        self.running.fetch_sub(1, Ordering::SeqCst);
        if out.is_err() {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        out.ok()
    }
}

/// The idle lane: its job, when it is next due, and whether the pool is
/// draining.
struct IdleLane {
    /// `None` while a worker runs it.
    job: Option<IdleJob>,
    due: Instant,
    /// The job fell due while a worker took a statement instead.
    deferred: bool,
    /// Set by `drain`: no idle job starts after it.
    closed: bool,
}

impl IdleLane {
    /// How long a worker may wait on the queue before the lane needs it.
    fn wait(&self) -> Duration {
        match self.job {
            Some(_) => self.due.saturating_duration_since(Instant::now()),
            None => IDLE_POLL,
        }
    }

    /// Notes that a worker took a statement while the job was due, and
    /// says whether statements have put it off for [`STARVED`] already.
    fn defer(&mut self) -> bool {
        let now = Instant::now();
        if self.job.is_none() || self.due > now {
            return false;
        }
        self.deferred = true;
        now - self.due >= STARVED
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update of the pool's shared state leaves it valid, and jobs
    // run outside these locks.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fixed-size pool of long-lived workers behind a bounded queue.
pub struct ServicePool {
    /// `None` after shutdown. Behind a mutex so shutdown works through a
    /// shared reference (servers hold their pool in an `Arc`).
    tx: Mutex<Option<SyncSender<ServiceJob>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    gauges: Arc<Gauges>,
    idle: Option<Arc<Mutex<IdleLane>>>,
}

impl ServicePool {
    /// Spawns `workers` threads (clamped to ≥ 1) behind a queue holding
    /// at most `queue_cap` waiting jobs (clamped to ≥ 1).
    pub fn new(workers: usize, queue_cap: usize) -> Self {
        Self::spawn(workers, queue_cap, None)
    }

    /// [`ServicePool::new`] with `idle` in the idle lane, due at once.
    pub fn with_idle(workers: usize, queue_cap: usize, idle: IdleJob) -> Self {
        let lane = IdleLane {
            job: Some(idle),
            due: Instant::now(),
            deferred: false,
            closed: false,
        };
        Self::spawn(workers, queue_cap, Some(Arc::new(Mutex::new(lane))))
    }

    fn spawn(workers: usize, queue_cap: usize, idle: Option<Arc<Mutex<IdleLane>>>) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<ServiceJob>(queue_cap.max(1));
        // MPMC by Mutex: idle workers pull from one queue.
        let rx = Arc::new(Mutex::new(rx));
        let gauges = Arc::new(Gauges::default());
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let gauges = Arc::clone(&gauges);
                let idle = idle.clone();
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &gauges, idle.as_deref()))
                    .expect("spawn service worker")
            })
            .collect();
        ServicePool {
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
            gauges,
            idle,
        }
    }

    /// Non-blocking admission. `Err(Full)` means the queue is at capacity
    /// *right now* — the canonical load-shedding signal.
    pub fn try_submit(&self, job: ServiceJob) -> Result<(), SubmitError> {
        let guard = lock(&self.tx);
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

    /// Closes the queue and joins the workers after they drain every
    /// already-accepted job. Idempotent via `Drop` (dropping an
    /// un-shutdown pool performs the same drain).
    pub fn shutdown(self) {
        self.drain();
    }

    /// [`ServicePool::shutdown`] through a shared reference — for pools
    /// owned by an `Arc`-shared server. Idempotent; concurrent callers
    /// both observe a fully drained pool before returning. No idle job
    /// starts once it is called; one already running finishes.
    pub fn drain(&self) {
        if let Some(lane) = &self.idle {
            lock(lane).closed = true;
        }
        // Dropping the sender disconnects the channel once the queue is
        // empty; workers exit their recv loop after draining it.
        *lock(&self.tx) = None;
        let handles: Vec<JoinHandle<()>> = lock(&self.workers).drain(..).collect();
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

fn worker_loop(rx: &Mutex<Receiver<ServiceJob>>, gauges: &Gauges, idle: Option<&Mutex<IdleLane>>) {
    loop {
        let next = {
            let queue = lock(rx);
            match idle {
                None => queue.recv().map_err(|_| RecvTimeoutError::Disconnected),
                Some(lane) => {
                    let wait = lock(lane).wait();
                    queue.recv_timeout(wait)
                }
            }
        };
        match next {
            Ok(job) => {
                let starved = idle.filter(|lane| lock(lane).defer());
                let waiting = gauges.queued.fetch_sub(1, Ordering::SeqCst) - 1;
                gauges.run(waiting, job);
                if let Some(lane) = starved {
                    run_idle(lane, gauges);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if let Some(lane) = idle {
                    run_idle(lane, gauges);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Runs the idle job if it is due and no other worker runs it, then sets
/// when it is due next.
fn run_idle(lane: &Mutex<IdleLane>, gauges: &Gauges) {
    let (mut job, deferred) = {
        let mut lane = lock(lane);
        if lane.closed || lane.due > Instant::now() {
            return;
        }
        let Some(job) = lane.job.take() else { return };
        (job, std::mem::take(&mut lane.deferred))
    };
    let waiting = gauges.queued.load(Ordering::SeqCst);
    let delay = gauges.run(waiting, || job(deferred)).unwrap_or_default();
    let mut lane = lock(lane);
    lane.due = Instant::now() + delay;
    lane.job = Some(job);
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

    /// Waits up to ten seconds for `cond`.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn the_idle_job_waits_for_the_queue_to_drain() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let idle_log = Arc::clone(&log);
        let pool = ServicePool::with_idle(
            1,
            8,
            Box::new(move |deferred| {
                idle_log.lock().unwrap().push(format!("idle {deferred}"));
                Duration::from_millis(1)
            }),
        );
        // The one worker is held, so the idle job cannot run until the
        // three statements queued behind the gate have run.
        let gate = occupy(&pool);
        log.lock().unwrap().clear();
        for i in 0..3 {
            let log = Arc::clone(&log);
            pool.try_submit(Box::new(move || {
                log.lock().unwrap().push(format!("stmt {i}"))
            }))
            .unwrap();
        }
        std::thread::sleep(Duration::from_millis(5)); // the idle job falls due
        drop(gate);
        assert!(eventually(|| log.lock().unwrap().len() >= 5));
        let log = log.lock().unwrap().clone();
        // The first idle run after the gate waited for the statements.
        assert_eq!(log[..4], ["stmt 0", "stmt 1", "stmt 2", "idle true"]);
        assert_eq!(log[4], "idle false");
        pool.shutdown();
    }

    #[test]
    fn a_statement_submitted_mid_sweep_runs_between_its_steps() {
        // A three-step sweep on the one worker: due again at once while
        // steps remain. The statement arrives during step 0.
        let log = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (idle_log, mut step) = (Arc::clone(&log), 0);
        let pool = ServicePool::with_idle(
            1,
            8,
            Box::new(move |_| {
                if step == 0 {
                    started_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                }
                idle_log.lock().unwrap().push(format!("step {step}"));
                step = (step + 1) % 3;
                if step == 0 {
                    Duration::from_secs(3600)
                } else {
                    Duration::ZERO
                }
            }),
        );
        started_rx.recv().unwrap();
        let stmt_log = Arc::clone(&log);
        pool.try_submit(Box::new(move || {
            stmt_log.lock().unwrap().push("stmt".to_string())
        }))
        .unwrap();
        drop(release_tx);
        assert!(eventually(|| log.lock().unwrap().len() == 4));
        let log = log.lock().unwrap().clone();
        assert_eq!(log, ["step 0", "stmt", "step 1", "step 2"]);
        pool.shutdown();
    }

    #[test]
    fn a_starved_idle_job_runs_between_statements() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let idle_log = Arc::clone(&log);
        let pool = ServicePool::with_idle(
            1,
            64,
            Box::new(move |deferred| {
                idle_log.lock().unwrap().push(format!("idle {deferred}"));
                Duration::ZERO
            }),
        );
        // Forty 10 ms statements keep the queue full for 400 ms, four
        // times as long as statements may put the always-due job off.
        let gate = occupy(&pool);
        for i in 0..40 {
            let log = Arc::clone(&log);
            pool.try_submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(10));
                log.lock().unwrap().push(format!("stmt {i}"));
            }))
            .unwrap();
        }
        log.lock().unwrap().clear();
        drop(gate);
        assert!(eventually(|| log
            .lock()
            .unwrap()
            .iter()
            .any(|e| e == "stmt 39")));
        let log = log.lock().unwrap().clone();
        let last = log.iter().position(|e| e == "stmt 39").unwrap();
        let starved = log[..last].iter().filter(|e| e.starts_with("idle")).count();
        assert!(log[0] == "stmt 0", "{log:?}");
        assert!((1..=10).contains(&starved), "{log:?}");
        assert!(log[..last].iter().all(|e| e != "idle false"), "{log:?}");
        pool.shutdown();
    }

    #[test]
    fn idle_jobs_never_overlap() {
        let active = Arc::new(AtomicUsize::new(0));
        let overlaps = Arc::new(AtomicUsize::new(0));
        let runs = Arc::new(AtomicUsize::new(0));
        let (a, o, r) = (
            Arc::clone(&active),
            Arc::clone(&overlaps),
            Arc::clone(&runs),
        );
        let pool = ServicePool::with_idle(
            4,
            8,
            Box::new(move |_| {
                if a.fetch_add(1, Ordering::SeqCst) > 0 {
                    o.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(2));
                a.fetch_sub(1, Ordering::SeqCst);
                r.fetch_add(1, Ordering::SeqCst);
                Duration::ZERO
            }),
        );
        // Always due, four idle workers: each could start it.
        assert!(eventually(|| runs.load(Ordering::SeqCst) >= 10));
        pool.shutdown();
        assert_eq!(overlaps.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_idle_job_is_contained_and_due_again() {
        let (tx, rx) = mpsc::channel();
        let mut first = true;
        let pool = ServicePool::with_idle(
            1,
            8,
            Box::new(move |_| {
                if std::mem::take(&mut first) {
                    panic!("fold blew up");
                }
                tx.send(()).unwrap();
                Duration::from_secs(3600)
            }),
        );
        // Due again at once, not after an hour, and on the same worker.
        rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(pool.panics(), 1);
        let (done_tx, done_rx) = mpsc::channel();
        pool.try_submit(Box::new(move || done_tx.send(()).unwrap()))
            .unwrap();
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_statement_beside_the_idle_job_is_granted_one() {
        let (idle_tx, idle_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let pool = ServicePool::with_idle(
            2,
            8,
            Box::new(move |_| {
                idle_tx.send(crate::degree()).unwrap();
                let _ = release_rx.recv();
                Duration::from_secs(3600)
            }),
        );
        assert_eq!(idle_rx.recv().unwrap(), cores(), "a lone idle job");
        assert_eq!(pool.busy(), 1, "the idle job counts as busy");
        let (tx, rx) = mpsc::channel();
        report_degree(&pool, &tx, None);
        assert_eq!(rx.recv().unwrap(), 1);
        drop(release_tx);
        pool.shutdown();
    }

    #[test]
    fn drain_starts_no_idle_job() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        let pool = ServicePool::with_idle(
            1,
            8,
            Box::new(move |_| {
                r.fetch_add(1, Ordering::SeqCst);
                Duration::ZERO
            }),
        );
        let gate = occupy(&pool);
        let before = runs.load(Ordering::SeqCst);
        std::thread::scope(|s| {
            let drain = s.spawn(|| pool.drain());
            // The drain is under way once the queue refuses statements;
            // then the worker comes free with the idle job due.
            while !matches!(
                pool.try_submit(Box::new(|| {})),
                Err(SubmitError::Closed(_))
            ) {
                std::thread::yield_now();
            }
            drop(gate);
            drain.join().unwrap();
        });
        assert_eq!(runs.load(Ordering::SeqCst), before);
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
