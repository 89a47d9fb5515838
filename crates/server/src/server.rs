//! The `dualtabled` server core (DESIGN.md §14).
//!
//! One thread per connection owns the socket end to end: it reads `Q`
//! frames, routes statements to the shared [`ServicePool`], and writes
//! every response frame itself. Workers never touch sockets, so a slow
//! reader stalls only its own connection thread (backpressure), never a
//! worker. The pool's bounded queue is the admission controller: a full
//! queue sheds the statement with a retryable `SERVER_BUSY` instead of
//! building an unbounded backlog.
//!
//! Teardown invariants (the "crash-proof" part):
//!
//! * A connection that dies mid-transaction — FIN, RST, or its thread
//!   panicking — runs [`ConnGuard`]'s drop: the open transaction rolls
//!   back, every snapshot pin releases (generation GC drains), and the
//!   `conns_dropped_in_txn` counter records it.
//! * A statement that panics on a worker is contained by
//!   `catch_unwind`; the session's transaction is aborted and the
//!   client gets a retryable-`false` `INTERNAL` error. The worker — and
//!   every other session — keeps running.
//! * Jobs still queued when their connection dies check the
//!   connection's `alive` flag *under the session lock* and skip
//!   execution, so teardown can never race a late statement into a
//!   freshly rolled-back session.
//!
//! Graceful shutdown ([`Server::shutdown`]): stop accepting, refuse new
//! statements (`SHUTTING_DOWN`, retryable), drain every accepted
//! statement, then roll back whatever transactions remain open and join
//! every thread. Accepted work is never dropped; refused work is
//! counted as shed so `accepted + shed == submitted` stays exact.

use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use dt_common::{Deadline, Error, Result};
use dt_engine::{ServicePool, SubmitError, Supervisor, SupervisorConfig, TickOutcome};
use dt_hiveql::{QueryResult, Session, SharedCatalog};
use dualtable::{CompactionMode, CompactorState, DualTableEnv, FoldOutcome, ServerCounters};
use parking_lot::Mutex;

use crate::protocol::{
    self, encode_end, encode_error, encode_header, encode_rows, ErrorCode, Reader, FRAME_QUERY,
    ROWS_PER_BATCH,
};

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing statements.
    pub workers: usize,
    /// Dispatch-queue capacity; the admission-control bound.
    pub queue_depth: usize,
    /// Default per-statement deadline when the client sends `0`;
    /// `0` here means no deadline at all.
    pub default_deadline_ms: u64,
    /// Run the background incremental-compaction daemon (DESIGN.md §15):
    /// a supervised maintenance thread that folds the dirtiest master
    /// files of every DUALTABLE in the catalog. Off by default for
    /// library embedders; the `dualtabled` binary turns it on.
    pub compaction: bool,
    /// Daemon cadence after a cycle that found work, in milliseconds.
    /// Idle and throttled cycles sleep 5× this.
    pub compaction_interval_ms: u64,
    /// Dispatch-queue depth at or above which the daemon throttles —
    /// foreground statements always outrank maintenance.
    pub compaction_queue_threshold: usize,
    /// Session configuration handed to every connection (table defaults:
    /// plan mode, cost-model rates, delta-tier budget, executor tuning).
    /// A `delta_bytes` set here turns the HTAP delta tier on for every
    /// table the server creates (DESIGN.md §17).
    pub session: dt_hiveql::SessionConfig,
    /// Test hook: a statement whose text contains this marker panics on
    /// the worker after reaching it, exercising the contained-panic
    /// teardown path. Never set in production.
    #[doc(hidden)]
    pub panic_marker: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_depth: 16,
            default_deadline_ms: 0,
            compaction: false,
            compaction_interval_ms: 20,
            compaction_queue_threshold: 8,
            session: dt_hiveql::SessionConfig::default(),
            panic_marker: None,
        }
    }
}

/// Per-connection state shared between the connection thread and any
/// queued worker jobs.
struct ConnShared {
    /// Cleared (before locking the session) when the connection is torn
    /// down; queued jobs re-check it under the session lock and skip.
    alive: AtomicBool,
    /// The connection's session. Locked by at most one worker at a time
    /// (strict request–response), and by teardown.
    session: Mutex<Session>,
}

struct ConnHandle {
    shared: Arc<ConnShared>,
    /// A clone of the socket, used to unblock the reader at shutdown.
    stream: TcpStream,
    thread: JoinHandle<()>,
}

struct ServerShared {
    config: ServerConfig,
    env: DualTableEnv,
    catalog: SharedCatalog,
    pool: ServicePool,
    health: Arc<ServerCounters>,
    shutting_down: AtomicBool,
    conns: Mutex<Vec<ConnHandle>>,
}

/// A running `dualtabled` instance. Dropping it without calling
/// [`Server::shutdown`] performs the same graceful shutdown.
pub struct Server {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    /// The supervised compaction daemon (`config.compaction`).
    maintenance: Option<Supervisor>,
    shut: bool,
}

impl Server {
    /// Binds `listen` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `env`/`catalog`.
    pub fn start(
        listen: &str,
        env: DualTableEnv,
        catalog: SharedCatalog,
        config: ServerConfig,
    ) -> Result<Server> {
        let listener = TcpListener::bind(listen).map_err(Error::Io)?;
        let local_addr = listener.local_addr().map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let health = Arc::clone(&env.server_health);
        let shared = Arc::new(ServerShared {
            pool: ServicePool::new(config.workers, config.queue_depth),
            config,
            env,
            catalog,
            health,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("dtd-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(Error::Io)?;
        let maintenance = shared.config.compaction.then(|| start_maintenance(&shared));
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            maintenance,
            shut: false,
        })
    }

    /// The bound address (for ephemeral-port tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The serving-tier health counters (the `server` rows of
    /// `SHOW HEALTH`).
    pub fn health(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.shared.health)
    }

    /// Contained statement panics since start.
    pub fn worker_panics(&self) -> u64 {
        self.shared.pool.panics()
    }

    /// Graceful shutdown: refuse new work, drain accepted statements,
    /// roll back remaining open transactions, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shut {
            return;
        }
        self.shut = true;
        // 0. Stop the compaction daemon first: no new fold starts during
        //    the drain; an in-flight fold runs to completion (it is
        //    crash-safe anyway, but a clean stop keeps counters exact).
        if let Some(m) = self.maintenance.take() {
            m.stop();
        }
        // 1. Refuse new connections and new statements.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // 2. Drain every accepted statement. Connection threads waiting
        //    on results are unblocked as their statements complete.
        self.shared.pool.drain();
        // 3. Tear every connection down: mark dead, unblock its reader,
        //    join. The guard in each thread rolls back open transactions
        //    and releases pins.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for conn in &conns {
            conn.shared.alive.store(false, Ordering::SeqCst);
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        for conn in conns {
            let _ = conn.thread.join();
        }
        sample_load(&self.shared.pool, &self.shared.health);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Spawns the supervised compaction daemon (DESIGN.md §15). One tick =
/// one maintenance sweep: consult the controller mode, check server load,
/// then run one incremental fold cycle on every DUALTABLE in the catalog.
/// Sharded tables dispatch that cycle round-robin across their shards (the
/// handle advances a per-table cursor), so no shard waits more than one
/// full cycle behind its siblings and per-shard fold counters show up in
/// SHOW COMPACTION.
/// The supervisor restarts the tick across panics, backs transient faults
/// off, and parks on repeated permanent failures; `SET COMPACTION = AUTO`
/// (a mode-epoch bump) is the operator's reset lever.
fn start_maintenance(shared: &Arc<ServerShared>) -> Supervisor {
    let controller = Arc::clone(&shared.env.compaction);
    let table_health = Arc::clone(&shared.env.health);
    let threshold = shared.config.compaction_queue_threshold as u64;
    let interval = shared.config.compaction_interval_ms.max(1);

    let tick_shared = Arc::clone(shared);
    let tick_controller = Arc::clone(&controller);
    let tick_health = Arc::clone(&table_health);
    let mut last_shed = shared.health.stmts_shed.get();
    let tick = move || {
        if tick_controller.mode() == CompactionMode::Off {
            tick_controller.set_state(CompactorState::Idle);
            return Ok(TickOutcome::Idle);
        }
        // Load-aware throttle: a deep dispatch queue or fresh admission
        // shedding means the serving tier needs every core — maintenance
        // yields and retries next tick.
        let shed = tick_shared.health.stmts_shed.get();
        let queued = tick_shared.pool.queued();
        if queued >= threshold || shed > last_shed {
            last_shed = shed;
            tick_health.compactor_throttled.inc();
            tick_controller.set_state(CompactorState::Throttled);
            return Ok(TickOutcome::Throttled);
        }
        last_shed = shed;
        tick_controller.set_state(CompactorState::Running);
        let mut worked = false;
        let mut result = Ok(());
        for name in tick_shared.catalog.names() {
            let Ok(handle) = tick_shared.catalog.get(&name) else {
                continue; // dropped since names() — nothing to maintain
            };
            match handle.compact_incremental() {
                Ok(FoldOutcome::Folded { .. } | FoldOutcome::LostRace) => worked = true,
                Ok(FoldOutcome::Clean) => {}
                Err(Error::Unsupported(_)) => {} // non-DUALTABLE storage
                Err(e) => {
                    // Surface the first failure to the supervisor (backoff
                    // or breaker); later tables get their turn next tick.
                    result = Err(e);
                    break;
                }
            }
        }
        tick_controller.set_state(CompactorState::Idle);
        result.map(|()| {
            if worked {
                TickOutcome::Worked
            } else {
                TickOutcome::Idle
            }
        })
    };

    // The breaker's reset lever: record the controller's mode epoch at
    // park time; any later SET COMPACTION = AUTO moves it and unparks.
    let epoch_at_park = Arc::new(AtomicU64::new(0));
    let park_epoch = Arc::clone(&epoch_at_park);
    let park_controller = Arc::clone(&controller);
    let on_park = move |parked: bool| {
        table_health.compactor_parked.set(u64::from(parked));
        if parked {
            park_epoch.store(park_controller.mode_epoch(), Ordering::SeqCst);
            park_controller.set_state(CompactorState::Parked);
        } else {
            park_controller.set_state(CompactorState::Idle);
        }
    };
    let unpark_when = move || {
        controller.mode() == CompactionMode::Auto
            && controller.mode_epoch() > epoch_at_park.load(Ordering::SeqCst)
    };

    Supervisor::start(
        "compaction",
        SupervisorConfig {
            tick_interval_ms: interval,
            idle_interval_ms: interval.saturating_mul(5),
            ..SupervisorConfig::default()
        },
        tick,
        on_park,
        unpark_when,
    )
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(e) = spawn_conn(stream, shared) {
                    // Accept succeeded but setup failed (thread spawn /
                    // socket clone): drop the connection, keep serving.
                    let _ = e;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Reap finished connection threads so the registry stays
                // bounded across long-lived servers.
                shared.conns.lock().retain(|c| !c.thread.is_finished());
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_conn(stream: TcpStream, shared: &Arc<ServerShared>) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let mut session = Session::with_shared(shared.env.clone(), shared.catalog.clone());
    session.config = shared.config.session.clone();
    let conn_shared = Arc::new(ConnShared {
        alive: AtomicBool::new(true),
        session: Mutex::new(session),
    });
    let thread_stream = stream.try_clone()?;
    let server = Arc::clone(shared);
    let conn_for_thread = Arc::clone(&conn_shared);
    let thread = std::thread::Builder::new()
        .name("dtd-conn".into())
        .spawn(move || conn_loop(thread_stream, &conn_for_thread, &server))?;
    shared.conns.lock().push(ConnHandle {
        shared: conn_shared,
        stream,
        thread,
    });
    Ok(())
}

/// Runs the connection teardown exactly once, on every exit path of the
/// connection thread — clean EOF, I/O error, or panic.
struct ConnGuard<'a> {
    conn: &'a Arc<ConnShared>,
    health: &'a Arc<ServerCounters>,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        // Order matters: clear `alive` BEFORE taking the session lock.
        // A queued job that wins the lock race will see the flag and
        // skip; one that already holds the lock finishes its statement
        // first, and we roll back after it.
        self.conn.alive.store(false, Ordering::SeqCst);
        let mut session = self.conn.session.lock();
        if session.in_transaction() {
            self.health.conns_dropped_in_txn.inc();
            session.abort_transaction();
        }
        self.health.sessions_active.sub(1);
    }
}

fn conn_loop(stream: TcpStream, conn: &Arc<ConnShared>, server: &Arc<ServerShared>) {
    server.health.sessions_active.inc();
    let _guard = ConnGuard {
        conn,
        health: &server.health,
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match protocol::read_frame(&mut reader) {
            Ok(Some(p)) => p,
            // Clean EOF or any transport error: tear down. The guard
            // rolls back whatever transaction is open.
            Ok(None) | Err(_) => return,
        };
        if payload.is_empty() || payload[0] != FRAME_QUERY {
            let _ = write_error_frame(
                &mut writer,
                ErrorCode::InvalidArgument,
                false,
                "expected a Q frame",
            );
            continue;
        }
        let mut r = Reader::new(&payload[1..]);
        let (deadline_ms, sql) =
            match (|| -> Result<(u32, String)> { Ok((r.u32()?, r.rest_utf8()?)) })() {
                Ok(q) => q,
                Err(e) => {
                    let _ = write_error_frame(
                        &mut writer,
                        ErrorCode::InvalidArgument,
                        false,
                        &e.to_string(),
                    );
                    continue;
                }
            };
        if !handle_statement(&mut writer, conn, server, deadline_ms, &sql) {
            return;
        }
    }
}

/// Admits, executes and answers one statement. Returns `false` when the
/// connection should close (response could not be written).
fn handle_statement(
    writer: &mut BufWriter<TcpStream>,
    conn: &Arc<ConnShared>,
    server: &Arc<ServerShared>,
    deadline_ms: u32,
    sql: &str,
) -> bool {
    let health = &server.health;
    health.stmts_submitted.inc();

    if server.shutting_down.load(Ordering::SeqCst) {
        health.stmts_shed.inc();
        return write_error_frame(
            writer,
            ErrorCode::ShuttingDown,
            true,
            "server is shutting down",
        )
        .is_ok();
    }

    let effective_ms = if deadline_ms > 0 {
        u64::from(deadline_ms)
    } else {
        server.config.default_deadline_ms
    };
    let deadline = if effective_ms > 0 {
        Deadline::after_millis(effective_ms)
    } else {
        Deadline::never()
    };

    let (tx, rx) = mpsc::channel::<Result<QueryResult>>();
    let job_conn = Arc::clone(conn);
    let job_deadline = deadline.clone();
    let job_sql = sql.to_string();
    let marker = server.config.panic_marker.clone();
    let job = Box::new(move || {
        let mut session = job_conn.session.lock();
        if !job_conn.alive.load(Ordering::SeqCst) {
            // Connection torn down while this job sat in the queue: the
            // transaction is already rolled back; executing now would
            // resurrect state nobody can observe. Drop silently — the
            // receiver is gone too.
            return;
        }
        // Queue-wait expiry: refuse to *start* past the deadline, so a
        // timed-out COMMIT provably never applied anything.
        if let Err(e) = job_deadline.check() {
            let _ = tx.send(Err(e));
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(m) = &marker {
                if job_sql.contains(m.as_str()) {
                    panic!("panic marker hit");
                }
            }
            session.execute_with_deadline(&job_sql, job_deadline)
        }));
        match outcome {
            Ok(result) => {
                let _ = tx.send(result);
            }
            Err(panic) => {
                // Contain the panic: roll the transaction back so the
                // session is reusable, then report INTERNAL. Pins held
                // by the transaction release here.
                session.abort_transaction();
                let _ = tx.send(Err(Error::Internal(
                    "statement panicked; transaction rolled back".into(),
                )));
                // Propagate so the pool's panic counter records it; the
                // pool's own catch_unwind keeps the worker alive.
                std::panic::resume_unwind(panic);
            }
        }
    });

    match server.pool.try_submit(job) {
        Ok(()) => {}
        Err(SubmitError::Full(_)) => {
            health.stmts_shed.inc();
            sample_load(&server.pool, health);
            return write_error_frame(
                writer,
                ErrorCode::ServerBusy,
                true,
                "dispatch queue full; retry with backoff",
            )
            .is_ok();
        }
        Err(SubmitError::Closed(_)) => {
            health.stmts_shed.inc();
            return write_error_frame(
                writer,
                ErrorCode::ShuttingDown,
                true,
                "server is shutting down",
            )
            .is_ok();
        }
    }
    health.stmts_accepted.inc();
    sample_load(&server.pool, health);

    // Block until the worker answers. Strict request–response: there is
    // never more than one outstanding statement per connection. A worker
    // drops the sender without an outcome only when this connection was
    // torn down concurrently.
    let Ok(result) = rx.recv() else {
        return false;
    };
    write_outcome(writer, health, result).is_ok()
}

/// Samples the pool's load into the `queue_depth` and `workers_busy`
/// gauges.
fn sample_load(pool: &ServicePool, health: &ServerCounters) {
    health.queue_depth.set(pool.queued());
    health.workers_busy.set(pool.busy());
}

fn write_outcome(
    writer: &mut BufWriter<TcpStream>,
    health: &Arc<ServerCounters>,
    result: Result<QueryResult>,
) -> std::io::Result<()> {
    match result {
        Ok(qr) => {
            if !qr.schema.is_empty() {
                protocol::write_frame(writer, &encode_header(&qr.schema))?;
                // Bounded batches: each write lands in the socket buffer
                // before the next is built, so a reader that stops
                // draining stalls exactly this thread, holding no locks
                // and no worker.
                for chunk in qr.rows().chunks(ROWS_PER_BATCH) {
                    protocol::write_frame(writer, &encode_rows(chunk))?;
                }
            }
            protocol::write_frame(
                writer,
                &encode_end(qr.affected, qr.message.as_deref().unwrap_or("")),
            )?;
            writer.flush()
        }
        Err(e) => {
            if e.is_timeout() {
                health.stmts_timed_out.inc();
            }
            write_error_frame(
                writer,
                ErrorCode::from_error(&e),
                e.is_transient(),
                &e.to_string(),
            )
        }
    }
}

fn write_error_frame(
    writer: &mut BufWriter<TcpStream>,
    code: ErrorCode,
    retryable: bool,
    message: &str,
) -> std::io::Result<()> {
    protocol::write_frame(writer, &encode_error(code, retryable, message))?;
    writer.flush()
}
