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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use dt_common::{Deadline, Error, Result, RetryPolicy};
use dt_engine::{IdleJob, ServicePool, SubmitError};
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
    /// a tick in the worker pool's idle lane that folds the dirtiest
    /// master files of every DUALTABLE in the catalog, one table per
    /// tick, when no statement is queued (or between statements, once
    /// they have put it off for 100 ms). Off by default for library embedders; the
    /// `dualtabled` binary turns it on.
    pub compaction: bool,
    /// Daemon cadence after a cycle that found work, in milliseconds.
    /// An idle cycle waits 5× this.
    pub compaction_interval_ms: u64,
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
        let pool = if config.compaction {
            let tick = maintenance(&env, &catalog, config.compaction_interval_ms);
            ServicePool::with_idle(config.workers, config.queue_depth, tick)
        } else {
            ServicePool::new(config.workers, config.queue_depth)
        };
        let shared = Arc::new(ServerShared {
            pool,
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
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
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
        // 1. Refuse new connections and new statements.
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // 2. Drain every accepted statement. Connection threads waiting
        //    on results are unblocked as their statements complete. No
        //    compaction tick starts from here on; one in flight finishes,
        //    which keeps the fold ledger exact.
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

/// Consecutive permanent failures or panics of the compaction tick that
/// switch compaction off.
const STRIKES: u32 = 3;

/// The compaction daemon's tick (DESIGN.md §15), for the service pool's
/// idle lane. A *sweep* visits every table of the catalog, one table per
/// tick, so a worker gets back to the statement queue between folds: the
/// tick is due again at once while the sweep has tables left, then
/// `interval_ms` after a sweep that found work and 5× that after an idle
/// one. A failure re-ticks after the `RetryPolicy` backoff and the sweep
/// goes on with the next table. Transient failures retry without end; the
/// [`STRIKES`]th permanent failure or panic with no error-free sweep
/// between switches compaction off with the error as its reason.
fn maintenance(env: &DualTableEnv, catalog: &SharedCatalog, interval_ms: u64) -> IdleJob {
    let (catalog, controller) = (catalog.clone(), Arc::clone(&env.compaction));
    let health = Arc::clone(&env.health);
    let interval = Duration::from_millis(interval_ms.max(1));
    // The tables the sweep has yet to visit (next last), and whether it
    // folded or failed so far; permanent failures and panics, and
    // failures of any class (the backoff's retry number), since the last
    // error-free sweep.
    let (mut sweep, mut worked, mut erred) = (Vec::<String>::new(), false, false);
    let (mut strikes, mut failures) = (0, 0);
    Box::new(move |deferred| {
        if deferred {
            health.compactor_throttled.inc();
        }
        if controller.mode() == CompactionMode::Off {
            (strikes, failures) = (0, 0);
            sweep.clear();
            controller.set_state(CompactorState::Idle);
            return interval * 5;
        }
        if sweep.is_empty() {
            sweep = catalog.names();
            sweep.reverse();
            (worked, erred) = (false, false);
        }
        let Some(name) = sweep.pop() else {
            return interval * 5; // an empty catalog
        };
        controller.set_state(CompactorState::Running);
        let outcome = catch_unwind(AssertUnwindSafe(|| fold(&catalog, &name)))
            .unwrap_or_else(|_| Err(Error::internal(format!("folding {name} panicked"))));
        controller.set_state(CompactorState::Idle);
        let backoff = match outcome {
            Ok(folded) => {
                worked |= folded;
                None
            }
            Err(e) => {
                erred = true;
                failures += 1;
                strikes += u32::from(!e.is_transient());
                if strikes >= STRIKES {
                    (strikes, failures) = (0, 0);
                    sweep.clear();
                    controller.switch_off(e.to_string());
                    return interval * 5;
                }
                Some(Duration::from_millis(
                    RetryPolicy::default().backoff_ticks(failures),
                ))
            }
        };
        if !sweep.is_empty() {
            return backoff.unwrap_or(Duration::ZERO);
        }
        if !erred {
            (strikes, failures) = (0, 0);
        }
        backoff.unwrap_or(if worked { interval } else { interval * 5 })
    })
}

/// One incremental fold on table `name`; `true` if it swung in or lost its
/// race. A sharded table folds its next dirty shard round-robin (the
/// handle advances a per-table cursor), so its shards take turns, one
/// per sweep, and per-shard fold counters show up in SHOW COMPACTION.
/// Other storages have nothing to fold.
fn fold(catalog: &SharedCatalog, name: &str) -> Result<bool> {
    let Ok(handle) = catalog.get(name) else {
        return Ok(false); // dropped since the sweep began
    };
    match handle.compact_incremental() {
        Ok(FoldOutcome::Folded { .. } | FoldOutcome::LostRace) => Ok(true),
        Ok(FoldOutcome::Clean) | Err(Error::Unsupported(_)) => Ok(false),
        Err(e) => Err(e),
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tick_folds_one_table_and_the_sweep_paces_itself() {
        let (env, catalog) = (DualTableEnv::in_memory(), SharedCatalog::new());
        let mut session = Session::with_shared(env.clone(), catalog.clone());
        let values: Vec<String> = (0..50).map(|i| format!("({i}, {i}.5)")).collect();
        for t in ["a", "b", "c"] {
            // One row in 50 updated: the EDIT plan, so the attached tier
            // holds dirt for the fold.
            for sql in [
                format!("CREATE TABLE {t} (id BIGINT, v DOUBLE) STORED AS DUALTABLE"),
                format!("INSERT INTO {t} VALUES {}", values.join(", ")),
                format!("UPDATE {t} SET v = -1.0 WHERE id = 1"),
            ] {
                session.execute(&sql).unwrap();
            }
        }
        let interval = Duration::from_millis(10);
        let mut tick = maintenance(&env, &catalog, 10);
        let sweep = |tick: &mut IdleJob| (0..3).map(|_| tick(false)).collect::<Vec<_>>();
        // Due again at once between tables; the sweep that folded all
        // three is paced by the interval, the clean one after it by 5×.
        let zero = Duration::ZERO;
        assert_eq!(sweep(&mut tick), [zero, zero, interval]);
        assert_eq!(sweep(&mut tick), [zero, zero, interval * 5]);
        assert_eq!(env.compaction.state(), CompactorState::Idle);
    }
}
