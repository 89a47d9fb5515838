//! Fault-injected soak: a client storm against a deliberately small
//! worker pool, with transient storage faults armed mid-run, deliberate
//! mid-transaction disconnects, and overload bursts.
//!
//! The oracle is exact, not statistical. Every committer counts an
//! increment **only** when the server acknowledged it: a `COMMIT` that
//! returned OK. Everything else — conflicts, shed statements, timeouts,
//! injected faults — restarts the round.
//! After the storm the table must show exactly the acked counts, every
//! snapshot pin must have drained, generation GC must still advance,
//! and the admission ledger must balance to the statement:
//! `accepted + shed == submitted`.
//!
//! Half the seeds run with the HTAP delta tier on (a tiny budget, so the
//! storm spills mid-flight); the acked-commit oracle and every ledger
//! check are identical either way, and `SHOW HEALTH` must surface the
//! delta tier over the wire.
//!
//! Runs 25 seeds by default; override with `SOAK_SEEDS=N`. A failing
//! seed prints (and drops to `target/last_failed_seed.txt`) its repro.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dt_common::{seed_from_env, with_seed_repro, FaultKind, FaultPlan, Value};
use dt_hiveql::{SessionConfig, SharedCatalog, TableHandle};
use dt_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use dualtable::DualTableEnv;

const IDS: i64 = 5;
const COMMITTERS: usize = 6;
const ROUNDS: usize = 12;
const DROPPERS: usize = 4;
const BURSTERS: usize = 3;
const BURST_STATEMENTS: usize = 30;

/// Tiny deterministic RNG (xorshift) so each seed replays exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn retry_until_ok(client: &mut Client, sql: &str) -> dt_server::Response {
    for _ in 0..10_000 {
        match client.query(sql) {
            Ok(r) => return r,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("{sql}: non-retryable {e}"),
        }
    }
    panic!("{sql}: retries exhausted");
}

/// One BEGIN/UPDATE/COMMIT attempt. `Ok(true)` means the increment is
/// durably applied; `Ok(false)` means it provably is not.
fn attempt_increment(client: &mut Client, id: i64) -> Result<bool, ClientError> {
    // Reset until the server definitively reports the session state:
    // Ok (a stale transaction was open, now closed) or InvalidArgument
    // (none open). A shed ROLLBACK never executed, so retry it.
    loop {
        match client.query("ROLLBACK") {
            Ok(_) => break,
            Err(ClientError::Server(e)) if e.code == ErrorCode::InvalidArgument => break,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(e),
        }
    }
    loop {
        match client.query("BEGIN") {
            Ok(_) => break,
            Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(e),
        }
    }
    if client
        .query(&format!("UPDATE soak SET v = v + 1 WHERE id = {id}"))
        .is_err()
    {
        // Shed, timed out, or hit an injected fault. The overlay state
        // is unknown; abandon the round rather than risk a double
        // increment on retry within the same snapshot.
        return Ok(false);
    }
    loop {
        return match client.query("COMMIT") {
            Ok(_) => Ok(true),
            Err(ClientError::Server(e)) => match e.code {
                // Never executed: the admission queue refused it or the
                // deadline expired before the worker picked it up. The
                // transaction is still open — resend COMMIT.
                ErrorCode::ServerBusy | ErrorCode::Timeout => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                // Conflict / injected fault: the commit applied nothing
                // and rolled the transaction back.
                _ => Ok(false),
            },
            Err(e) => Err(e),
        };
    }
}

fn soak_one_seed(seed: u64, total_shed: &AtomicU64, delta: bool) {
    let plan = Arc::new(FaultPlan::seeded(
        seed,
        6,
        4_000,
        &[
            FaultKind::TransientWriteError,
            FaultKind::TransientReadError,
        ],
    ));
    plan.set_armed(false); // setup runs fault-free
    let env = DualTableEnv::in_memory_faulty(plan.clone()).expect("faulty env");
    let catalog = SharedCatalog::new();
    let mut session = SessionConfig::default();
    if delta {
        // Tiny budget: the storm's EDIT commits overflow it repeatedly,
        // so spills interleave with faults, disconnects and shedding.
        session.dualtable.delta_bytes = 256;
    }
    let server = Server::start(
        "127.0.0.1:0",
        env.clone(),
        catalog.clone(),
        ServerConfig {
            workers: 3,
            queue_depth: 4,
            default_deadline_ms: 0,
            session,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();

    let mut setup = Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
    retry_until_ok(
        &mut setup,
        "CREATE TABLE soak (id BIGINT, v BIGINT) STORED AS DUALTABLE",
    );
    let values: Vec<String> = (0..IDS).map(|i| format!("({i}, 0)")).collect();
    retry_until_ok(
        &mut setup,
        &format!("INSERT INTO soak VALUES {}", values.join(",")),
    );
    drop(setup);

    // ---- storm ----
    plan.set_armed(true);
    let acked: Vec<AtomicU64> = (0..IDS).map(|_| AtomicU64::new(0)).collect();
    let acked = Arc::new(acked);
    std::thread::scope(|s| {
        for c in 0..COMMITTERS {
            let acked = acked.clone();
            s.spawn(move || {
                let mut rng = Rng::new(seed.wrapping_mul(0x9e37).wrapping_add(c as u64));
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
                for _ in 0..ROUNDS {
                    let id = (rng.next() % IDS as u64) as i64;
                    let mut tries = 0;
                    loop {
                        match attempt_increment(&mut client, id) {
                            Ok(true) => {
                                acked[id as usize].fetch_add(1, Ordering::SeqCst);
                                break;
                            }
                            Ok(false) => {
                                tries += 1;
                                assert!(tries < 1_000, "round never converged");
                            }
                            Err(e) => panic!("transport died mid-storm: {e}"),
                        }
                    }
                }
            });
        }
        // Deliberate mid-transaction disconnects: BEGIN, optionally
        // buffer a write, then let the socket die.
        for d in 0..DROPPERS {
            s.spawn(move || {
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
                loop {
                    match client.query("BEGIN") {
                        Ok(_) => break,
                        Err(e) if e.is_retryable() => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("BEGIN: {e}"),
                    }
                }
                if d % 2 == 0 {
                    // Buffered write that must vanish with the drop.
                    let _ = client.query("UPDATE soak SET v = v + 1000 WHERE id = 0");
                }
                drop(client); // TCP FIN mid-transaction
            });
        }
        // Overload bursts: cheap statements fired as fast as possible,
        // some under a 1ms deadline. Failures (SERVER_BUSY, TIMEOUT)
        // are expected and ignored — the ledger accounts for them.
        for b in 0..BURSTERS {
            s.spawn(move || {
                let mut client =
                    Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
                for i in 0..BURST_STATEMENTS {
                    let deadline_ms = if (i + b) % 3 == 0 { 1 } else { 0 };
                    let _ = client.query_deadline("SHOW HEALTH", deadline_ms);
                }
            });
        }
    });
    plan.heal_and_disarm();

    // ---- verdict ----
    // Every dropper teardown and session close must finish first.
    let store = match catalog.get("soak").expect("table registered") {
        TableHandle::Dual(store) => store,
        _ => panic!("expected DUALTABLE"),
    };
    let health = server.health();
    for _ in 0..1_000 {
        let snap = health.snapshot();
        if snap.conns_dropped_in_txn == DROPPERS as u64
            && snap.sessions_active == 0
            && store.pinned_snapshots() == 0
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = health.snapshot();
    assert_eq!(
        snap.conns_dropped_in_txn, DROPPERS as u64,
        "seed {seed}: every deliberate drop (and only those) must be counted"
    );
    assert_eq!(snap.sessions_active, 0, "seed {seed}: session gauge leaked");
    assert_eq!(
        store.pinned_snapshots(),
        0,
        "seed {seed}: snapshot pins leaked after the storm"
    );
    assert_eq!(
        snap.stmts_accepted + snap.stmts_shed,
        snap.stmts_submitted,
        "seed {seed}: admission ledger out of balance"
    );
    total_shed.fetch_add(snap.stmts_shed, Ordering::SeqCst);

    // Zero lost (and zero phantom) updates: the table shows exactly the
    // acked increments, per id.
    let mut check = Client::connect_retry(addr, Duration::from_secs(5)).expect("connect");
    for id in 0..IDS {
        let r = retry_until_ok(&mut check, &format!("SELECT v FROM soak WHERE id = {id}"));
        assert_eq!(
            r.rows[0][0],
            Value::Int64(acked[id as usize].load(Ordering::SeqCst) as i64),
            "seed {seed}: id {id} diverged from the acked-commit oracle"
        );
    }

    // The storm left nothing behind that blocks generation GC.
    let gcd_before = env.health.snapshot().generations_gcd;
    let values: Vec<String> = (0..IDS).map(|i| format!("({i}, {i})")).collect();
    retry_until_ok(
        &mut check,
        &format!("INSERT OVERWRITE soak VALUES {}", values.join(",")),
    );
    assert!(
        env.health.snapshot().generations_gcd > gcd_before,
        "seed {seed}: generation GC stalled after the storm"
    );

    // SHOW HEALTH surfaces the server tier over the wire.
    let r = retry_until_ok(&mut check, "SHOW HEALTH");
    let server_metrics: Vec<String> = r
        .rows
        .iter()
        .filter(|row| row[0] == Value::Utf8("server".into()))
        .map(|row| match &row[1] {
            Value::Utf8(m) => m.clone(),
            other => panic!("bad metric cell {other:?}"),
        })
        .collect();
    for want in [
        "sessions_active",
        "queue_depth",
        "stmts_shed",
        "stmts_timed_out",
        "conns_dropped_in_txn",
    ] {
        assert!(
            server_metrics.iter().any(|m| m == want),
            "seed {seed}: SHOW HEALTH missing server metric {want}"
        );
    }
    // The delta tier reports among the kv tier's rows (the kv store owns
    // it), and with the tiny budget the storm must actually have spilled
    // at least once.
    let delta_metric = |name: &str| -> u64 {
        r.rows
            .iter()
            .find(|row| row[0] == Value::Utf8("kv".into()) && row[1] == Value::Utf8(name.into()))
            .and_then(|row| row[2].as_i64())
            .unwrap_or_else(|| panic!("seed {seed}: SHOW HEALTH missing delta metric {name}"))
            as u64
    };
    let spills = delta_metric("delta_spills");
    let _ = delta_metric("delta_bytes_used");
    let _ = delta_metric("delta_hits");
    if delta {
        assert!(
            spills > 0,
            "seed {seed}: delta storm never spilled — the budget is not binding"
        );
    } else {
        assert_eq!(spills, 0, "seed {seed}: delta-off run spilled");
    }
    drop(check);
    server.shutdown();
}

#[test]
fn fault_injected_soak() {
    let seeds: u64 = std::env::var("SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let base = seed_from_env(0);
    let total_shed = AtomicU64::new(0);
    for seed in base..base + seeds {
        with_seed_repro(
            "dt-server",
            "server_soak",
            "fault_injected_soak",
            seed,
            |s| {
                // Odd seeds run with the HTAP delta tier on; the oracle and
                // every ledger check are identical either way.
                soak_one_seed(s, &total_shed, s % 2 == 1);
            },
        );
    }
    // The bursts must actually have overloaded the pool at least once
    // across the run — otherwise the shedding path went untested.
    assert!(
        total_shed.load(Ordering::SeqCst) > 0,
        "no statement was ever shed: the overload bursts are too weak"
    );
}
