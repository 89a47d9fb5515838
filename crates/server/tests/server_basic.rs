//! Protocol-level integration tests: wire CRUD, per-statement deadline
//! timeouts, admission-control shedding, and an all-or-none multi-table
//! COMMIT.

use std::sync::Arc;
use std::time::Duration;

use dt_common::Value;
use dt_hiveql::SharedCatalog;
use dt_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use dualtable::DualTableEnv;

fn start(config: ServerConfig) -> Server {
    Server::start(
        "127.0.0.1:0",
        DualTableEnv::in_memory(),
        SharedCatalog::new(),
        config,
    )
    .expect("server start")
}

fn connect(server: &Server) -> Client {
    Client::connect_retry(server.local_addr(), Duration::from_secs(5)).expect("connect")
}

#[test]
fn crud_round_trip_over_the_wire() {
    let server = start(ServerConfig::default());
    let mut c = connect(&server);

    c.query("CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
        .unwrap();
    let r = c
        .query("INSERT INTO t VALUES (1, 0.5), (2, 1.5), (3, 2.5)")
        .unwrap();
    assert_eq!(r.affected, 3);

    let r = c
        .query("SELECT id, v FROM t WHERE v > 1.0 ORDER BY id")
        .unwrap();
    assert_eq!(r.columns.len(), 2);
    assert_eq!(r.columns[0].0, "id");
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int64(2), Value::Float64(1.5)],
            vec![Value::Int64(3), Value::Float64(2.5)],
        ]
    );

    let r = c.query("UPDATE t SET v = 9.0 WHERE id = 1").unwrap();
    assert_eq!(r.affected, 1);
    let r = c.query("DELETE FROM t WHERE id = 3").unwrap();
    assert_eq!(r.affected, 1);
    let r = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(2));

    // Errors carry their class across the wire.
    let e = c.query("SELECT * FROM missing").unwrap_err();
    let server_err = e.server().expect("server-side error");
    assert_eq!(server_err.code, ErrorCode::NotFound);
    assert!(!server_err.retryable);

    server.shutdown();
}

#[test]
fn second_connection_sees_first_connections_tables() {
    let server = start(ServerConfig::default());
    let mut a = connect(&server);
    a.query("CREATE TABLE shared_t (id BIGINT) STORED AS DUALTABLE")
        .unwrap();
    a.query("INSERT INTO shared_t VALUES (7)").unwrap();

    let mut b = connect(&server);
    let r = b.query("SELECT id FROM shared_t").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int64(7)]]);
    server.shutdown();
}

#[test]
fn deadline_times_out_long_scan_without_poisoning_session() {
    // One worker, kept busy by a blocker connection: a statement queued
    // behind it outlives a 1 ms deadline in the admission queue, however
    // fast the host runs the statement itself.
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = connect(&server);
    c.query("CREATE TABLE big (id BIGINT, v BIGINT) STORED AS DUALTABLE")
        .unwrap();
    let values: Vec<String> = (0..4000).map(|i| format!("({i}, {i})")).collect();
    c.query(&format!("INSERT INTO big VALUES {}", values.join(",")))
        .unwrap();

    let addr = server.local_addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let blocker = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut b = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                b.query("SELECT COUNT(*) FROM big a JOIN big b ON a.id = b.id")
                    .unwrap();
            }
        })
    };

    // A probe that lands while the worker is idle may finish inside 1 ms;
    // the next one queues behind the blocker.
    let mut timed_out = false;
    for _ in 0..200 {
        match c.query_deadline(
            "SELECT COUNT(*) FROM big b1 WHERE b1.id >= 0 AND b1.v >= 0",
            1,
        ) {
            Err(e) => {
                let se = e.server().expect("server error");
                assert_eq!(se.code, ErrorCode::Timeout, "unexpected: {se}");
                assert!(se.retryable, "TIMEOUT must be retryable");
                timed_out = true;
                break;
            }
            Ok(_) => continue,
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    blocker.join().unwrap();
    assert!(timed_out, "1ms deadline never fired behind a busy worker");

    // The session is NOT poisoned: the same statement under no deadline
    // succeeds on the same connection.
    let r = c.query("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(4000));

    // A transaction survives a timed-out statement inside it.
    c.query("BEGIN").unwrap();
    c.query("UPDATE big SET v = 0 WHERE id = 5").unwrap();
    let _ = c.query_deadline("SELECT COUNT(*) FROM big b2 WHERE b2.id >= 0", 1);
    c.query("COMMIT").unwrap();
    let r = c.query("SELECT v FROM big WHERE id = 5").unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(0));

    let snap = server.health().snapshot();
    assert!(snap.stmts_timed_out >= 1, "timeout counter never moved");
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_retryable_server_busy() {
    // 1 worker, 1-deep queue: two slow statements occupy the server;
    // the third must shed.
    let server = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut setup = connect(&server);
    setup
        .query("CREATE TABLE q (id BIGINT, v BIGINT) STORED AS DUALTABLE")
        .unwrap();
    let values: Vec<String> = (0..30_000).map(|i| format!("({i}, {i})")).collect();
    setup
        .query(&format!("INSERT INTO q VALUES {}", values.join(",")))
        .unwrap();

    let addr = server.local_addr();
    let slow = "SELECT COUNT(*) FROM q a JOIN q b ON a.id = b.id WHERE a.v >= 0";
    // Blockers resubmit the slow statement until told to stop, so the
    // worker + queue stay saturated for as long as the probe needs. A
    // one-shot blocker is racy: the probe's own accepted statement can
    // occupy the single queue slot (shedding the *blocker* instead),
    // and on a fast machine both blockers can finish before the probe
    // ever lands in a full-queue window.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut blockers = Vec::new();
    for _ in 0..2 {
        let stop = stop.clone();
        blockers.push(std::thread::spawn(move || {
            let mut c = Client::connect_retry(addr, Duration::from_secs(5)).unwrap();
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                match c.query(slow) {
                    Ok(r) => assert_eq!(r.rows.len(), 1),
                    Err(e) if e.is_retryable() => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("blocker failed: {e}"),
                }
            }
        }));
    }

    // Hammer with a third connection until SERVER_BUSY. Under a 1/1
    // pool with persistent blockers this sheds within a few rounds.
    let mut c = connect(&server);
    let mut shed = false;
    for _ in 0..2000 {
        match c.query("SELECT 1") {
            Err(ClientError::Server(e)) if e.code == ErrorCode::ServerBusy => {
                assert!(e.retryable, "SERVER_BUSY must be retryable");
                shed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
            Ok(_) => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for b in blockers {
        b.join().unwrap();
    }
    assert!(shed, "bounded queue never shed under a 1-worker pile-up");

    let snap = server.health().snapshot();
    assert!(snap.stmts_shed >= 1);
    assert_eq!(
        snap.stmts_accepted + snap.stmts_shed,
        snap.stmts_submitted,
        "admission accounting must be exact"
    );
    server.shutdown();
}

#[test]
fn failed_multi_table_commit_applies_nothing() {
    let server = start(ServerConfig::default());
    let mut a = connect(&server);
    a.query("CREATE TABLE t1 (id BIGINT, v BIGINT) STORED AS DUALTABLE")
        .unwrap();
    a.query("CREATE TABLE t2 (id BIGINT, v BIGINT) STORED AS DUALTABLE")
        .unwrap();
    a.query("INSERT INTO t1 VALUES (1, 0)").unwrap();
    a.query("INSERT INTO t2 VALUES (1, 0)").unwrap();

    // Session A buffers writes to both tables; a conflicting commit on t2
    // from session B makes A's COMMIT lose on t2.
    a.query("BEGIN").unwrap();
    a.query("UPDATE t1 SET v = 10 WHERE id = 1").unwrap();
    a.query("UPDATE t2 SET v = 10 WHERE id = 1").unwrap();

    let mut b = connect(&server);
    b.query("BEGIN").unwrap();
    b.query("UPDATE t2 SET v = 99 WHERE id = 1").unwrap();
    b.query("COMMIT").unwrap();

    let err = a.query("COMMIT").unwrap_err();
    let se = err.server().expect("server error frame");
    assert_eq!(se.code, ErrorCode::Conflict, "got {se}");
    assert!(se.retryable);
    assert!(
        se.message.contains("'t2'"),
        "names the store that lost: {se}"
    );

    // All or none: t1 kept its value too, t2 kept B's.
    let r = a.query("SELECT v FROM t1").unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(0));
    let r = a.query("SELECT v FROM t2").unwrap();
    assert_eq!(r.rows[0][0], Value::Int64(99));
    server.shutdown();
}

#[test]
fn show_health_exposes_server_tier() {
    let server = start(ServerConfig::default());
    let mut c = connect(&server);
    let r = c.query("SHOW HEALTH").unwrap();
    let server_metrics: Vec<(String, i64)> = r
        .rows
        .iter()
        .filter(|row| row[0] == Value::Utf8("server".into()))
        .map(|row| {
            (
                match &row[1] {
                    Value::Utf8(s) => s.clone(),
                    other => panic!("bad metric {other:?}"),
                },
                match row[2] {
                    Value::Int64(v) => v,
                    ref other => panic!("bad value {other:?}"),
                },
            )
        })
        .collect();
    let names: Vec<&str> = server_metrics.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "sessions_active",
        "queue_depth",
        "workers_busy",
        "stmts_shed",
        "stmts_timed_out",
        "conns_dropped_in_txn",
    ] {
        assert!(
            names.contains(&expected),
            "missing server metric {expected}"
        );
    }
    // This very connection is an active session.
    let active = server_metrics
        .iter()
        .find(|(n, _)| n == "sessions_active")
        .unwrap()
        .1;
    assert!(active >= 1);
    server.shutdown();
}

#[test]
fn shutdown_under_load_drains_and_refuses() {
    let server = start(ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let mut setup = connect(&server);
    setup
        .query("CREATE TABLE s (id BIGINT) STORED AS DUALTABLE")
        .unwrap();
    let values: Vec<String> = (0..5000).map(|i| format!("({i})")).collect();
    setup
        .query(&format!("INSERT INTO s VALUES {}", values.join(",")))
        .unwrap();

    let addr = server.local_addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let mut ok = 0u64;
            let mut refused = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let mut c = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => break, // listener gone: shutdown reached accept
                };
                match c.query("SELECT COUNT(*) FROM s") {
                    Ok(r) => {
                        assert_eq!(r.rows[0][0], Value::Int64(5000));
                        ok += 1;
                    }
                    Err(e) if e.is_retryable() => refused += 1,
                    Err(e) => panic!("non-retryable under shutdown: {e}"),
                }
            }
            (ok, refused)
        }));
    }
    std::thread::sleep(Duration::from_millis(300));
    server.shutdown(); // must drain without panicking or hanging
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut total_ok = 0;
    for c in clients {
        let (ok, _refused) = c.join().unwrap();
        total_ok += ok;
    }
    assert!(total_ok > 0, "no statement completed before shutdown");
}
