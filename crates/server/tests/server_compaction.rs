//! The server's background compaction daemon (DESIGN.md §15): folds
//! happen behind live traffic on plain and sharded tables, `SET
//! COMPACTION` flips the mode over the wire, and repeated permanent fold
//! failures switch compaction off with a visible reason. That a queued
//! statement defers the tick is a `ServicePool` unit test.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dt_common::fault::{FaultKind, FaultPlan};
use dt_common::Value;
use dt_hiveql::SharedCatalog;
use dt_server::{Client, Server, ServerConfig};
use dualtable::DualTableEnv;

fn connect(server: &Server) -> Client {
    Client::connect_retry(server.local_addr(), Duration::from_secs(5)).expect("connect")
}

/// Polls `cond` for up to ten seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

fn daemon_config() -> ServerConfig {
    ServerConfig {
        compaction: true,
        compaction_interval_ms: 5,
        ..ServerConfig::default()
    }
}

fn start(env: &DualTableEnv) -> Server {
    Server::start(
        "127.0.0.1:0",
        env.clone(),
        SharedCatalog::new(),
        daemon_config(),
    )
    .expect("server start")
}

/// Makes `t` exist in `storage` with 50 rows and an attached-tier update
/// of ids 0 and 25 — enough dirt for the fold score to pick up every file
/// of `t`, and of each shard when it is split at 25.
fn dirty_table(c: &mut Client, storage: &str) {
    c.query(&format!(
        "CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS {storage}"
    ))
    .unwrap();
    let values: Vec<String> = (0..50).map(|i| format!("({i}, {i}.5)")).collect();
    c.query(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    c.query("UPDATE t SET v = -1.0 WHERE id % 25 = 0").unwrap();
}

/// `SHOW COMPACTION` as (metric, value) pairs.
fn show_compaction(c: &mut Client) -> Vec<(String, String)> {
    let r = c.query("SHOW COMPACTION").unwrap();
    r.rows
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().into(),
                row[1].as_str().unwrap().into(),
            )
        })
        .collect()
}

fn metric(show: &[(String, String)], name: &str) -> String {
    show.iter()
        .find(|(m, _)| m == name)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("missing metric {name}"))
}

/// `started = completed + lost_race + aborted`.
fn assert_ledger_exact(env: &DualTableEnv) {
    let snap = env.health.snapshot();
    assert_eq!(
        snap.compactions_completed + snap.compactions_lost_race + snap.compactions_aborted,
        snap.compactions_started,
        "{snap:?}"
    );
}

#[test]
fn daemon_folds_dirty_tables_behind_live_traffic() {
    for storage in ["DUALTABLE", "DUALTABLE SHARDED BY RANGE (id) SPLIT AT (25)"] {
        let env = DualTableEnv::in_memory();
        let server = start(&env);
        let mut c = connect(&server);
        dirty_table(&mut c, storage);

        let shards: Vec<String> = show_compaction(&mut c)
            .into_iter()
            .filter_map(|(m, _)| m.strip_prefix("t.").map(str::to_string))
            .collect();
        let folded = |c: &mut Client, shard: &str| -> u64 {
            let ledger = metric(&show_compaction(c), &format!("t.{shard}"));
            let folded = ledger.split(' ').find_map(|kv| kv.strip_prefix("folded="));
            folded.expect("a folded count").parse().unwrap()
        };
        assert!(
            eventually(|| env.health.snapshot().compactions_completed >= 1),
            "{storage}: daemon never folded: {:?}",
            env.health.snapshot()
        );
        for shard in &shards {
            assert!(
                eventually(|| folded(&mut c, shard) >= 1),
                "{storage}: daemon never folded t.{shard}"
            );
        }
        assert_eq!(shards.len(), usize::from(storage.contains("SHARDED")) * 2);

        // The fold changed layout, never data — over the same wire.
        let r = c.query("SELECT COUNT(*) FROM t WHERE v = -1.0").unwrap();
        assert_eq!(r.rows[0][0], Value::Int64(2));
        let r = c.query("SELECT COUNT(*), SUM(id) FROM t").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int64(50), Value::Int64(1225)]);

        // SHOW COMPACTION reflects the daemon's ledger.
        let show = show_compaction(&mut c);
        assert_eq!(metric(&show, "mode"), "auto");
        assert_eq!(metric(&show, "reason"), "");
        assert!(metric(&show, "completed").parse::<u64>().unwrap() >= 1);

        // Ledger exactness holds while the daemon keeps ticking.
        assert_ledger_exact(&env);
        server.shutdown();
    }
}

#[test]
fn set_compaction_off_idles_the_daemon_and_auto_resumes_it() {
    let env = DualTableEnv::in_memory();
    let server = start(&env);
    let mut c = connect(&server);

    c.query("SET COMPACTION = OFF").unwrap();
    dirty_table(&mut c, "DUALTABLE");
    // Plenty of daemon ticks pass; none may open the ledger while OFF.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        env.health.snapshot().compactions_started,
        0,
        "OFF mode must keep the daemon idle"
    );

    c.query("SET COMPACTION = AUTO").unwrap();
    assert!(
        eventually(|| env.health.snapshot().compactions_completed >= 1),
        "daemon never resumed after SET COMPACTION = AUTO"
    );
    server.shutdown();
}

/// Transient fold failures back off and retry without end; repeated
/// permanent ones switch compaction off with the error as its reason, and
/// `SET COMPACTION = AUTO` re-arms the daemon once the fault is healed.
#[test]
fn repeated_permanent_fold_failures_switch_compaction_off() {
    let plan = Arc::new(FaultPlan::new(7));
    plan.set_armed(false);
    // Faults on the master tier only (the attached tier's are the next
    // test's).
    let faulty = DualTableEnv::in_memory_faulty(plan.clone()).expect("faulty env");
    let env = DualTableEnv::new(faulty.dfs.clone(), DualTableEnv::in_memory().kv).expect("env");
    let server = start(&env);
    let mut c = connect(&server);
    c.query("SET COMPACTION = OFF").unwrap();
    dirty_table(&mut c, "DUALTABLE");

    // A write outage longer than a fold's retries: folds fail, compaction
    // stays on, and the fold that outlives the outage swings in.
    plan.set_armed(true);
    plan.fail_transient_next(FaultKind::TransientWriteError, 24);
    c.query("SET COMPACTION = AUTO").unwrap();
    assert!(eventually(|| {
        let show = show_compaction(&mut c);
        assert_eq!(
            metric(&show, "mode"),
            "auto",
            "a transient fault switched it off"
        );
        env.health.snapshot().compactions_completed >= 1
    }));
    let snap = env.health.snapshot();
    assert!(snap.compactions_aborted >= 3, "{snap:?}");
    assert_ledger_exact(&env);

    // Permanent write errors on every fold: the third switches it off.
    // The daemon is off while the faults are queued, so no fold can slip
    // in between the new dirt and the faults.
    c.query("SET COMPACTION = OFF").unwrap();
    plan.set_armed(false);
    c.query("UPDATE t SET v = -2.0 WHERE id % 25 = 1").unwrap();
    plan.set_armed(true);
    for _ in 0..64 {
        plan.fail_next(FaultKind::WriteError);
    }
    c.query("SET COMPACTION = AUTO").unwrap();
    assert!(
        eventually(|| metric(&show_compaction(&mut c), "mode") == "off"),
        "repeated permanent failures never switched compaction off: {:?}",
        env.health.snapshot()
    );
    let reason = metric(&show_compaction(&mut c), "reason");
    assert!(reason.contains("WriteError"), "reason: {reason:?}");
    let started = env.health.snapshot().compactions_started;
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        env.health.snapshot().compactions_started,
        started,
        "OFF folds nothing"
    );

    // Healed, AUTO re-arms the daemon, clears the reason and folds again.
    plan.set_armed(false);
    let completed = env.health.snapshot().compactions_completed;
    c.query("SET COMPACTION = AUTO").unwrap();
    assert_eq!(metric(&show_compaction(&mut c), "reason"), "");
    assert!(
        eventually(|| env.health.snapshot().compactions_completed > completed),
        "AUTO did not re-arm the daemon"
    );
    let r = c
        .query("SELECT COUNT(*), SUM(v) FROM t WHERE v < 0")
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Int64(4), Value::Float64(-6.0)]);
    assert_ledger_exact(&env);
    server.shutdown();
}

/// Permanent write errors in the attached tier during a fold put its
/// store in read-only degraded mode until a reopen. Every later write is
/// refused permanently too, so the daemon switches compaction off with
/// the error as its reason instead of retrying a fold that cannot land.
#[test]
fn permanent_attached_tier_failures_switch_compaction_off() {
    let plan = Arc::new(FaultPlan::new(11));
    plan.set_armed(false);
    let faulty = DualTableEnv::in_memory_faulty(plan.clone()).expect("faulty env");
    let env = DualTableEnv::new(DualTableEnv::in_memory().dfs, faulty.kv.clone()).expect("env");
    let server = start(&env);
    let mut c = connect(&server);
    c.query("SET COMPACTION = OFF").unwrap();
    dirty_table(&mut c, "DUALTABLE");

    plan.set_armed(true);
    for _ in 0..64 {
        plan.fail_next(FaultKind::WriteError);
    }
    c.query("SET COMPACTION = AUTO").unwrap();
    assert!(
        eventually(|| metric(&show_compaction(&mut c), "mode") == "off"),
        "permanent attached-tier failures never switched compaction off: {:?}",
        env.health.snapshot()
    );
    assert!(
        env.kv.health_snapshot().degraded > 0,
        "the faults never reached the attached tier"
    );
    let reason = metric(&show_compaction(&mut c), "reason");
    assert!(!reason.is_empty(), "OFF without a reason");
    assert_ledger_exact(&env);
    server.shutdown();
}
