//! Multi-session SQL transactions: BEGIN / COMMIT / ROLLBACK over shared
//! DUALTABLE storage (DESIGN.md §13).
//!
//! Two `Session`s share one `DualTableEnv`; each registers the same
//! `DualTableStore`. Buffered writes must be invisible across sessions
//! until COMMIT, reads inside a transaction must be repeatable snapshot
//! reads, and a write-write race must resolve first-committer-wins with a
//! retryable conflict for the loser.

use dt_common::Error;
use dt_hiveql::{Session, TableHandle};
use dualtable::DualTableEnv;

fn two_sessions() -> (Session, Session) {
    let env = DualTableEnv::in_memory();
    let mut a = Session::with_env(env.clone());
    a.execute("CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
        .unwrap();
    a.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
        .unwrap();
    let TableHandle::Dual(store) = a.table("t").unwrap().clone() else {
        panic!("t is DUALTABLE");
    };
    let mut b = Session::with_env(env);
    b.register_dualtable("t", store).unwrap();
    (a, b)
}

fn sum_v(s: &mut Session) -> f64 {
    s.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0]
        .as_f64()
        .unwrap()
}

#[test]
fn buffered_writes_invisible_until_commit() {
    let (mut a, mut b) = two_sessions();
    a.execute("BEGIN").unwrap();
    let r = a.execute("UPDATE t SET v = 10.0 WHERE id = 1").unwrap();
    assert_eq!(r.affected, 1);
    a.execute("INSERT INTO t VALUES (4, 4.0)").unwrap();
    a.execute("DELETE FROM t WHERE id = 3").unwrap();

    // Read-your-own-writes inside the transaction…
    assert_eq!(sum_v(&mut a), 16.0); // 10 + 2 + 4
    assert!(a.in_transaction());
    // …but session B still sees the committed state.
    assert_eq!(sum_v(&mut b), 6.0);

    a.execute("COMMIT").unwrap();
    assert!(!a.in_transaction());
    assert_eq!(sum_v(&mut a), 16.0);
    assert_eq!(sum_v(&mut b), 16.0);
}

#[test]
fn rollback_discards_buffered_writes() {
    let (mut a, mut b) = two_sessions();
    a.execute("START TRANSACTION").unwrap();
    a.execute("DELETE FROM t").unwrap();
    let r = a.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows()[0][0].as_i64().unwrap(), 0);
    a.execute("ROLLBACK").unwrap();
    assert_eq!(sum_v(&mut a), 6.0);
    assert_eq!(sum_v(&mut b), 6.0);
}

#[test]
fn select_in_transaction_is_repeatable_snapshot_read() {
    let (mut a, mut b) = two_sessions();
    a.execute("BEGIN").unwrap();
    assert_eq!(sum_v(&mut a), 6.0); // pins t's snapshot
    b.execute("UPDATE t SET v = 100.0 WHERE id = 2").unwrap();
    assert_eq!(sum_v(&mut b), 104.0);
    // A's transaction keeps reading its pinned snapshot.
    assert_eq!(sum_v(&mut a), 6.0);
    a.execute("COMMIT").unwrap();
    // Autocommit reads see B's update.
    assert_eq!(sum_v(&mut a), 104.0);
}

#[test]
fn first_committer_wins_over_sql() {
    let (mut a, mut b) = two_sessions();
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET v = 10.0 WHERE id = 1").unwrap();
    b.execute("UPDATE t SET v = 20.0 WHERE id = 1").unwrap();
    a.execute("COMMIT").unwrap();
    let err = b.execute("COMMIT").unwrap_err();
    assert!(err.is_conflict(), "expected Conflict, got {err:?}");
    assert!(!b.in_transaction(), "failed COMMIT must close the txn");
    // The loser's write never landed; retry on a fresh snapshot succeeds.
    assert_eq!(sum_v(&mut b), 15.0);
    b.execute("BEGIN").unwrap();
    b.execute("UPDATE t SET v = 20.0 WHERE id = 1").unwrap();
    b.execute("COMMIT").unwrap();
    assert_eq!(sum_v(&mut a), 25.0);
}

#[test]
fn disjoint_writes_both_commit() {
    let (mut a, mut b) = two_sessions();
    a.execute("BEGIN").unwrap();
    b.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET v = 10.0 WHERE id = 1").unwrap();
    b.execute("UPDATE t SET v = 20.0 WHERE id = 2").unwrap();
    a.execute("COMMIT").unwrap();
    b.execute("COMMIT").unwrap();
    assert_eq!(sum_v(&mut a), 33.0);
}

#[test]
fn insert_select_and_join_read_the_overlay() {
    let (mut a, _b) = two_sessions();
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE t SET v = 10.0 WHERE id = 1").unwrap();
    // INSERT … SELECT sources from the transaction's own view.
    a.execute("INSERT INTO t SELECT id + 10, v FROM t WHERE id = 1")
        .unwrap();
    assert_eq!(sum_v(&mut a), 25.0); // 10 + 2 + 3 + 10
                                     // Self-join also routes both sides through the overlay.
    let r = a
        .execute("SELECT COUNT(*) FROM t x JOIN t y ON x.id = y.id WHERE x.v = 10.0")
        .unwrap();
    assert_eq!(r.rows()[0][0].as_i64().unwrap(), 2);
    a.execute("COMMIT").unwrap();
    assert_eq!(sum_v(&mut a), 25.0);
}

#[test]
fn transaction_statement_errors() {
    let (mut a, _b) = two_sessions();
    assert!(matches!(
        a.execute("COMMIT"),
        Err(Error::InvalidArgument(_))
    ));
    assert!(matches!(
        a.execute("ROLLBACK"),
        Err(Error::InvalidArgument(_))
    ));
    a.execute("BEGIN").unwrap();
    assert!(matches!(a.execute("BEGIN"), Err(Error::InvalidArgument(_))));
    assert!(matches!(
        a.execute("INSERT OVERWRITE TABLE t VALUES (9, 9.0)"),
        Err(Error::Unsupported(_))
    ));
    assert!(matches!(
        a.execute("COMPACT TABLE t"),
        Err(Error::Unsupported(_))
    ));
    // The open transaction survives rejected statements.
    assert!(a.in_transaction());
    a.execute("UPDATE t SET v = 0.0 WHERE id = 1").unwrap();
    assert!(matches!(a.execute("DROP TABLE t"), Err(Error::Busy(_))));
    a.execute("ROLLBACK").unwrap();
    assert_eq!(sum_v(&mut a), 6.0);
}

#[test]
fn read_only_commit_is_a_noop() {
    let (mut a, mut b) = two_sessions();
    a.execute("BEGIN").unwrap();
    assert_eq!(sum_v(&mut a), 6.0);
    b.execute("UPDATE t SET v = 50.0 WHERE id = 1").unwrap();
    // A read-only transaction never conflicts.
    a.execute("COMMIT").unwrap();
    assert_eq!(sum_v(&mut a), 55.0);
}

/// Regression (partial multi-table COMMIT): a COMMIT over several
/// tables is all-or-none — when one table conflicts, no table applies, and
/// the whole transaction can simply run again.
#[test]
fn multi_table_commit_conflict_applies_nothing() {
    let env = DualTableEnv::in_memory();
    let mut a = Session::with_env(env.clone());
    for name in ["t", "u"] {
        a.execute(&format!(
            "CREATE TABLE {name} (id BIGINT, v DOUBLE) STORED AS DUALTABLE"
        ))
        .unwrap();
        a.execute(&format!("INSERT INTO {name} VALUES (1, 1.0), (2, 2.0)"))
            .unwrap();
    }
    let mut b = Session::with_env(env);
    for name in ["t", "u"] {
        let TableHandle::Dual(store) = a.table(name).unwrap().clone() else {
            panic!("{name} is DUALTABLE");
        };
        b.register_dualtable(name, store).unwrap();
    }

    // A buffers writes to both tables; B then wins the race on `u`.
    let script = [
        "BEGIN",
        "UPDATE t SET v = 10.0 WHERE id = 1",
        "UPDATE u SET v = 10.0 WHERE id = 1",
    ];
    for sql in script {
        a.execute(sql).unwrap();
    }
    b.execute("UPDATE u SET v = 20.0 WHERE id = 1").unwrap();

    let err = a.execute("COMMIT").unwrap_err();
    assert!(err.is_conflict(), "expected Conflict, got {err:?}");
    assert!(err.is_transient(), "a conflict is retryable: {err:?}");
    let msg = err.to_string();
    assert!(msg.contains("'u'"), "names the store that lost: {msg}");

    let sum = |s: &mut Session, table: &str| {
        s.execute(&format!("SELECT SUM(v) FROM {table}"))
            .unwrap()
            .rows()[0][0]
            .as_f64()
            .unwrap()
    };
    assert_eq!(sum(&mut a, "t"), 3.0, "t applied nothing");
    assert_eq!(sum(&mut a, "u"), 22.0, "u has B's write only");

    // Nothing to untangle: the same transaction simply runs again.
    for sql in script {
        a.execute(sql).unwrap();
    }
    a.execute("COMMIT").unwrap();
    assert_eq!(sum(&mut a, "t"), 12.0);
    assert_eq!(sum(&mut a, "u"), 12.0);
}

/// Regression: DROP TABLE of a sharded table another session has enrolled
/// in an open transaction used to fail *after* the catalog entry was gone
/// (`ShardedTable::drop_table` insisted on being the last handle), leaving
/// the name neither queryable nor re-creatable and its shards leaked.
#[test]
fn drop_sharded_table_under_another_sessions_open_transaction() {
    const CREATE: &str = "CREATE TABLE m (id BIGINT, v DOUBLE) STORED AS DUALTABLE \
                          SHARDED BY RANGE (id) SPLIT AT (10)";
    let mut a = Session::with_env(DualTableEnv::in_memory());
    a.execute(CREATE).unwrap();
    a.execute("INSERT INTO m VALUES (1, 1.0), (11, 11.0)")
        .unwrap();
    let mut b = Session::with_shared(a.env().clone(), a.shared_catalog());

    b.execute("BEGIN").unwrap();
    b.execute("UPDATE m SET v = -1.0 WHERE id = 1").unwrap();

    a.execute("DROP TABLE m").unwrap();
    // The name is free again, and the new table is a different table.
    a.execute(CREATE).unwrap();
    a.execute("INSERT INTO m VALUES (1, 100.0)").unwrap();

    // B's transaction was on the dropped table: it loses cleanly and
    // touches nothing of the new one.
    let err = b.execute("COMMIT").unwrap_err();
    assert!(matches!(err, Error::Conflict(_)), "{err:?}");
    assert!(!b.in_transaction());
    let rows = a.execute("SELECT id, v FROM m").unwrap();
    assert_eq!(rows.rows().len(), 1);
    assert_eq!(rows.rows()[0][1].as_f64().unwrap(), 100.0);
}
