//! The SQL surface of range-sharded tables: `SHARDED BY RANGE` DDL,
//! routed DML with per-shard plan messages, `SHOW SHARDS`, the shard
//! health tier, scatter/prune lines in EXPLAIN, and transactional
//! cross-shard sessions.

use dt_common::Value;
use dt_hiveql::Session;

fn ints(result: &dt_hiveql::QueryResult, col: usize) -> Vec<i64> {
    result
        .rows()
        .iter()
        .map(|r| r[col].as_i64().unwrap())
        .collect()
}

fn setup() -> Session {
    let mut s = Session::in_memory();
    s.execute(
        "CREATE TABLE t (id BIGINT, v BIGINT) STORED AS DUALTABLE \
         SHARDED BY RANGE (id) SPLIT AT (100, 200)",
    )
    .unwrap();
    let values: Vec<String> = (0..300)
        .step_by(10)
        .map(|i| format!("({i}, {i})"))
        .collect();
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    s
}

#[test]
fn sharded_ddl_and_show_shards() {
    let mut s = setup();
    let r = s
        .execute("CREATE TABLE empty3 (k BIGINT) STORED AS DUALTABLE SHARDED BY RANGE (k) SPLIT AT (5, 6)")
        .unwrap();
    assert!(
        r.message.as_deref().unwrap().contains("(3 shards)"),
        "DDL ack: {:?}",
        r.message
    );

    let r = s.execute("SHOW SHARDS").unwrap();
    let names: Vec<&str> = r.schema.fields().iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "table_name",
            "shard",
            "range",
            "rows",
            "master_files",
            "attached_entries"
        ]
    );
    // 3 shards of `t` + 3 empty shards of `empty3`.
    assert_eq!(r.rows().len(), 6);
    let t_rows: Vec<&dt_common::Row> = r
        .rows()
        .iter()
        .filter(|row| row[0] == Value::Utf8("t".into()))
        .collect();
    assert_eq!(t_rows.len(), 3);
    assert_eq!(t_rows[0][2], Value::Utf8("[-inf, 100)".into()));
    assert_eq!(t_rows[1][2], Value::Utf8("[100, 200)".into()));
    assert_eq!(t_rows[2][2], Value::Utf8("[200, +inf)".into()));
    // 0..300 step 10: 10 keys per shard range.
    assert_eq!(
        t_rows.iter().map(|r| r[3].as_i64().unwrap()).sum::<i64>(),
        30
    );

    // Sharding requires DUALTABLE storage and an existing BIGINT column.
    assert!(s
        .execute("CREATE TABLE bad (k BIGINT) STORED AS ORC SHARDED BY RANGE (k)")
        .is_err());
    assert!(s
        .execute("CREATE TABLE bad (k STRING) STORED AS DUALTABLE SHARDED BY RANGE (k)")
        .is_err());
    assert!(s
        .execute("CREATE TABLE bad (k BIGINT) STORED AS DUALTABLE SHARDED BY RANGE (nope)")
        .is_err());
    // Split points must be strictly ascending.
    assert!(s
        .execute(
            "CREATE TABLE bad (k BIGINT) STORED AS DUALTABLE SHARDED BY RANGE (k) SPLIT AT (5, 5)"
        )
        .is_err());
}

#[test]
fn sharded_select_and_routed_dml() {
    let mut s = setup();
    let r = s
        .execute("SELECT id FROM t WHERE id >= 100 AND id < 200 ORDER BY id")
        .unwrap();
    assert_eq!(ints(&r, 0), (100..200).step_by(10).collect::<Vec<i64>>());

    // Point UPDATE routes to exactly one shard, reported in the message.
    let r = s.execute("UPDATE t SET v = 1 WHERE id = 150").unwrap();
    assert_eq!(r.affected, 1);
    let msg = r.message.as_deref().unwrap();
    assert!(
        msg.contains("across 1 shard(s)"),
        "point update message: {msg}"
    );

    // A full-table DELETE fans out to all three shards.
    let r = s.execute("DELETE FROM t WHERE v >= 0").unwrap();
    assert_eq!(r.affected, 30);
    let msg = r.message.as_deref().unwrap();
    assert!(msg.contains("across 3 shard(s)"), "fan-out message: {msg}");
    let r = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ints(&r, 0), vec![0]);
}

#[test]
fn explain_shows_scatter_and_pruning() {
    let mut s = setup();
    let r = s
        .execute("EXPLAIN SELECT * FROM t WHERE id >= 210")
        .unwrap();
    let text: Vec<String> = r
        .rows()
        .iter()
        .map(|row| format!("{} {}", row[0].as_str().unwrap(), row[1].as_str().unwrap()))
        .collect();
    let scatter = text
        .iter()
        .find(|l| l.starts_with("scatter"))
        .expect("EXPLAIN SELECT must have a scatter line");
    assert!(
        scatter.contains("1 of 3 shard(s)")
            && scatter.contains("one after another, in range order")
            && !scatter.contains("parallel")
            && scatter.contains("2 pruned by range"),
        "scatter line: {scatter}"
    );

    let r = s
        .execute("EXPLAIN UPDATE t SET v = 0 WHERE id < 100")
        .unwrap();
    let text: Vec<String> = r
        .rows()
        .iter()
        .map(|row| format!("{} {}", row[0].as_str().unwrap(), row[1].as_str().unwrap()))
        .collect();
    assert!(
        text.iter().any(|l| l.contains("1 of 3 shard(s)")),
        "EXPLAIN UPDATE prunes by range: {text:?}"
    );
    assert!(
        text.iter().any(|l| l.starts_with("shard 0")),
        "EXPLAIN UPDATE previews the matched shard: {text:?}"
    );
}

#[test]
fn show_health_has_shard_tier() {
    let mut s = setup();
    // One scatter scan with two shards pruned.
    s.execute("SELECT * FROM t WHERE id >= 210").unwrap();
    let metric = |s: &mut Session, tier: &str, name: &str| -> i64 {
        let r = s.execute("SHOW HEALTH").unwrap();
        r.rows()
            .iter()
            .find(|row| row[0] == Value::Utf8(tier.into()) && row[1] == Value::Utf8(name.into()))
            .unwrap_or_else(|| panic!("missing {tier} metric {name}"))[2]
            .as_i64()
            .unwrap()
    };
    assert_eq!(metric(&mut s, "shard", "shards_total"), 3);
    assert!(metric(&mut s, "shard", "scatter_scans") >= 1);
    assert!(metric(&mut s, "shard", "shards_pruned_by_range") >= 2);

    // The setup INSERT wrote a file into each of three shards: one
    // decision record. A one-shard autocommit UPDATE and a one-shard
    // COMMIT write none; a COMMIT touching several shards writes one.
    assert_eq!(metric(&mut s, "table", "commit_records"), 1);
    s.execute("UPDATE t SET v = 2 WHERE id = 150").unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = 3 WHERE id = 150").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(metric(&mut s, "table", "commit_records"), 1);
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (1, 1), (101, 1), (201, 1)")
        .unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(metric(&mut s, "table", "commit_records"), 2);
    let r = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ints(&r, 0), vec![33]);
}

#[test]
fn transactions_and_compaction_counters() {
    let mut s = setup();
    // Snapshot isolation across shards: a transaction's reads don't see
    // later autocommit writes... which must conflict at COMMIT only if
    // they collide. Here the txn only reads, so COMMIT is clean.
    s.execute("BEGIN").unwrap();
    let r = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ints(&r, 0), vec![30]);
    s.execute("COMMIT").unwrap();

    // Transactional cross-shard write: all or none, here all.
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = -1 WHERE id % 100 = 50")
        .unwrap();
    s.execute("COMMIT").unwrap();
    let r = s.execute("SELECT COUNT(*) FROM t WHERE v = -1").unwrap();
    assert_eq!(ints(&r, 0), vec![3]);

    // SHOW COMPACTION carries one fold-ledger row per shard.
    s.execute("COMPACT TABLE t").unwrap();
    let r = s.execute("SHOW COMPACTION").unwrap();
    let metrics: Vec<&str> = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap())
        .collect();
    for shard in ["t.s0", "t.s1", "t.s2"] {
        assert!(
            metrics.contains(&shard),
            "SHOW COMPACTION missing {shard}: {metrics:?}"
        );
    }
}

#[test]
fn sharded_drop_and_recreate() {
    let mut s = setup();
    s.execute("DROP TABLE t").unwrap();
    assert!(s.execute("SELECT * FROM t").is_err());
    // The shard map is gone too: the name is reusable, unsharded.
    s.execute("CREATE TABLE t (id BIGINT) STORED AS DUALTABLE")
        .unwrap();
    s.execute("INSERT INTO t VALUES (7)").unwrap();
    let r = s.execute("SELECT id FROM t").unwrap();
    assert_eq!(ints(&r, 0), vec![7]);
    let r = s.execute("SHOW SHARDS").unwrap();
    assert!(r.rows().is_empty(), "unsharded table must not list shards");
}

/// Regression: an UPDATE that assigns the shard key would leave the row
/// in a shard whose range no longer contains it, where range pruning
/// never looks (`WHERE id = 180` found nothing, the range count was one
/// short). Autocommit, transactional and MERGE's matched branch all
/// refuse it before scanning, and the table is untouched.
#[test]
fn update_of_the_shard_key_is_rejected() {
    let mut s = Session::in_memory();
    s.execute(
        "CREATE TABLE m (id BIGINT, v BIGINT) STORED AS DUALTABLE \
         SHARDED BY RANGE (id) SPLIT AT (100, 200)",
    )
    .unwrap();
    s.execute("INSERT INTO m VALUES (1, 10), (150, 20), (250, 30)")
        .unwrap();
    s.execute("CREATE TABLE src (id BIGINT, v BIGINT) STORED AS ORC")
        .unwrap();
    s.execute("INSERT INTO src VALUES (1, 180)").unwrap();
    let unsupported = |r: dt_common::Result<dt_hiveql::QueryResult>| {
        let err = r.unwrap_err();
        assert!(matches!(err, dt_common::Error::Unsupported(_)), "{err:?}");
    };

    let reads_before = s.env().dfs.stats().snapshot().read_ops;
    unsupported(s.execute("UPDATE m SET id = 180 WHERE id = 1"));
    assert_eq!(
        s.env().dfs.stats().snapshot().read_ops,
        reads_before,
        "rejected before any scan"
    );
    unsupported(s.execute(
        "MERGE INTO m USING src ON m.id = src.id WHEN MATCHED THEN UPDATE SET id = src.v",
    ));
    s.execute("BEGIN").unwrap();
    unsupported(s.execute("UPDATE m SET id = 180 WHERE id = 1"));
    // Other columns stay updatable, and the session is not poisoned.
    s.execute("UPDATE m SET v = 11 WHERE id = 1").unwrap();
    s.execute("COMMIT").unwrap();

    let r = s.execute("SELECT id, v FROM m ORDER BY id").unwrap();
    assert_eq!(ints(&r, 0), vec![1, 150, 250]);
    assert_eq!(ints(&r, 1), vec![11, 20, 30]);
    let r = s.execute("SELECT COUNT(*) FROM m WHERE id >= 100 AND id < 200");
    assert_eq!(ints(&r.unwrap(), 0), vec![1]);
    assert!(s
        .execute("SELECT id FROM m WHERE id = 180")
        .unwrap()
        .rows()
        .is_empty());
}
