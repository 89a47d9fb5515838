//! MERGE INTO — the proprietary upsert the paper's Table I counts among
//! the grid's DML statements (Hive 0.11 had no equivalent).

use dt_common::Value;
use dt_hiveql::Session;

fn setup(storage: &str) -> Session {
    let mut s = Session::in_memory();
    s.execute(&format!(
        "CREATE TABLE archive (id BIGINT, org STRING, v DOUBLE) STORED AS {storage}"
    ))
    .unwrap();
    s.execute("CREATE TABLE staging (id BIGINT, org STRING, v DOUBLE)")
        .unwrap();
    s.execute("INSERT INTO archive VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0)")
        .unwrap();
    s.execute("INSERT INTO staging VALUES (2, 'b2', 20.0), (3, 'c2', 30.0), (9, 'new', 90.0)")
        .unwrap();
    s
}

#[test]
fn merge_upserts_on_all_storages() {
    for storage in ["ORC", "HBASE", "DUALTABLE", "ACID"] {
        let mut s = setup(storage);
        let r = s
            .execute(
                "MERGE INTO archive USING staging ON archive.id = staging.id \
                 WHEN MATCHED THEN UPDATE SET v = staging.v, org = staging.org \
                 WHEN NOT MATCHED THEN INSERT VALUES (staging.id, staging.org, staging.v)",
            )
            .unwrap();
        assert_eq!(r.affected, 3, "{storage}: 2 updates + 1 insert");
        let r = s
            .execute("SELECT id, org, v FROM archive ORDER BY id")
            .unwrap();
        let got: Vec<(i64, String, f64)> = r
            .rows()
            .iter()
            .map(|row| {
                (
                    row[0].as_i64().unwrap(),
                    row[1].as_str().unwrap().to_string(),
                    row[2].as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (1, "a".into(), 1.0),
                (2, "b2".into(), 20.0),
                (3, "c2".into(), 30.0),
                (9, "new".into(), 90.0),
            ],
            "storage {storage}"
        );
    }
}

#[test]
fn merge_update_only_branch() {
    let mut s = setup("DUALTABLE");
    let r = s
        .execute(
            "MERGE INTO archive USING staging ON archive.id = staging.id \
             WHEN MATCHED THEN UPDATE SET v = archive.v + staging.v",
        )
        .unwrap();
    assert_eq!(r.affected, 2);
    let r = s.execute("SELECT COUNT(*) FROM archive").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int64(3), "no inserts happened");
    let r = s.execute("SELECT v FROM archive WHERE id = 2").unwrap();
    assert_eq!(r.rows()[0][0], Value::Float64(22.0));
}

#[test]
fn merge_insert_only_branch() {
    let mut s = setup("DUALTABLE");
    let r = s
        .execute(
            "MERGE INTO archive USING staging ON archive.id = staging.id \
             WHEN NOT MATCHED THEN INSERT VALUES (staging.id, staging.org, staging.v)",
        )
        .unwrap();
    assert_eq!(r.affected, 1);
    let r = s.execute("SELECT v FROM archive WHERE id = 2").unwrap();
    assert_eq!(
        r.rows()[0][0],
        Value::Float64(2.0),
        "matched rows untouched"
    );
}

#[test]
fn merge_with_residual_on_condition() {
    let mut s = setup("ORC");
    // Only rows whose staging value exceeds 25 count as matched.
    let r = s
        .execute(
            "MERGE INTO archive USING staging \
             ON archive.id = staging.id AND staging.v > 25.0 \
             WHEN MATCHED THEN UPDATE SET v = staging.v",
        )
        .unwrap();
    assert_eq!(r.affected, 1, "only id=3 passes the residual condition");
    let r = s.execute("SELECT v FROM archive ORDER BY id").unwrap();
    assert_eq!(r.rows()[1][0], Value::Float64(2.0));
    assert_eq!(r.rows()[2][0], Value::Float64(30.0));
}

#[test]
fn merge_with_source_alias() {
    let mut s = setup("DUALTABLE");
    let r = s
        .execute(
            "MERGE INTO archive USING staging src ON archive.id = src.id \
             WHEN MATCHED THEN UPDATE SET v = src.v * 2",
        )
        .unwrap();
    assert_eq!(r.affected, 2);
    let r = s.execute("SELECT v FROM archive WHERE id = 3").unwrap();
    assert_eq!(r.rows()[0][0], Value::Float64(60.0));
}

#[test]
fn merge_errors() {
    let mut s = setup("ORC");
    // No WHEN clause.
    assert!(s
        .execute("MERGE INTO archive USING staging ON archive.id = staging.id")
        .is_err());
    // Non-equi ON.
    assert!(s
        .execute(
            "MERGE INTO archive USING staging ON archive.id > staging.id \
             WHEN MATCHED THEN UPDATE SET v = 0.0"
        )
        .is_err());
    // Wrong insert arity.
    assert!(s
        .execute(
            "MERGE INTO archive USING staging ON archive.id = staging.id \
             WHEN NOT MATCHED THEN INSERT VALUES (staging.id)"
        )
        .is_err());
    // Unknown tables.
    assert!(s
        .execute(
            "MERGE INTO nosuch USING staging ON nosuch.id = staging.id \
             WHEN MATCHED THEN UPDATE SET v = 0.0"
        )
        .is_err());
}

/// `archive` as `(id, org, v)` rows, in id order.
fn archive(s: &mut Session) -> Vec<(i64, String, f64)> {
    let r = s
        .execute("SELECT id, org, v FROM archive ORDER BY id")
        .unwrap();
    r.rows()
        .iter()
        .map(|row| {
            (
                row[0].as_i64().unwrap(),
                row[1].as_str().unwrap().to_string(),
                row[2].as_f64().unwrap(),
            )
        })
        .collect()
}

const UPSERT: &str = "MERGE INTO archive USING staging ON archive.id = staging.id \
     WHEN MATCHED THEN UPDATE SET v = staging.v, org = staging.org \
     WHEN NOT MATCHED THEN INSERT VALUES (staging.id, staging.org, staging.v)";

/// A MERGE whose insert branch is malformed fails before it writes: its
/// matched branch must not have updated anything either.
#[test]
fn a_failed_merge_applies_nothing_on_every_storage() {
    for storage in ["ORC", "HBASE", "DUALTABLE", "ACID"] {
        let mut s = setup(storage);
        let before = archive(&mut s);
        let err = s
            .execute(
                "MERGE INTO archive USING staging ON archive.id = staging.id \
                 WHEN MATCHED THEN UPDATE SET v = 0.0 \
                 WHEN NOT MATCHED THEN INSERT VALUES (staging.id, staging.org)",
            )
            .unwrap_err();
        assert!(
            matches!(err, dt_common::Error::Schema(_)),
            "{storage}: {err:?}"
        );
        assert_eq!(archive(&mut s), before, "storage {storage}");
    }
}

/// Inside `BEGIN`, a MERGE buffers into the session's transaction: its own
/// reads see it, and ROLLBACK discards all of it.
#[test]
fn merge_inside_a_transaction_rolls_back_whole() {
    let mut s = setup("DUALTABLE");
    let before = archive(&mut s);
    s.execute("BEGIN").unwrap();
    let r = s.execute(UPSERT).unwrap();
    assert_eq!(r.affected, 3);
    assert_eq!(archive(&mut s).len(), 4, "the transaction reads its merge");
    s.execute("ROLLBACK").unwrap();
    assert_eq!(archive(&mut s), before);
}

/// Inside `BEGIN`, a MERGE lands once, at COMMIT.
#[test]
fn merge_inside_a_transaction_commits_once() {
    let mut s = setup("DUALTABLE");
    s.execute("BEGIN").unwrap();
    s.execute(UPSERT).unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(
        archive(&mut s),
        vec![
            (1, "a".into(), 1.0),
            (2, "b2".into(), 20.0),
            (3, "c2".into(), 30.0),
            (9, "new".into(), 90.0),
        ]
    );
}

/// Inside `BEGIN`, a MERGE reads a DUALTABLE source through the
/// transaction: rows the transaction inserted into it take part.
#[test]
fn merge_inside_a_transaction_reads_its_own_source_writes() {
    let mut s = Session::in_memory();
    for table in ["archive", "staging"] {
        s.execute(&format!(
            "CREATE TABLE {table} (id BIGINT, org STRING, v DOUBLE) STORED AS DUALTABLE"
        ))
        .unwrap();
    }
    s.execute("INSERT INTO archive VALUES (1, 'a', 1.0)")
        .unwrap();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO staging VALUES (1, 'a2', 10.0), (5, 'e', 50.0)")
        .unwrap();
    assert_eq!(s.execute(UPSERT).unwrap().affected, 2);
    s.execute("COMMIT").unwrap();
    assert_eq!(
        archive(&mut s),
        vec![(1, "a2".into(), 10.0), (5, "e".into(), 50.0)]
    );
}

/// An autocommit MERGE on a DUALTABLE is one pinned transaction: beside a
/// writer committing its rows first it may lose first-committer-wins, and
/// then it returns a retryable Conflict having applied nothing — its
/// insert half included.
#[test]
fn an_autocommit_merge_that_loses_applies_nothing() {
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
    let mut s = setup("DUALTABLE");
    let mut other = Session::with_shared(s.env().clone(), s.shared_catalog());
    let done = &AtomicBool::new(false);
    let landed: Vec<i64> = std::thread::scope(|scope| {
        scope.spawn(move || {
            while !done.load(Relaxed) {
                other
                    .execute("UPDATE archive SET v = v + 1.0 WHERE id = 2")
                    .unwrap();
            }
        });
        let mut landed = Vec::new();
        for id in 1000..1100 {
            s.execute(&format!(
                "INSERT OVERWRITE TABLE staging VALUES (2, 'b2', 20.0), ({id}, 'n', 0.0)"
            ))
            .unwrap();
            match s.execute(UPSERT) {
                Ok(_) => landed.push(id),
                Err(e) => assert!(e.is_conflict(), "{e:?}"),
            }
        }
        done.store(true, Relaxed);
        landed
    });
    let rows = archive(&mut s).into_iter().map(|row| row.0);
    assert_eq!(rows.filter(|&id| id >= 1000).collect::<Vec<_>>(), landed);
}
