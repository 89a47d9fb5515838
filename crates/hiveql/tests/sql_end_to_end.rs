//! End-to-end HiveQL sessions over every storage handler.

use dt_common::Value;
use dt_hiveql::Session;
use dualtable::{PlanChoice, PlanMode};

fn ints(result: &dt_hiveql::QueryResult, col: usize) -> Vec<i64> {
    result
        .rows()
        .iter()
        .map(|r| r[col].as_i64().unwrap())
        .collect()
}

fn setup(storage: &str) -> Session {
    setup_planned(storage, PlanMode::CostBased)
}

/// [`setup`], with DUALTABLE DML under `plan`.
fn setup_planned(storage: &str, plan: PlanMode) -> Session {
    let mut s = Session::in_memory();
    s.config.dualtable.plan_mode = plan;
    s.execute(&format!(
        "CREATE TABLE t (id BIGINT, grp STRING, v DOUBLE) STORED AS {storage}"
    ))
    .unwrap();
    let mut values = Vec::new();
    for i in 0..50 {
        values.push(format!("({i}, 'g{}', {}.5)", i % 5, i));
    }
    s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    s
}

#[test]
fn select_filter_order_limit_on_all_storages() {
    for storage in ["ORC", "HBASE", "DUALTABLE", "ACID"] {
        let mut s = setup(storage);
        let r = s
            .execute("SELECT id FROM t WHERE id >= 45 ORDER BY id DESC LIMIT 3")
            .unwrap();
        assert_eq!(ints(&r, 0), vec![49, 48, 47], "storage {storage}");
    }
}

#[test]
fn update_and_delete_on_all_storages() {
    for storage in ["ORC", "HBASE", "DUALTABLE", "ACID"] {
        let mut s = setup(storage);
        let r = s.execute("UPDATE t SET v = 0.0 WHERE id < 10").unwrap();
        assert_eq!(r.affected, 10, "storage {storage}");
        let r = s.execute("SELECT COUNT(*) FROM t WHERE v = 0.0").unwrap();
        assert_eq!(ints(&r, 0), vec![10], "storage {storage}");

        let r = s.execute("DELETE FROM t WHERE id % 2 = 0").unwrap();
        assert_eq!(r.affected, 25, "storage {storage}");
        let r = s.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(ints(&r, 0), vec![25], "storage {storage}");
    }
}

/// A SET expression that raises fails its statement, which applies
/// nothing: on every storage, autocommit and inside `BEGIN`, in UPDATE and
/// in MERGE's matched arm. (A raising WHERE still matches nothing.)
#[test]
fn a_raising_set_expression_fails_the_statement() {
    let statements = [
        "UPDATE t SET v = nosuch(v) WHERE id = 1",
        "UPDATE t SET v = name + 1 WHERE id = 2",
        "MERGE INTO t USING src ON t.id = src.id \
         WHEN MATCHED THEN UPDATE SET v = nosuch(src.w)",
    ];
    for storage in ["DUALTABLE", "ORC", "HBASE", "ACID"] {
        for in_txn in [false, true] {
            for sql in statements {
                let case = format!("{storage}, in transaction: {in_txn}, {sql}");
                let mut s = Session::in_memory();
                s.execute(&format!(
                    "CREATE TABLE t (id BIGINT, name STRING, v BIGINT) STORED AS {storage}"
                ))
                .unwrap();
                s.execute("CREATE TABLE src (id BIGINT, w BIGINT)").unwrap();
                s.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20)")
                    .unwrap();
                s.execute("INSERT INTO src VALUES (1, 5), (2, 6)").unwrap();
                if in_txn {
                    s.execute("BEGIN").unwrap();
                }
                let outcome = s.execute(sql).map(|r| r.affected);
                assert!(outcome.is_err(), "{case}: {outcome:?}");
                if in_txn {
                    s.execute("COMMIT").unwrap();
                }
                let r = s.execute("SELECT v FROM t ORDER BY id").unwrap();
                assert_eq!(ints(&r, 0), vec![10, 20], "{case}");
            }
        }
    }
}

#[test]
fn group_by_aggregates() {
    let mut s = setup("DUALTABLE");
    let r = s
        .execute(
            "SELECT grp, COUNT(*), SUM(id), AVG(v), MIN(id), MAX(id) \
             FROM t GROUP BY grp ORDER BY grp",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 5);
    // Group g0: ids 0,5,…,45 — count 10, sum 225.
    assert_eq!(r.rows()[0][0], Value::from("g0"));
    assert_eq!(r.rows()[0][1], Value::Int64(10));
    assert_eq!(r.rows()[0][2], Value::Int64(225));
    assert_eq!(r.rows()[0][4], Value::Int64(0));
    assert_eq!(r.rows()[0][5], Value::Int64(45));
}

/// A SUM of BIGINTs is exact past 2^53 and raises past BIGINT, and an
/// AVG of BIGINTs divides the exact sum: on every storage, under WHERE,
/// under GROUP BY and over a table with deleted rows.
#[test]
fn bigint_sums_are_exact_and_raise_on_overflow() {
    let exact = 9_007_199_254_740_994i64; // 2^53 + 1 + 1
    for storage in ["DUALTABLE", "ORC", "HBASE"] {
        let mut s = Session::in_memory();
        s.execute(&format!(
            "CREATE TABLE t (k BIGINT, v BIGINT) STORED AS {storage}"
        ))
        .unwrap();
        s.execute("INSERT INTO t VALUES (1, 9007199254740992), (1, 1), (1, 1), (2, 7)")
            .unwrap();
        let mut rows = |sql: &str| s.execute(sql).unwrap().rows().to_vec();
        let sum = rows("SELECT SUM(v), AVG(v) FROM t WHERE k = 1");
        assert_eq!(sum[0][0], Value::Int64(exact), "{storage}");
        assert_eq!(sum[0][1], Value::Float64(exact as f64 / 3.0), "{storage}");
        let grouped = rows("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k");
        assert_eq!(
            grouped,
            vec![
                vec![Value::Int64(1), Value::Int64(exact)],
                vec![Value::Int64(2), Value::Int64(7)]
            ],
            "{storage}"
        );
        s.execute("DELETE FROM t WHERE k = 2").unwrap();
        let whole = s.execute("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(whole.rows()[0][0], Value::Int64(exact), "{storage}");

        s.execute("INSERT INTO t VALUES (3, 9223372036854775807), (3, 1)")
            .unwrap();
        for sql in [
            "SELECT SUM(v) FROM t WHERE k = 3",
            "SELECT k, SUM(v) FROM t GROUP BY k",
        ] {
            let r = s.execute(sql);
            assert!(r.is_err(), "{storage}: {sql} gave {r:?}");
        }
        let r = s.execute("SELECT MAX(v) FROM t").unwrap();
        assert_eq!(r.rows()[0][0], Value::Int64(i64::MAX), "{storage}");
    }
}

/// A DOUBLE SUM is the exact sum rounded once, and an AVG divides it:
/// cancellation loses nothing, infinities and overflow behave as IEEE
/// adds do, and the result is the same bits at every degree, file layout
/// and COMPACT — on every storage.
#[test]
fn double_sums_are_exact_and_order_free() {
    let groups: [(i64, &[&str]); 6] = [
        (1, &["1e16", "1.0", "-1e16"]),
        (2, &["0.1"; 10]),
        (3, &["1e309", "1"]),
        (4, &["1e309", "-1e309"]),
        (5, &["1.7976931348623157e308"; 2]),
        (6, &["NULL"; 2]),
    ];
    // Group 7: magnitudes from 1e-3 to 1e12 of both signs, whose f64 sum
    // depends on the order of the adds.
    let spread: Vec<String> = (0..300i64)
        .map(|i| {
            let x = (i * 7919 % 1000 - 500) as f64 * 10f64.powi((i % 16) as i32 - 3);
            format!("{x:e}")
        })
        .collect();
    let mut values = Vec::new();
    for (g, vs) in groups
        .iter()
        .map(|(g, vs)| (*g, vs.iter().map(|v| v.to_string()).collect()))
        .chain([(7, spread)])
    {
        for v in vs {
            values.push(format!("({}, {g}, {v})", values.len() + 1));
        }
    }
    let grouped = "SELECT g, SUM(v), AVG(v), COUNT(v) FROM t GROUP BY g ORDER BY g";
    for storage in ["DUALTABLE", "ORC", "HBASE"] {
        let mut first: Option<String> = None;
        for rows_per_file in [Some(1), None] {
            let mut s = Session::in_memory();
            if let Some(n) = rows_per_file {
                s.config.rows_per_file = n;
                s.config.dualtable.rows_per_file = n;
            }
            s.execute(&format!(
                "CREATE TABLE t (k BIGINT, g BIGINT, v DOUBLE) STORED AS {storage}"
            ))
            .unwrap();
            s.execute(&format!("INSERT INTO t VALUES {}", values.join(", ")))
                .unwrap();
            let probe = s.execute("SELECT SUM(v) FROM t WHERE k <= 3").unwrap();
            assert_eq!(probe.rows()[0][0], Value::Float64(1.0), "{storage}");
            let r = s.execute(grouped).unwrap();
            let float = |row: usize, col: usize| r.rows()[row][col].as_f64().unwrap();
            assert_eq!((float(1, 1), float(1, 2)), (1.0, 0.1), "{storage}");
            assert_eq!(float(0, 2), 1.0 / 3.0, "{storage}");
            for row in [2, 4] {
                assert_eq!(float(row, 1), f64::INFINITY, "{storage} group {}", row + 1);
                assert_eq!(float(row, 2), f64::INFINITY, "{storage} group {}", row + 1);
            }
            assert!(float(3, 1).is_nan() && float(3, 2).is_nan(), "{storage}");
            assert_eq!(
                r.rows()[5][1..],
                [Value::Null, Value::Null, Value::Int64(0)]
            );
            let mut layouts = vec![];
            for degree in [1, 2] {
                let r = dt_engine::with_degree(degree, || s.execute(grouped));
                layouts.push(format!("{:?}", r.unwrap().rows()));
            }
            if storage == "DUALTABLE" {
                s.execute("UPDATE t SET v = v WHERE g = 7 AND k % 3 = 0")
                    .unwrap();
                s.execute("COMPACT TABLE t").unwrap();
                layouts.push(format!("{:?}", s.execute(grouped).unwrap().rows()));
            }
            for layout in layouts {
                let first = first.get_or_insert_with(|| layout.clone());
                assert_eq!(*first, layout, "{storage}, {rows_per_file:?} rows a file");
            }
        }
    }
}

#[test]
fn having_filters_groups() {
    let mut s = setup("ORC");
    let r = s
        .execute(
            "SELECT grp, SUM(id) AS total FROM t GROUP BY grp HAVING SUM(id) > 230 ORDER BY total",
        )
        .unwrap();
    // Sums: g0=225, g1=235, g2=245, g3=255, g4=265.
    assert_eq!(r.rows().len(), 4);
    assert_eq!(r.rows()[0][1], Value::Int64(235));
}

#[test]
fn join_inner_and_left_outer() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE a (id BIGINT, x STRING)").unwrap();
    s.execute("CREATE TABLE b (id BIGINT, y STRING)").unwrap();
    s.execute("INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')")
        .unwrap();
    s.execute("INSERT INTO b VALUES (2, 'b2'), (3, 'b3'), (3, 'b3x')")
        .unwrap();

    let r = s
        .execute("SELECT a.id, b.y FROM a JOIN b ON a.id = b.id ORDER BY a.id, b.y")
        .unwrap();
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0][1], Value::from("b2"));
    assert_eq!(r.rows()[2][1], Value::from("b3x"));

    let r = s
        .execute("SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id, b.y")
        .unwrap();
    assert_eq!(r.rows().len(), 4);
    assert_eq!(r.rows()[0][0], Value::Int64(1));
    assert_eq!(r.rows()[0][1], Value::Null);
}

#[test]
fn join_then_group_by_like_paper_listing2() {
    // The shape of the paper's Listing 2: join + aggregate + IF().
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE meter (dwdm STRING, rq BIGINT, qryhs DOUBLE) STORED AS DUALTABLE")
        .unwrap();
    s.execute("CREATE TABLE stats (dwdm STRING, tjrq BIGINT, tqyhs DOUBLE)")
        .unwrap();
    s.execute("INSERT INTO meter VALUES ('org1', 1, 0.0), ('org2', 1, 0.0), ('org1', 2, 0.0)")
        .unwrap();
    s.execute("INSERT INTO stats VALUES ('org1', 1, 5.0), ('org1', 1, 7.0), ('org2', 1, 3.0)")
        .unwrap();
    let r = s
        .execute(
            "SELECT m.dwdm, m.rq, IF(m.rq = 1, g.total, m.qryhs) AS qryhs \
             FROM meter m LEFT JOIN \
             (SELECT 1 AS one) x ON 1 = 1 \
             LEFT JOIN stats s ON m.dwdm = s.dwdm AND m.rq = s.tjrq \
             GROUP BY m.dwdm, m.rq, g.total",
        )
        .err();
    // Derived tables in FROM are not supported; the equivalent flat query:
    let _ = r;
    let r = s
        .execute(
            "SELECT m.dwdm, m.rq, SUM(s.tqyhs) FROM meter m \
             LEFT JOIN stats s ON m.dwdm = s.dwdm AND m.rq = s.tjrq \
             GROUP BY m.dwdm, m.rq ORDER BY m.dwdm, m.rq",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 3);
    assert_eq!(r.rows()[0][2], Value::Float64(12.0));
    assert_eq!(r.rows()[1][2], Value::Null, "no stats for (org1, 2)");
}

#[test]
fn in_subquery_predicate() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE orders (o_id BIGINT, status STRING) STORED AS DUALTABLE")
        .unwrap();
    s.execute("CREATE TABLE items (i_order BIGINT, qty BIGINT)")
        .unwrap();
    s.execute("INSERT INTO orders VALUES (1, 'open'), (2, 'open'), (3, 'open')")
        .unwrap();
    s.execute("INSERT INTO items VALUES (1, 5), (2, 50), (3, 60)")
        .unwrap();
    let r = s
        .execute(
            "UPDATE orders SET status = 'big' WHERE o_id IN \
             (SELECT i_order FROM items WHERE qty > 40)",
        )
        .unwrap();
    assert_eq!(r.affected, 2);
    let r = s
        .execute("SELECT o_id FROM orders WHERE status = 'big' ORDER BY o_id")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![2, 3]);
}

#[test]
fn dualtable_plan_choice_is_surfaced() {
    let mut s = setup("DUALTABLE");
    // Tiny update → EDIT plan under the cost model.
    let r = s.execute("UPDATE t SET v = 1.0 WHERE id = 7").unwrap();
    let report = r.dml.expect("dual table report");
    assert_eq!(report.plan, PlanChoice::Edit);
    // Full-table update → OVERWRITE.
    let r = s.execute("UPDATE t SET v = 2.0").unwrap();
    let report = r.dml.expect("dual table report");
    assert_eq!(report.plan, PlanChoice::Overwrite);
}

#[test]
fn compact_statement() {
    let mut s = setup("DUALTABLE");
    s.config.dualtable.plan_mode = PlanMode::AlwaysEdit;
    s.execute("DELETE FROM t WHERE id < 25").unwrap();
    s.execute("COMPACT TABLE t").unwrap();
    let r = s.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(ints(&r, 0), vec![25]);
    // COMPACT on plain ORC is rejected.
    let mut s2 = setup("ORC");
    assert!(s2.execute("COMPACT TABLE t").is_err());
}

#[test]
fn insert_select_between_storages() {
    let mut s = setup("ORC");
    s.execute("CREATE TABLE copy (id BIGINT, grp STRING, v DOUBLE) STORED AS DUALTABLE")
        .unwrap();
    let r = s
        .execute("INSERT INTO copy SELECT id, grp, v FROM t WHERE id < 10")
        .unwrap();
    assert_eq!(r.affected, 10);
    let r = s.execute("SELECT COUNT(*) FROM copy").unwrap();
    assert_eq!(ints(&r, 0), vec![10]);
    // Overwrite from a query.
    s.execute("INSERT OVERWRITE TABLE copy SELECT id, grp, v FROM t WHERE id >= 48")
        .unwrap();
    let r = s.execute("SELECT COUNT(*) FROM copy").unwrap();
    assert_eq!(ints(&r, 0), vec![2]);
}

#[test]
fn ddl_show_describe_drop() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE x (a BIGINT)").unwrap();
    s.execute("CREATE TABLE y (b STRING) STORED AS HBASE")
        .unwrap();
    let r = s.execute("SHOW TABLES").unwrap();
    assert_eq!(r.rows().len(), 2);
    let r = s.execute("DESCRIBE y").unwrap();
    assert_eq!(r.rows()[0][0], Value::from("b"));
    assert_eq!(r.rows()[0][1], Value::from("STRING"));
    s.execute("DROP TABLE x").unwrap();
    assert!(s.execute("SELECT * FROM x").is_err());
    assert!(s.execute("DROP TABLE x").is_err());
    s.execute("DROP TABLE IF EXISTS x").unwrap();
    // CREATE IF NOT EXISTS tolerates duplicates.
    s.execute("CREATE TABLE IF NOT EXISTS y (b STRING)")
        .unwrap();
}

#[test]
fn show_health_reports_per_tier_counters() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE t (a BIGINT) STORED AS DUALTABLE")
        .unwrap();
    s.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let r = s.execute("SHOW HEALTH").unwrap();
    assert_eq!(
        r.schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect::<Vec<_>>(),
        vec!["tier", "metric", "value"]
    );
    let tiers: Vec<&str> = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap())
        .collect();
    for tier in ["dfs", "kv", "table"] {
        assert!(tiers.contains(&tier), "missing tier {tier}");
    }
    // A healthy, fault-free session reports all-zero *fault* counters.
    // Only the I/O volume and write-path throughput counters (rewrite
    // fan-out, WAL group commit) tick during normal operation.
    let activity = [
        "bytes_read",
        "bytes_written",
        "read_ops",
        "write_ops",
        "seeks",
        "cache_hits",
        "cache_misses",
        "write_workers_used",
        "group_commits",
        "wal_fsyncs_saved",
    ];
    assert!(r
        .rows()
        .iter()
        .filter(|row| !activity.contains(&row[1].as_str().unwrap()))
        .all(|row| row[2].as_i64().unwrap() == 0));
    let metrics: Vec<&str> = r
        .rows()
        .iter()
        .map(|row| row[1].as_str().unwrap())
        .collect();
    for metric in ["retries", "failovers", "quarantined_replicas", "degraded"] {
        assert!(metrics.contains(&metric), "missing metric {metric}");
    }
}

#[test]
fn show_health_lists_each_metric_under_the_tier_that_records_it() {
    let mut s = Session::in_memory();
    let r = s.execute("SHOW HEALTH").unwrap();
    let rows: Vec<(&str, &str)> = r
        .rows()
        .iter()
        .map(|row| (row[0].as_str().unwrap(), row[1].as_str().unwrap()))
        .collect();
    // Every counter a tier declares, once, under that tier, and no others.
    let declared: Vec<(&str, &str)> = [
        ("dfs", dt_dfs::DfsSnapshot::default().metrics()),
        ("kv", dt_kvstore::KvSnapshot::default().metrics()),
        ("table", dualtable::TableSnapshot::default().metrics()),
        ("server", dualtable::ServerSnapshot::default().metrics()),
        ("shard", dualtable::ShardSnapshot::default().metrics()),
    ]
    .into_iter()
    .flat_map(|(tier, metrics)| metrics.into_iter().map(move |(name, _)| (tier, name)))
    .collect();
    assert_eq!(rows, declared);
    let unique: std::collections::HashSet<_> = rows.iter().collect();
    assert_eq!(unique.len(), rows.len(), "a (tier, metric) pair repeats");
    assert!(rows.len() < 70, "{} rows", rows.len());
    for absent in [
        ("dfs", "ww_conflicts"),
        ("kv", "stmts_shed"),
        ("table", "failovers"),
        ("shard", "cross_shard_commits"),
    ] {
        assert!(!rows.contains(&absent), "{absent:?} is not that tier's");
    }
    for present in [
        ("dfs", "cache_hits"),
        ("kv", "delta_spills"),
        ("table", "ww_conflicts"),
        ("table", "commit_records"),
        ("server", "stmts_shed"),
        ("shard", "scatter_scans"),
    ] {
        assert!(rows.contains(&present), "missing {present:?}");
    }
}

#[test]
fn nulls_and_three_valued_semantics_in_queries() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE n (id BIGINT, v DOUBLE)").unwrap();
    s.execute("INSERT INTO n VALUES (1, 1.0), (2, NULL), (3, 3.0)")
        .unwrap();
    let r = s.execute("SELECT COUNT(*) , COUNT(v) FROM n").unwrap();
    assert_eq!(r.rows()[0], vec![Value::Int64(3), Value::Int64(2)]);
    let r = s.execute("SELECT id FROM n WHERE v > 0").unwrap();
    assert_eq!(r.rows().len(), 2, "NULL comparison filters the row");
    let r = s.execute("SELECT id FROM n WHERE v IS NULL").unwrap();
    assert_eq!(ints(&r, 0), vec![2]);
    let r = s.execute("SELECT SUM(v), AVG(v) FROM n").unwrap();
    assert_eq!(r.rows()[0][0], Value::Float64(4.0));
    assert_eq!(r.rows()[0][1], Value::Float64(2.0));
}

#[test]
fn count_on_empty_table_is_zero() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE e (a BIGINT) STORED AS DUALTABLE")
        .unwrap();
    let r = s.execute("SELECT COUNT(*) FROM e").unwrap();
    assert_eq!(ints(&r, 0), vec![0]);
    let r = s.execute("SELECT SUM(a) FROM e").unwrap();
    assert_eq!(r.rows()[0][0], Value::Null);
}

/// `*` over a join is every column of every table, table by table; the
/// output names of columns two tables share are made unique.
#[test]
fn select_star_over_a_join_qualifies_each_table() {
    let mut s = Session::in_memory();
    s.execute("CREATE TABLE a (id BIGINT, x STRING)").unwrap();
    s.execute("CREATE TABLE b (id BIGINT, y STRING)").unwrap();
    s.execute("INSERT INTO a VALUES (1, 'a1'), (2, 'a2')")
        .unwrap();
    s.execute("INSERT INTO b VALUES (2, 'b2'), (3, 'b3')")
        .unwrap();
    let r = s.execute("SELECT * FROM a JOIN b ON a.id = b.id").unwrap();
    let names: Vec<&str> = r.schema.fields().iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, ["id", "x", "id_1", "y"]);
    let want = [vec![
        Value::Int64(2),
        Value::from("a2"),
        Value::Int64(2),
        Value::from("b2"),
    ]];
    assert_eq!(r.rows(), &want[..]);
}

#[test]
fn select_wildcards() {
    let mut s = setup("ORC");
    let r = s.execute("SELECT * FROM t LIMIT 1").unwrap();
    assert_eq!(r.rows()[0].len(), 3);
    let r = s.execute("SELECT t.* FROM t WHERE id = 5 LIMIT 1").unwrap();
    assert_eq!(r.rows()[0][0], Value::Int64(5));
}

#[test]
fn errors_are_reported() {
    let mut s = Session::in_memory();
    assert!(s.execute("SELECT * FROM missing").is_err());
    assert!(s.execute("TOTALLY NOT SQL").is_err());
    s.execute("CREATE TABLE t (a BIGINT)").unwrap();
    assert!(s.execute("CREATE TABLE t (a BIGINT)").is_err());
    assert!(s.execute("INSERT INTO t VALUES (1, 2)").is_err());
    assert!(s.execute("SELECT nosuchcol FROM t").is_err());
    assert!(s.execute("UPDATE t SET missing = 1").is_err());
}

/// Column references resolve before the scan: a misspelt column costs no
/// read, whichever clause it hides in.
#[test]
fn unknown_column_fails_before_any_read() {
    let mut s = setup("DUALTABLE");
    s.execute("SELECT COUNT(*) FROM t").unwrap();
    let reads = |s: &Session| s.env().dfs.stats().snapshot().read_ops;
    let before = reads(&s);
    for sql in [
        "SELECT nosuch FROM t",
        "SELECT id FROM t WHERE nosuch > 1",
        "SELECT COUNT(*) FROM t GROUP BY nosuch",
        "SELECT id FROM t ORDER BY nosuch",
        "UPDATE t SET v = nosuch + 1",
        "DELETE FROM t WHERE nosuch = 1",
    ] {
        let err = s.execute(sql).unwrap_err().to_string();
        assert!(err.contains("unknown column"), "{sql}: {err}");
    }
    assert_eq!(reads(&s), before, "resolution must not touch storage");
}

#[test]
fn update_with_expression_referencing_row() {
    let mut s = setup("DUALTABLE");
    s.execute("UPDATE t SET v = v * 10 + id WHERE id <= 1")
        .unwrap();
    let r = s
        .execute("SELECT v FROM t WHERE id <= 1 ORDER BY id")
        .unwrap();
    assert_eq!(r.rows()[0][0], Value::Float64(5.0)); // 0.5*10 + 0
    assert_eq!(r.rows()[1][0], Value::Float64(16.0)); // 1.5*10 + 1
}

#[test]
fn paper_style_grid_update_workflow() {
    // Mimics the §II-B flow: recollection updates a tiny slice of a large
    // table; the cost model must pick EDIT and queries must see new values.
    let mut s = Session::in_memory();
    s.execute(
        "CREATE TABLE tj (dwdm STRING, rq BIGINT, rcjl DOUBLE, yhlx STRING) STORED AS DUALTABLE",
    )
    .unwrap();
    let mut tuples = Vec::new();
    for day in 0..36 {
        for user in 0..20 {
            tuples.push(format!(
                "('org{}', {day}, 96.0, 'type{}')",
                user % 4,
                user % 2
            ));
        }
    }
    s.execute(&format!("INSERT INTO tj VALUES {}", tuples.join(",")))
        .unwrap();
    let r = s
        .execute("UPDATE tj SET rcjl = 95.0 WHERE rq = 3 AND yhlx = 'type0'")
        .unwrap();
    assert_eq!(r.affected, 10);
    assert_eq!(r.dml.unwrap().plan, PlanChoice::Edit);
    let r = s
        .execute("SELECT COUNT(*) FROM tj WHERE rcjl = 95.0")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![10]);
}

#[test]
fn case_expressions() {
    let mut s = setup("ORC");
    // Searched CASE.
    let r = s
        .execute(
            "SELECT id, CASE WHEN id < 10 THEN 'low' WHEN id < 40 THEN 'mid' ELSE 'high' END \
             FROM t WHERE id IN (5, 25, 45) ORDER BY id",
        )
        .unwrap();
    assert_eq!(r.rows()[0][1], Value::from("low"));
    assert_eq!(r.rows()[1][1], Value::from("mid"));
    assert_eq!(r.rows()[2][1], Value::from("high"));
    // Simple CASE with no ELSE → NULL.
    let r = s
        .execute("SELECT CASE grp WHEN 'g0' THEN 1 END FROM t WHERE id IN (0, 1) ORDER BY id")
        .unwrap();
    assert_eq!(r.rows()[0][0], Value::Int64(1));
    assert_eq!(r.rows()[1][0], Value::Null);
    // CASE inside aggregate (Q12's shape).
    let r = s
        .execute("SELECT SUM(CASE WHEN id % 2 = 0 THEN 1 ELSE 0 END) FROM t")
        .unwrap();
    assert_eq!(ints(&r, 0), vec![25]);
    // Errors.
    assert!(s.execute("SELECT CASE END FROM t").is_err());
}

#[test]
fn select_distinct() {
    let mut s = setup("DUALTABLE");
    let r = s
        .execute("SELECT DISTINCT grp FROM t ORDER BY grp")
        .unwrap();
    assert_eq!(r.rows().len(), 5);
    assert_eq!(r.rows()[0][0], Value::from("g0"));
    let r = s
        .execute("SELECT DISTINCT grp, id % 2 FROM t ORDER BY grp, id % 2")
        .unwrap();
    assert_eq!(r.rows().len(), 10);
    // DISTINCT respects LIMIT after dedup.
    let r = s.execute("SELECT DISTINCT grp FROM t LIMIT 3").unwrap();
    assert_eq!(r.rows().len(), 3);
}

#[test]
fn explain_statements() {
    let mut s = setup("DUALTABLE");
    // EXPLAIN SELECT shows scan + pushdown + aggregate steps.
    let r = s
        .execute("EXPLAIN SELECT grp, COUNT(*) FROM t WHERE id > 5 GROUP BY grp ORDER BY grp")
        .unwrap();
    let steps: Vec<&str> = r
        .rows()
        .iter()
        .map(|row| row[0].as_str().unwrap())
        .collect();
    assert!(steps.contains(&"scan"));
    assert!(steps.contains(&"pushdown"));
    assert!(steps.contains(&"aggregate"));
    assert!(steps.contains(&"sort"));

    // EXPLAIN UPDATE previews the cost-model plan without executing.
    let before = s.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();
    let r = s
        .execute("EXPLAIN UPDATE t SET v = 0.0 WHERE id = 1")
        .unwrap();
    let plan_row = r
        .rows()
        .iter()
        .find(|row| row[0].as_str() == Some("plan"))
        .expect("plan step");
    assert_eq!(plan_row[1], Value::from("Edit"));
    let after = s.execute("SELECT SUM(v) FROM t").unwrap().rows()[0][0].clone();
    assert_eq!(before, after, "EXPLAIN must not execute the update");

    // EXPLAIN DELETE of everything previews OVERWRITE.
    let r = s.execute("EXPLAIN DELETE FROM t").unwrap();
    let plan_row = r
        .rows()
        .iter()
        .find(|row| row[0].as_str() == Some("plan"))
        .expect("plan step");
    assert_eq!(plan_row[1], Value::from("Overwrite"));

    // Non-DualTable DML explains as a rewrite.
    let mut s2 = setup("ORC");
    let r = s2.execute("EXPLAIN DELETE FROM t WHERE id = 1").unwrap();
    assert!(r
        .rows()
        .iter()
        .any(|row| row[1].as_str().unwrap_or("").contains("OVERWRITE")));
}

#[test]
fn incremental_compaction_sql_surface() {
    let mut s = Session::in_memory();
    s.config.dualtable.rows_per_file = 8;
    s.config.dualtable.plan_mode = PlanMode::AlwaysEdit;
    s.config.dualtable.compaction.max_files_per_cycle = 1;
    s.execute("CREATE TABLE m (id BIGINT, v DOUBLE) STORED AS DUALTABLE")
        .unwrap();
    let values: Vec<String> = (0..24).map(|i| format!("({i}, {i}.5)")).collect();
    s.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
        .unwrap();
    s.execute("UPDATE m SET v = -1.0 WHERE id >= 16").unwrap();

    // The dirtiest file folds; the message reports what happened.
    let r = s.execute("COMPACT TABLE m INCREMENTAL").unwrap();
    assert!(
        r.message.as_deref().unwrap().contains("folded 1 files"),
        "got: {:?}",
        r.message
    );
    // A second cycle finds nothing left to fold.
    let r = s.execute("COMPACT TABLE m INCREMENTAL").unwrap();
    assert!(r.message.as_deref().unwrap().contains("nothing dirty"));

    // SHOW COMPACTION renders mode, state and the lifecycle ledger.
    let show: std::collections::BTreeMap<String, String> = s
        .execute("SHOW COMPACTION")
        .unwrap()
        .rows()
        .iter()
        .map(|row| {
            (
                row[0].as_str().unwrap().to_string(),
                row[1].as_str().unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(show["mode"], "auto");
    assert_eq!(show["state"], "idle");
    assert_eq!(show["started"], "1");
    assert_eq!(show["completed"], "1");
    assert_eq!(show["reason"], "");

    s.execute("SET COMPACTION = OFF").unwrap();
    let r = s.execute("SHOW COMPACTION").unwrap();
    assert!(r
        .rows()
        .iter()
        .any(|row| row[0].as_str() == Some("mode") && row[1].as_str() == Some("off")));
    s.execute("SET COMPACTION = AUTO").unwrap();

    // Folding is a DUALTABLE-only concept.
    s.execute("CREATE TABLE o (id BIGINT) STORED AS ORC")
        .unwrap();
    assert!(s.execute("COMPACT TABLE o INCREMENTAL").is_err());

    // The fold changed layout, never data.
    let r = s.execute("SELECT COUNT(*) FROM m WHERE v = -1.0").unwrap();
    assert_eq!(ints(&r, 0), vec![8]);
    let r = s.execute("SELECT COUNT(*) FROM m").unwrap();
    assert_eq!(ints(&r, 0), vec![24]);
}

/// Every storage checks the statement deadline between two batches: a scan
/// whose first batch cancels it sees that batch and no other, and fails
/// with a timeout — the session's handle stays usable.
#[test]
fn scans_check_the_deadline_between_batches_on_every_storage() {
    use dt_common::Deadline;
    let storages = [
        "ORC",
        "HBASE",
        "ACID",
        "DUALTABLE",
        "DUALTABLE SHARDED BY RANGE (id) SPLIT AT (550)",
    ];
    for storage in storages {
        let mut s = Session::in_memory();
        s.config.dualtable.writer.stripe_rows = 256;
        s.execute(&format!(
            "CREATE TABLE t (id BIGINT, v BIGINT) STORED AS {storage}"
        ))
        .unwrap();
        let t = s.table("t").unwrap();
        t.insert(
            (0..1100)
                .map(|i| vec![Value::Int64(i), Value::Int64(i)])
                .collect(),
        )
        .unwrap();
        let batches = |deadline: &Deadline| {
            let mut seen = 0;
            let scan = t.for_each_batch(None, Some(&[1]), None, deadline, &mut |_| {
                seen += 1;
                deadline.cancel();
                Ok(())
            });
            (seen, scan)
        };
        let (all, scan) = batches(&Deadline::never());
        assert!(scan.is_ok() && all >= 2, "{storage}: {all} batches");
        let (seen, scan) = batches(&Deadline::cancellable());
        assert!(scan.unwrap_err().is_timeout(), "{storage}");
        assert_eq!(seen, 1, "{storage}");
    }
}

/// A GROUP BY over a join checks the statement deadline while it
/// aggregates the joined rows: a deadline that expires after the scans,
/// during the join, fails the statement instead of letting it run on.
#[test]
fn a_group_by_over_a_join_checks_the_deadline() {
    use dt_common::Deadline;
    use std::time::Duration;
    let mut s = Session::in_memory();
    for t in ["a", "b"] {
        s.execute(&format!(
            "CREATE TABLE {t} (id BIGINT, v BIGINT) STORED AS ORC"
        ))
        .unwrap();
        let rows = (0..500).map(|i| vec![Value::Int64(i), Value::Int64(i % 7)]);
        s.table(t).unwrap().insert(rows.collect()).unwrap();
    }
    // A nested-loop join (250,000 pairs, 500 joined rows; about 0.1 s in
    // a release build on a 2-core x86-64 host) aggregated by typed kernels
    // alone, which check no deadline themselves.
    let sql = "SELECT a.v, SUM(b.v) FROM a JOIN b ON a.id - b.id = 0 GROUP BY a.v";
    assert_eq!(s.execute(sql).unwrap().rows().len(), 7);
    let err = s
        .execute_with_deadline(sql, Deadline::after(Duration::from_millis(20)))
        .unwrap_err();
    assert!(err.is_timeout(), "{err}");
}

/// SET widens a BIGINT to a DOUBLE or a DATE exactly as INSERT does: on
/// every storage, under either DUALTABLE plan, autocommit (and inside
/// `BEGIN`, which only DUALTABLE takes), in UPDATE and in MERGE's matched
/// arm.
#[test]
fn set_widens_a_bigint_as_insert_does() {
    for storage in ["ORC", "HBASE", "DUALTABLE", "ACID"] {
        for plan in [PlanMode::AlwaysEdit, PlanMode::AlwaysOverwrite] {
            let txns: &[bool] = match storage {
                "DUALTABLE" => &[false, true],
                _ => &[false],
            };
            for &in_txn in txns {
                let case = format!("{storage}, {plan:?}, in transaction: {in_txn}");
                let mut s = Session::in_memory();
                s.config.dualtable.plan_mode = plan;
                s.execute(&format!(
                    "CREATE TABLE t (id BIGINT, v DOUBLE, d DATE) STORED AS {storage}"
                ))
                .unwrap();
                s.execute("CREATE TABLE src (id BIGINT, w BIGINT)").unwrap();
                s.execute("INSERT INTO t VALUES (1, 1, 1), (2, 2, 2), (3, 3, 3)")
                    .unwrap();
                s.execute("INSERT INTO src VALUES (3, 30)").unwrap();
                if in_txn {
                    s.execute("BEGIN").unwrap();
                }
                for sql in [
                    "UPDATE t SET v = 0 WHERE id = 1",
                    "UPDATE t SET v = id, d = id + 100 WHERE id >= 2",
                    "MERGE INTO t USING src ON t.id = src.id \
                     WHEN MATCHED THEN UPDATE SET v = src.w, d = src.w",
                ] {
                    s.execute(sql)
                        .unwrap_or_else(|e| panic!("{case}: {sql}: {e}"));
                }
                if in_txn {
                    s.execute("COMMIT").unwrap();
                }
                let r = s.execute("SELECT id, v, d FROM t ORDER BY id").unwrap();
                let want = [(1, 0.0, 1), (2, 2.0, 102), (3, 30.0, 30)]
                    .map(|(id, v, d)| vec![Value::Int64(id), Value::Float64(v), Value::Date(d)]);
                assert_eq!(r.rows(), want, "{case}");
            }
        }
    }
}

/// A subquery in a SET expression is planned before any row is read, as
/// one in the WHERE clause is: on every storage, under either plan.
#[test]
fn a_subquery_in_a_set_expression_is_planned() {
    for storage in ["ORC", "HBASE", "DUALTABLE", "ACID"] {
        for plan in [PlanMode::AlwaysEdit, PlanMode::AlwaysOverwrite] {
            let mut s = setup_planned(storage, plan);
            s.execute(
                "UPDATE t SET v = CASE WHEN id IN (SELECT id FROM t WHERE id > 47) \
                 THEN 7.0 ELSE 8.0 END WHERE id >= 45",
            )
            .unwrap_or_else(|e| panic!("{storage}, {plan:?}: {e}"));
            let r = s
                .execute("SELECT v FROM t WHERE id >= 44 ORDER BY id")
                .unwrap();
            let v: Vec<f64> = r.rows().iter().map(|r| r[0].as_f64().unwrap()).collect();
            assert_eq!(v, [44.5, 8.0, 8.0, 8.0, 7.0, 7.0], "{storage}, {plan:?}");
        }
    }
}

/// The same UPDATE through closures — `RowSelector::assign`'s row-by-row
/// default, `expr::eval` on each row — and through SQL — the kernels —
/// writes byte-identical master files under OVERWRITE and identical
/// attached cells under EDIT, over a dirty multi-file table.
#[test]
fn closures_and_kernels_write_the_same_bytes() {
    use dt_common::{DataType, Result, Row, Schema};
    use dt_hiveql::ast::{Expr, Statement};
    use dt_hiveql::expr::{coerce, eval, is_true, Binding, EvalContext};
    use dt_hiveql::{parse, SharedCatalog};
    use dt_orcfile::WriterOptions;
    use dualtable::{Assignment, DualTableConfig, DualTableEnv, DualTableStore, RatioHint};

    let schema = Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("s", DataType::Utf8),
        ("v", DataType::Float64),
        ("d", DataType::Date),
        ("b", DataType::Bool),
    ]);
    let rows: Vec<Row> = (0..300i64)
        .map(|i| {
            let s = match i % 11 {
                0 => Value::Null,
                _ => Value::Utf8(format!("w{}", i % 7)),
            };
            let (v, d) = (Value::Float64(i as f64 / 4.0), Value::Date(i as i32));
            vec![Value::Int64(i), s, v, d, Value::Bool(i % 2 == 0)]
        })
        .collect();
    let twin = || {
        let env = DualTableEnv::in_memory();
        let config = DualTableConfig {
            writer: WriterOptions {
                stripe_rows: 32,
                ..WriterOptions::default()
            },
            rows_per_file: 100,
            ..DualTableConfig::default()
        };
        let table = DualTableStore::create(&env, "k", schema.clone(), config).unwrap();
        table.insert_rows(rows.clone()).unwrap();
        let edit = RatioHint::Explicit(0.0001);
        let id = |r: &Row| r[0].as_i64().unwrap();
        let renamed: [Assignment<'static>; 1] = [(
            1,
            Box::new(|r: &Row| Ok(Value::Utf8(format!("{}x", r[1].as_str().unwrap_or(""))))),
        )];
        table.update(|r| id(r) % 5 == 0, &renamed, edit).unwrap();
        table.delete(|r| id(r) % 13 == 0, edit).unwrap();
        (env, table)
    };
    let files = |env: &DualTableEnv| -> Vec<(String, Vec<u8>)> {
        let mut paths = env.dfs.list("/warehouse/k");
        paths.sort();
        let read = |p: String| (p.clone(), env.dfs.read_to_vec(&p).unwrap());
        paths.into_iter().map(read).collect()
    };
    let cells = |env: &DualTableEnv| {
        let scan = env.kv.table("att_k").unwrap().scan(None, None).unwrap();
        let cells = |e: dt_kvstore::RowEntry| {
            let values = e.cells.into_iter().map(|(q, _, v)| (q, v));
            (e.row, values.collect::<Vec<_>>())
        };
        scan.map(|e| cells(e.unwrap())).collect::<Vec<_>>()
    };

    let sql = "UPDATE k SET v = v * 2 + id, s = upper(s), b = NOT b, d = id + 7, \
               s = CASE WHEN b THEN s ELSE 'odd' END WHERE id % 3 <> 0 AND v > 2";
    let Statement::Update {
        assignments,
        predicate,
        ..
    } = parse(sql).unwrap()
    else {
        panic!("an UPDATE")
    };
    let binding = Binding::from_schema("k", &schema);
    let bound = |e: &Expr| e.clone().bind(&binding).unwrap();
    let filter = bound(predicate.as_ref().unwrap());
    let set: Vec<(usize, Expr)> = assignments
        .iter()
        .map(|(col, e)| (schema.require(col).unwrap(), bound(e)))
        .collect();
    let ctx = EvalContext::default();
    let at = |e: &Expr, r: &Row| eval(e, r, &Binding::default(), &ctx);
    for (plan, ratio) in [(PlanChoice::Overwrite, 1.0), (PlanChoice::Edit, 0.0001)] {
        let (by_rows, a) = twin();
        let closures: Vec<Assignment<'_>> = set
            .iter()
            .map(|(col, e)| {
                let ty = schema.field(*col).data_type;
                let f = move |r: &Row| -> Result<Value> { Ok(coerce(at(e, r)?, ty)) };
                (
                    *col,
                    Box::new(f) as Box<dyn Fn(&Row) -> Result<Value> + Sync>,
                )
            })
            .collect();
        let matches = |r: &Row| at(&filter, r).is_ok_and(|v| is_true(&v));
        let report = a
            .update(matches, &closures, RatioHint::Explicit(ratio))
            .unwrap();
        assert_eq!(report.plan, plan);

        let (by_kernels, b) = twin();
        let mut session = Session::with_shared(by_kernels.clone(), SharedCatalog::new());
        session.register_dualtable("k", b).unwrap();
        session.set_ratio_hint(RatioHint::Explicit(ratio));
        let r = session.execute(sql).unwrap();
        assert_eq!(r.dml.unwrap().plan, plan);
        assert_eq!(r.affected, report.rows_matched, "{plan:?}");
        assert!(report.rows_matched > 50, "{plan:?}");

        assert_eq!(
            files(&by_rows),
            files(&by_kernels),
            "{plan:?}: master files"
        );
        assert_eq!(
            cells(&by_rows),
            cells(&by_kernels),
            "{plan:?}: attached cells"
        );
    }
}
