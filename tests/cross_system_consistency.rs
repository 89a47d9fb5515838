//! The four storage handlers must be observationally equivalent: the same
//! workload (DDL + loads + DML + queries) produces the same answers on
//! stock Hive (ORC), Hive-on-HBase, DualTable and Hive-ACID storage.

use dualtable_repro::common::Value;
use dualtable_repro::hiveql::{QueryResult, Session};
use dualtable_repro::workloads::tpch;

const STORAGES: [&str; 4] = ["ORC", "HBASE", "DUALTABLE", "ACID"];

fn rows_sorted(result: &QueryResult) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = result
        .rows()
        .iter()
        .map(|r| r.iter().map(|v| format!("{v:?}")).collect())
        .collect();
    rows.sort();
    rows
}

fn build_tpch(storage: &str, lineitem_rows: usize) -> Session {
    let mut session = Session::in_memory();
    let orders_n = tpch::orders_rows_for(lineitem_rows);
    for (name, schema) in [
        ("lineitem", tpch::lineitem_schema()),
        ("orders", tpch::orders_schema()),
    ] {
        let cols: Vec<String> = schema
            .fields()
            .iter()
            .map(|f| format!("{} {}", f.name, f.data_type.sql_name()))
            .collect();
        session
            .execute(&format!(
                "CREATE TABLE {name} ({}) STORED AS {storage}",
                cols.join(", ")
            ))
            .unwrap();
    }
    session
        .table("lineitem")
        .unwrap()
        .insert(tpch::lineitem_rows(lineitem_rows, orders_n, 11).collect())
        .unwrap();
    session
        .table("orders")
        .unwrap()
        .insert(tpch::orders_rows(orders_n, 11).collect())
        .unwrap();
    session
}

#[test]
fn tpch_queries_agree_across_storages() {
    let queries = [tpch::QUERY_A_Q1, tpch::QUERY_B_Q12, tpch::QUERY_C_COUNT];
    let mut reference: Vec<Option<Vec<Vec<String>>>> = vec![None; queries.len()];
    for storage in STORAGES {
        let mut session = build_tpch(storage, 800);
        for (i, q) in queries.iter().enumerate() {
            let got = rows_sorted(&session.execute(q).unwrap());
            match &reference[i] {
                None => reference[i] = Some(got),
                Some(expect) => {
                    assert_eq!(&got, expect, "query {i} differs on {storage}");
                }
            }
        }
    }
}

#[test]
fn dml_sequence_agrees_across_storages() {
    let dml = [
        tpch::DML_A_UPDATE,
        tpch::DML_B_DELETE,
        tpch::DML_C_JOIN_UPDATE,
    ];
    let check = "SELECT COUNT(*), SUM(l_quantity) FROM lineitem";
    let check_orders = "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'X'";
    // (lineitem check rows, orders check rows, affected counts) per system.
    type Observation = (Vec<Vec<String>>, Vec<Vec<String>>, Vec<u64>);
    let mut reference: Option<Observation> = None;
    for storage in STORAGES {
        let mut session = build_tpch(storage, 600);
        let mut affected = Vec::new();
        for stmt in dml {
            affected.push(session.execute(stmt).unwrap().affected);
        }
        let state = (
            rows_sorted(&session.execute(check).unwrap()),
            rows_sorted(&session.execute(check_orders).unwrap()),
            affected,
        );
        match &reference {
            None => reference = Some(state),
            Some(expect) => assert_eq!(&state, expect, "divergence on {storage}"),
        }
    }
}

#[test]
fn compact_preserves_query_results() {
    for storage in ["DUALTABLE", "ACID"] {
        let mut session = build_tpch(storage, 400);
        session.execute(tpch::DML_A_UPDATE).unwrap();
        session.execute(tpch::DML_B_DELETE).unwrap();
        let before = rows_sorted(
            &session
                .execute("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem")
                .unwrap(),
        );
        session.execute("COMPACT TABLE lineitem").unwrap();
        let after = rows_sorted(
            &session
                .execute("SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem")
                .unwrap(),
        );
        assert_eq!(before, after, "COMPACT changed results on {storage}");
    }
}

#[test]
fn mixed_storage_joins_work() {
    // lineitem on DualTable, orders on plain ORC — joins cross handlers.
    let mut session = Session::in_memory();
    session
        .execute("CREATE TABLE a (id BIGINT, v BIGINT) STORED AS DUALTABLE")
        .unwrap();
    session
        .execute("CREATE TABLE b (id BIGINT, w STRING) STORED AS HBASE")
        .unwrap();
    session
        .execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    session
        .execute("INSERT INTO b VALUES (1, 'x'), (3, 'z')")
        .unwrap();
    session.execute("UPDATE a SET v = 99 WHERE id = 3").unwrap();
    let r = session
        .execute("SELECT a.id, a.v, b.w FROM a JOIN b ON a.id = b.id ORDER BY a.id")
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(
        r.rows()[1][1],
        Value::Int64(99),
        "join sees the UNION READ view"
    );
}

/// A literal the evaluator cannot compare with its column fails the
/// statement the same way on every handler: stripe statistics must not
/// get to order the two by type and skip the rows that would have raised
/// the error.
#[test]
fn mixed_type_comparisons_agree_across_storages() {
    let queries = [
        "SELECT COUNT(*) FROM t WHERE id > 'x'",
        "SELECT COUNT(*) FROM t WHERE name < 5",
        "SELECT COUNT(*) FROM t WHERE 'x' <= id",
        "SELECT COUNT(*) FROM t WHERE id >= 0 AND name = 5",
        // DML swallows a row filter's evaluation error as "no match".
        // (`name`, not `id`: a sharded table refuses to assign its key.)
        "UPDATE t SET name = 'z' WHERE name < 5",
        "DELETE FROM t WHERE id > 'x'",
        "SELECT COUNT(*), SUM(id) FROM t WHERE id < 2.5 AND name >= 'b'",
    ];
    let ddl = [
        "STORED AS ORC",
        "STORED AS HBASE",
        "STORED AS DUALTABLE",
        "STORED AS ACID",
        "STORED AS DUALTABLE SHARDED BY RANGE (id) SPLIT AT (2)",
    ];
    let mut reference: Option<Vec<String>> = None;
    for storage in ddl {
        let mut session = Session::in_memory();
        session
            .execute(&format!(
                "CREATE TABLE t (id BIGINT, name STRING) {storage}"
            ))
            .unwrap();
        session
            .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        let outcomes: Vec<String> = queries
            .iter()
            .map(|q| match session.execute(q) {
                Ok(r) => format!("{:?} affected {}", r.rows(), r.affected),
                Err(e) => format!("error: {e}"),
            })
            .collect();
        assert!(
            outcomes[..4].iter().all(|o| o.contains("cannot compare")),
            "{storage}: {outcomes:?}"
        );
        match &reference {
            None => reference = Some(outcomes),
            Some(expect) => assert_eq!(&outcomes, expect, "divergence on {storage}"),
        }
    }
}

/// Every SET expression of an UPDATE reads the row as stored, not what an
/// earlier assignment of the same statement made of it — on every handler,
/// under either plan the cost model can pick, and inside a transaction.
#[test]
fn set_expressions_read_the_row_as_stored_on_every_storage_and_plan() {
    use dualtable_repro::dualtable::PlanMode;
    let ddl = [
        "STORED AS ORC",
        "STORED AS HBASE",
        "STORED AS DUALTABLE",
        "STORED AS ACID",
        "STORED AS DUALTABLE SHARDED BY RANGE (id) SPLIT AT (2)",
    ];
    let update = "UPDATE t SET a = a + 1, b = a WHERE id >= 1";
    let expect = "[[Int64(1), Int64(11), Int64(10)], [Int64(2), Int64(21), Int64(20)]]";
    for storage in ddl {
        for plan in [PlanMode::AlwaysEdit, PlanMode::AlwaysOverwrite] {
            for in_transaction in [false, true] {
                let mut session = Session::in_memory();
                session.config.dualtable.plan_mode = plan;
                session
                    .execute(&format!(
                        "CREATE TABLE t (id BIGINT, a BIGINT, b BIGINT) {storage}"
                    ))
                    .unwrap();
                session
                    .execute("INSERT INTO t VALUES (1, 10, 100), (2, 20, 200)")
                    .unwrap();
                if in_transaction && !storage.contains("DUALTABLE") {
                    continue;
                }
                if in_transaction {
                    session.execute("BEGIN").unwrap();
                }
                assert_eq!(session.execute(update).unwrap().affected, 2);
                if in_transaction {
                    session.execute("COMMIT").unwrap();
                }
                let got = session.execute("SELECT id, a, b FROM t ORDER BY id");
                assert_eq!(
                    format!("{:?}", got.unwrap().rows()),
                    expect,
                    "{storage}, {plan:?}, in a transaction: {in_transaction}"
                );
            }
        }
    }
}

/// Seeded differential over the one scan call: after an UPDATE/DELETE
/// script that leaves ACID deltas unfolded and HBase tombstones in place,
/// random single-table SELECTs — random projections, random pushed-down
/// column-vs-literal conjuncts, `COUNT(*)` — answer identically on every
/// storage, sharded DualTable included.
#[test]
fn random_selects_agree_across_storages_after_dml() {
    use dualtable_repro::common::Rng64;
    let ddl = [
        "STORED AS ORC",
        "STORED AS HBASE",
        "STORED AS DUALTABLE",
        "STORED AS ACID",
        "STORED AS DUALTABLE SHARDED BY RANGE (id) SPLIT AT (700, 1400)",
    ];
    let script = [
        "UPDATE t SET price = price + 1.0 WHERE k < 5",
        "DELETE FROM t WHERE name = 'n3'",
        // Moves rows into ranges that stripe statistics never saw.
        "UPDATE t SET k = k + 100 WHERE id >= 1000 AND id < 1100",
        "DELETE FROM t WHERE price > 45.0 AND k > 40",
        "UPDATE t SET name = 'moved' WHERE id < 50",
    ];
    let columns = ["id", "k", "name", "price"];
    let mut rng = Rng64::new(25);
    let literal = |rng: &mut Rng64, column: usize| match column {
        0 => rng.range_i64(0, 2_000).to_string(),
        1 => rng.range_i64(0, 160).to_string(),
        2 => format!("'n{}'", rng.range_i64(0, 10)),
        _ => format!("{}.5", rng.range_i64(0, 50)),
    };
    let queries: Vec<String> = (0..50)
        .map(|_| {
            let picked: Vec<&str> = columns
                .iter()
                .copied()
                .filter(|_| rng.chance(0.5))
                .collect();
            let items = match picked.is_empty() || rng.chance(0.25) {
                true => "COUNT(*)".to_string(),
                false => picked.join(", "),
            };
            let conjuncts: Vec<String> = (0..rng.range_i64(0, 3))
                .map(|_| {
                    let column = rng.next_below(columns.len() as u64) as usize;
                    let op = rng.choose(&["=", "<", "<=", ">", ">="]);
                    format!("{} {op} {}", columns[column], literal(&mut rng, column))
                })
                .collect();
            match conjuncts.is_empty() {
                true => format!("SELECT {items} FROM t"),
                false => format!("SELECT {items} FROM t WHERE {}", conjuncts.join(" AND ")),
            }
        })
        .collect();

    let mut reference: Option<Vec<Vec<Vec<String>>>> = None;
    for storage in ddl {
        let mut session = Session::in_memory();
        session.config.dualtable.writer.stripe_rows = 128;
        session.config.dualtable.rows_per_file = 700;
        session.config.rows_per_file = 700;
        session
            .execute(&format!(
                "CREATE TABLE t (id BIGINT, k BIGINT, name STRING, price DOUBLE) {storage}"
            ))
            .unwrap();
        let rows = (0..2_000i64).map(|i| {
            vec![
                Value::Int64(i),
                Value::Int64(i % 50),
                Value::Utf8(format!("n{}", i % 10)),
                Value::Float64((i * 7 % 100) as f64 / 2.0),
            ]
        });
        session.table("t").unwrap().insert(rows.collect()).unwrap();
        for stmt in script {
            session.execute(stmt).unwrap();
        }
        let answers: Vec<Vec<Vec<String>>> = queries
            .iter()
            .map(|q| rows_sorted(&session.execute(q).unwrap()))
            .collect();
        match &reference {
            None => reference = Some(answers),
            Some(expect) => {
                for (i, q) in queries.iter().enumerate() {
                    assert_eq!(answers[i], expect[i], "{storage}: {q}");
                }
            }
        }
    }
}
