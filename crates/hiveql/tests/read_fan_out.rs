//! When a read fans out (DESIGN.md §18), told by the table tier's
//! `scans_parallel` and `scan_morsels` rows of `SHOW HEALTH`: a large
//! unsharded SELECT, a transaction's SELECT and an EDIT locate fan out on
//! a host with a second core; `COUNT(*)`, a scan pruned to one file, the
//! α sample and a scan beside another statement in flight never do.
//!
//! The statements in flight are counted process-wide, so every test here
//! holds one lock: no test's statement runs beside another's.

use std::sync::Mutex;

use dt_common::{DataType, Row, Schema, Value};
use dt_hiveql::{Session, SharedCatalog};
use dt_orcfile::WriterOptions;
use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, PlanMode};

static SERIAL: Mutex<()> = Mutex::new(());

const FILES: i64 = 3;
const ROWS_PER_FILE: i64 = 2_000;

/// A session over `t(id, v, s)`: three master files of 2,000 rows,
/// ascending `id`, stripes of 500 — 6,000 rows, above the fan-out minimum.
fn session() -> Session {
    let env = DualTableEnv::in_memory();
    let config = DualTableConfig {
        rows_per_file: ROWS_PER_FILE as usize,
        writer: WriterOptions {
            stripe_rows: 500,
            ..WriterOptions::default()
        },
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    };
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("v", DataType::Float64),
        ("s", DataType::Utf8),
    ]);
    let table = DualTableStore::create(&env, "t", schema, config).unwrap();
    let rows: Vec<Row> = (0..FILES * ROWS_PER_FILE)
        .map(|i| {
            let s = ["a", "b", "c"][(i % 3) as usize];
            vec![
                Value::Int64(i),
                Value::Float64(i as f64 / 8.0),
                Value::from(s),
            ]
        })
        .collect();
    table.insert_rows(rows).unwrap();
    let mut session = Session::with_shared(env, SharedCatalog::new());
    session.register_dualtable("t", table).unwrap();
    session
}

/// The table tier's `(scans_parallel, scan_morsels)`, as `SHOW HEALTH`
/// reports them.
fn fanned(s: &mut Session) -> (i64, i64) {
    let health = s.execute("SHOW HEALTH").unwrap();
    let row = |metric: &str| {
        let row = health
            .rows()
            .iter()
            .find(|r| r[0].as_str() == Some("table") && r[1].as_str() == Some(metric));
        row.and_then(|r| r[2].as_i64()).expect("a table-tier row")
    };
    (row("scans_parallel"), row("scan_morsels"))
}

/// The fan-out `sql` caused: scans and morsels.
fn fan_out_of(s: &mut Session, sql: &str) -> (i64, i64) {
    let before = fanned(s);
    s.execute(sql).unwrap();
    let after = fanned(s);
    (after.0 - before.0, after.1 - before.1)
}

/// What a statement that fans out over `morsels` reports: on one core
/// nothing fans out.
fn fans_out(morsels: i64) -> (i64, i64) {
    match dt_engine::cores() >= 2 {
        true => (1, morsels),
        false => (0, 0),
    }
}

#[test]
fn large_reads_fan_out_by_master_file() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = session();
    let select = "SELECT s, SUM(v), COUNT(*) FROM t GROUP BY s";
    assert_eq!(fan_out_of(&mut s, select), fans_out(FILES));
    // The EDIT plan's locate-scan, with the α sample beside it (a
    // `sample_rows` prefix, inline).
    let update = "UPDATE t SET v = v + 1 WHERE id % 7 = 0";
    assert_eq!(fan_out_of(&mut s, update), fans_out(FILES));
    // In a transaction, its buffered inserts are one more morsel.
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (-1, 0.5, 'z')").unwrap();
    assert_eq!(fan_out_of(&mut s, select), fans_out(FILES + 1));
    s.execute("ROLLBACK").unwrap();
    // At degree 1 nothing does.
    let one = dt_engine::with_degree(1, || fan_out_of(&mut s, select));
    assert_eq!(one, (0, 0));
}

#[test]
fn counts_pruned_scans_and_the_sample_stay_inline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = session();
    // COUNT(*) reads footers only; a range within one file decodes one
    // file's stripes; EXPLAIN samples the ratio and runs nothing.
    for sql in [
        "SELECT COUNT(*) FROM t",
        "SELECT SUM(v) FROM t WHERE id >= 2000 AND id < 4000",
        "EXPLAIN UPDATE t SET v = 0 WHERE s = 'a'",
        "EXPLAIN DELETE FROM t WHERE v > 10",
    ] {
        assert_eq!(fan_out_of(&mut s, sql), (0, 0), "{sql}");
    }
}

#[test]
fn a_scan_beside_a_statement_in_flight_stays_inline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = session();
    let select = "SELECT s, SUM(v) FROM t GROUP BY s";
    // What other sessions hold while their statements run — one on a
    // two-core host, one per core but the scan's own on any host.
    let (held, release) = std::sync::mpsc::channel();
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let other = std::thread::spawn(move || {
        let others = dt_engine::cores().saturating_sub(1).max(1);
        let _in_flight: Vec<_> = (0..others).map(|_| dt_engine::InFlight::begin()).collect();
        held.send(()).unwrap();
        wait.recv().unwrap();
    });
    release.recv().unwrap();
    let beside = dt_engine::with_degree(2, || fan_out_of(&mut s, select));
    done.send(()).unwrap();
    other.join().unwrap();
    assert_eq!(beside, (0, 0));
    // Once it is done, the same scan fans out again.
    let alone = dt_engine::with_degree(2, || fan_out_of(&mut s, select));
    assert_eq!(alone, fans_out(FILES));
}
