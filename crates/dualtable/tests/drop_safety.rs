//! Regression tests for the panic-safety audit of the MVCC `Drop` paths
//! (txn.rs module docs): a session that dies mid-transaction — by panic
//! or by unwinding through `catch_unwind` at a pool boundary — must
//! release every snapshot pin it held, and must never block generation
//! GC for the sessions that survive it.
//!
//! This is the invariant the `dualtabled` server's teardown machinery
//! (DESIGN.md §14) is built on: worker panics are contained per-job, so
//! the only thing standing between a poisoned statement and a phantom
//! pin is the destructors exercised here.

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dt_common::{DataType, Row, Schema, Value};
use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, PlanMode, UnionReadOptions};

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn config() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 4,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    }
}

fn row(id: i64, v: i64) -> Row {
    vec![Value::Int64(id), Value::Int64(v)]
}

fn seed(table: &DualTableStore, n: i64) {
    table
        .insert_overwrite((0..n).map(|i| row(i, 0)))
        .expect("seed");
}

/// A panic while a `Transaction` (and its pinned `Snapshot`) is live on
/// the stack must release the pin during unwinding. This is exactly the
/// shape of a statement panicking on a server worker under
/// `catch_unwind`.
#[test]
fn panicking_session_releases_its_pins() {
    let env = DualTableEnv::in_memory();
    let table = DualTableStore::create(&env, "t_panic", schema(), config()).unwrap();
    seed(&table, 8);

    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut txn = table.begin_transaction().unwrap();
        txn.update(
            |r| r[0].as_i64().unwrap() % 2 == 0,
            &[(1, Box::new(|_: &Row| Ok(Value::Int64(7))))],
            &UnionReadOptions::all(),
        )
        .unwrap();
        assert_eq!(table.pinned_snapshots(), 1);
        panic!("statement poisoned mid-transaction");
    }));
    assert!(result.is_err(), "the closure must have panicked");

    assert_eq!(
        table.pinned_snapshots(),
        0,
        "unwinding dropped the transaction but its pin survived"
    );
    // Nothing buffered may have leaked into the committed state.
    let snap = table.begin_snapshot().unwrap();
    for (_, r) in snap.scan_all().unwrap() {
        assert_eq!(r[1], Value::Int64(0), "uncommitted write became visible");
    }
}

/// After a poisoned session is torn down, generation GC must still make
/// progress: an OVERWRITE retires the old generation and, with no
/// phantom pin protecting it, the sweeper physically deletes it.
#[test]
fn poisoned_session_never_blocks_generation_gc() {
    let env = DualTableEnv::in_memory();
    let table = DualTableStore::create(&env, "t_gc", schema(), config()).unwrap();
    seed(&table, 8);

    // Poison a "session": panic with both a reader snapshot and a
    // read-write transaction pinned.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _snap = table.begin_snapshot().unwrap();
        let mut txn = table.begin_transaction().unwrap();
        txn.insert(vec![row(100, 1)]).unwrap();
        panic!("boom");
    }));
    assert!(result.is_err());
    assert_eq!(table.pinned_snapshots(), 0);

    let gcd_before = env.health.snapshot().generations_gcd;
    table
        .insert_overwrite((0..8).map(|i| row(i, 1)))
        .expect("overwrite after poisoned session");
    let gcd_after = env.health.snapshot().generations_gcd;
    assert!(
        gcd_after > gcd_before,
        "generation GC stalled after a poisoned session ({gcd_before} -> {gcd_after})"
    );

    // Exactly one generation directory holds files: the current one.
    let mut dirs: Vec<String> = env
        .dfs
        .list("/warehouse/t_gc/")
        .into_iter()
        .filter_map(|p| {
            p.split('/')
                .find(|seg| seg.starts_with("gen-"))
                .map(String::from)
        })
        .collect();
    dirs.sort();
    dirs.dedup();
    assert_eq!(dirs.len(), 1, "dead generations leaked: {dirs:?}");
}

/// An abandoned `RewriteJob` (dropped during unwinding) must delete its
/// half-built generation and release its pin.
#[test]
fn panicked_rewrite_abandons_build_and_unpins() {
    let env = DualTableEnv::in_memory();
    let table = DualTableStore::create(&env, "t_rw", schema(), config()).unwrap();
    seed(&table, 8);

    let result = catch_unwind(AssertUnwindSafe(|| {
        let _job = table
            .begin_insert_overwrite((0..8).map(|i| row(i, 9)).collect())
            .unwrap();
        panic!("rewrite worker died");
    }));
    assert!(result.is_err());
    assert_eq!(table.pinned_snapshots(), 0);

    // The half-built generation is gone and the table still answers
    // queries with the pre-rewrite contents.
    let snap = table.begin_snapshot().unwrap();
    let mut n = 0u64;
    snap.for_each(&dualtable::UnionReadOptions::all(), |_, r| {
        assert_eq!(r[1], Value::Int64(0));
        n += 1;
        Ok(ControlFlow::Continue(()))
    })
    .unwrap();
    assert_eq!(n, 8);
}
