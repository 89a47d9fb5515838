//! The parallel write path under stress (DESIGN.md §12).
//!
//! The rewrite fan-out (OVERWRITE plans, INSERT OVERWRITE, COMPACT) must
//! be invisible at every observation point: its output equals the
//! sequential writer's row for row, and concurrent readers and EDIT
//! writers see the same states they would around a single-threaded
//! rewrite. Each test sets the degree it runs at with
//! [`dt_engine::with_degree`], so it fans out the same on every host. A crash inside the fan-out is `crash_matrix.rs`'s
//! `parallel_compact` workload.

use dt_common::{DataType, Schema, Value};
use dt_engine::with_degree;
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, UnionReadOptions,
};

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn config() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 32,
        ..DualTableConfig::default()
    }
}

/// The degrees each fan-out is checked at; 1 is the sequential writer.
const DEGREES: std::ops::RangeInclusive<usize> = 1..=4;

fn seeded(env: &DualTableEnv, n: i64, cfg: DualTableConfig) -> DualTableStore {
    let t = DualTableStore::create(env, "t", schema(), cfg).unwrap();
    t.insert_rows((0..n).map(|i| vec![Value::Int64(i), Value::Int64(i * 2)]))
        .unwrap();
    t
}

fn rows_of(t: &DualTableStore) -> Vec<(i64, i64)> {
    t.scan_all()
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect()
}

/// Same workload at degrees 1 to 4: COMPACT output must be identical in
/// content *and* order, and the record-ID scan order of the parallel
/// output must still ascend (partition-ordered ID reservation).
#[test]
fn parallel_compact_matches_sequential() {
    let mut outputs = Vec::new();
    for degree in DEGREES {
        let env = DualTableEnv::in_memory();
        let t = seeded(&env, 500, config());
        t.update(
            |r| r[0].as_i64().unwrap() % 7 == 0,
            &[(1, Box::new(|_| Ok(Value::Int64(-1))))],
            RatioHint::Explicit(0.01),
        )
        .unwrap();
        t.delete(
            |r| r[0].as_i64().unwrap() % 11 == 3,
            RatioHint::Explicit(0.01),
        )
        .unwrap();
        with_degree(degree, || t.compact()).unwrap();
        let ids: Vec<_> = t
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "record IDs ascend");
        let stats = t.stats().unwrap();
        assert_eq!(stats.attached_entries, 0, "compact clears attached");
        outputs.push(rows_of(&t));
        let fan_out = if degree > 1 { degree as u64 } else { 0 };
        assert_eq!(
            env.health.snapshot().write_workers_used,
            fan_out,
            "compact at degree {degree} must report its fan-out"
        );
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "parallel compact diverged"
    );
}

/// OVERWRITE-plan UPDATE and DELETE through the fan-out equal their
/// sequential runs, counts included.
#[test]
fn parallel_overwrite_matches_sequential() {
    let mut outputs = Vec::new();
    for degree in DEGREES {
        let env = DualTableEnv::in_memory();
        let mut cfg = config();
        cfg.plan_mode = PlanMode::AlwaysOverwrite;
        let t = seeded(&env, 400, cfg);
        with_degree(degree, || {
            let up = t
                .update(
                    |r| r[0].as_i64().unwrap() % 2 == 0,
                    &[(
                        1,
                        Box::new(|r: &dt_common::Row| {
                            Ok(Value::Int64(r[0].as_i64().unwrap() + 1000))
                        }),
                    )],
                    RatioHint::Explicit(0.5),
                )
                .unwrap();
            assert_eq!(up.rows_matched, 200);
            assert_eq!(up.rows_scanned, 400);
            let del = t
                .delete(|r| r[0].as_i64().unwrap() < 100, RatioHint::Explicit(0.25))
                .unwrap();
            assert_eq!(del.rows_matched, 100);
        });
        outputs.push(rows_of(&t));
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "parallel overwrite diverged"
    );
}

/// INSERT OVERWRITE (a materialized row set fanned out at whole-file
/// boundaries) also matches the sequential writer.
#[test]
fn parallel_insert_overwrite_matches_sequential() {
    let mut outputs = Vec::new();
    for degree in DEGREES {
        let env = DualTableEnv::in_memory();
        let t = seeded(&env, 100, config());
        let rows = (0..300).map(|i| vec![Value::Int64(i), Value::Int64(7 * i)]);
        with_degree(degree, || t.insert_overwrite(rows)).unwrap();
        assert_eq!(t.count().unwrap(), 300);
        outputs.push(rows_of(&t));
    }
    assert!(
        outputs.windows(2).all(|w| w[0] == w[1]),
        "parallel insert overwrite diverged"
    );
}

/// A bad UPDATE value through the OVERWRITE plan must surface as a schema
/// error (not silently fall back to EDIT) and leave no half-built
/// generation behind.
#[test]
fn parallel_overwrite_schema_error_propagates() {
    let env = DualTableEnv::in_memory();
    let mut cfg = config();
    cfg.plan_mode = PlanMode::AlwaysOverwrite;
    let t = seeded(&env, 200, cfg);
    let before = rows_of(&t);
    let err = with_degree(4, || {
        t.update(
            |_| true,
            &[(1, Box::new(|_| Ok(Value::Utf8("not an int".into()))))],
            RatioHint::Explicit(1.0),
        )
    })
    .unwrap_err();
    assert!(
        matches!(err, dt_common::Error::Schema(_)),
        "expected schema error, got {err}"
    );
    assert_eq!(rows_of(&t), before, "failed statement must change nothing");
    assert_eq!(
        env.health.snapshot().plan_fallbacks,
        0,
        "schema failure is not a plan fallback"
    );
    // The aborted generation was swept: exactly one generation dir lives.
    let gens: std::collections::BTreeSet<String> = env
        .dfs
        .list("/warehouse/t/")
        .into_iter()
        .filter_map(|p| {
            p.split('/')
                .find(|s| s.starts_with("gen-"))
                .map(String::from)
        })
        .collect();
    assert!(gens.len() <= 1, "stale generations left behind: {gens:?}");
}

/// Mixed DML and SELECT traffic racing a parallel COMPACT: the ops lock
/// serializes statements around the rewrite, so the final state must
/// equal the oracle no matter how the threads interleave, and every scan
/// observes a complete, untorn row set.
#[test]
fn mixed_dml_during_parallel_compact_matches_oracle() {
    let env = DualTableEnv::in_memory();
    let t = seeded(&env, 600, config());

    std::thread::scope(|scope| {
        let updater = {
            let t = t.clone();
            scope.spawn(move || {
                for round in 1..=10i64 {
                    t.update(
                        move |r| r[0].as_i64().unwrap() % 3 == 0,
                        &[(1, Box::new(move |_| Ok(Value::Int64(round))))],
                        RatioHint::Explicit(0.05),
                    )
                    .unwrap();
                }
            })
        };
        let deleter = {
            let t = t.clone();
            scope.spawn(move || {
                t.delete(
                    |r| r[0].as_i64().unwrap() % 5 == 4,
                    RatioHint::Explicit(0.02),
                )
                .unwrap();
            })
        };
        let compactor = {
            let t = t.clone();
            scope.spawn(move || {
                with_degree(4, || {
                    for _ in 0..3 {
                        t.compact().unwrap();
                    }
                })
            })
        };
        for _ in 0..10 {
            let rows = t.scan_all().unwrap();
            assert!(
                rows.len() == 600 || rows.len() == 480,
                "torn scan: {}",
                rows.len()
            );
            assert!(rows.iter().all(|(_, r)| r.len() == 2));
        }
        updater.join().unwrap();
        deleter.join().unwrap();
        compactor.join().unwrap();
    });

    // Oracle: ids without id % 5 == 4; v = 10 where id % 3 == 0 (the last
    // update round), else the seeded 2·id.
    let expect: Vec<(i64, i64)> = (0..600)
        .filter(|id| id % 5 != 4)
        .map(|id| (id, if id % 3 == 0 { 10 } else { id * 2 }))
        .collect();
    let mut got = rows_of(&t);
    got.sort_unstable();
    assert_eq!(got, expect);
    assert!(env.health.snapshot().write_workers_used >= 2);
}

// ----------------------------------------------------------------------
// Transaction-level checking (DESIGN.md §13): real threads, real races.
// ----------------------------------------------------------------------

/// The classic lost-update proof, threaded. K writer threads each apply M
/// read-modify-write increments to the same row through snapshot-isolation
/// transactions, retrying on first-committer-wins conflicts, while a
/// background compactor swings generations under them. Under FCW every
/// increment lands exactly once: the final value must be K·M, and the
/// health counters must account for exactly the conflicts the threads
/// observed — no silent (uncounted, or worse, unconflicted-and-lost)
/// retries.
#[test]
fn transactional_increments_never_lose_updates() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const WRITERS: usize = 4;
    const INCREMENTS: usize = 25;

    let env = DualTableEnv::in_memory();
    let mut cfg = config();
    cfg.plan_mode = PlanMode::AlwaysEdit;
    let t = seeded(&env, 8, cfg);
    let observed_conflicts = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let t = t.clone();
            let observed = &observed_conflicts;
            scope.spawn(move || {
                for _ in 0..INCREMENTS {
                    loop {
                        let mut txn = t.begin_transaction().unwrap();
                        txn.update(
                            |r| r[0].as_i64().unwrap() == 0,
                            &[(
                                1,
                                Box::new(|r: &dt_common::Row| {
                                    Ok(Value::Int64(r[1].as_i64().unwrap() + 1))
                                }),
                            )],
                            &UnionReadOptions::all(),
                        )
                        .unwrap();
                        match txn.commit() {
                            Ok(commit_ts) => {
                                assert!(commit_ts > 0, "commit timestamp must tick");
                                break;
                            }
                            Err(err) => {
                                assert!(
                                    err.is_conflict(),
                                    "retry loop hit a non-conflict error: {err}"
                                );
                                observed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        let t = t.clone();
        scope.spawn(move || {
            for _ in 0..3 {
                t.compact().unwrap();
                std::thread::yield_now();
            }
        });
    });

    let rows = rows_of(&t);
    let hot = rows.iter().find(|(id, _)| *id == 0).unwrap();
    assert_eq!(
        hot.1,
        (WRITERS * INCREMENTS) as i64,
        "lost update: {} of {} increments survived",
        hot.1,
        WRITERS * INCREMENTS
    );
    // Every other row kept its seeded value.
    for (id, v) in rows.iter().filter(|(id, _)| *id != 0) {
        assert_eq!(*v, id * 2, "row {id} corrupted by the increment storm");
    }
    // Exact conflict accounting: each observed retryable error bumped
    // exactly one of the two conflict counters, and nothing else did
    // (the blocking compactor holds the ops lock, so it cannot lose).
    let health = env.health.snapshot();
    assert_eq!(
        health.ww_conflicts + health.swing_conflicts,
        observed_conflicts.load(Ordering::Relaxed),
        "counters disagree with the conflicts the threads saw"
    );
    assert_eq!(health.cleanup_failures, 0);
    assert_eq!(t.pinned_snapshots(), 0, "all transaction pins released");
}

/// Disjoint write sets never conflict: K threads each own a 100-id range
/// and push M transactions over it concurrently. Every commit must
/// succeed first try (zero conflicts table-wide), and the merged result
/// is exactly every thread's increments applied.
#[test]
fn disjoint_transactions_commit_without_conflict() {
    const WRITERS: i64 = 4;
    const ROUNDS: i64 = 5;
    const RANGE: i64 = 100;

    let env = DualTableEnv::in_memory();
    let mut cfg = config();
    cfg.plan_mode = PlanMode::AlwaysEdit;
    let t = seeded(&env, WRITERS * RANGE, cfg);

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let t = t.clone();
            scope.spawn(move || {
                let (lo, hi) = (w * RANGE, (w + 1) * RANGE);
                for _ in 0..ROUNDS {
                    let mut txn = t.begin_transaction().unwrap();
                    let n = txn
                        .update(
                            move |r| (lo..hi).contains(&r[0].as_i64().unwrap()),
                            &[(
                                1,
                                Box::new(|r: &dt_common::Row| {
                                    Ok(Value::Int64(r[1].as_i64().unwrap() + 1))
                                }),
                            )],
                            &UnionReadOptions::all(),
                        )
                        .unwrap();
                    assert_eq!(n, RANGE as u64);
                    txn.commit().expect("disjoint write sets cannot conflict");
                }
            });
        }
    });

    let mut got = rows_of(&t);
    got.sort_unstable();
    let expect: Vec<(i64, i64)> = (0..WRITERS * RANGE)
        .map(|id| (id, id * 2 + ROUNDS))
        .collect();
    assert_eq!(got, expect);
    let health = env.health.snapshot();
    assert_eq!(health.ww_conflicts, 0, "phantom write-write conflict");
    assert_eq!(health.swing_conflicts, 0, "phantom swing conflict");
}
