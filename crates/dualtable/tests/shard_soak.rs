//! Seeded chaos soak for range-sharded tables (DESIGN.md §16).
//!
//! Per seed, a three-shard table takes a storm of cross-shard
//! transactional writers, one autocommit writer, a cross-shard snapshot
//! reader, and a round-robin maintenance thread, with transient read/write
//! faults armed throughout.
//!
//! Each writer owns one counter row in every shard and increments all of
//! them per round: a transactional writer in a single cross-shard
//! [`dualtable::Transaction`], the autocommit writer in one cross-shard
//! UPDATE. Either is one all-or-none commit, so the verdict is per round:
//! `Ok` advances every shard, a conflict advances none, and a transient or
//! injected error is settled by reading one counter. The reader, pinned at
//! one timestamp across shards, sees each writer's counter equal in all
//! three shards in every snapshot. At the end each shard must equal its
//! oracle row for row.
//!
//! Runs 8 seeds by default; override with `SHARD_SOAK_SEEDS=N` (the
//! nightly job uses 200).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dt_common::seed_report::{seed_from_env, with_seed_repro};
use dt_common::{DataType, FaultKind, FaultPlan, Row, Schema, Value};
use dualtable::{
    Assignment, DualTableConfig, DualTableEnv, FoldOutcome, PlanMode, RatioHint, ShardSpec,
    ShardedTable, UnionReadOptions,
};

/// Transactional writers; writer `WRITERS` is the autocommit one.
const WRITERS: i64 = 3;
const ROUNDS: usize = 15;
const SHARDS: usize = 3;
const SPLITS: [i64; 2] = [100, 200];
/// Baseline rows per shard, untouched by writers — compaction fodder.
const SEED_ROWS_PER_SHARD: i64 = 16;

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn table_cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 8,
        plan_mode: PlanMode::CostBased,
        ..DualTableConfig::default()
    }
}

/// Writer `w`'s counter key in shard `s`.
fn counter_key(s: usize, w: i64) -> i64 {
    s as i64 * 100 + w
}

/// Sorted `(id, v)` content of one shard, retried through transient
/// faults.
fn scan_shard_retry(table: &ShardedTable, s: usize) -> Vec<(i64, i64)> {
    for _ in 0..10_000 {
        match table.shards()[s].scan_all() {
            Ok(scanned) => {
                let mut got: Vec<(i64, i64)> = scanned
                    .iter()
                    .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
                    .collect();
                got.sort_unstable();
                return got;
            }
            Err(e) if e.is_transient() || e.is_injected() => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => panic!("shard {s} scan died on a permanent error: {e}"),
        }
    }
    panic!("shard {s} scan retries exhausted");
}

fn counter_value(table: &ShardedTable, s: usize, w: i64) -> i64 {
    let key = counter_key(s, w);
    scan_shard_retry(table, s)
        .into_iter()
        .find(|&(id, _)| id == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("counter row {key} vanished from shard {s}"))
}

/// One writer: `ROUNDS` rounds, each incrementing its counter row in
/// every shard through one cross-shard transaction. Returns the acked
/// round count plus, per acked insert round, the id inserted in each
/// shard.
fn run_writer(table: &ShardedTable, w: i64, conflicts: &AtomicU64) -> (u64, Vec<[i64; SHARDS]>) {
    let mut acked = 0u64;
    let mut inserted: Vec<[i64; SHARDS]> = Vec::new();
    for round in 0..ROUNDS {
        let mut tries = 0usize;
        loop {
            tries += 1;
            assert!(tries < 10_000, "writer {w} round {round} never converged");
            let mut txn = match table.begin_transaction() {
                Ok(t) => t,
                Err(e) if e.is_transient() || e.is_injected() => {
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                Err(e) => panic!("writer {w} BEGIN: {e}"),
            };
            if txn
                .update(
                    move |row| row[0].as_i64().unwrap() % 100 == w,
                    &[(
                        1,
                        Box::new(|row: &Row| Ok(Value::Int64(row[1].as_i64().unwrap() + 1))),
                    )],
                    &UnionReadOptions::all(),
                )
                .is_err()
            {
                continue; // nothing buffered durably: retry the round
            }
            // Every third round the transaction also inserts one fresh
            // row per shard, so the commit spans master-file creation
            // too. Key layout keeps writers disjoint.
            let new_ids: Option<[i64; SHARDS]> = (round % 3 == 0).then(|| {
                core::array::from_fn(|s| s as i64 * 100 + 20 + w * 25 + inserted.len() as i64)
            });
            if let Some(ids) = new_ids {
                let rows: Vec<Row> = ids
                    .iter()
                    .map(|&id| vec![Value::Int64(id), Value::Int64(id)])
                    .collect();
                if txn.insert(rows).is_err() {
                    continue;
                }
            }
            // All or none: one counter settles an ambiguous error.
            let landed = match txn.commit() {
                Ok(_) => true,
                Err(e) if e.is_conflict() => {
                    conflicts.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(e) if e.is_transient() || e.is_injected() => {
                    counter_value(table, 0, w) == (acked + 1) as i64
                }
                Err(e) => panic!("writer {w} COMMIT: {e}"),
            };
            if landed {
                acked += 1;
                inserted.extend(new_ids);
                break;
            }
        }
    }
    (acked, inserted)
}

/// The autocommit writer (counter rows of writer [`WRITERS`]): `ROUNDS`
/// cross-shard UPDATEs, each bumping its counter row in every shard as one
/// commit. Returns the acked round count.
fn run_autocommit_writer(table: &ShardedTable) -> u64 {
    let w = WRITERS;
    let bump: [Assignment<'static>; 1] = [(
        1,
        Box::new(|row: &Row| Ok(Value::Int64(row[1].as_i64().unwrap() + 1))),
    )];
    let mut acked = 0u64;
    for round in 0..ROUNDS {
        for tries in 1.. {
            assert!(tries < 10_000, "autocommit round {round} never converged");
            let mine = move |row: &Row| row[0].as_i64().unwrap() % 100 == w;
            let ratio = RatioHint::Explicit(0.01);
            let landed = match table.dml(&mine, Some(&bump), ratio, None, None) {
                Ok(_) => true,
                Err(e) if e.is_transient() || e.is_injected() => {
                    counter_value(table, 0, w) == (acked + 1) as i64
                }
                Err(e) => panic!("autocommit UPDATE: {e}"),
            };
            if landed {
                acked += 1;
                break;
            }
        }
    }
    acked
}

/// Asserts that every writer's counter holds one value across the shards
/// of a snapshot's rows.
fn assert_counters_agree(rows: &[Vec<Value>]) {
    let value = |key: i64| {
        rows.iter()
            .find(|r| r[0] == Value::Int64(key))
            .map(|r| r[1].clone())
    };
    for w in 0..=WRITERS {
        let per_shard: Vec<_> = (0..SHARDS).map(|s| value(counter_key(s, w))).collect();
        assert!(
            per_shard.windows(2).all(|p| p[0] == p[1]),
            "writer {w}'s cross-shard commit is half visible: {per_shard:?}"
        );
    }
}

/// Cross-shard snapshot reader: every shard pinned at BEGIN, the gathered
/// read must be byte-stable across re-reads while folds and commits swing
/// generations underneath.
fn run_reader(table: &ShardedTable, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        let txn = match table.begin_transaction() {
            Ok(t) => t,
            Err(e) if e.is_transient() || e.is_injected() => {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            Err(e) => panic!("reader pin: {e}"),
        };
        let read = || -> Option<Vec<Vec<Value>>> {
            for _ in 0..10_000 {
                let mut rows = Vec::new();
                let scan = txn.for_each_batch(&UnionReadOptions::all(), |_, batch| {
                    rows.extend(batch.selected_rows());
                    Ok(std::ops::ControlFlow::Continue(()))
                });
                match scan {
                    Ok(()) => return Some(rows),
                    Err(e) if e.is_transient() || e.is_injected() => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("pinned cross-shard read: {e}"),
                }
            }
            None
        };
        if let Some(expect) = read() {
            assert_counters_agree(&expect);
            for _ in 0..3 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(got) = read() {
                    assert_eq!(got, expect, "cross-shard snapshot drifted");
                }
            }
        }
        txn.rollback();
    }
}

/// Cycles the compactor may still need once the writers are gone: enough
/// to outlast any run of injected transient faults, bounded so a fold that
/// can never land fails the seed instead of hanging it.
const DRAIN_CYCLES: usize = 1_000;

/// Round-robin maintenance under fire, exactly like the daemon's tick.
/// Once the writers have joined it keeps cycling (faults still armed)
/// until one cycle folds or finds every shard clean, so every seed ends on
/// a landed fold whether or not the compactor won a swing race during the
/// storm.
fn run_compactor(table: &ShardedTable, stop: &AtomicBool) {
    let mut drain = 0;
    loop {
        let stopped = stop.load(Ordering::Relaxed);
        match table.compact_incremental() {
            Ok(FoldOutcome::Folded { .. } | FoldOutcome::Clean) if stopped => return,
            Ok(_) => {}
            Err(e) if e.is_transient() || e.is_injected() || e.is_conflict() => {}
            Err(e) => panic!("compactor hit a permanent error: {e}"),
        }
        if stopped {
            drain += 1;
            assert!(
                drain < DRAIN_CYCLES,
                "no fold landed after the writers left"
            );
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

#[derive(Default)]
struct Totals {
    folds_started: u64,
    folds_done: u64,
    commit_records: u64,
    writer_conflicts: u64,
}

fn soak_one_seed(seed: u64, totals: &mut Totals) {
    let plan = Arc::new(FaultPlan::seeded(
        seed,
        8,
        6_000,
        &[
            FaultKind::TransientWriteError,
            FaultKind::TransientReadError,
        ],
    ));
    plan.set_armed(false);
    let env = DualTableEnv::in_memory_faulty(plan.clone()).expect("faulty env");
    let spec = ShardSpec::new(0, SPLITS.to_vec()).unwrap();
    let table =
        ShardedTable::create(&env, "soak", schema(), table_cfg(), spec).expect("clean create");

    // Disarmed seeding: writer counters (v = 0) plus per-shard fodder.
    let mut rows: Vec<Row> = Vec::new();
    for s in 0..SHARDS {
        for w in 0..=WRITERS {
            rows.push(vec![Value::Int64(counter_key(s, w)), Value::Int64(0)]);
        }
        for j in 0..SEED_ROWS_PER_SHARD {
            let id = s as i64 * 100 + 76 + j;
            rows.push(vec![Value::Int64(id), Value::Int64(0)]);
        }
    }
    table.insert_rows(rows).expect("disarmed seed insert");

    // ---- storm ----
    plan.set_armed(true);
    let stop = AtomicBool::new(false);
    let conflicts = AtomicU64::new(0);
    let mut writer_results: Vec<(u64, Vec<[i64; SHARDS]>)> = Vec::new();
    std::thread::scope(|scope| {
        let (table, conflicts, stop) = (&table, &conflicts, &stop);
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| scope.spawn(move || run_writer(table, w, conflicts)))
            .collect();
        let autocommit = scope.spawn(move || (run_autocommit_writer(table), Vec::new()));
        scope.spawn(move || run_reader(table, stop));
        scope.spawn(move || run_compactor(table, stop));
        for handle in writers.into_iter().chain([autocommit]) {
            writer_results.push(handle.join().expect("writer panicked"));
        }
        stop.store(true, Ordering::Relaxed);
    });
    plan.heal_and_disarm();

    // ---- verdict: exact per-shard oracle ----
    for s in 0..SHARDS {
        let mut expect: BTreeMap<i64, i64> = (0..SEED_ROWS_PER_SHARD)
            .map(|j| (s as i64 * 100 + 76 + j, 0))
            .collect();
        for (w, (acked, inserted)) in writer_results.iter().enumerate() {
            expect.insert(counter_key(s, w as i64), *acked as i64);
            for ids in inserted {
                expect.insert(ids[s], ids[s]);
            }
        }
        let expect: Vec<(i64, i64)> = expect.into_iter().collect();
        assert_eq!(
            scan_shard_retry(&table, s),
            expect,
            "seed {seed}: shard {s} diverged from the acked-commit oracle"
        );
        assert_eq!(
            table.shards()[s].pinned_snapshots(),
            0,
            "seed {seed}: shard {s} leaked snapshot pins"
        );
        assert_eq!(
            table.shards()[s].retired_generations(),
            0,
            "seed {seed}: shard {s} deferred-GC never drained"
        );
        // Per-shard fold ledger: a probe interrupted by an injected fault
        // bumps `attempted` without classifying, so >= not ==.
        let f = table.fold_stats(s);
        assert!(
            f.attempted >= f.folded + f.lost_race + f.clean,
            "seed {seed}: shard {s} fold ledger counts a probe twice"
        );
    }

    // The storewide maintenance ledger stays exact through every fault.
    let h = env.health.snapshot();
    assert_eq!(
        h.compactions_completed + h.compactions_lost_race + h.compactions_aborted,
        h.compactions_started,
        "seed {seed}: fold ledger out of balance"
    );
    let fsck = env.dfs.fsck().expect("fsck");
    assert!(fsck.healthy(), "seed {seed}: fsck unhealthy: {fsck:?}");

    totals.folds_started += h.compactions_started;
    totals.folds_done += h.compactions_completed;
    totals.commit_records += h.commit_records;
    totals.writer_conflicts += conflicts.load(Ordering::Relaxed);
}

#[test]
fn sharded_chaos_soak() {
    let seeds: u64 = std::env::var("SHARD_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let base = seed_from_env(0);
    let mut totals = Totals::default();
    for seed in base..base + seeds {
        with_seed_repro("dualtable", "shard_soak", "sharded_chaos_soak", seed, |s| {
            soak_one_seed(s, &mut totals)
        });
    }
    // The storm must actually have exercised the machinery under test:
    // folds ran, and multi-shard atomic commits happened.
    assert!(
        totals.folds_started > 0 && totals.folds_done > 0,
        "maintenance never folded: started={}, done={}",
        totals.folds_started,
        totals.folds_done
    );
    assert!(
        totals.commit_records > 0,
        "no cross-shard transaction ever committed"
    );
    eprintln!(
        "shard soak totals: folds {}/{}, cross-shard commits {}, conflicts {}",
        totals.folds_done, totals.folds_started, totals.commit_records, totals.writer_conflicts
    );
}
