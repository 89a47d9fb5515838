//! Seeded chaos soak: the background compactor races committing
//! transaction writers and pinned readers under transient storage faults
//! (DESIGN.md §15).
//!
//! Per seed: three transaction writers each own one counter row and
//! increment it in explicit BEGIN/COMMIT rounds (every third acked round
//! also inserts a fresh row inside the same transaction, so commit
//! atomicity spans files); two pinned readers repeatedly pin a snapshot
//! and assert it is byte-stable while folds swing generations underneath;
//! one maintenance thread loops `compact_incremental()` the whole time, and
//! on until a fold lands once the writers are done.
//! Transient read/write faults are armed for the duration of the storm.
//!
//! The oracle is exact, not statistical. A writer counts an increment only
//! when COMMIT returned Ok — or, after an ambiguous commit error, when
//! re-reading its own counter row (which nobody else writes) proves the
//! transaction landed. At the end the table must equal the oracle row for
//! row, every pin must be dropped, the deferred-GC ledger empty, and the
//! compactor's health ledger exact:
//! `completed + lost_race + aborted == started`.
//!
//! Runs 25 seeds by default; override with `COMPACTOR_SOAK_SEEDS=N`. A
//! failing seed prints (and drops to `target/last_failed_seed.txt`) a
//! one-command repro via `dt_common::seed_report`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dt_common::seed_report::{seed_from_env, with_seed_repro};
use dt_common::{DataType, FaultKind, FaultPlan, Row, Schema, Value};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, FoldOutcome, PlanMode, UnionReadOptions,
};

const WRITERS: i64 = 3;
const ROUNDS: usize = 20;
const SEED_ROWS: i64 = 24;
const ROWS_PER_FILE: usize = 8;

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn table_cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: ROWS_PER_FILE,
        plan_mode: PlanMode::CostBased,
        ..DualTableConfig::default()
    }
}

/// Sorted `(id, v)` content, retried through transient faults.
fn scan_retry(table: &DualTableStore) -> Vec<(i64, i64)> {
    for _ in 0..10_000 {
        match table.scan_all() {
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
            Err(e) => panic!("scan died on a permanent error: {e}"),
        }
    }
    panic!("scan retries exhausted");
}

/// The committed value of writer `w`'s counter row — only `w` ever writes
/// it, so this resolves an ambiguous COMMIT exactly.
fn counter_value(table: &DualTableStore, w: i64) -> i64 {
    scan_retry(table)
        .into_iter()
        .find(|&(id, _)| id == w)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("counter row {w} vanished"))
}

/// One writer: `ROUNDS` acked increments of its own counter, each a full
/// BEGIN/UPDATE/COMMIT; every third acked round buffers an INSERT into the
/// same transaction. Returns (acked_increments, inserted_ids).
fn run_writer(table: &DualTableStore, w: i64, conflicts: &AtomicU64) -> (u64, Vec<i64>) {
    let mut acked = 0u64;
    let mut inserted: Vec<i64> = Vec::new();
    while acked < ROUNDS as u64 {
        let mut tries = 0usize;
        loop {
            tries += 1;
            assert!(tries < 10_000, "writer {w} round never converged");
            let mut txn = match table.begin_transaction() {
                Ok(t) => t,
                Err(e) if e.is_transient() || e.is_injected() => {
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                Err(e) => panic!("writer {w} BEGIN: {e}"),
            };
            let update = txn.update(
                move |row| row[0].as_i64().unwrap() == w,
                &[(
                    1,
                    Box::new(|row: &Row| Ok(Value::Int64(row[1].as_i64().unwrap() + 1))),
                )],
                &UnionReadOptions::all(),
            );
            if update.is_err() {
                continue; // nothing committed: retry the round
            }
            // Every third acked round also inserts a fresh row, so the
            // commit the compactor races spans master-file creation too.
            let new_id = acked
                .is_multiple_of(3)
                .then(|| 1_000 * (w + 1) + inserted.len() as i64);
            if let Some(id) = new_id {
                if txn
                    .insert(vec![vec![Value::Int64(id), Value::Int64(id)]])
                    .is_err()
                {
                    continue;
                }
            }
            match txn.commit() {
                Ok(_) => {}
                Err(e) if e.is_conflict() => {
                    // Lost to a swing or a sibling commit: provably not
                    // applied, and provably retryable — this is the
                    // "foreground never blocks, clean retry" contract.
                    conflicts.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Err(e) if e.is_transient() || e.is_injected() => {
                    // Ambiguous: the fault may have hit before or after
                    // the durable commit point. Our counter row settles it.
                    if counter_value(table, w) != (acked + 1) as i64 {
                        continue;
                    }
                }
                Err(e) => panic!("writer {w} COMMIT: {e}"),
            }
            acked += 1;
            inserted.extend(new_id);
            break;
        }
    }
    (acked, inserted)
}

/// One pinned reader: pin, record, re-read several times asserting
/// byte-stability across whatever swings happen underneath, unpin, repeat.
fn run_reader(table: &DualTableStore, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        let snap = match table.begin_snapshot() {
            Ok(s) => s,
            Err(e) if e.is_transient() || e.is_injected() => {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            Err(e) => panic!("reader pin: {e}"),
        };
        let read = |attempt: usize| -> Option<Vec<(i64, i64)>> {
            for _ in 0..10_000 {
                match snap.scan_all() {
                    Ok(scanned) => {
                        let mut got: Vec<(i64, i64)> = scanned
                            .iter()
                            .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
                            .collect();
                        got.sort_unstable();
                        return Some(got);
                    }
                    Err(e) if e.is_transient() || e.is_injected() => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(e) => panic!("pinned scan (attempt {attempt}): {e}"),
                }
            }
            None
        };
        let Some(expect) = read(0) else { return };
        for attempt in 1..4 {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let Some(got) = read(attempt) else { return };
            assert_eq!(
                got, expect,
                "pinned snapshot drifted while the compactor swung generations"
            );
        }
    }
}

/// Cycles the compactor may still need once the writers are gone: enough
/// to outlast any run of injected transient faults, bounded so a fold that
/// can never land fails the seed instead of hanging it.
const DRAIN_CYCLES: usize = 1_000;

/// The maintenance loop: fold whatever is dirty, forever. Transient faults
/// abort a cycle (the abort guard keeps the ledger exact) and the loop
/// carries on — exactly what the supervised daemon does. Once the writers
/// have joined it keeps cycling (faults still armed) until one cycle folds
/// or finds the table clean, so every seed ends on a landed fold whether or
/// not the compactor ever won a swing race during the storm.
fn run_compactor(table: &DualTableStore, stop: &AtomicBool) {
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

/// Totals accumulated across seeds to prove the storm actually contended.
#[derive(Default)]
struct Totals {
    started: u64,
    folded: u64,
    lost_race: u64,
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
    plan.set_armed(false); // setup runs fault-free
    let env = DualTableEnv::in_memory_faulty(plan.clone()).expect("faulty env");
    let table = DualTableStore::create(&env, "chaos", schema(), table_cfg()).expect("clean create");
    let rows: Vec<Row> = (0..SEED_ROWS)
        .map(|id| vec![Value::Int64(id), Value::Int64(0)])
        .collect();
    table.insert_rows(rows).expect("disarmed seed insert");

    // ---- storm ----
    plan.set_armed(true);
    let stop = AtomicBool::new(false);
    let conflicts = AtomicU64::new(0);
    let mut writer_results: Vec<(u64, Vec<i64>)> = Vec::new();
    std::thread::scope(|s| {
        let (table, conflicts, stop) = (&table, &conflicts, &stop);
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| s.spawn(move || run_writer(table, w, conflicts)))
            .collect();
        for _ in 0..2 {
            s.spawn(move || run_reader(table, stop));
        }
        s.spawn(move || run_compactor(table, stop));
        for handle in writers {
            writer_results.push(handle.join().expect("writer panicked"));
        }
        stop.store(true, Ordering::Relaxed);
    });
    plan.heal_and_disarm();

    // ---- verdict ----
    // Exact oracle: seed rows, writer counters, acked inserts — nothing
    // else, nothing lost, nothing phantom.
    let mut expect: BTreeMap<i64, i64> = (0..SEED_ROWS).map(|id| (id, 0)).collect();
    for (w, (acked, inserted)) in writer_results.iter().enumerate() {
        assert_eq!(*acked, ROUNDS as u64, "seed {seed}: writer {w} fell short");
        expect.insert(w as i64, *acked as i64);
        for &id in inserted {
            expect.insert(id, id);
        }
    }
    let expect: Vec<(i64, i64)> = expect.into_iter().collect();
    assert_eq!(
        scan_retry(&table),
        expect,
        "seed {seed}: table diverged from the acked-commit oracle"
    );

    // No pin outlives its reader; the swing's deferred GC fully drains.
    assert_eq!(
        table.pinned_snapshots(),
        0,
        "seed {seed}: snapshot pins leaked"
    );
    assert_eq!(
        table.retired_generations(),
        0,
        "seed {seed}: deferred-GC ledger never drained"
    );

    // The maintenance ledger is exact — every cycle that opened it closed
    // it as exactly one of completed / lost-race / aborted, through every
    // injected fault.
    let h = env.health.snapshot();
    assert_eq!(
        h.compactions_completed + h.compactions_lost_race + h.compactions_aborted,
        h.compactions_started,
        "seed {seed}: fold ledger out of balance"
    );

    // Physical hygiene after the storm.
    let fsck = env.dfs.fsck().expect("fsck");
    assert!(fsck.healthy(), "seed {seed}: fsck unhealthy: {fsck:?}");

    totals.started += h.compactions_started;
    totals.folded += h.compactions_completed;
    totals.lost_race += h.compactions_lost_race;
    totals.writer_conflicts += conflicts.load(Ordering::Relaxed);
}

#[test]
fn compactor_chaos_soak() {
    let seeds: u64 = std::env::var("COMPACTOR_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let base = seed_from_env(0);
    let mut totals = Totals::default();
    for seed in base..base + seeds {
        with_seed_repro(
            "dualtable",
            "compactor_chaos",
            "compactor_chaos_soak",
            seed,
            |s| soak_one_seed(s, &mut totals),
        );
    }
    // The storm must have actually contended: folds ran, and at least one
    // side of the swing race lost at least once across the run.
    assert!(
        totals.started > 0 && totals.folded > 0,
        "the compactor never folded anything: started={}, folded={}",
        totals.started,
        totals.folded
    );
    assert!(
        totals.lost_race + totals.writer_conflicts > 0,
        "no swing race was ever lost by either side — the storm is too tame"
    );
}
