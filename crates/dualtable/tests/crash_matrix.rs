//! The three-tier crash-point simulation matrix (DESIGN.md §9).
//!
//! A seeded DML workload — INSERT, EDIT-plan UPDATE/DELETE, INSERT
//! OVERWRITE, COMPACT — is run once with I/O-trace recording to learn
//! its operation horizon and each statement's `(start, end]` op range.
//! Then, for every selected crash point `k`, a fresh stack re-runs the
//! workload with a fail-stop fault scheduled at operation `k`, recovers
//! via [`DualTableEnv::crash_and_reopen`] (KV WAL replay + namenode
//! edit-log/checkpoint replay), reopens the table, and checks:
//!
//! 1. **Prefix durability / statement atomicity** — the recovered table
//!    equals the oracle after exactly `acked` statements, or `acked + 1`
//!    if the in-flight statement committed before the fault surfaced.
//!    Never anything in between.
//! 2. **Single generation** — every surviving master file belongs to one
//!    generation directory. A crash inside OVERWRITE or COMPACT lands on
//!    exactly the old or the new generation, never a mix.
//! 3. **Physical hygiene** — fsck reports no corruption and no
//!    under-replication; scrub collects every orphan block and leaves the
//!    logical content untouched.
//!
//! The smoke run covers >= 200 points (plus guaranteed points inside
//! every OVERWRITE/COMPACT statement). Set `CRASH_MATRIX_FULL=1` for the
//! exhaustive run over every operation index.

use std::collections::BTreeSet;
use std::sync::Arc;

use dt_common::crash_matrix::{run_crash_matrix, select_crash_points};
use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::{DataType, Row, Schema, Value};
use dt_dfs::DfsConfig;
use dt_kvstore::KvConfig;
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, RewriteJob, Snapshot,
    Transaction, UnionReadOptions,
};

const TABLE: &str = "crash";
const ROWS_PER_FILE: usize = 8;

/// Small chunks, replication 2 and a mid-workload checkpoint interval so
/// crash points land inside block pipelines and checkpoint writes alike.
fn dfs_cfg() -> DfsConfig {
    DfsConfig {
        chunk_size: 64,
        replication: 2,
        checkpoint_interval: 16,
        ..DfsConfig::default()
    }
}

/// Tiny memtable so the workload forces WAL rotation and SSTable flushes,
/// putting crash points inside the attached tier's flush path too.
fn kv_cfg() -> KvConfig {
    KvConfig {
        memtable_flush_bytes: 512,
        ..KvConfig::default()
    }
}

/// Two rewrite workers, so every OVERWRITE/COMPACT crash point below runs
/// against the parallel fan-out (partitioned file-ID reservation, per-
/// worker sinks) while the commit step stays single-threaded. Total op
/// counts per statement stay deterministic under the fan-out — the same
/// operation set executes in any interleaving — which is what lets the
/// record run's `(start, end]` ranges transfer to the crash runs.
fn table_cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: ROWS_PER_FILE,
        plan_mode: PlanMode::CostBased,
        write_threads: 2,
        ..DualTableConfig::default()
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

/// One DML statement of the seeded workload. Shapes keep each statement
/// atomic (see prop_fault_recovery.rs): INSERT batches fit one master
/// file; UPDATE/DELETE hint a tiny ratio so the cost model picks EDIT.
#[derive(Debug, Clone, Copy)]
enum Stmt {
    Insert {
        count: u8,
    },
    Update {
        divisor: i64,
        rem: i64,
        v: i64,
    },
    Delete {
        divisor: i64,
        rem: i64,
    },
    /// INSERT OVERWRITE: every surviving row's `v` bumped by 1000.
    Overwrite,
    Compact,
    /// Explicit delta-tier spill (DESIGN.md §17): migrates the resident
    /// shadow runs into the LSM. A logical no-op — the oracle ignores it —
    /// but its op range is a mandatory crash window in the delta matrix.
    Spill,
}

const STMTS: &[Stmt] = &[
    Stmt::Insert { count: 8 },
    Stmt::Insert { count: 6 },
    Stmt::Update {
        divisor: 2,
        rem: 0,
        v: 7,
    },
    Stmt::Insert { count: 8 },
    Stmt::Delete { divisor: 3, rem: 1 },
    Stmt::Compact,
    Stmt::Insert { count: 5 },
    Stmt::Update {
        divisor: 5,
        rem: 2,
        v: -3,
    },
    Stmt::Overwrite,
    Stmt::Insert { count: 8 },
    Stmt::Delete { divisor: 2, rem: 1 },
    Stmt::Update {
        divisor: 3,
        rem: 0,
        v: 11,
    },
    Stmt::Compact,
    Stmt::Insert { count: 7 },
    Stmt::Update {
        divisor: 7,
        rem: 3,
        v: 21,
    },
];

/// The in-memory oracle: table content plus the id allocator.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    rows: Vec<(i64, i64)>,
    next_id: i64,
}

impl Model {
    /// Applies `stmt` to the oracle (the semantics every recovered state
    /// is judged against).
    fn step(&mut self, stmt: &Stmt) {
        match *stmt {
            Stmt::Insert { count } => {
                for _ in 0..count {
                    self.rows.push((self.next_id, self.next_id * 3));
                    self.next_id += 1;
                }
            }
            Stmt::Update { divisor, rem, v } => {
                for (id, val) in self.rows.iter_mut() {
                    if *id % divisor == rem {
                        *val = v;
                    }
                }
            }
            Stmt::Delete { divisor, rem } => self.rows.retain(|(id, _)| id % divisor != rem),
            Stmt::Overwrite => {
                for (_, val) in self.rows.iter_mut() {
                    *val += 1000;
                }
            }
            Stmt::Compact | Stmt::Spill => {}
        }
    }

    fn sorted(&self) -> Vec<(i64, i64)> {
        let mut v = self.rows.clone();
        v.sort_unstable();
        v
    }
}

/// Oracle states after 0, 1, ..., N statements.
fn oracle_states(stmts: &[Stmt]) -> Vec<Vec<(i64, i64)>> {
    let mut m = Model::default();
    let mut states = vec![m.sorted()];
    for stmt in stmts {
        m.step(stmt);
        states.push(m.sorted());
    }
    states
}

/// Applies one statement to the real table. `model` is the oracle state
/// *before* the statement (it supplies fresh ids and OVERWRITE content).
fn apply(table: &DualTableStore, model: &Model, stmt: &Stmt) -> dt_common::Result<()> {
    match *stmt {
        Stmt::Insert { count } => {
            let rows: Vec<Row> = (0..count as i64)
                .map(|i| {
                    let id = model.next_id + i;
                    vec![Value::Int64(id), Value::Int64(id * 3)]
                })
                .collect();
            table.insert_rows(rows).map(|_| ())
        }
        Stmt::Update { divisor, rem, v } => table
            .update(
                move |row| row[0].as_i64().unwrap() % divisor == rem,
                &[(1, Box::new(move |_| Value::Int64(v)))],
                RatioHint::Explicit(0.01),
            )
            .map(|_| ()),
        Stmt::Delete { divisor, rem } => table
            .delete(
                move |row| row[0].as_i64().unwrap() % divisor == rem,
                RatioHint::Explicit(0.01),
            )
            .map(|_| ()),
        Stmt::Overwrite => {
            let rows: Vec<Row> = model
                .rows
                .iter()
                .map(|&(id, v)| vec![Value::Int64(id), Value::Int64(v + 1000)])
                .collect();
            table.insert_overwrite(rows).map(|_| ())
        }
        Stmt::Compact => table.compact(),
        Stmt::Spill => table.spill_delta().map(|_| ()),
    }
}

/// The table's logical content as sorted `(id, v)` pairs.
fn scan_sorted(table: &DualTableStore) -> Result<Vec<(i64, i64)>, String> {
    let scanned = table.scan_all().map_err(|e| format!("scan: {e}"))?;
    let mut got: Vec<(i64, i64)> = scanned
        .iter()
        .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    Ok(got)
}

/// The set of generation directories holding master files.
fn live_generations(env: &DualTableEnv) -> BTreeSet<String> {
    env.dfs
        .list(&format!("/warehouse/{TABLE}/"))
        .into_iter()
        .filter_map(|p| {
            p.split('/')
                .find(|seg| seg.starts_with("gen-"))
                .map(String::from)
        })
        .collect()
}

#[test]
fn crash_matrix_three_tiers() {
    // ------------------------------------------------------------------
    // Record run: learn the op horizon, the per-op class trace, and each
    // statement's op range. Setup runs disarmed so op 1 is the first
    // workload operation in both this run and every crash run.
    // ------------------------------------------------------------------
    let plan = Arc::new(FaultPlan::new(0xD7A1));
    plan.set_armed(false);
    let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
        .expect("clean setup");
    let table = DualTableStore::create(&env, TABLE, schema(), table_cfg()).expect("clean create");
    plan.record_trace();
    plan.set_armed(true);

    let oracles = oracle_states(STMTS);
    let mut model = Model::default();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for stmt in STMTS {
        let start = plan.ops_seen();
        apply(&table, &model, stmt).expect("record run must not fault");
        model.step(stmt);
        ranges.push((start + 1, plan.ops_seen()));
    }
    plan.set_armed(false);
    let trace = plan.take_trace();
    let total_ops = trace.len() as u64;
    assert_eq!(
        scan_sorted(&table).unwrap(),
        oracles[STMTS.len()],
        "record run diverged from oracle"
    );
    assert!(
        total_ops >= 200,
        "workload too small for a 200-point smoke matrix ({total_ops} ops)"
    );

    // Crash points inside OVERWRITE and COMPACT are mandatory: those are
    // the generation-swap critical sections.
    let must_cover: Vec<(u64, u64)> = STMTS
        .iter()
        .zip(&ranges)
        .filter(|(s, _)| matches!(s, Stmt::Overwrite | Stmt::Compact))
        .map(|(_, &r)| r)
        .collect();
    assert_eq!(
        must_cover.len(),
        3,
        "one OVERWRITE + two COMPACT statements"
    );
    assert!(
        must_cover.iter().all(|&(s, e)| s <= e),
        "empty critical range"
    );

    // ------------------------------------------------------------------
    // Matrix run: >= 200 jittered points by default, every op index under
    // CRASH_MATRIX_FULL=1.
    // ------------------------------------------------------------------
    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v != "0");
    let target = if full { total_ops as usize } else { 200 };
    let points = select_crash_points(0x5EED_CA5B, total_ops, target, &must_cover);
    assert!(points.len() >= 200, "only {} crash points", points.len());
    for &(s, e) in &must_cover {
        assert!(
            points.iter().any(|&p| (s..=e).contains(&p)),
            "no crash point inside critical range ({s}, {e}]"
        );
    }

    let report = run_crash_matrix(&points, |k| {
        // Torn writes on even write ops exercise the salvage paths; a
        // plain crash fires on any op class.
        let kind = if trace[(k - 1) as usize] == IoOp::Write && k % 2 == 0 {
            FaultKind::TornWrite
        } else {
            FaultKind::Crash
        };
        let plan = Arc::new(FaultPlan::new(0xC0FFEE ^ k).fail_at(k, kind));
        plan.set_armed(false);
        let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
            .map_err(|e| format!("setup: {e}"))?;
        let table = DualTableStore::create(&env, TABLE, schema(), table_cfg())
            .map_err(|e| format!("create: {e}"))?;
        plan.set_armed(true);

        let mut model = Model::default();
        let mut acked = 0usize;
        let mut crashed = false;
        for stmt in STMTS {
            match apply(&table, &model, stmt) {
                Ok(()) => {
                    model.step(stmt);
                    acked += 1;
                    // An Ok statement with a sticky crash behind it: the
                    // fault hit post-commit maintenance. The simulated
                    // process is dead; stop issuing statements.
                    if plan.is_crashed() {
                        crashed = true;
                        break;
                    }
                }
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        if !crashed && !plan.is_crashed() {
            return Ok(false); // self-healing absorbed the fault
        }

        // Restart the whole stack from its durable state and reopen the
        // table (which settles any deferred generation GC).
        plan.heal_and_disarm();
        env.crash_and_reopen()
            .map_err(|e| format!("recovery: {e}"))?;
        // The restart must purge the block cache: recovery can roll the
        // namespace back past commits, so any block cached pre-crash may
        // describe state the recovered namespace never saw. Every
        // post-recovery read below therefore re-fetches from durable
        // storage — a resurrected pre-crash block would surface as a
        // divergence from the oracle.
        if env.dfs.block_cache_entries() != 0 {
            return Err(format!(
                "{} pre-crash blocks survived recovery in the cache",
                env.dfs.block_cache_entries()
            ));
        }
        let table = DualTableStore::open(&env, TABLE, schema(), table_cfg())
            .map_err(|e| format!("reopen: {e}"))?;

        // Invariant 1: oracle(acked) or oracle(acked + 1), never a mix.
        let got = scan_sorted(&table)?;
        let committed_in_flight = acked + 1 < oracles.len() && got == oracles[acked + 1];
        if got != oracles[acked] && !committed_in_flight {
            return Err(format!(
                "recovered table matches neither oracle({acked}) nor oracle({}): {} rows",
                acked + 1,
                got.len()
            ));
        }
        if table.count().map_err(|e| format!("count: {e}"))? != got.len() as u64 {
            return Err("count() disagrees with scan".into());
        }

        // Invariant 2: one surviving master generation — a crash inside
        // OVERWRITE/COMPACT must land on the old or the new generation.
        let gens = live_generations(&env);
        if gens.len() > 1 {
            return Err(format!("mixed master generations after recovery: {gens:?}"));
        }

        // Invariant 3: no corruption or under-replication; orphans are
        // collected by scrub without touching logical content.
        let fsck = env.dfs.fsck().map_err(|e| format!("fsck: {e}"))?;
        if !fsck.healthy() {
            return Err(format!("fsck unhealthy after recovery: {fsck:?}"));
        }
        env.dfs.scrub().map_err(|e| format!("scrub: {e}"))?;
        let after = env
            .dfs
            .fsck()
            .map_err(|e| format!("post-scrub fsck: {e}"))?;
        if after.orphan_blocks != 0 {
            return Err(format!("{} orphans survived scrub", after.orphan_blocks));
        }
        if scan_sorted(&table)? != got {
            return Err("scrub changed logical table content".into());
        }
        Ok(true)
    });

    assert!(
        report.ok(),
        "crash matrix violations ({} of {} points):\n{:#?}",
        report.violations.len(),
        report.points,
        report.violations
    );
    // Nearly every point must actually kill the workload; a small
    // remainder may be absorbed by replica failover.
    assert!(
        report.crashes_injected * 10 >= report.points * 9,
        "only {} of {} crash points fired",
        report.crashes_injected,
        report.points
    );
}

// ---------------------------------------------------------------------------
// Delta-tier crash matrix (DESIGN.md §17).
//
// The statement matrix above runs with the delta tier off. This one
// re-runs a delta-heavy variant of the workload with EDIT cells routed
// through the WAL-backed shadow runs, and makes every spill window — the
// atomic WAL record carrying the migrated entries plus the retire marker,
// the memtable inserts behind it, and the WAL-rotation carry-forward — a
// mandatory crash range. Invariants are the statement matrix's three,
// plus:
//
// 4. **Replay reaches the tier** — recovery reconstructs the un-spilled
//    shadow entries from the WAL (the recovered scan equals the oracle,
//    which it cannot without them), and the replayed tier stays
//    *operable*: an explicit post-recovery spill drains it to zero bytes
//    without changing a single visible byte.
// ---------------------------------------------------------------------------

/// Delta-heavy workload: every EDIT burst is followed by an explicit
/// spill, and a COMPACT (which spills internally before folding) closes
/// each act. No OVERWRITE — master rewrites don't touch the tier.
const DSTMTS: &[Stmt] = &[
    Stmt::Insert { count: 8 },
    Stmt::Insert { count: 8 },
    Stmt::Update {
        divisor: 2,
        rem: 0,
        v: 7,
    },
    Stmt::Spill,
    Stmt::Insert { count: 6 },
    Stmt::Delete { divisor: 3, rem: 1 },
    Stmt::Update {
        divisor: 5,
        rem: 2,
        v: -3,
    },
    Stmt::Spill,
    Stmt::Compact,
    Stmt::Insert { count: 8 },
    Stmt::Update {
        divisor: 3,
        rem: 0,
        v: 11,
    },
    Stmt::Delete { divisor: 4, rem: 1 },
    Stmt::Spill,
    Stmt::Insert { count: 5 },
    Stmt::Update {
        divisor: 7,
        rem: 3,
        v: 21,
    },
];

/// [`table_cfg`] with the delta tier on. The budget is big enough that
/// spills happen only at the explicit [`Stmt::Spill`] points (and inside
/// COMPACT), keeping every crash run's op trace aligned with the record
/// run's.
fn delta_table_cfg() -> DualTableConfig {
    DualTableConfig {
        delta_bytes: 1 << 20,
        ..table_cfg()
    }
}

#[test]
fn crash_matrix_delta_tier() {
    // Record run (disarmed setup, armed workload) — see the first matrix.
    let plan = Arc::new(FaultPlan::new(0xD7A3));
    plan.set_armed(false);
    let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
        .expect("clean setup");
    let table =
        DualTableStore::create(&env, TABLE, schema(), delta_table_cfg()).expect("clean create");
    plan.record_trace();
    plan.set_armed(true);

    let oracles = oracle_states(DSTMTS);
    let mut model = Model::default();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for stmt in DSTMTS {
        let start = plan.ops_seen();
        apply(&table, &model, stmt).expect("record run must not fault");
        model.step(stmt);
        ranges.push((start + 1, plan.ops_seen()));
    }
    plan.set_armed(false);
    let trace = plan.take_trace();
    let total_ops = trace.len() as u64;
    assert_eq!(
        scan_sorted(&table).unwrap(),
        oracles[DSTMTS.len()],
        "record run diverged from oracle"
    );
    // The workload actually exercised the tier: the final EDIT burst left
    // resident entries, and the earlier spills migrated some.
    assert!(
        table.delta_bytes_used().unwrap() > 0,
        "trailing EDIT burst must leave resident delta entries"
    );
    assert!(
        env.kv.health_snapshot().delta_spills >= 3,
        "explicit spills did not reach the tier"
    );
    assert!(
        total_ops >= 100,
        "workload too small for the delta matrix ({total_ops} ops)"
    );

    // Every spill window is mandatory, as is the COMPACT (it spills
    // internally before folding, then swings the generation).
    let must_cover: Vec<(u64, u64)> = DSTMTS
        .iter()
        .zip(&ranges)
        .filter(|(s, _)| matches!(s, Stmt::Spill | Stmt::Compact))
        .map(|(_, &r)| r)
        .collect();
    assert_eq!(must_cover.len(), 4, "three spills + one compact");
    assert!(
        must_cover.iter().all(|&(s, e)| s <= e),
        "empty spill critical range: {must_cover:?}"
    );

    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v != "0");
    let target = if full { total_ops as usize } else { 150 };
    let points = select_crash_points(0x5EED_CA5D, total_ops, target, &must_cover);
    for &(s, e) in &must_cover {
        assert!(
            points.iter().any(|&p| (s..=e).contains(&p)),
            "no crash point inside critical range ({s}, {e}]"
        );
    }

    let report = run_crash_matrix(&points, |k| {
        let kind = if trace[(k - 1) as usize] == IoOp::Write && k % 2 == 0 {
            FaultKind::TornWrite
        } else {
            FaultKind::Crash
        };
        let plan = Arc::new(FaultPlan::new(0xDE17A ^ k).fail_at(k, kind));
        plan.set_armed(false);
        let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
            .map_err(|e| format!("setup: {e}"))?;
        let table = DualTableStore::create(&env, TABLE, schema(), delta_table_cfg())
            .map_err(|e| format!("create: {e}"))?;
        plan.set_armed(true);

        let mut model = Model::default();
        let mut acked = 0usize;
        let mut crashed = false;
        for stmt in DSTMTS {
            match apply(&table, &model, stmt) {
                Ok(()) => {
                    model.step(stmt);
                    acked += 1;
                    if plan.is_crashed() {
                        crashed = true;
                        break;
                    }
                }
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        if !crashed && !plan.is_crashed() {
            return Ok(false); // self-healing absorbed the fault
        }

        plan.heal_and_disarm();
        env.crash_and_reopen()
            .map_err(|e| format!("recovery: {e}"))?;
        let table = DualTableStore::open(&env, TABLE, schema(), delta_table_cfg())
            .map_err(|e| format!("reopen: {e}"))?;

        // Invariant 1: oracle(acked) or oracle(acked + 1), never a mix —
        // and the recovered scan can only match if WAL replay rebuilt the
        // un-spilled shadow entries (the trailing EDIT bursts live nowhere
        // else).
        let got = scan_sorted(&table)?;
        let committed_in_flight = acked + 1 < oracles.len() && got == oracles[acked + 1];
        if got != oracles[acked] && !committed_in_flight {
            return Err(format!(
                "recovered table matches neither oracle({acked}) nor oracle({}): {} rows",
                acked + 1,
                got.len()
            ));
        }
        if table.count().map_err(|e| format!("count: {e}"))? != got.len() as u64 {
            return Err("count() disagrees with scan".into());
        }

        // Invariant 2: one surviving master generation.
        let gens = live_generations(&env);
        if gens.len() > 1 {
            return Err(format!("mixed master generations after recovery: {gens:?}"));
        }

        // Invariant 3: physical hygiene.
        let fsck = env.dfs.fsck().map_err(|e| format!("fsck: {e}"))?;
        if !fsck.healthy() {
            return Err(format!("fsck unhealthy after recovery: {fsck:?}"));
        }
        env.dfs.scrub().map_err(|e| format!("scrub: {e}"))?;

        // Invariant 4: the replayed tier is operable — an explicit spill
        // drains it completely and changes nothing visible.
        table
            .spill_delta()
            .map_err(|e| format!("post-recovery spill: {e}"))?;
        if table
            .delta_bytes_used()
            .map_err(|e| format!("delta gauge: {e}"))?
            != 0
        {
            return Err("post-recovery spill left resident delta bytes".into());
        }
        if scan_sorted(&table)? != got {
            return Err("post-recovery spill changed logical table content".into());
        }
        Ok(true)
    });

    assert!(
        report.ok(),
        "delta crash matrix violations ({} of {} points):\n{:#?}",
        report.violations.len(),
        report.points,
        report.violations
    );
    assert!(
        report.crashes_injected * 10 >= report.points * 9,
        "only {} of {} crash points fired",
        report.crashes_injected,
        report.points
    );
}

// ---------------------------------------------------------------------------
// Interleaved-transaction crash matrix (DESIGN.md §13).
//
// The first matrix crashes inside *statements*; this one crashes inside a
// fixed interleaving of concurrent MVCC *sessions*: an autocommit writer, a
// pinned reader snapshot, two explicit transactions, and a two-phase
// compaction whose pointer swing happens while the reader is still pinned
// on the old generation (forcing deferred GC, then a mid-GC window when the
// reader drops). Crash points land between a transaction's conflict check
// and its commit batch, mid-pointer-swing, and mid-GC. Invariants:
//
// 1. **Transaction prefix durability** — the recovered table equals the
//    oracle after exactly `acked` script steps (or `acked + 1` when the
//    in-flight step committed before the fault surfaced). A transaction is
//    all-in or all-out: T1 buffers an UPDATE plus a two-master-file INSERT,
//    so a partial commit (files without patches, one file of two) matches
//    no oracle state and fails the matrix. Staged files orphaned between
//    the durable intent write and the commit batch must be rolled back by
//    intent recovery on reopen — an absent visibility record means always
//    visible, so a leaked staged file would surface as phantom rows.
// 2. **Single generation, no pinned generation deleted** — while the
//    process lives, the pinned reader keeps byte-stable reads across the
//    swing (checked in-script); after recovery exactly one generation
//    directory survives and the deferred-GC ledger is empty (pins do not
//    outlive a process).
// 3. **Physical hygiene** — fsck healthy, scrub collects every orphan and
//    leaves logical content untouched.
// ---------------------------------------------------------------------------

/// One step of the interleaved multi-session script. The script is fixed
/// (not seeded): determinism is what lets the record run's op ranges
/// transfer to the crash runs, and the interesting windows — commit,
/// swing, GC — are guaranteed by construction rather than by search.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TStep {
    /// Autocommit EDIT: `v += 100 WHERE id % 4 == 0`.
    AutoUpdate,
    /// Pin a reader snapshot (holds the current generation alive).
    PinReader,
    BeginT1,
    /// Buffered in T1: `v = -5 WHERE id % 3 == 1`.
    T1Update,
    /// Buffered in T1: ids 100..110 — two master files, so commit
    /// atomicity spans multiple staged files.
    T1Insert,
    /// Conflict check → intent write → staged files → commit batch.
    T1Commit,
    /// Build the replacement generation off to the side.
    BeginCompact,
    /// Pointer swing with the reader still pinned: GC must defer.
    FinishSwing,
    /// Autocommit INSERT ids 200..204 (one master file).
    AutoInsert,
    BeginT2,
    /// Buffered in T2: `v += 7 WHERE id % 5 == 2`.
    T2Update,
    /// The pinned reader must still see its pin-time bytes post-swing.
    ReaderCheck,
    /// Dropping the pin drains the retired generation: mid-GC window.
    DropReader,
    T2Commit,
    /// Blocking compact with no pins: immediate GC of the old generation.
    FinalCompact,
}

const TSTEPS: &[TStep] = &[
    TStep::AutoUpdate,
    TStep::PinReader,
    TStep::BeginT1,
    TStep::T1Update,
    TStep::T1Insert,
    TStep::T1Commit,
    TStep::BeginCompact,
    TStep::FinishSwing,
    TStep::AutoInsert,
    TStep::BeginT2,
    TStep::T2Update,
    TStep::ReaderCheck,
    TStep::DropReader,
    TStep::T2Commit,
    TStep::FinalCompact,
];

/// Live session objects of the script. On a simulated crash the whole
/// context is `mem::forget`-ed: a dead process never runs Drop glue
/// (rollback, abandon, unpin), and running it would model a graceful
/// shutdown instead of a crash.
#[derive(Default)]
struct TxnCtx {
    reader: Option<Snapshot>,
    reader_expect: Vec<(i64, i64)>,
    t1: Option<Transaction>,
    t2: Option<Transaction>,
    job: Option<RewriteJob>,
}

const TXN_SEED_ROWS: i64 = 20;

/// Oracle states after 0, 1, ..., N script steps. Index 0 is the disarmed
/// setup seed (ids `0..20`, `v = 3 * id`); buffered transaction writes
/// only land at their commit step.
fn txn_oracle_states() -> Vec<Vec<(i64, i64)>> {
    let mut m: std::collections::BTreeMap<i64, i64> =
        (0..TXN_SEED_ROWS).map(|id| (id, id * 3)).collect();
    let snap = |m: &std::collections::BTreeMap<i64, i64>| {
        m.iter().map(|(&id, &v)| (id, v)).collect::<Vec<_>>()
    };
    let mut states = vec![snap(&m)];
    for step in TSTEPS {
        match step {
            TStep::AutoUpdate => {
                m.iter_mut().for_each(|(id, v)| {
                    if id % 4 == 0 {
                        *v += 100;
                    }
                });
            }
            TStep::T1Commit => {
                m.iter_mut().for_each(|(id, v)| {
                    if id % 3 == 1 {
                        *v = -5;
                    }
                });
                m.extend((100..110).map(|id| (id, id * 2)));
            }
            TStep::AutoInsert => m.extend((200..204).map(|id| (id, id * 2))),
            TStep::T2Commit => {
                m.iter_mut().for_each(|(id, v)| {
                    if id % 5 == 2 {
                        *v += 7;
                    }
                });
            }
            _ => {}
        }
        states.push(snap(&m));
    }
    states
}

/// Sorted `(id, v)` pairs visible to a pinned snapshot.
fn snap_sorted(snap: &Snapshot) -> Result<Vec<(i64, i64)>, String> {
    let scanned = snap.scan_all().map_err(|e| format!("pinned scan: {e}"))?;
    let mut got: Vec<(i64, i64)> = scanned
        .iter()
        .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    Ok(got)
}

/// Runs one script step. `VIOLATION:`-prefixed errors are matrix failures
/// (wrong bytes observed); everything else is treated as the injected
/// fault surfacing, i.e. the crash.
fn apply_tstep(table: &DualTableStore, ctx: &mut TxnCtx, step: TStep) -> Result<(), String> {
    let io = |e: dt_common::Error| format!("io: {e}");
    match step {
        TStep::AutoUpdate => table
            .update(
                |row| row[0].as_i64().unwrap() % 4 == 0,
                &[(
                    1,
                    Box::new(|row: &Row| Value::Int64(row[1].as_i64().unwrap() + 100)),
                )],
                RatioHint::Explicit(0.01),
            )
            .map(|_| ())
            .map_err(io),
        TStep::PinReader => {
            let snap = table.begin_snapshot().map_err(io)?;
            ctx.reader_expect = snap_sorted(&snap)?;
            ctx.reader = Some(snap);
            Ok(())
        }
        TStep::BeginT1 => {
            ctx.t1 = Some(table.begin_transaction().map_err(io)?);
            Ok(())
        }
        TStep::T1Update => ctx
            .t1
            .as_mut()
            .unwrap()
            .update(
                |row| row[0].as_i64().unwrap() % 3 == 1,
                &[(1, Box::new(|_: &Row| Value::Int64(-5)))],
                &UnionReadOptions::all(),
            )
            .map(|_| ())
            .map_err(io),
        TStep::T1Insert => {
            let rows: Vec<Row> = (100..110)
                .map(|id| vec![Value::Int64(id), Value::Int64(id * 2)])
                .collect();
            ctx.t1
                .as_mut()
                .unwrap()
                .insert(rows)
                .map(|_| ())
                .map_err(io)
        }
        TStep::T1Commit => ctx.t1.take().unwrap().commit().map(|_| ()).map_err(io),
        TStep::BeginCompact => {
            ctx.job = Some(table.begin_compact().map_err(io)?);
            Ok(())
        }
        TStep::FinishSwing => ctx.job.take().unwrap().finish().map(|_| ()).map_err(io),
        TStep::AutoInsert => {
            let rows: Vec<Row> = (200..204)
                .map(|id| vec![Value::Int64(id), Value::Int64(id * 2)])
                .collect();
            table.insert_rows(rows).map(|_| ()).map_err(io)
        }
        TStep::BeginT2 => {
            ctx.t2 = Some(table.begin_transaction().map_err(io)?);
            Ok(())
        }
        TStep::T2Update => ctx
            .t2
            .as_mut()
            .unwrap()
            .update(
                |row| row[0].as_i64().unwrap() % 5 == 2,
                &[(
                    1,
                    Box::new(|row: &Row| Value::Int64(row[1].as_i64().unwrap() + 7)),
                )],
                &UnionReadOptions::all(),
            )
            .map(|_| ())
            .map_err(io),
        TStep::ReaderCheck => {
            let got = snap_sorted(ctx.reader.as_ref().unwrap())?;
            if got != ctx.reader_expect {
                return Err(format!(
                    "VIOLATION: pinned reader drifted across the swing: \
                     {} rows at pin, {} now",
                    ctx.reader_expect.len(),
                    got.len()
                ));
            }
            Ok(())
        }
        TStep::DropReader => {
            ctx.reader = None; // unpin → the retired generation drains
            Ok(())
        }
        TStep::T2Commit => ctx.t2.take().unwrap().commit().map(|_| ()).map_err(io),
        TStep::FinalCompact => table.compact().map_err(io),
    }
}

/// Seeds the table (disarmed in both the record run and every crash run,
/// so op indices align).
fn txn_seed(table: &DualTableStore) {
    let rows: Vec<Row> = (0..TXN_SEED_ROWS)
        .map(|id| vec![Value::Int64(id), Value::Int64(id * 3)])
        .collect();
    table.insert_rows(rows).expect("disarmed seed insert");
}

#[test]
fn crash_matrix_interleaved_transactions() {
    // Record run: learn the op horizon and each step's (start, end] range.
    let plan = Arc::new(FaultPlan::new(0xD7A2));
    plan.set_armed(false);
    let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
        .expect("clean setup");
    let table = DualTableStore::create(&env, TABLE, schema(), table_cfg()).expect("clean create");
    txn_seed(&table);
    plan.record_trace();
    plan.set_armed(true);

    let oracles = txn_oracle_states();
    let mut ctx = TxnCtx::default();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for step in TSTEPS {
        let start = plan.ops_seen();
        apply_tstep(&table, &mut ctx, *step).expect("record run must not fault");
        ranges.push((start + 1, plan.ops_seen()));
    }
    plan.set_armed(false);
    let trace = plan.take_trace();
    let total_ops = trace.len() as u64;
    assert_eq!(
        scan_sorted(&table).unwrap(),
        oracles[TSTEPS.len()],
        "record run diverged from oracle"
    );
    // The script must have exercised the deferred-GC path: the swing ran
    // under a pin, and both retired generations were eventually swept.
    let health = env.health.snapshot();
    assert!(health.generations_deferred >= 1, "swing did not defer GC");
    assert!(health.generations_gcd >= 2, "retired generations not swept");
    assert_eq!(table.pinned_snapshots(), 0);
    assert_eq!(table.retired_generations(), 0);
    assert!(
        total_ops >= 100,
        "script too small for the transaction matrix ({total_ops} ops)"
    );

    // Mandatory windows: the commit of a multi-file transaction, the
    // pointer swing under a pinned reader, and the pin-drop GC drain.
    let must_cover: Vec<(u64, u64)> = TSTEPS
        .iter()
        .zip(&ranges)
        .filter(|(s, _)| matches!(s, TStep::T1Commit | TStep::FinishSwing | TStep::DropReader))
        .map(|(_, &r)| r)
        .collect();
    assert_eq!(must_cover.len(), 3);
    for (&(s, e), name) in must_cover.iter().zip(["commit", "swing", "gc"]) {
        assert!(s <= e, "empty {name} critical range ({s}, {e}]");
    }

    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v != "0");
    let target = if full { total_ops as usize } else { 150 };
    let points = select_crash_points(0x5EED_CA5C, total_ops, target, &must_cover);
    for &(s, e) in &must_cover {
        assert!(
            points.iter().any(|&p| (s..=e).contains(&p)),
            "no crash point inside critical range ({s}, {e}]"
        );
    }

    let report = run_crash_matrix(&points, |k| {
        let kind = if trace[(k - 1) as usize] == IoOp::Write && k % 2 == 0 {
            FaultKind::TornWrite
        } else {
            FaultKind::Crash
        };
        let plan = Arc::new(FaultPlan::new(0xBADC0DE ^ k).fail_at(k, kind));
        plan.set_armed(false);
        let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
            .map_err(|e| format!("setup: {e}"))?;
        let table = DualTableStore::create(&env, TABLE, schema(), table_cfg())
            .map_err(|e| format!("create: {e}"))?;
        txn_seed(&table);
        plan.set_armed(true);

        let mut ctx = TxnCtx::default();
        let mut acked = 0usize;
        let mut crashed = false;
        for step in TSTEPS {
            match apply_tstep(&table, &mut ctx, *step) {
                Ok(()) => {
                    acked += 1;
                    if plan.is_crashed() {
                        crashed = true;
                        break;
                    }
                }
                Err(msg) if msg.starts_with("VIOLATION:") => return Err(msg),
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        if !crashed && !plan.is_crashed() {
            return Ok(false); // self-healing absorbed the fault
        }
        // The process is dead: session objects never run their Drop glue
        // (rollback / abandon / unpin would model a graceful shutdown).
        std::mem::forget(ctx);

        plan.heal_and_disarm();
        env.crash_and_reopen()
            .map_err(|e| format!("recovery: {e}"))?;
        let table = DualTableStore::open(&env, TABLE, schema(), table_cfg())
            .map_err(|e| format!("reopen: {e}"))?;

        // Invariant 1: a prefix of whole transactions, never a torn one.
        let got = scan_sorted(&table)?;
        let committed_in_flight = acked + 1 < oracles.len() && got == oracles[acked + 1];
        if got != oracles[acked] && !committed_in_flight {
            return Err(format!(
                "recovered table matches neither oracle({acked}) nor oracle({}): {} rows",
                acked + 1,
                got.len()
            ));
        }
        if table.count().map_err(|e| format!("count: {e}"))? != got.len() as u64 {
            return Err("count() disagrees with scan".into());
        }

        // Invariant 2: one surviving generation; pins die with the
        // process, so reopen must settle any GC the crash deferred.
        let gens = live_generations(&env);
        if gens.len() > 1 {
            return Err(format!("mixed master generations after recovery: {gens:?}"));
        }
        if table.pinned_snapshots() != 0 {
            return Err("phantom pin survived the crash".into());
        }
        if table.retired_generations() != 0 {
            return Err("deferred-GC ledger not settled by reopen".into());
        }

        // Invariant 3: physical hygiene.
        let fsck = env.dfs.fsck().map_err(|e| format!("fsck: {e}"))?;
        if !fsck.healthy() {
            return Err(format!("fsck unhealthy after recovery: {fsck:?}"));
        }
        env.dfs.scrub().map_err(|e| format!("scrub: {e}"))?;
        let after = env
            .dfs
            .fsck()
            .map_err(|e| format!("post-scrub fsck: {e}"))?;
        if after.orphan_blocks != 0 {
            return Err(format!("{} orphans survived scrub", after.orphan_blocks));
        }
        if scan_sorted(&table)? != got {
            return Err("scrub changed logical table content".into());
        }
        Ok(true)
    });

    assert!(
        report.ok(),
        "transaction crash matrix violations ({} of {} points):\n{:#?}",
        report.violations.len(),
        report.points,
        report.violations
    );
    assert!(
        report.crashes_injected * 10 >= report.points * 9,
        "only {} of {} crash points fired",
        report.crashes_injected,
        report.points
    );
}

// ---------------------------------------------------------------------------
// Statement atomicity of a large autocommit EDIT.
//
// An EDIT-plan statement commits its whole patch set in one attached
// batch, however many cells that is. (It used to flush every 4096 cells,
// and a crash between two flushes left a durable prefix of the statement.)
// ---------------------------------------------------------------------------

/// An autocommit EDIT-plan UPDATE of more than 4096 cells, crashed at
/// every one of its I/O operations, recovers to all of the statement or
/// none of it.
#[test]
fn large_autocommit_edit_is_all_or_nothing() {
    const ROWS: i64 = 4500;
    let cfg = || DualTableConfig {
        rows_per_file: 1500,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    };
    let setup = |plan: &Arc<FaultPlan>| {
        plan.set_armed(false);
        let env = DualTableEnv::in_memory_faulty_with(plan.clone(), DfsConfig::default(), kv_cfg())
            .expect("clean setup");
        let table = DualTableStore::create(&env, TABLE, schema(), cfg()).expect("clean create");
        let rows = (0..ROWS).map(|id| vec![Value::Int64(id), Value::Int64(0)]);
        table.insert_rows(rows).expect("clean load");
        (env, table)
    };
    let update = |table: &DualTableStore| {
        table.update(
            |_| true,
            &[(1, Box::new(|_: &Row| Value::Int64(1)))],
            RatioHint::Explicit(0.01),
        )
    };

    let plan = Arc::new(FaultPlan::new(0xA70C));
    let (_env, table) = setup(&plan);
    plan.set_armed(true);
    let before = plan.ops_seen();
    let report = update(&table).expect("record run must not fault");
    let total_ops = plan.ops_seen() - before;
    assert_eq!(report.rows_matched, ROWS as u64);
    assert!(total_ops > 0);

    let points: Vec<u64> = (1..=total_ops).collect();
    let report = run_crash_matrix(&points, |k| {
        let plan = Arc::new(FaultPlan::new(0xA70C ^ k).fail_at(k, FaultKind::Crash));
        let (env, table) = setup(&plan);
        plan.set_armed(true);
        let acked = update(&table).is_ok();
        if !plan.is_crashed() {
            return Ok(false);
        }
        plan.heal_and_disarm();
        env.crash_and_reopen()
            .map_err(|e| format!("recovery: {e}"))?;
        let table = DualTableStore::open(&env, TABLE, schema(), cfg())
            .map_err(|e| format!("reopen: {e}"))?;
        let got = scan_sorted(&table)?;
        let updated = got.iter().filter(|&&(_, v)| v == 1).count();
        if got.len() != ROWS as usize || (updated != 0 && updated != got.len()) {
            return Err(format!(
                "{updated} of {} rows updated: a prefix of the statement survived",
                got.len()
            ));
        }
        if acked && updated == 0 {
            return Err("acknowledged statement lost".into());
        }
        Ok(true)
    });
    assert!(report.ok(), "{:#?}", report.violations);
    assert!(report.crashes_injected > 0, "no crash point fired");
}
