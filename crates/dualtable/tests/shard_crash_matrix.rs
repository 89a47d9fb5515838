//! Crash-point matrix for range-sharded tables (DESIGN.md §16).
//!
//! Extends the three-tier crash matrix (crash_matrix.rs) to the sharded
//! write paths: a range-sharded table plus an unsharded table on the same
//! environment, with cross-shard transactions and a transaction that
//! commits both tables together. The invariants a crash must never break:
//!
//! 1. **Per-shard atomicity** — every shard (and the unsharded table)
//!    recovers to exactly its slice of `oracle(acked)` or
//!    `oracle(acked + 1)`; never a torn shard. An autocommit sharded
//!    statement is a sequence of per-shard statements, so this is all it
//!    promises.
//! 2. **All or none** — an in-flight transactional statement is applied
//!    on every shard and table it touches, or on none of them.
//! 3. **Per-shard single generation** + fsck hygiene, as in the
//!    unsharded matrix.
//!
//! Every I/O of every transactional statement is a mandatory crash point.

use std::collections::BTreeSet;
use std::sync::Arc;

use dt_common::crash_matrix::{run_crash_matrix, select_crash_points};
use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::{DataType, Deadline, Row, Schema, Value};
use dt_dfs::DfsConfig;
use dt_kvstore::KvConfig;
use dt_orcfile::{ColumnPredicate, PredicateOp};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, ShardSpec, ShardedTable,
    Transaction, UnionReadOptions,
};

const TABLE: &str = "shard_crash";
const SIDE: &str = "shard_crash_side";
const SPLITS: [i64; 2] = [100, 200];
const SHARDS: usize = 3;
/// The unsharded table's rows before the workload.
const SIDE_ROWS: i64 = 6;

fn dfs_cfg() -> DfsConfig {
    DfsConfig {
        chunk_size: 64,
        replication: 2,
        checkpoint_interval: 16,
        ..DfsConfig::default()
    }
}

fn kv_cfg() -> KvConfig {
    KvConfig {
        memtable_flush_bytes: 512,
        ..KvConfig::default()
    }
}

fn table_cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 8,
        plan_mode: PlanMode::CostBased,
        write_threads: 2,
        ..DualTableConfig::default()
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn spec() -> ShardSpec {
    ShardSpec::new(0, SPLITS.to_vec()).unwrap()
}

fn rows(keys: impl IntoIterator<Item = i64>) -> Vec<Row> {
    keys.into_iter()
        .map(|k| vec![Value::Int64(k), Value::Int64(k * 3)])
        .collect()
}

/// One statement of the seeded workload. Single-shard INSERTs are atomic
/// on their own; UPDATE/DELETE apply per shard with EDIT-sized ratios.
/// The three transactional kinds are the all-or-none critical sections.
#[derive(Debug, Clone, Copy)]
enum Stmt {
    /// `count` keys starting at `base`, all inside one shard.
    Insert {
        base: i64,
        count: i64,
    },
    /// `count` keys per shard (base, 100+base, 200+base, ...), committed
    /// through one cross-shard transaction.
    CrossInsert {
        base: i64,
        count: i64,
    },
    /// A transactional UPDATE whose rows span every shard.
    CrossUpdate {
        divisor: i64,
        rem: i64,
        v: i64,
    },
    /// One commit over both tables: the sharded table's rows with
    /// `id % divisor == rem` get `v`; the unsharded table gains keys
    /// `base..base + count`, then its even keys get `v`.
    TwoTable {
        divisor: i64,
        rem: i64,
        v: i64,
        base: i64,
        count: i64,
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
    Compact,
}

impl Stmt {
    fn transactional(&self) -> bool {
        matches!(
            self,
            Stmt::CrossInsert { .. } | Stmt::CrossUpdate { .. } | Stmt::TwoTable { .. }
        )
    }
}

const STMTS: &[Stmt] = &[
    Stmt::Insert { base: 0, count: 8 },
    Stmt::CrossInsert { base: 20, count: 4 },
    Stmt::Update {
        divisor: 2,
        rem: 0,
        v: 7,
    },
    Stmt::TwoTable {
        divisor: 3,
        rem: 0,
        v: 11,
        base: 100,
        count: 3,
    },
    Stmt::Insert {
        base: 110,
        count: 6,
    },
    Stmt::CrossInsert { base: 40, count: 5 },
    Stmt::CrossUpdate {
        divisor: 4,
        rem: 1,
        v: 5,
    },
    Stmt::Delete { divisor: 3, rem: 1 },
    Stmt::Compact,
    Stmt::TwoTable {
        divisor: 5,
        rem: 4,
        v: -7,
        base: 200,
        count: 2,
    },
    Stmt::Insert {
        base: 210,
        count: 7,
    },
    Stmt::CrossInsert { base: 60, count: 3 },
    Stmt::Update {
        divisor: 5,
        rem: 2,
        v: -3,
    },
];

fn stmt_keys(stmt: &Stmt) -> Vec<i64> {
    match *stmt {
        Stmt::Insert { base, count } => (0..count).map(|j| base + j).collect(),
        Stmt::CrossInsert { base, count } => (0..SHARDS as i64)
            .flat_map(|s| (0..count).map(move |j| s * 100 + base + j))
            .collect(),
        _ => Vec::new(),
    }
}

/// The in-memory oracle: the sharded table's full keyspace and the
/// unsharded table, each sorted.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    rows: Vec<(i64, i64)>,
    side: Vec<(i64, i64)>,
}

fn set_where(rows: &mut [(i64, i64)], hit: impl Fn(i64) -> bool, v: i64) {
    for (id, val) in rows.iter_mut() {
        if hit(*id) {
            *val = v;
        }
    }
}

impl Model {
    fn step(&mut self, stmt: &Stmt) {
        match *stmt {
            Stmt::Insert { .. } | Stmt::CrossInsert { .. } => {
                self.rows
                    .extend(stmt_keys(stmt).into_iter().map(|k| (k, k * 3)));
            }
            Stmt::CrossUpdate { divisor, rem, v } | Stmt::Update { divisor, rem, v } => {
                set_where(&mut self.rows, |id| id % divisor == rem, v);
            }
            Stmt::TwoTable {
                divisor,
                rem,
                v,
                base,
                count,
            } => {
                set_where(&mut self.rows, |id| id % divisor == rem, v);
                self.side.extend((base..base + count).map(|k| (k, k * 3)));
                set_where(&mut self.side, |id| id % 2 == 0, v);
            }
            Stmt::Delete { divisor, rem } => self.rows.retain(|(id, _)| id % divisor != rem),
            Stmt::Compact => {}
        }
        self.rows.sort_unstable();
        self.side.sort_unstable();
    }
}

fn oracle_states() -> Vec<Model> {
    let mut m = Model {
        rows: Vec::new(),
        side: (0..SIDE_ROWS).map(|k| (k, k * 3)).collect(),
    };
    let mut states = vec![m.clone()];
    for stmt in STMTS {
        m.step(stmt);
        states.push(m.clone());
    }
    states
}

/// Component `c` of a model: shard `c`'s slice of the sharded table for
/// `c < SHARDS`, the unsharded table for `c == SHARDS`.
fn component(m: &Model, sp: &ShardSpec, c: usize) -> Vec<(i64, i64)> {
    if c == SHARDS {
        return m.side.clone();
    }
    let slice = m.rows.iter().copied();
    slice.filter(|&(id, _)| sp.shard_of(id) == c).collect()
}

/// The sharded table and the unsharded one, on one environment.
struct Tables {
    sharded: ShardedTable,
    side: DualTableStore,
}

impl Tables {
    fn create(env: &DualTableEnv) -> dt_common::Result<Self> {
        let sharded = ShardedTable::create(env, TABLE, schema(), table_cfg(), spec())?;
        let side = DualTableStore::create(env, SIDE, schema(), table_cfg())?;
        side.insert_rows(rows(0..SIDE_ROWS))?;
        Ok(Tables { sharded, side })
    }

    fn open(env: &DualTableEnv) -> dt_common::Result<Self> {
        Ok(Tables {
            sharded: ShardedTable::open(env, TABLE, schema(), table_cfg())?,
            side: DualTableStore::open(env, SIDE, schema(), table_cfg())?,
        })
    }

    fn apply(&self, stmt: &Stmt) -> dt_common::Result<()> {
        let table = &self.sharded;
        let all = UnionReadOptions::all();
        let set = |v: i64| -> [dualtable::Assignment<'static>; 1] {
            [(1, Box::new(move |_: &Row| Value::Int64(v)))]
        };
        let hit =
            |divisor: i64, rem: i64| move |row: &Row| row[0].as_i64().unwrap() % divisor == rem;
        match *stmt {
            Stmt::Insert { .. } => table.insert_rows(rows(stmt_keys(stmt))).map(|_| ()),
            Stmt::CrossInsert { .. } => {
                let mut txn = table.begin_transaction()?;
                txn.insert(rows(stmt_keys(stmt)))?;
                txn.commit().map(|_| ())
            }
            Stmt::CrossUpdate { divisor, rem, v } => {
                let mut txn = table.begin_transaction()?;
                txn.update(hit(divisor, rem), &set(v), &all)?;
                txn.commit().map(|_| ())
            }
            Stmt::TwoTable {
                divisor,
                rem,
                v,
                base,
                count,
            } => {
                let mut sharded = table.begin_transaction()?;
                sharded.update(hit(divisor, rem), &set(v), &all)?;
                let mut side = self.side.begin_transaction()?;
                side.insert(rows(base..base + count))?;
                side.update(hit(2, 0), &set(v), &all)?;
                Transaction::commit_all([sharded, side]).map(|_| ())
            }
            Stmt::Update { divisor, rem, v } => table
                .update_keyed(
                    hit(divisor, rem),
                    &set(v),
                    RatioHint::Explicit(0.01),
                    None,
                    None,
                )
                .map(|_| ()),
            Stmt::Delete { divisor, rem } => table
                .delete_keyed(hit(divisor, rem), RatioHint::Explicit(0.01), None, None)
                .map(|_| ()),
            Stmt::Compact => table.compact(),
        }
    }

    /// Component `c`'s logical content as sorted `(id, v)` pairs (see
    /// [`component`]).
    fn scan(&self, c: usize) -> Result<Vec<(i64, i64)>, String> {
        let store = match c {
            SHARDS => &self.side,
            shard => &self.sharded.shards()[shard],
        };
        let scanned = store
            .scan_all()
            .map_err(|e| format!("component {c} scan: {e}"))?;
        let mut got: Vec<(i64, i64)> = scanned
            .iter()
            .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
            .collect();
        got.sort_unstable();
        Ok(got)
    }
}

/// Generation directories under one store's warehouse prefix.
fn generations(env: &DualTableEnv, store: &str) -> BTreeSet<String> {
    env.dfs
        .list(&format!("/warehouse/{store}/"))
        .into_iter()
        .filter_map(|p| {
            p.split('/')
                .find(|seg| seg.starts_with("gen-"))
                .map(String::from)
        })
        .collect()
}

fn faulty_env(plan: &Arc<FaultPlan>) -> dt_common::Result<DualTableEnv> {
    DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
}

#[test]
fn sharded_crash_matrix_all_or_none() {
    // Record run (disarmed setup, armed workload) to learn the horizon
    // and each statement's op range.
    let plan = Arc::new(FaultPlan::new(0x5A4D));
    plan.set_armed(false);
    let env = faulty_env(&plan).expect("clean setup");
    let tables = Tables::create(&env).expect("clean create");
    plan.record_trace();
    plan.set_armed(true);

    let oracles = oracle_states();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for stmt in STMTS {
        let start = plan.ops_seen();
        tables.apply(stmt).expect("record run must not fault");
        ranges.push((start + 1, plan.ops_seen()));
    }
    plan.set_armed(false);
    let trace = plan.take_trace();
    let total_ops = trace.len() as u64;
    let sp = spec();
    for c in 0..=SHARDS {
        let want = component(&oracles[STMTS.len()], &sp, c);
        assert_eq!(tables.scan(c).unwrap(), want, "record run diverged");
    }
    assert!(total_ops >= 200, "workload too small ({total_ops} ops)");
    let transactions = STMTS.iter().filter(|s| s.transactional()).count() as u64;
    assert_eq!(
        env.health.snapshot().commit_records,
        transactions,
        "one record each"
    );

    // Every I/O of every transactional statement is a crash point.
    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v != "0");
    let target = if full { total_ops as usize } else { 200 };
    let mut points = select_crash_points(0x51AB_D00F, total_ops, target, &[]);
    for (stmt, &(start, end)) in STMTS.iter().zip(&ranges) {
        if stmt.transactional() {
            points.extend(start..=end);
        }
    }
    points.sort_unstable();
    points.dedup();
    assert!(points.len() >= 200, "only {} crash points", points.len());
    eprintln!(
        "sharded crash matrix: {} points of {total_ops} ops",
        points.len()
    );

    let report = run_crash_matrix(&points, |k| {
        let kind = if trace[(k - 1) as usize] == IoOp::Write && k % 2 == 0 {
            FaultKind::TornWrite
        } else {
            FaultKind::Crash
        };
        let plan = Arc::new(FaultPlan::new(0xFADE ^ k).fail_at(k, kind));
        plan.set_armed(false);
        let env = faulty_env(&plan).map_err(|e| format!("setup: {e}"))?;
        let tables = Tables::create(&env).map_err(|e| format!("create: {e}"))?;
        plan.set_armed(true);

        let mut acked = 0usize;
        let mut crashed = false;
        for stmt in STMTS {
            match tables.apply(stmt) {
                Ok(()) => {
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
            return Ok(false); // fault absorbed by self-healing
        }

        plan.heal_and_disarm();
        env.crash_and_reopen()
            .map_err(|e| format!("recovery: {e}"))?;
        drop(tables);
        // Topology must survive the crash: the shard map replays from the
        // namenode edit log / checkpoint.
        let tables = Tables::open(&env).map_err(|e| format!("reopen: {e}"))?;
        if tables.sharded.shard_count() != SHARDS {
            return Err(format!(
                "shard map lost shards: {} != {SHARDS}",
                tables.sharded.shard_count()
            ));
        }

        // Invariant 1: every component at oracle(acked) or
        // oracle(acked + 1). `next[c]` records whether component c already
        // reflects the in-flight statement.
        let base = &oracles[acked];
        let next_state = oracles.get(acked + 1);
        let mut next = [false; SHARDS + 1];
        for (c, at_next) in next.iter_mut().enumerate() {
            let got = tables.scan(c)?;
            if got == component(base, &sp, c) {
                continue;
            }
            match next_state {
                Some(ns) if got == component(ns, &sp, c) => *at_next = true,
                _ => {
                    return Err(format!(
                        "component {c} matches neither oracle({acked}) nor oracle({}) \
                         ({} rows)",
                        acked + 1,
                        got.len()
                    ));
                }
            }
        }
        // Invariant 2: an in-flight transaction landed everywhere it
        // writes, or nowhere.
        if let Some(ns) = next_state.filter(|_| STMTS[acked].transactional()) {
            let touched: Vec<usize> = (0..=SHARDS)
                .filter(|&c| component(base, &sp, c) != component(ns, &sp, c))
                .collect();
            let applied: Vec<bool> = touched.iter().map(|&c| next[c]).collect();
            if applied.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!(
                    "in-flight {:?} applied on part of what it touches: \
                     touched {touched:?}, applied {applied:?}",
                    STMTS[acked]
                ));
            }
        }

        // Invariant 3: one master generation per store; fsck/scrub clean.
        let stores = (0..SHARDS).map(|i| format!("{TABLE}__s{i}"));
        for store in stores.chain([SIDE.to_string()]) {
            let gens = generations(&env, &store);
            if gens.len() > 1 {
                return Err(format!("{store} mixed generations: {gens:?}"));
            }
        }
        let fsck = env.dfs.fsck().map_err(|e| format!("fsck: {e}"))?;
        if !fsck.healthy() {
            return Err(format!("fsck unhealthy: {fsck:?}"));
        }
        env.dfs.scrub().map_err(|e| format!("scrub: {e}"))?;
        let after = env
            .dfs
            .fsck()
            .map_err(|e| format!("post-scrub fsck: {e}"))?;
        if after.orphan_blocks != 0 {
            return Err(format!("{} orphans survived scrub", after.orphan_blocks));
        }
        Ok(true)
    });

    assert!(
        report.ok(),
        "sharded crash matrix violations ({} of {} points):\n{:#?}",
        report.violations.len(),
        report.points,
        report.violations
    );
}

/// Decision records still in the metadata table.
fn decision_records(env: &DualTableEnv) -> usize {
    let meta = env.kv.table("__dualtable_meta").unwrap();
    meta.scan(Some(b"commit:"), Some(b"commit;"))
        .unwrap()
        .count()
}

/// The value a cross-shard transaction sets on every row of the directed
/// tests below.
const DECIDED: i64 = 42;

/// A sharded table with two rows per shard and a transaction, not yet
/// committed, that sets every row's `v` to [`DECIDED`]. Setup runs with
/// `plan` disarmed, so the commit's I/O is numbered from 1.
fn decided_update(plan: &Arc<FaultPlan>) -> (DualTableEnv, ShardedTable, Transaction) {
    plan.set_armed(false);
    let env = faulty_env(plan).unwrap();
    let table = ShardedTable::create(&env, TABLE, schema(), table_cfg(), spec()).unwrap();
    table.insert_rows(rows([1, 2, 101, 102, 201, 202])).unwrap();
    let mut txn = table.begin_transaction().unwrap();
    let set: [dualtable::Assignment<'static>; 1] = [(1, Box::new(|_: &Row| Value::Int64(DECIDED)))];
    txn.update(|_| true, &set, &UnionReadOptions::all())
        .unwrap();
    (env, table, txn)
}

/// The commit of [`decided_update`] as I/O operations: the record write
/// (and the metadata table's flush behind it), then one append per shard
/// in shard order, then the record clear.
fn decided_commit_trace() -> Vec<IoOp> {
    let probe = Arc::new(FaultPlan::new(1));
    let (_, _, txn) = decided_update(&probe);
    probe.record_trace();
    probe.set_armed(true);
    txn.commit().unwrap();
    probe.set_armed(false);
    let trace = probe.take_trace();
    assert!(
        trace.ends_with(&[IoOp::Write; SHARDS + 1]),
        "shard appends, then the clear: {trace:?}"
    );
    trace
}

/// A cross-shard commit whose second shard could not take its decided
/// cells: the commit is still acknowledged, the shard turns read-only and
/// the decision record stays, so the reopen that redoes it gives every
/// shard the whole commit.
#[test]
fn a_failed_participant_write_keeps_its_decision_record() {
    // 1-based: the second of the last SHARDS + 1 operations.
    let second_shard = (decided_commit_trace().len() - SHARDS + 1) as u64;
    let plan = Arc::new(FaultPlan::new(3).fail_at(second_shard, FaultKind::WriteError));
    let (env, table, txn) = decided_update(&plan);
    plan.set_armed(true);
    txn.commit().expect("a decided commit is acknowledged");
    plan.set_armed(false);
    assert_eq!(
        decision_records(&env),
        1,
        "the record outlives a failed write"
    );

    let later: [dualtable::Assignment<'static>; 1] = [(1, Box::new(|_: &Row| Value::Int64(7)))];
    let refused = table.update_keyed(
        |row| row[0] == Value::Int64(101),
        &later,
        RatioHint::Explicit(0.01),
        None,
        None,
    );
    assert!(
        refused.is_err(),
        "the shard missing decided cells takes no write"
    );

    env.crash_and_reopen().unwrap();
    assert_eq!(decision_records(&env), 0, "recovery redid and cleared it");
    drop(table);
    let table = ShardedTable::open(&env, TABLE, schema(), table_cfg()).unwrap();
    for (i, shard) in table.shards().iter().enumerate() {
        let values: Vec<i64> = shard
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, row)| row[1].as_i64().unwrap())
            .collect();
        assert_eq!(values, [DECIDED; 2], "shard {i}");
    }
}

/// A cross-shard commit whose decision record could not be cleared, then
/// a later autocommit UPDATE of one of its rows, then a crash: recovery
/// redoes the record at its own timestamp, so the later value survives,
/// and the redone presence counts still route a pushed-down scan to every
/// decided cell.
#[test]
fn a_left_over_decision_record_never_shadows_a_later_write() {
    // Fail the clear, the commit's last I/O, through every retry.
    let clear = decided_commit_trace().len() as u64;
    let plan =
        Arc::new(FaultPlan::new(2).fail_transient_at(clear, FaultKind::TransientWriteError, 4));
    let (env, table, txn) = decided_update(&plan);
    plan.set_armed(true);
    txn.commit().unwrap();
    plan.set_armed(false);
    assert_eq!(decision_records(&env), 1, "the record outlived its commit");

    let later: [dualtable::Assignment<'static>; 1] = [(1, Box::new(|_: &Row| Value::Int64(7)))];
    table
        .update_keyed(
            |row| row[0] == Value::Int64(101),
            &later,
            RatioHint::Explicit(0.01),
            None,
            None,
        )
        .unwrap();
    env.crash_and_reopen().unwrap();
    assert_eq!(decision_records(&env), 0, "recovery redid and cleared it");
    drop(table);
    let table = ShardedTable::open(&env, TABLE, schema(), table_cfg()).unwrap();

    let scan = |opts: &UnionReadOptions| {
        let batches = table.scan_batches(opts, &Deadline::never()).unwrap();
        let rows = batches.iter().flat_map(|batch| batch.selected_rows());
        let mut got: Vec<(i64, i64)> = rows
            .map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
            .collect();
        got.sort_unstable();
        got
    };
    let mut expect = vec![
        (1, DECIDED),
        (2, DECIDED),
        (101, 7),
        (102, DECIDED),
        (201, DECIDED),
        (202, DECIDED),
    ];
    assert_eq!(
        scan(&UnionReadOptions::all()),
        expect,
        "the later write survives the redo"
    );

    // Stripe statistics say no master row holds DECIDED: only the presence
    // index keeps the pushed-down predicate off those stripes.
    let mut pushed = UnionReadOptions::all();
    pushed.predicates = Some(vec![ColumnPredicate::new(
        1,
        PredicateOp::Eq,
        Value::Int64(DECIDED),
    )]);
    let mut got = scan(&pushed);
    got.retain(|&(_, v)| v == DECIDED);
    expect.retain(|&(_, v)| v == DECIDED);
    assert_eq!(
        got, expect,
        "a pushed-down scan still meets every decided cell"
    );
}
