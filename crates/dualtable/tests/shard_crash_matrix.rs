//! Crash-point matrix for range-sharded tables (DESIGN.md §16).
//!
//! Extends the three-tier crash matrix (crash_matrix.rs) to the sharded
//! write paths, most importantly the window **between per-shard commits**
//! of one cross-shard statement. A sharded statement applies its
//! per-shard effects in ascending shard order, so the invariant a crash
//! must never break is the *committed-prefix* rule:
//!
//! 1. **Per-shard atomicity** — every shard recovers to exactly its
//!    slice of `oracle(acked)` or `oracle(acked + 1)`; never a torn
//!    shard.
//! 2. **Committed prefix** — among the shards the in-flight statement
//!    touches, the ones that committed form a prefix in shard order. A
//!    crash can strand shard 0 at `acked + 1` with shard 2 at `acked`,
//!    never the reverse.
//! 3. **Per-shard single generation** + fsck hygiene, as in the
//!    unsharded matrix.
//!
//! Cross-shard transactional INSERTs are mandatory crash targets: every
//! selected point set covers their op ranges.

use std::collections::BTreeSet;
use std::sync::Arc;

use dt_common::crash_matrix::{run_crash_matrix, select_crash_points};
use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::{DataType, Row, Schema, Value};
use dt_dfs::DfsConfig;
use dt_kvstore::KvConfig;
use dualtable::{DualTableConfig, DualTableEnv, PlanMode, RatioHint, ShardSpec, ShardedTable};

const TABLE: &str = "shard_crash";
const SPLITS: [i64; 2] = [100, 200];
const SHARDS: usize = 3;

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

/// One statement of the seeded workload. Single-shard INSERTs are atomic
/// on their own; CrossInsert runs through a cross-shard transaction and is
/// the committed-prefix critical section; UPDATE/DELETE apply per shard
/// in ascending order with EDIT-sized ratios.
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

const STMTS: &[Stmt] = &[
    Stmt::Insert { base: 0, count: 8 },
    Stmt::CrossInsert { base: 20, count: 4 },
    Stmt::Update {
        divisor: 2,
        rem: 0,
        v: 7,
    },
    Stmt::Insert {
        base: 110,
        count: 6,
    },
    Stmt::CrossInsert { base: 40, count: 5 },
    Stmt::Delete { divisor: 3, rem: 1 },
    Stmt::Compact,
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

/// The in-memory oracle over the full keyspace.
#[derive(Debug, Clone, Default)]
struct Model {
    rows: Vec<(i64, i64)>,
}

impl Model {
    fn step(&mut self, stmt: &Stmt) {
        match *stmt {
            Stmt::Insert { .. } | Stmt::CrossInsert { .. } => {
                for k in stmt_keys(stmt) {
                    self.rows.push((k, k * 3));
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
            Stmt::Compact => {}
        }
    }

    fn sorted(&self) -> Vec<(i64, i64)> {
        let mut v = self.rows.clone();
        v.sort_unstable();
        v
    }
}

fn oracle_states() -> Vec<Vec<(i64, i64)>> {
    let mut m = Model::default();
    let mut states = vec![m.sorted()];
    for stmt in STMTS {
        m.step(stmt);
        states.push(m.sorted());
    }
    states
}

/// `state` restricted to shard `i`'s key range.
fn shard_slice(state: &[(i64, i64)], sp: &ShardSpec, i: usize) -> Vec<(i64, i64)> {
    state
        .iter()
        .copied()
        .filter(|&(id, _)| sp.shard_of(id) == i)
        .collect()
}

fn apply(table: &ShardedTable, stmt: &Stmt) -> dt_common::Result<()> {
    match *stmt {
        Stmt::Insert { .. } => {
            let rows: Vec<Row> = stmt_keys(stmt)
                .into_iter()
                .map(|k| vec![Value::Int64(k), Value::Int64(k * 3)])
                .collect();
            table.insert_rows(rows).map(|_| ())
        }
        Stmt::CrossInsert { .. } => {
            let rows: Vec<Row> = stmt_keys(stmt)
                .into_iter()
                .map(|k| vec![Value::Int64(k), Value::Int64(k * 3)])
                .collect();
            let mut txn = table.begin_transaction()?;
            txn.insert(rows)?;
            txn.commit().map(|_| ())
        }
        Stmt::Update { divisor, rem, v } => table
            .update_keyed(
                move |row| row[0].as_i64().unwrap() % divisor == rem,
                &[(1, Box::new(move |_| Value::Int64(v)))],
                RatioHint::Explicit(0.01),
                None,
                None,
            )
            .map(|_| ()),
        Stmt::Delete { divisor, rem } => table
            .delete_keyed(
                move |row| row[0].as_i64().unwrap() % divisor == rem,
                RatioHint::Explicit(0.01),
                None,
                None,
            )
            .map(|_| ()),
        Stmt::Compact => table.compact(),
    }
}

/// One shard's logical content as sorted `(id, v)` pairs.
fn scan_shard(table: &ShardedTable, i: usize) -> Result<Vec<(i64, i64)>, String> {
    let scanned = table.shards()[i]
        .scan_all()
        .map_err(|e| format!("shard {i} scan: {e}"))?;
    let mut got: Vec<(i64, i64)> = scanned
        .iter()
        .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    Ok(got)
}

/// Generation directories under one shard's warehouse prefix.
fn shard_generations(env: &DualTableEnv, i: usize) -> BTreeSet<String> {
    env.dfs
        .list(&format!("/warehouse/{TABLE}__s{i}/"))
        .into_iter()
        .filter_map(|p| {
            p.split('/')
                .find(|seg| seg.starts_with("gen-"))
                .map(String::from)
        })
        .collect()
}

#[test]
fn sharded_crash_matrix_committed_prefix() {
    // Record run (disarmed setup, armed workload) to learn the horizon
    // and each statement's op range.
    let plan = Arc::new(FaultPlan::new(0x5A4D));
    plan.set_armed(false);
    let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
        .expect("clean setup");
    let table =
        ShardedTable::create(&env, TABLE, schema(), table_cfg(), spec()).expect("clean create");
    plan.record_trace();
    plan.set_armed(true);

    let oracles = oracle_states();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for stmt in STMTS {
        let start = plan.ops_seen();
        apply(&table, stmt).expect("record run must not fault");
        ranges.push((start + 1, plan.ops_seen()));
    }
    plan.set_armed(false);
    let trace = plan.take_trace();
    let total_ops = trace.len() as u64;
    let mut recorded: Vec<(i64, i64)> = Vec::new();
    for i in 0..SHARDS {
        recorded.extend(scan_shard(&table, i).unwrap());
    }
    recorded.sort_unstable();
    assert_eq!(recorded, oracles[STMTS.len()], "record run diverged");
    assert!(total_ops >= 200, "workload too small ({total_ops} ops)");

    // Every cross-shard transactional commit is a mandatory target.
    let must_cover: Vec<(u64, u64)> = STMTS
        .iter()
        .zip(&ranges)
        .filter(|(s, _)| matches!(s, Stmt::CrossInsert { .. }))
        .map(|(_, &r)| r)
        .collect();
    assert_eq!(must_cover.len(), 3, "three cross-shard transactions");

    let full = std::env::var("CRASH_MATRIX_FULL").is_ok_and(|v| v != "0");
    let target = if full { total_ops as usize } else { 200 };
    let points = select_crash_points(0x51AB_D00F, total_ops, target, &must_cover);
    assert!(points.len() >= 200, "only {} crash points", points.len());

    let sp = spec();
    let report = run_crash_matrix(&points, |k| {
        let kind = if trace[(k - 1) as usize] == IoOp::Write && k % 2 == 0 {
            FaultKind::TornWrite
        } else {
            FaultKind::Crash
        };
        let plan = Arc::new(FaultPlan::new(0xFADE ^ k).fail_at(k, kind));
        plan.set_armed(false);
        let env = DualTableEnv::in_memory_faulty_with(plan.clone(), dfs_cfg(), kv_cfg())
            .map_err(|e| format!("setup: {e}"))?;
        let table = ShardedTable::create(&env, TABLE, schema(), table_cfg(), spec())
            .map_err(|e| format!("create: {e}"))?;
        plan.set_armed(true);

        let mut acked = 0usize;
        let mut crashed = false;
        for stmt in STMTS {
            match apply(&table, stmt) {
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
        drop(table);
        // Topology must survive the crash: the shard map replays from the
        // namenode edit log / checkpoint.
        let table = ShardedTable::open(&env, TABLE, schema(), table_cfg())
            .map_err(|e| format!("reopen: {e}"))?;
        if table.shard_count() != SHARDS {
            return Err(format!(
                "shard map lost shards: {} != {SHARDS}",
                table.shard_count()
            ));
        }

        // Invariant 1 + 2: per-shard oracle states forming a committed
        // prefix. `next[i]` records whether shard i already reflects the
        // in-flight statement.
        let base_state = &oracles[acked];
        let next_state = oracles.get(acked + 1);
        let mut next = [false; SHARDS];
        for (i, at_next) in next.iter_mut().enumerate() {
            let got = scan_shard(&table, i)?;
            let base_slice = shard_slice(base_state, &sp, i);
            if got == base_slice {
                continue;
            }
            match next_state {
                Some(ns) if got == shard_slice(ns, &sp, i) => *at_next = true,
                _ => {
                    return Err(format!(
                        "shard {i} matches neither oracle({acked}) nor oracle({}) slice \
                         ({} rows)",
                        acked + 1,
                        got.len()
                    ));
                }
            }
        }
        if let Some(ns) = next_state {
            // Shards the in-flight statement touches, ascending. The
            // committed ones must be a prefix of that list.
            let touched: Vec<usize> = (0..SHARDS)
                .filter(|&i| shard_slice(base_state, &sp, i) != shard_slice(ns, &sp, i))
                .collect();
            let committed: Vec<bool> = touched.iter().map(|&i| next[i]).collect();
            if committed.windows(2).any(|w| !w[0] && w[1]) {
                return Err(format!(
                    "in-flight statement committed out of shard order: \
                     touched {touched:?}, committed {committed:?}"
                ));
            }
        }

        // Invariant 3: one master generation per shard; fsck/scrub clean.
        for i in 0..SHARDS {
            let gens = shard_generations(&env, i);
            if gens.len() > 1 {
                return Err(format!("shard {i} mixed generations: {gens:?}"));
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
