//! What the crash matrix and the soak harness share (DESIGN.md §6): the
//! reference [`model`], the table [`Shape`]s a workload runs on, and
//! [`apply`], which runs one [`Step`] on the engine.
#![allow(dead_code)]

pub mod model;

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;

use dt_common::fault::FaultPlan;
use dt_common::{DataType, RecordId, RetryPolicy, Row, Schema, Value};
use dt_dfs::DfsConfig;
use dt_kvstore::KvConfig;
use dualtable::{
    Assignment, DualTableConfig, DualTableEnv, DualTableStore, PlanChoice, PlanMode, RatioHint,
    RewriteJob, ShardSpec, ShardedTable, Transaction, UnionReadOptions,
};
pub use model::*;

pub const TABLE: &str = "crash_table";
pub const SIDE_TABLE: &str = "crash_table_side";

pub fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

pub fn spec() -> ShardSpec {
    ShardSpec::new(0, SPLITS.to_vec()).unwrap()
}

/// Rows of fresh keys: `v = 3 * id`.
pub fn rows(keys: impl IntoIterator<Item = i64>) -> Vec<Row> {
    keys.into_iter()
        .map(|k| vec![Value::Int64(k), Value::Int64(k * 3)])
        .collect()
}

impl Set {
    pub fn assignment(self) -> [Assignment<'static>; 1] {
        [(
            1,
            Box::new(move |row: &Row| Ok(Value::Int64(self.apply(row[1].as_i64().unwrap())))),
        )]
    }
}

/// The tables a workload runs on.
#[derive(Clone)]
pub struct Shape {
    /// [`MAIN`] range-sharded at [`SPLITS`] beside an unsharded [`SIDE`]
    /// table; otherwise [`MAIN`] is one store.
    pub sharded: bool,
    pub delta_bytes: usize,
    /// The degree every step runs at ([`dt_engine::with_degree`]).
    pub degree: usize,
    pub rows_per_file: usize,
    pub plan_mode: PlanMode,
    /// DFS block size and KV memtable size: small ones put crash points
    /// inside block pipelines, WAL rotation and SSTable flushes.
    pub chunk_size: usize,
    pub memtable_bytes: usize,
    /// The retry policy of every tier: off, a fault fails its statement.
    pub retry: bool,
}

impl Default for Shape {
    /// Degree 2, so OVERWRITE/COMPACT crash points run against the
    /// parallel fan-out. Its op count per statement is deterministic,
    /// which is what lets the record run's trace transfer to the crash runs.
    fn default() -> Self {
        Shape {
            sharded: false,
            delta_bytes: 0,
            degree: 2,
            rows_per_file: 8,
            plan_mode: PlanMode::CostBased,
            chunk_size: 64,
            memtable_bytes: 512,
            retry: true,
        }
    }
}

impl Shape {
    /// Replication 2 and a mid-workload checkpoint interval put crash
    /// points inside replica pipelines and checkpoint writes.
    pub fn env(&self, plan: &Arc<FaultPlan>) -> dt_common::Result<DualTableEnv> {
        let dfs = DfsConfig {
            chunk_size: self.chunk_size,
            replication: 2,
            checkpoint_interval: 16,
            retry: self.retry_policy(),
            ..DfsConfig::default()
        };
        let kv = KvConfig {
            memtable_flush_bytes: self.memtable_bytes,
            retry: self.retry_policy(),
            ..KvConfig::default()
        };
        DualTableEnv::in_memory_faulty_with(plan.clone(), dfs, kv)
    }

    fn retry_policy(&self) -> RetryPolicy {
        match self.retry {
            true => RetryPolicy::default(),
            false => RetryPolicy::disabled(),
        }
    }

    /// The delta budget, when on, is big enough that spills happen only at
    /// `Spill` steps and inside COMPACT, keeping every run's trace aligned.
    pub fn config(&self) -> DualTableConfig {
        DualTableConfig {
            rows_per_file: self.rows_per_file,
            plan_mode: self.plan_mode,
            delta_bytes: self.delta_bytes,
            retry: self.retry_policy(),
            ..DualTableConfig::default()
        }
    }

    pub fn tables(&self) -> usize {
        1 + usize::from(self.sharded)
    }

    pub fn model(&self) -> Model {
        Model::new(self.tables(), self.sharded)
    }

    /// Each store's slice of `state`, as sorted `(id, v)` pairs.
    pub fn slices(&self, state: &State) -> Vec<Vec<(i64, i64)>> {
        let model = self.model();
        let mut slices = vec![Vec::new(); model.stores()];
        for (t, table) in state.iter().enumerate() {
            for (&id, &v) in table {
                slices[model.store_of(t, id)].push((id, v));
            }
        }
        slices
    }
}

pub enum Handle {
    One(DualTableStore),
    Sharded(ShardedTable),
}

/// Calls a method both table kinds have.
macro_rules! either {
    ($handle:expr, $t:ident => $call:expr) => {
        match $handle {
            Handle::One($t) => $call,
            Handle::Sharded($t) => $call,
        }
    };
}

impl Handle {
    pub fn stores(&self) -> &[DualTableStore] {
        match self {
            Handle::One(s) => std::slice::from_ref(s),
            Handle::Sharded(t) => t.shards(),
        }
    }

    pub fn one(&self) -> &DualTableStore {
        match self {
            Handle::One(s) => s,
            Handle::Sharded(_) => panic!("rewrite jobs take one store"),
        }
    }

    /// An UPDATE (`set` given) or DELETE: rows matched, and the stores
    /// (indices into [`Handle::stores`]) that took the OVERWRITE plan.
    fn dml(
        &self,
        hit: Hit,
        set: Option<&[Assignment]>,
        ratio: f64,
    ) -> dt_common::Result<(u64, Vec<usize>)> {
        let (pred, ratio) = (hits(hit), RatioHint::Explicit(ratio));
        let reports = match self {
            Handle::One(s) => vec![(0, s.dml(&pred, set, ratio, None, &UnionReadOptions::all())?)],
            Handle::Sharded(t) => t.dml(&pred, set, ratio, None, None)?.per_shard,
        };
        let matched = reports.iter().map(|(_, r)| r.rows_matched).sum();
        let rewrites = reports
            .iter()
            .filter(|(_, r)| r.plan == PlanChoice::Overwrite);
        Ok((matched, rewrites.map(|&(i, _)| i).collect()))
    }
}

/// A workload's tables on one environment.
pub struct Stack {
    pub env: DualTableEnv,
    pub tables: Vec<Handle>,
}

impl Stack {
    pub fn new(env: &DualTableEnv, shape: &Shape, create: bool) -> dt_common::Result<Self> {
        let cfg = shape.config();
        let store = |name| match create {
            true => DualTableStore::create(env, name, schema(), cfg.clone()),
            false => DualTableStore::open(env, name, schema(), cfg.clone()),
        };
        let mut tables = vec![match (shape.sharded, create) {
            (false, _) => Handle::One(store(TABLE)?),
            (true, true) => Handle::Sharded(ShardedTable::create(
                env,
                TABLE,
                schema(),
                cfg.clone(),
                spec(),
            )?),
            (true, false) => {
                Handle::Sharded(ShardedTable::open(env, TABLE, schema(), cfg.clone())?)
            }
        }];
        if shape.sharded {
            tables.push(Handle::One(store(SIDE_TABLE)?));
        }
        Ok(Stack {
            env: env.clone(),
            tables,
        })
    }

    pub fn stores(&self) -> impl Iterator<Item = &DualTableStore> {
        self.tables.iter().flat_map(Handle::stores)
    }

    /// The index of table `t`'s first store in [`Stack::stores`].
    fn first_store(&self, t: usize) -> usize {
        self.tables[..t].iter().map(|h| h.stores().len()).sum()
    }
}

/// A scan as sorted `(id, v)` pairs.
pub fn pairs(scan: dt_common::Result<Vec<(RecordId, Row)>>) -> dt_common::Result<Vec<(i64, i64)>> {
    let rows = scan?.into_iter();
    let mut got: Vec<_> = rows
        .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    Ok(got)
}

/// The sessions and the rewrite job a workload holds open between steps.
#[derive(Default)]
pub struct Live {
    pub sessions: BTreeMap<usize, Vec<Transaction>>,
    pub job: Option<RewriteJob>,
}

/// What one transaction sees, as `id → v`.
fn view(txn: &Transaction) -> dt_common::Result<BTreeMap<i64, i64>> {
    let mut rows = BTreeMap::new();
    txn.for_each_batch(&UnionReadOptions::all(), |_, batch| {
        let pair = |r: Row| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap());
        rows.extend(batch.selected_rows().map(pair));
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(rows)
}

/// Runs one step on the engine. `model` is the state before it (it
/// supplies OVERWRITE's rows). A failed transactional statement ends its
/// session, as [`Model::fail`] does.
pub fn apply(
    stack: &Stack,
    live: &mut Live,
    model: &Model,
    step: &Step,
) -> dt_common::Result<Seen> {
    let tables = &stack.tables;
    let mut seen = Seen::default();
    let bumped = |t: usize| -> Vec<Row> {
        let rows = model.tables[t].iter();
        rows.map(|(&id, &v)| vec![Value::Int64(id), Value::Int64(v + 1000)])
            .collect()
    };
    let stores = |t: usize, local: Vec<usize>| {
        local
            .into_iter()
            .map(|i| stack.first_store(t) + i)
            .collect()
    };
    if let Some((s, t, hit, set, ratio)) = step.edit() {
        let set = set.map(Set::assignment);
        let set = set.as_ref().map(|set| &set[..]);
        let Some(s) = s else {
            let (matched, swung) = tables[t].dml(hit, set, ratio)?;
            (seen.matched, seen.swung) = (Some(matched), Some(stores(t, swung)));
            return Ok(seen);
        };
        let (txn, all) = (txn(live, s, t), UnionReadOptions::all());
        let matched = match set {
            Some(set) => txn.update(hits(hit), set, &all),
            None => txn.delete(hits(hit), &all),
        };
        seen.matched = Some(matched.inspect_err(|_| drop(live.sessions.remove(&s)))?);
        return Ok(seen);
    }
    match step {
        Step::Insert(t, keys) => {
            either!(&tables[*t], h => h.insert_rows(rows(keys.clone()))).map(drop)?
        }
        Step::Overwrite(t) => {
            either!(&tables[*t], h => h.insert_overwrite(bumped(*t))).map(drop)?
        }
        Step::Compact(t) => either!(&tables[*t], h => h.compact())?,
        Step::Fold(t) => {
            let before: Vec<u64> = (0..tables[*t].stores().len())
                .map(|i| folded(&tables[*t], i))
                .collect();
            either!(&tables[*t], h => h.compact_incremental())?;
            let after = before
                .iter()
                .enumerate()
                .filter(|&(i, &n)| folded(&tables[*t], i) > n);
            seen.swung = Some(stores(*t, after.map(|(i, _)| i).collect()));
        }
        Step::Spill(t) => {
            for store in tables[*t].stores() {
                store.spill_delta()?;
            }
        }
        Step::Begin(s) => {
            let txns = tables
                .iter()
                .map(|h| either!(h, h => h.begin_transaction()));
            live.sessions
                .insert(*s, txns.collect::<dt_common::Result<_>>()?);
        }
        Step::TxnInsert(s, t, keys) => {
            let insert = txn(live, *s, *t).insert(rows(keys.clone()));
            insert.inspect_err(|_| drop(live.sessions.remove(s)))?;
        }
        Step::Check(s) => {
            let txns = &live.sessions[s];
            seen.read = Some(txns.iter().map(view).collect::<dt_common::Result<_>>()?);
        }
        Step::Commit(s) => Transaction::commit_all(live.sessions.remove(s).unwrap()).map(drop)?,
        Step::Rollback(s) | Step::Drop(s) => drop(live.sessions.remove(s)),
        Step::Build(job) => {
            let store = tables[MAIN].one();
            live.job = match job {
                Job::Compact => Some(store.begin_compact()?),
                Job::Overwrite => Some(store.begin_insert_overwrite(bumped(MAIN))?),
                Job::Fold => store.begin_incremental(|| {})?,
            };
            if live.job.is_none() {
                seen.swung = Some(Vec::new());
            }
        }
        Step::Swing => {
            if let Some(job) = live.job.take() {
                job.finish()?;
            }
        }
        Step::Abandon => drop(live.job.take()),
        // UPDATE and DELETE ran above; the harness that owns the plan arms a
        // fault.
        _ => {}
    }
    Ok(seen)
}

fn txn(live: &mut Live, s: usize, t: usize) -> &mut Transaction {
    &mut live.sessions.get_mut(&s).unwrap()[t]
}

/// Folds store `i` of a table has completed.
fn folded(handle: &Handle, i: usize) -> u64 {
    match handle {
        Handle::One(s) => s.env().health.snapshot().compactions_completed,
        Handle::Sharded(t) => t.fold_stats(i).folded,
    }
}
