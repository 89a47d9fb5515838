//! Range sharding (DESIGN.md §16): one logical table partitioned by
//! primary-key range into N independent [`DualTableStore`] shards.
//!
//! Each shard is a *full* dualtable — its own master file set, attached
//! KV table, record-ID space, presence index and MVCC generation chain —
//! so the §IV cost model, the incremental compactor and the crash-recovery
//! machinery all run per shard with zero new code. What this module adds
//! is purely the layer above:
//!
//! * a [`ShardSpec`] (key column + strictly ascending split points) whose
//!   durable form, the **shard map**, is a CRC-framed file written through
//!   the DFS namenode edit log — shard topology survives crashes exactly
//!   like every master file does;
//! * **routing**: a row lands in the shard whose half-open range
//!   `[lo, hi)` contains its key (a key equal to a split point belongs to
//!   the shard *starting* at that split);
//! * **range-pruned scans**: a predicate on the shard key eliminates
//!   whole shards *before any I/O* — the pruned shards' masters and
//!   attached tables are never opened, nor pinned — and the survivors,
//!   pinned at one timestamp, are read one after another on the calling
//!   thread;
//! * **one commit per statement**: an autocommit INSERT, UPDATE, DELETE,
//!   INSERT OVERWRITE or COMPACT, and a [`Transaction`] over every shard
//!   pinned at one timestamp, each commit all-or-none through the one
//!   commit ([`crate::commit`]).
//!
//! The gather step is a k-way ordered merge in its degenerate form:
//! shard ranges are disjoint and scanned in ascending range order, so
//! reading one shard after another *is* the merge by key range.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use dt_common::crc32::crc32;
use dt_common::{DataType, Error, Result, Row, Schema, Value};
use dt_orcfile::{ColumnBatch, ColumnPredicate, PredicateOp};

use crate::config::DualTableConfig;
use crate::cost::{PlanChoice, RatioHint};
use crate::env::DualTableEnv;
use crate::rewrite::{compact_all, overwrite_all};
use crate::store::{dml_all, insert_all, Assignment, DmlReport, DualTableStore, RowSelector};
use crate::txn::Transaction;
use crate::union_read::UnionReadOptions;
use crate::FoldOutcome;

/// Magic + version prefix of the durable shard map.
const SHARD_MAP_MAGIC: &[u8; 8] = b"DTSHARD1";

/// How a table is partitioned: the key column and the ascending split
/// points. N split points make N+1 shards; shard `i` covers
/// `[split[i-1], split[i])` with open ends at both extremes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    key_column: usize,
    split_points: Vec<i64>,
}

impl ShardSpec {
    /// Validates and builds a spec. Split points must be strictly
    /// ascending (equal or descending points would create empty or
    /// ambiguous ranges by construction, not by data).
    pub fn new(key_column: usize, split_points: Vec<i64>) -> Result<Self> {
        for w in split_points.windows(2) {
            if w[0] >= w[1] {
                return Err(Error::invalid(format!(
                    "shard split points must be strictly ascending ({} then {})",
                    w[0], w[1]
                )));
            }
        }
        Ok(ShardSpec {
            key_column,
            split_points,
        })
    }

    /// Ordinal of the shard key column.
    pub fn key_column(&self) -> usize {
        self.key_column
    }

    /// The split points, ascending.
    pub fn split_points(&self) -> &[i64] {
        &self.split_points
    }

    /// Number of shards (always ≥ 1).
    pub fn shard_count(&self) -> usize {
        self.split_points.len() + 1
    }

    /// The shard owning `key`. A key equal to a split point routes to the
    /// shard whose range *starts* there (split points are inclusive lower
    /// bounds).
    pub fn shard_of(&self, key: i64) -> usize {
        self.split_points.partition_point(|&s| s <= key)
    }

    /// Half-open range `[lo, hi)` of shard `i`; `None` is an open end.
    pub fn bounds(&self, i: usize) -> (Option<i64>, Option<i64>) {
        let lo = if i == 0 {
            None
        } else {
            Some(self.split_points[i - 1])
        };
        let hi = self.split_points.get(i).copied();
        (lo, hi)
    }

    /// `true` iff shard `i`'s range could contain a row satisfying every
    /// predicate — the shard-level analogue of stripe skipping. Only
    /// predicates on the key column with an `Int64` literal constrain the
    /// range; everything else is conservatively "may match".
    pub fn shard_may_match(&self, i: usize, predicates: &[ColumnPredicate]) -> bool {
        let (lo, hi) = self.bounds(i);
        predicates.iter().all(|p| {
            if p.column != self.key_column {
                return true;
            }
            let Value::Int64(v) = p.literal else {
                return true;
            };
            // Evaluate in i128: `hi - 1` must not wrap at i64::MIN.
            let (lo, hi, v) = (lo.map(i128::from), hi.map(i128::from), i128::from(v));
            match p.op {
                PredicateOp::Eq => lo.is_none_or(|l| l <= v) && hi.is_none_or(|h| v < h),
                // Shard holds keys in [lo, hi): some key < v iff lo < v.
                PredicateOp::Lt => lo.is_none_or(|l| l < v),
                PredicateOp::Le => lo.is_none_or(|l| l <= v),
                // Largest possible key is hi - 1.
                PredicateOp::Gt => hi.is_none_or(|h| h - 1 > v),
                PredicateOp::Ge => hi.is_none_or(|h| h > v),
            }
        })
    }

    /// Partitions rows by key into one bucket per shard (buckets may be
    /// empty).
    pub(crate) fn partition(&self, rows: Vec<Row>) -> Result<Vec<Vec<Row>>> {
        let mut buckets: Vec<Vec<Row>> = (0..self.shard_count()).map(|_| Vec::new()).collect();
        for row in rows {
            let Some(Value::Int64(key)) = row.get(self.key_column) else {
                return Err(Error::schema(format!(
                    "shard key column {} must be a non-NULL BIGINT in every row",
                    self.key_column
                )));
            };
            buckets[self.shard_of(*key)].push(row);
        }
        Ok(buckets)
    }

    /// Shard indices whose range survives the predicates' key-range
    /// constraints.
    pub(crate) fn shards_matching(&self, predicates: &[ColumnPredicate]) -> Vec<usize> {
        (0..self.shard_count())
            .filter(|&i| self.shard_may_match(i, predicates))
            .collect()
    }

    /// The shards one UPDATE (`assignments` given) or DELETE runs on —
    /// autocommit or buffered, every sharded statement passes through
    /// here before it scans anything. An UPDATE may not assign the shard
    /// key: the row would stay in a shard whose range no longer contains
    /// it, where range pruning never looks for it.
    pub(crate) fn dml_shards(
        &self,
        assignments: Option<&[Assignment<'_>]>,
        predicates: Option<&[ColumnPredicate]>,
    ) -> Result<Vec<usize>> {
        if assignments.is_some_and(|a| a.iter().any(|(col, _)| *col == self.key_column)) {
            return Err(Error::Unsupported(format!(
                "UPDATE of shard key column {}: a row cannot move between shards \
                 (DELETE it and INSERT the new key)",
                self.key_column
            )));
        }
        Ok(self.shards_matching(predicates.unwrap_or(&[])))
    }

    /// Durable encoding: magic, key column, split count, split points,
    /// CRC-32 over all of the above.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8 + 4 + 4 + 8 * self.split_points.len() + 4);
        buf.extend_from_slice(SHARD_MAP_MAGIC);
        buf.extend_from_slice(&(self.key_column as u32).to_le_bytes());
        buf.extend_from_slice(&(self.split_points.len() as u32).to_le_bytes());
        for s in &self.split_points {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    fn decode(data: &[u8]) -> Result<Self> {
        let err = |msg: &str| Error::corrupt(format!("shard map: {msg}"));
        if data.len() < 8 + 4 + 4 + 4 {
            return Err(err("truncated"));
        }
        if &data[..8] != SHARD_MAP_MAGIC {
            return Err(err("bad magic"));
        }
        let (body, crc_bytes) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte split"));
        if crc32(body) != stored {
            return Err(err("checksum mismatch"));
        }
        let key_column = u32::from_le_bytes(body[8..12].try_into().expect("slice")) as usize;
        let n = u32::from_le_bytes(body[12..16].try_into().expect("slice")) as usize;
        if body.len() != 16 + 8 * n {
            return Err(err("length inconsistent with split count"));
        }
        let split_points = (0..n)
            .map(|i| {
                let off = 16 + 8 * i;
                i64::from_le_bytes(body[off..off + 8].try_into().expect("slice"))
            })
            .collect();
        ShardSpec::new(key_column, split_points)
    }
}

/// Durable shard topology, persisted as a single CRC-framed DFS file so
/// it flows through the namenode edit log / checkpoint machinery and
/// survives crashes like every other piece of master-tier state.
pub struct ShardMap;

impl ShardMap {
    fn path(table: &str) -> String {
        format!("/warehouse/{table}/__shard_map")
    }

    fn tmp_path(table: &str) -> String {
        format!("/warehouse/{table}/__shard_map.tmp")
    }

    /// `true` iff `table` has a durable shard map (i.e. was created
    /// sharded).
    pub fn exists(env: &DualTableEnv, table: &str) -> bool {
        env.dfs.exists(&Self::path(table))
    }

    /// Persists the spec: write to a temp name, then the namenode's
    /// atomic rename publishes it. A crash before the rename leaves only
    /// the temp file (swept on the next create); after it, the map is
    /// fully durable.
    pub fn save(env: &DualTableEnv, table: &str, spec: &ShardSpec) -> Result<()> {
        let tmp = Self::tmp_path(table);
        if env.dfs.exists(&tmp) {
            env.dfs.delete(&tmp)?;
        }
        env.dfs.write_file(&tmp, &spec.encode())?;
        env.dfs.rename(&tmp, &Self::path(table))
    }

    /// Loads and validates the spec.
    pub fn load(env: &DualTableEnv, table: &str) -> Result<ShardSpec> {
        ShardSpec::decode(&env.dfs.read_to_vec(&Self::path(table))?)
    }

    fn delete(env: &DualTableEnv, table: &str) -> Result<()> {
        env.dfs.delete(&Self::path(table))
    }
}

/// Per-shard maintenance ledger, surfaced by `SHOW COMPACTION`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardFoldStats {
    /// Fold probes the round-robin walk pointed at this shard.
    pub attempted: u64,
    /// Probes that folded at least one file.
    pub folded: u64,
    /// Probes that lost the fold race to a concurrent writer.
    pub lost_race: u64,
    /// Probes that found nothing worth folding.
    pub clean: u64,
}

#[derive(Default)]
struct ShardFoldCounters {
    attempted: AtomicU64,
    folded: AtomicU64,
    lost_race: AtomicU64,
    clean: AtomicU64,
}

impl ShardFoldCounters {
    fn snapshot(&self) -> ShardFoldStats {
        ShardFoldStats {
            attempted: self.attempted.load(Ordering::Relaxed),
            folded: self.folded.load(Ordering::Relaxed),
            lost_race: self.lost_race.load(Ordering::Relaxed),
            clean: self.clean.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of one sharded UPDATE/DELETE: the per-shard plan reports, so
/// callers can see different key ranges independently landing on
/// different sides of the EDIT/OVERWRITE crossover.
#[derive(Debug, Clone)]
pub struct ShardedDmlReport {
    /// Total rows matched across executed shards.
    pub rows_matched: u64,
    /// Total rows scanned across executed shards.
    pub rows_scanned: u64,
    /// `(shard index, report)` for every shard the statement executed on
    /// (range-pruned shards are absent).
    pub per_shard: Vec<(usize, DmlReport)>,
}

impl ShardedDmlReport {
    /// Human summary of the plans chosen, e.g. `"EDIT×2, OVERWRITE×1"`.
    pub fn plan_summary(&self) -> String {
        let edits = self
            .per_shard
            .iter()
            .filter(|(_, r)| r.plan == PlanChoice::Edit)
            .count();
        let overwrites = self.per_shard.len() - edits;
        match (edits, overwrites) {
            (0, 0) => "no shards touched".to_string(),
            (e, 0) => format!("EDIT×{e}"),
            (0, o) => format!("OVERWRITE×{o}"),
            (e, o) => format!("EDIT×{e}, OVERWRITE×{o}"),
        }
    }
}

struct ShardedInner {
    name: String,
    schema: Schema,
    env: DualTableEnv,
    spec: ShardSpec,
    shards: Vec<DualTableStore>,
    /// Round-robin cursor of the maintenance walk.
    cursor: AtomicUsize,
    folds: Vec<ShardFoldCounters>,
}

/// One logical table backed by range shards. Cheap to clone (`Arc`).
#[derive(Clone)]
pub struct ShardedTable {
    inner: Arc<ShardedInner>,
}

impl ShardedTable {
    fn shard_store_name(table: &str, i: usize) -> String {
        format!("{table}__s{i}")
    }

    fn validate_spec(schema: &Schema, spec: &ShardSpec) -> Result<()> {
        let Some(field) = schema.fields().get(spec.key_column) else {
            return Err(Error::schema(format!(
                "shard key column {} out of range",
                spec.key_column
            )));
        };
        if field.data_type != DataType::Int64 {
            return Err(Error::schema(format!(
                "shard key column '{}' must be BIGINT (range sharding is by integer key)",
                field.name
            )));
        }
        Ok(())
    }

    /// Creates a sharded table: persists the shard map first (the map is
    /// the table's durable existence marker), then creates every shard.
    /// A crash between those steps leaves a map with missing shards;
    /// [`ShardedTable::open`] heals that by creating the absentees — an
    /// empty shard is indistinguishable from a never-written one.
    pub fn create(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        config: DualTableConfig,
        spec: ShardSpec,
    ) -> Result<Self> {
        Self::validate_spec(&schema, &spec)?;
        if ShardMap::exists(env, name) {
            return Err(Error::AlreadyExists(format!("sharded table '{name}'")));
        }
        ShardMap::save(env, name, &spec)?;
        let shards = (0..spec.shard_count())
            .map(|i| {
                DualTableStore::create(
                    env,
                    &Self::shard_store_name(name, i),
                    schema.clone(),
                    config.clone(),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        env.shard_health.shards_total.add(shards.len() as u64);
        Ok(Self::assemble(env, name, schema, spec, shards))
    }

    /// Opens a sharded table from its durable map, creating any shard a
    /// create-time crash left missing. The shard gauge is not re-added on
    /// open: it counts shards brought online by `create`, and a reopened
    /// process starts a fresh counter anyway.
    pub fn open(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        config: DualTableConfig,
    ) -> Result<Self> {
        let spec = ShardMap::load(env, name)?;
        Self::validate_spec(&schema, &spec)?;
        let shards = (0..spec.shard_count())
            .map(|i| {
                DualTableStore::open_or_create(
                    env,
                    &Self::shard_store_name(name, i),
                    schema.clone(),
                    config.clone(),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::assemble(env, name, schema, spec, shards))
    }

    /// `true` iff a durable shard map exists for `name`.
    pub fn exists(env: &DualTableEnv, name: &str) -> bool {
        ShardMap::exists(env, name)
    }

    fn assemble(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        spec: ShardSpec,
        shards: Vec<DualTableStore>,
    ) -> Self {
        let folds = (0..shards.len())
            .map(|_| ShardFoldCounters::default())
            .collect();
        ShardedTable {
            inner: Arc::new(ShardedInner {
                name: name.to_string(),
                schema,
                env: env.clone(),
                spec,
                shards,
                cursor: AtomicUsize::new(0),
                folds,
            }),
        }
    }

    /// Logical table name (shard stores are `{name}__s{i}`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The table schema (identical across shards).
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The environment this table lives on.
    pub fn env(&self) -> &DualTableEnv {
        &self.inner.env
    }

    /// The shard topology.
    pub fn spec(&self) -> &ShardSpec {
        &self.inner.spec
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The underlying shard stores, in range order.
    pub fn shards(&self) -> &[DualTableStore] {
        &self.inner.shards
    }

    /// Maintenance ledger of shard `i`.
    pub fn fold_stats(&self, i: usize) -> ShardFoldStats {
        self.inner.folds[i].snapshot()
    }

    /// The shard a key routes to.
    pub fn shard_for_key(&self, key: i64) -> usize {
        self.inner.spec.shard_of(key)
    }

    /// Shard indices whose range survives the predicates' key-range
    /// constraints; everything else is pruned before any I/O.
    pub fn shards_matching(&self, predicates: Option<&[ColumnPredicate]>) -> Vec<usize> {
        self.inner.spec.shards_matching(predicates.unwrap_or(&[]))
    }

    /// Routes an INSERT: each row goes to exactly one shard, and every
    /// shard's files land in one commit.
    pub fn insert_rows(&self, rows: Vec<Row>) -> Result<u64> {
        let buckets = self.inner.spec.partition(rows)?;
        let parts = self.inner.shards.iter().zip(buckets);
        insert_all(parts.filter(|(_, bucket)| !bucket.is_empty()).collect())
    }

    /// INSERT OVERWRITE: every shard is rewritten, including shards whose
    /// bucket is empty (their old content must vanish too), and every
    /// shard's generation swings in one commit.
    pub fn insert_overwrite(&self, rows: Vec<Row>) -> Result<u64> {
        let buckets = self.inner.spec.partition(rows)?;
        overwrite_all(self.inner.shards.iter().zip(buckets).collect())
    }

    /// The sharded UNION READ: range pruning first (pruned shards see zero
    /// I/O — their files are never opened), then the surviving shards one
    /// after another on the calling thread, in range order, so the batches
    /// arrive ordered by key range (see module docs). `f` may stop the
    /// scan by returning `Break`. The read is one [`Self::begin_read`]:
    /// every shard it reads is pinned at one timestamp, so it sees a
    /// cross-shard commit wholly or not at all, and holds no lock.
    pub fn for_each_batch(
        &self,
        opts: &UnionReadOptions,
        f: impl FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let read = self.begin_read(opts.predicates.as_deref())?;
        read.for_each_batch(opts, f)
    }

    /// The read-only [`Transaction`] of one autocommit read: the shards
    /// `predicates` leave, pinned at one timestamp; the pruned ones are
    /// neither pinned nor opened. No shard is read on another core: a scan
    /// fanned out over every core takes them from the statements running
    /// beside it (DESIGN.md §16).
    pub fn begin_read(&self, predicates: Option<&[ColumnPredicate]>) -> Result<Transaction> {
        let health = &self.inner.env.shard_health;
        health.scatter_scans.inc();
        let matched = self.shards_matching(predicates);
        health
            .shards_pruned_by_range
            .add((self.shard_count() - matched.len()) as u64);
        let stores: Vec<_> = matched
            .iter()
            .map(|&i| self.inner.shards[i].clone())
            .collect();
        let pins = matched.into_iter().zip(DualTableStore::pin_all(&stores)?);
        Ok(Transaction::new(
            pins.collect(),
            Some(self.inner.spec.clone()),
        ))
    }

    /// Total row count across shards: a scan that decodes no column (see
    /// [`DualTableStore::count`]).
    pub fn count(&self) -> Result<u64> {
        let opts = UnionReadOptions::all().with_projection(Vec::new());
        let mut rows = 0;
        self.for_each_batch(&opts, |_, batch| {
            rows += batch.selected_len() as u64;
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(rows)
    }

    /// Sharded UPDATE (`assignments` given) or DELETE of the rows
    /// `selector` picks: range pruning via `scan.predicates`, then each
    /// surviving shard runs its own cost model — different ranges may
    /// independently choose EDIT vs OVERWRITE — and one commit lands every
    /// shard's part; the shards' reports add up. `scan` describes what
    /// the statement reads (see [`DualTableStore::dml`]); `None` reads
    /// everything.
    pub fn dml(
        &self,
        selector: &(dyn RowSelector + Sync),
        assignments: Option<&[Assignment<'_>]>,
        ratio: RatioHint,
        statement_key: Option<&str>,
        scan: Option<&UnionReadOptions>,
    ) -> Result<ShardedDmlReport> {
        let all = UnionReadOptions::all();
        let scan = scan.unwrap_or(&all);
        let spec = &self.inner.spec;
        let shards = spec.dml_shards(assignments, scan.predicates.as_deref())?;
        let stores: Vec<&DualTableStore> = shards.iter().map(|&i| &self.inner.shards[i]).collect();
        // One worker per locate: shards are read in order on the
        // statement's thread (DESIGN.md §16).
        let at = (&ratio, statement_key);
        let reports = dml_all(&stores, selector, assignments, scan, at, 1)?;
        Ok(ShardedDmlReport {
            rows_matched: reports.iter().map(|r| r.rows_matched).sum(),
            rows_scanned: reports.iter().map(|r| r.rows_scanned).sum(),
            per_shard: shards.into_iter().zip(reports).collect(),
        })
    }

    /// Full COMPACT of every shard, swung in one commit.
    pub fn compact(&self) -> Result<()> {
        let stores: Vec<&DualTableStore> = self.inner.shards.iter().collect();
        compact_all(&stores)
    }

    /// One incremental maintenance step, walking shards round-robin: the
    /// cursor advances one shard per probe, so in any window of
    /// `shard_count` consecutive calls every shard is probed exactly once
    /// — no shard is starved for more than one full cycle. Probing stops
    /// at the first shard that actually had work (folded or lost a race);
    /// clean shards just advance the cursor.
    pub fn compact_incremental(&self) -> Result<FoldOutcome> {
        let n = self.shard_count();
        for _ in 0..n {
            let i = self.inner.cursor.fetch_add(1, Ordering::Relaxed) % n;
            let counters = &self.inner.folds[i];
            counters.attempted.fetch_add(1, Ordering::Relaxed);
            match self.inner.shards[i].compact_incremental()? {
                FoldOutcome::Folded { files, rows } => {
                    counters.folded.fetch_add(1, Ordering::Relaxed);
                    return Ok(FoldOutcome::Folded { files, rows });
                }
                FoldOutcome::LostRace => {
                    counters.lost_race.fetch_add(1, Ordering::Relaxed);
                    return Ok(FoldOutcome::LostRace);
                }
                FoldOutcome::Clean => {
                    counters.clean.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(FoldOutcome::Clean)
    }

    /// Opens a cross-shard transaction: every shard is pinned up front at
    /// one timestamp, so the transaction sees each cross-shard commit
    /// whole or not at all; FCW conflict checks run per shard at commit.
    pub fn begin_transaction(&self) -> Result<Transaction> {
        let pins = (0..).zip(DualTableStore::pin_all(&self.inner.shards)?);
        Ok(Transaction::new(
            pins.collect(),
            Some(self.inner.spec.clone()),
        ))
    }

    /// Drops every shard and the durable shard map.
    pub fn drop_table(self) -> Result<()> {
        // Other handles may be live (another session's open transaction
        // holds one): each shard drops through its cheap clone, and their
        // commits then lose like any commit racing a DROP.
        let inner = &self.inner;
        for shard in &inner.shards {
            shard.clone().drop_table()?;
        }
        ShardMap::delete(&inner.env, &inner.name)?;
        inner
            .env
            .shard_health
            .shards_total
            .sub(inner.shards.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(splits: &[i64]) -> ShardSpec {
        ShardSpec::new(0, splits.to_vec()).unwrap()
    }

    #[test]
    fn split_points_route_to_right_shard() {
        let s = spec(&[10, 20]);
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.shard_of(i64::MIN), 0);
        assert_eq!(s.shard_of(9), 0);
        assert_eq!(
            s.shard_of(10),
            1,
            "key == split point starts the next shard"
        );
        assert_eq!(s.shard_of(19), 1);
        assert_eq!(s.shard_of(20), 2);
        assert_eq!(s.shard_of(i64::MAX), 2);
    }

    #[test]
    fn bounds_are_half_open() {
        let s = spec(&[10, 20]);
        assert_eq!(s.bounds(0), (None, Some(10)));
        assert_eq!(s.bounds(1), (Some(10), Some(20)));
        assert_eq!(s.bounds(2), (Some(20), None));
    }

    #[test]
    fn non_ascending_splits_rejected() {
        assert!(ShardSpec::new(0, vec![10, 10]).is_err());
        assert!(ShardSpec::new(0, vec![20, 10]).is_err());
        assert!(ShardSpec::new(0, vec![]).is_ok(), "single shard is legal");
    }

    #[test]
    fn shard_map_roundtrip_and_corruption() {
        let s = ShardSpec::new(3, vec![-5, 0, 1_000_000]).unwrap();
        let bytes = s.encode();
        assert_eq!(ShardSpec::decode(&bytes).unwrap(), s);
        // Flip one split-point byte: the CRC must catch it.
        let mut bad = bytes.clone();
        bad[20] ^= 0xFF;
        assert!(ShardSpec::decode(&bad).is_err());
        assert!(ShardSpec::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ShardSpec::decode(b"NOTAMAP!").is_err());
    }

    fn pred(op: PredicateOp, v: i64) -> ColumnPredicate {
        ColumnPredicate::new(0, op, Value::Int64(v))
    }

    #[test]
    fn range_pruning_per_operator() {
        let s = spec(&[10, 20]); // shards: (-inf,10) [10,20) [20,+inf)
        let matches = |p: ColumnPredicate| -> Vec<usize> {
            (0..3)
                .filter(|&i| s.shard_may_match(i, std::slice::from_ref(&p)))
                .collect()
        };
        assert_eq!(matches(pred(PredicateOp::Eq, 10)), vec![1]);
        assert_eq!(matches(pred(PredicateOp::Eq, 9)), vec![0]);
        assert_eq!(matches(pred(PredicateOp::Lt, 10)), vec![0]);
        assert_eq!(matches(pred(PredicateOp::Le, 10)), vec![0, 1]);
        assert_eq!(matches(pred(PredicateOp::Gt, 19)), vec![2]);
        assert_eq!(matches(pred(PredicateOp::Gt, 18)), vec![1, 2]);
        assert_eq!(matches(pred(PredicateOp::Ge, 19)), vec![1, 2]);
        assert_eq!(matches(pred(PredicateOp::Ge, 20)), vec![2]);
        // Conjunction with an empty intersection prunes everything.
        let none: Vec<usize> = (0..3)
            .filter(|&i| {
                s.shard_may_match(i, &[pred(PredicateOp::Lt, 5), pred(PredicateOp::Gt, 25)])
            })
            .collect();
        assert!(none.is_empty());
        // Predicates on other columns never prune.
        let other = ColumnPredicate::new(1, PredicateOp::Eq, Value::Int64(7));
        assert_eq!(
            (0..3)
                .filter(|&i| s.shard_may_match(i, std::slice::from_ref(&other)))
                .count(),
            3
        );
    }

    #[test]
    fn extreme_bounds_do_not_overflow() {
        let s = spec(&[i64::MIN + 1, i64::MAX]);
        // `hi - 1` at the extremes must not wrap.
        assert!(s.shard_may_match(0, &[pred(PredicateOp::Ge, i64::MIN)]));
        assert!(!s.shard_may_match(0, &[pred(PredicateOp::Ge, i64::MIN + 1)]));
        assert!(s.shard_may_match(2, &[pred(PredicateOp::Ge, i64::MAX)]));
        assert!(!s.shard_may_match(1, &[pred(PredicateOp::Gt, i64::MAX - 1)]));
    }
}
