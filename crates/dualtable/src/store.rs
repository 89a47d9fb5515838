//! The DualTable store: master + attached storage, DML plans, COMPACT.

use std::borrow::Cow;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use dt_common::{Error, RecordId, Result, Row, Schema, Value};
use dt_orcfile::{
    Column, ColumnBatch, ColumnPredicate, FooterCache, FooterCacheStats, OrcReader,
    FILE_ID_METADATA_KEY,
};
use parking_lot::RwLock;

use crate::attached::AttachedEntry;
use crate::commit::{autocommit, lock_order, Action};
use crate::config::{DualTableConfig, PlanMode};
use crate::cost::{CostModel, PlanChoice, RatioHint};
use crate::delta::DeltaPolicy;
use crate::env::DualTableEnv;
use crate::mvcc::{Conflict, TableMvcc};
use crate::presence::{decode_count, FilePresence, PresenceIndex, PRESENCE_FILE_ID};
use crate::rewrite::{Dml, Rows};
use crate::txn::{Snapshot, Transaction};
use crate::union_read::{
    merge_file, BatchFn, ConsumeFn, MapFn, PatchSet, UnionReadOptions, INSERTS_FILE_ID, NO_PATCHES,
};

/// Aggregate statistics of one DualTable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Bytes across all master ORC files.
    pub master_bytes: u64,
    /// Rows across all master files (before attached deletions).
    pub master_rows: u64,
    /// Number of master files.
    pub master_files: u64,
    /// Approximate bytes in the Attached Table.
    pub attached_bytes: u64,
    /// Version entries in the Attached Table.
    pub attached_entries: u64,
}

/// What the cost model *would* do for a DML statement (see
/// [`DualTableStore::plan_preview`]) — the basis of `EXPLAIN`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPreview {
    /// The plan that would run.
    pub plan: PlanChoice,
    /// The (sampled) modification ratio.
    pub ratio: f64,
    /// Equation (1)/(2) difference; positive favours EDIT.
    pub cost_diff: f64,
    /// Master size D fed to the model.
    pub master_bytes: u64,
}

/// Outcome of an UPDATE or DELETE.
#[derive(Debug, Clone, PartialEq)]
pub struct DmlReport {
    /// The plan that was executed.
    pub plan: PlanChoice,
    /// Rows matching the predicate.
    pub rows_matched: u64,
    /// Rows scanned to execute the statement.
    pub rows_scanned: u64,
    /// The modification ratio fed to the cost model.
    pub ratio_used: f64,
    /// The cost-model difference (positive favours EDIT); `None` when the
    /// plan mode forced a plan.
    pub cost_diff: Option<f64>,
}

pub(crate) struct Inner {
    pub(crate) name: String,
    pub(crate) schema: Schema,
    pub(crate) env: DualTableEnv,
    pub(crate) config: DualTableConfig,
    /// Orders writers only (DESIGN.md §13): an autocommit EDIT-plan
    /// statement and a pinned commit hold `read`; OVERWRITE-plan DML,
    /// COMPACT, INSERT OVERWRITE, a rewrite job's swing and DROP hold
    /// `write` ("all the other operations will be blocked during COMPACT",
    /// §III-C). A read holds `read` only for the instant of its pin
    /// ([`DualTableStore::pin_all`]), never while it reads.
    pub(crate) ops: RwLock<()>,
    /// Parsed ORC footers of this table's master files (DESIGN.md §10).
    /// Invalidated by table prefix at every generation commit.
    pub(crate) footers: FooterCache,
    /// This table's MVCC state (DESIGN.md §13): snapshot pins, conflict
    /// windows, builds. Shared through the environment's
    /// registry, so every clone and every session sees the same state.
    /// Lock order: a writer's `ops` (read or write) before this state's
    /// mutex; a step that takes several tables' locks takes each kind in
    /// store-name order.
    pub(crate) mvcc: Arc<TableMvcc>,
}

/// One `UPDATE` assignment: `(column ordinal, value function)`. A value
/// function that fails fails its statement, which then applies nothing.
/// `Sync` because the OVERWRITE plan applies assignments from parallel
/// rewrite workers (DESIGN.md §19).
pub type Assignment<'a> = (usize, Box<dyn Fn(&Row) -> Result<Value> + Sync + 'a>);

/// One DualTable (see the crate docs for the model).
///
/// Cheap to clone; clones share the table.
#[derive(Clone)]
pub struct DualTableStore {
    pub(crate) inner: Arc<Inner>,
}

/// Decodes one presence-index qualifier: `None` = the delete-marker count,
/// `Some(col)` = column `col`'s update count.
fn presence_column(qual: &[u8]) -> Result<Option<usize>> {
    if qual == crate::attached::DELETE_MARKER_QUALIFIER {
        return Ok(None);
    }
    let bytes: [u8; 2] = qual
        .try_into()
        .map_err(|_| Error::corrupt("presence qualifier is not a column ordinal"))?;
    Ok(Some(u16::from_be_bytes(bytes) as usize))
}

/// The predicates that may be pushed down into a master file's ORC
/// reader: all of them for a clean file, otherwise those on columns that
/// neither patch source — the attached overlays `presence` counts, the
/// scan's own `patches` for the file — updates. Dropping conjuncts is
/// always sound — predicates are a conjunction, so fewer of them only skip
/// fewer stripes.
fn file_predicates<'a>(
    presence: Option<&FilePresence>,
    patches: &[AttachedEntry],
    predicates: Option<&'a [ColumnPredicate]>,
) -> Option<Cow<'a, [ColumnPredicate]>> {
    let predicates = predicates?;
    if presence.is_none() && patches.is_empty() {
        return Some(Cow::Borrowed(predicates));
    }
    let patched = |column| {
        presence.is_some_and(|fp| fp.has_update_on(column))
            || patches
                .iter()
                .any(|p| p.updates.iter().any(|(c, _)| *c == column))
    };
    let kept: Vec<ColumnPredicate> = predicates
        .iter()
        .filter(|p| !patched(p.column))
        .cloned()
        .collect();
    if kept.is_empty() {
        None
    } else if kept.len() == predicates.len() {
        Some(Cow::Borrowed(predicates))
    } else {
        Some(Cow::Owned(kept))
    }
}

/// Picks the rows an UPDATE's or DELETE's WHERE clause matches, and
/// computes an UPDATE's new values (DESIGN.md §18). Every closure
/// `Fn(&Row) -> bool` is one, evaluated row by row, its SET list the
/// statement's [`Assignment`] closures; a query layer that evaluates a
/// column batch at a time overrides [`RowSelector::select`] and
/// [`RowSelector::assign`].
pub trait RowSelector {
    /// Whether `row` matches: a full-width row, NULL in every column the
    /// statement's scan does not read.
    fn matches(&self, row: &Row) -> bool;

    /// The rows of `batch` that match, ascending, among its selected ones.
    /// Batch column `i` is table column `columns[i]` of `width`; every
    /// other column reads as NULL.
    fn select(&self, batch: &ColumnBatch, columns: &[usize], width: usize) -> Vec<u32> {
        let mut row = vec![Value::Null; width];
        let mut hit = |i| {
            fill_row(&mut row, batch, columns, i);
            self.matches(&row)
        };
        batch
            .selected()
            .filter(|&i| hit(i))
            .map(|i| i as u32)
            .collect()
    }

    /// What `set` writes at rows `rows` of `batch` (laid out as for
    /// [`RowSelector::select`], the table's columns `schema`): per
    /// assignment, in `set`'s order, its column ordinal and a column of
    /// that column's type holding its value at each of `rows` — every
    /// value computed from the batch as read, so no assignment sees
    /// another's result. An override must give [`assign_rows`]'s values
    /// and fail where it fails, with its error.
    fn assign(
        &self,
        set: &[Assignment<'_>],
        schema: &Schema,
        batch: &ColumnBatch,
        columns: &[usize],
        rows: &[u32],
    ) -> Result<Vec<(usize, Column)>> {
        assign_rows(set, schema, batch, columns, rows)
    }
}

impl<F: Fn(&Row) -> bool + ?Sized> RowSelector for F {
    fn matches(&self, row: &Row) -> bool {
        self(row)
    }
}

/// Writes row `i` of `batch`, whose columns are table columns `columns`,
/// into the full-width `row`.
fn fill_row(row: &mut Row, batch: &ColumnBatch, columns: &[usize], i: usize) {
    for (column, &ordinal) in batch.columns().iter().zip(columns) {
        row[ordinal] = column.value(i);
    }
}

/// [`RowSelector::assign`] row by row: each of `rows` as a full-width row,
/// each assignment's closure on it in turn. The first closure that fails,
/// or value that does not fit its column, in that order, fails it.
pub fn assign_rows(
    set: &[Assignment<'_>],
    schema: &Schema,
    batch: &ColumnBatch,
    columns: &[usize],
    rows: &[u32],
) -> Result<Vec<(usize, Column)>> {
    let field = |col: usize| {
        let found = schema.fields().get(col);
        found.ok_or_else(|| Error::schema(format!("assignment to unknown column {col}")))
    };
    let mut out: Vec<(usize, Column)> = set
        .iter()
        .map(|(col, _)| Ok((*col, Column::empty(field(*col)?.data_type))))
        .collect::<Result<_>>()?;
    let mut row = vec![Value::Null; schema.len()];
    for &i in rows {
        fill_row(&mut row, batch, columns, i as usize);
        for ((col, f), (_, column)) in set.iter().zip(&mut out) {
            let value = f(&row)?;
            let field = field(*col)?;
            if !value.conforms_to(field.data_type) {
                return Err(Error::schema(format!(
                    "UPDATE value {value:?} does not fit column '{}'",
                    field.name
                )));
            }
            column.push(&value)?;
        }
    }
    Ok(out)
}

/// The record ID of row `i` of a batch of file `file_id`.
fn record_of(file_id: u32, batch: &ColumnBatch, i: u32) -> RecordId {
    RecordId::new(file_id, (batch.row_start() + u64::from(i)) as u32)
}

/// What every file of one UNION READ shares, resolved once per scan and
/// borrowed by all of its (possibly parallel) per-file merges.
pub(crate) struct ScanPlan<'a> {
    pub(crate) gen: u64,
    opts: &'a UnionReadOptions,
    attached: dt_kvstore::Store,
    pub(crate) presence: PresenceIndex,
    /// The second patch source: the reader's own uncommitted entries,
    /// ascending by record ID (see [`PatchSet`]).
    patches: &'a [AttachedEntry],
}

/// One master file of a scan, opened, with what its merge reads.
struct FileScan<'p> {
    file_id: u32,
    reader: Arc<OrcReader>,
    /// The plan's own patches for this file.
    ours: &'p [AttachedEntry],
    predicates: Option<Cow<'p, [ColumnPredicate]>>,
    /// From the first stripe `predicates` leave to the end of the last;
    /// `None` when they leave none.
    rows: Option<Range<u64>>,
}

/// What one worker of a fanned-out UNION READ merges and maps at a time.
enum Morsel<'p> {
    File(FileScan<'p>),
    /// The reader's own buffered inserts, one batch.
    Inserts,
}

/// Rows the decoding morsels of one UNION READ must span between them
/// before it fans out: below this, the worker's spawn, join and hand-over
/// cost more than its share of the decoding saves (a Q1-shaped aggregate
/// breaks even at about 3,000 rows on two cores; EXPERIMENTS.md, the
/// morsel-parallel UNION READ).
pub(crate) const MIN_FAN_OUT_ROWS: u64 = 4096;

/// The workers a read of `files` plus `inserts` buffered rows, granted
/// `workers`, runs on: one unless at least two morsels decode and they
/// span [`MIN_FAN_OUT_ROWS`] rows, and never more than decode.
fn fan_out(workers: usize, files: &[FileScan<'_>], inserts: usize) -> usize {
    let spans = files.iter().filter_map(|f| f.rows.as_ref());
    let spans = spans.map(|r| r.end - r.start);
    let spans = spans.chain((inserts > 0).then_some(inserts as u64));
    let (morsels, rows) = spans.fold((0, 0), |(m, r), n| (m + 1, r + n));
    match morsels >= 2 && rows >= MIN_FAN_OUT_ROWS {
        true => workers.min(morsels),
        false => 1,
    }
}

/// The directory, inside a table's, where inserted master files wait for
/// the commit that renames them into a generation ([`crate::commit`]). No
/// generation listing reaches it.
pub(crate) const STAGING: &str = "_staging";

/// Whether `path` is a staged master file: in the [`STAGING`] directory
/// right under its table's, never a file of a table of that name.
pub(crate) fn is_staged(path: &str) -> bool {
    path.split('/').nth(3) == Some(STAGING)
}

/// Autocommit INSERT of `parts` — each store with its rows, one table's
/// shards or its one store — as one commit: each store's rows are staged
/// under its read lock, and the commit renames every file into place.
/// Returns the rows written.
pub(crate) fn insert_all(parts: Vec<(&DualTableStore, Vec<Row>)>) -> Result<u64> {
    let n = parts.iter().map(|(_, rows)| rows.len() as u64).sum();
    let (stores, mut rows): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    autocommit(&stores, &vec![false; stores.len()], |i| {
        Ok(Action::Write(Cow::Owned(PatchSet {
            rows: Vec::new(),
            inserts: std::mem::take(&mut rows[i]),
        })))
    })?;
    Ok(n)
}

/// One autocommit UPDATE (`assignments` given) or DELETE over `stores` —
/// one table's shards, or its one store — as one commit. Each store
/// resolves its ratio and lets its own cost model pick its plan; then
/// every store is locked (the write lock for an OVERWRITE plan) and runs
/// its plan: EDIT locates its patch set at the latest epoch, OVERWRITE
/// builds its next generation under the statement — and falls back to
/// EDIT if the build fails (DESIGN.md §8), unless the statement itself is
/// at fault. One commit then writes every patch set and swings every
/// built generation, and each store logs its observed ratio. Each EDIT
/// locate runs on up to `workers` (see [`DualTableStore::for_each_at`]).
pub(crate) fn dml_all(
    stores: &[&DualTableStore],
    predicate: &(dyn RowSelector + Sync),
    assignments: Option<&[Assignment<'_>]>,
    scan: &UnionReadOptions,
    (ratio, statement_key): (&RatioHint, Option<&str>),
    workers: usize,
) -> Result<Vec<DmlReport>> {
    let s = Dml {
        predicate,
        assignments,
        scan,
    };
    let mut reports = Vec::with_capacity(stores.len());
    for store in stores {
        s.assignments.map_or(Ok(()), |a| store.check_targets(a))?;
        let ratio_used = store.resolve_ratio(ratio, statement_key, s.predicate, s.scan)?;
        let (by_cost, diff, _) = store.cost_plan(s.assignments.is_some(), ratio_used)?;
        let (plan, cost_diff) = match store.inner.config.plan_mode {
            PlanMode::AlwaysEdit => (PlanChoice::Edit, None),
            PlanMode::AlwaysOverwrite => (PlanChoice::Overwrite, None),
            PlanMode::CostBased => (by_cost, Some(diff)),
        };
        reports.push(DmlReport {
            plan,
            rows_matched: 0,
            rows_scanned: 0,
            ratio_used,
            cost_diff,
        });
    }
    let over: Vec<_> = reports
        .iter()
        .map(|r| r.plan == PlanChoice::Overwrite)
        .collect();
    autocommit(stores, &over, |i| {
        let (store, report) = (stores[i], &mut reports[i]);
        if over[i] {
            match store.build_exclusive(Rows::Merged(Some(s))) {
                Ok((next, b)) => {
                    (report.rows_matched, report.rows_scanned) = (b.matched, b.scanned);
                    return Ok(Action::Swing(next));
                }
                // A bad assignment fails the statement, not the plan: EDIT
                // would reject the same value.
                Err(e @ Error::Schema(_)) => return Err(e),
                Err(_) => {
                    store.inner.env.health.plan_fallbacks.inc();
                    report.plan = PlanChoice::Edit;
                }
            }
        }
        let gen = store.current_gen()?;
        let (rows, scanned) = store.locate_patches(
            gen,
            (s.scan, &NO_PATCHES),
            workers,
            s.predicate,
            s.assignments,
        )?;
        (report.rows_matched, report.rows_scanned) = (rows.len() as u64, scanned);
        Ok(Action::Write(Cow::Owned(PatchSet {
            rows,
            inserts: Vec::new(),
        })))
    })?;
    for (store, report) in stores.iter().zip(&reports) {
        if let (Some(key), true) = (statement_key, report.rows_scanned > 0) {
            let observed = report.rows_matched as f64 / report.rows_scanned as f64;
            store.inner.env.meta.record_ratio(key, observed)?;
        }
    }
    Ok(reports)
}

impl DualTableStore {
    pub(crate) fn attached_name(name: &str) -> String {
        format!("att_{name}")
    }

    pub(crate) fn master_dir(name: &str) -> String {
        format!("/warehouse/{name}")
    }

    /// Creates a new, empty DualTable. Fails if it already exists.
    pub fn create(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        config: DualTableConfig,
    ) -> Result<Self> {
        if schema.is_empty() {
            return Err(Error::schema("DualTable schema must have columns"));
        }
        if schema.len() >= 0xFFFF {
            return Err(Error::schema("too many columns for qualifier encoding"));
        }
        env.kv.create_table(&Self::attached_name(name))?;
        Ok(Self::handle(env, name, schema, config))
    }

    /// Opens an existing DualTable and sweeps what a crash or a failed
    /// clean-up left behind (DESIGN.md §13).
    pub fn open(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        config: DualTableConfig,
    ) -> Result<Self> {
        env.kv.table(&Self::attached_name(name))?;
        let store = Self::handle(env, name, schema, config);
        store.sweep(false);
        Ok(store)
    }

    /// A handle on table `name`, whose attached table exists.
    fn handle(env: &DualTableEnv, name: &str, schema: Schema, config: DualTableConfig) -> Self {
        DualTableStore {
            inner: Arc::new(Inner {
                name: name.to_string(),
                schema,
                env: env.clone(),
                footers: FooterCache::new(config.footer_cache_entries),
                config,
                ops: RwLock::new(()),
                mvcc: env.mvcc.table(name),
            }),
        }
    }

    /// Opens the table if its attached KV table exists, otherwise creates
    /// it fresh. Used by sharded-table recovery: a crash between the
    /// durable shard-map write and the creation of the shard stores
    /// leaves some shards missing, and an empty shard is
    /// indistinguishable from a never-written one, so creating the
    /// absentee heals the topology.
    pub fn open_or_create(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        config: DualTableConfig,
    ) -> Result<Self> {
        if env.kv.table(&Self::attached_name(name)).is_ok() {
            Self::open(env, name, schema, config)
        } else {
            Self::create(env, name, schema, config)
        }
    }

    /// Drops the table: master files and the attached table (paper §III-C,
    /// DROP).
    pub fn drop_table(self) -> Result<()> {
        let _guard = self.inner.ops.write();
        crate::commit::forget(&self.inner.env, &self.inner.name)?;
        self.inner
            .footers
            .invalidate_prefix(&format!("{}/", Self::master_dir(&self.inner.name)));
        self.inner
            .env
            .dfs
            .delete_prefix(&format!("{}/", Self::master_dir(&self.inner.name)))?;
        self.inner
            .env
            .kv
            .drop_table(&Self::attached_name(&self.inner.name))?;
        self.inner.mvcc.lock().note_drop();
        self.inner.env.mvcc.remove(&self.inner.name);
        Ok(())
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// The underlying environment (exposed for experiments measuring
    /// per-tier I/O).
    pub fn env(&self) -> &DualTableEnv {
        &self.inner.env
    }

    /// The current attached-table handle. Resolved per call: TRUNCATE
    /// (after OVERWRITE/COMPACT) replaces the store inside the cluster, so
    /// caching a handle would go stale.
    pub(crate) fn attached(&self) -> Result<dt_kvstore::Store> {
        self.inner
            .env
            .kv
            .table(&Self::attached_name(&self.inner.name))
    }

    /// The attached table, refused while it is in read-only degraded mode:
    /// it may be missing a decided commit's cells until a reopen redoes
    /// them (see [`crate::commit`]), so no commit or swing may land on it.
    /// The refusal is permanent, as only a reopen ends the mode.
    pub(crate) fn writable_attached(&self) -> Result<dt_kvstore::Store> {
        let attached = self.attached()?;
        if attached.is_degraded() {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::ReadOnlyFilesystem,
                format!(
                    "'{}' is read-only until reopened (its attached table is degraded)",
                    self.inner.name
                ),
            )));
        }
        Ok(attached)
    }

    /// This table's delta-tier policy (DESIGN.md §17).
    pub(crate) fn delta_policy(&self) -> DeltaPolicy {
        DeltaPolicy::new(self.inner.config.delta_bytes)
    }

    /// The cost model for plan selection, reflecting whether EDIT cells
    /// ride the delta tier (cheaper attached writes shift the crossover)
    /// and the degree the statement was granted, which the rewrite fan-out
    /// will use ([`dt_engine::degree`]).
    pub(crate) fn cost_model(&self) -> CostModel {
        let (rates, degree) = (self.inner.config.rates, dt_engine::degree());
        if self.delta_policy().enabled() {
            CostModel::with_delta_tier(rates, degree)
        } else {
            CostModel::with_parallelism(rates, degree)
        }
    }

    /// Live heap bytes held by this table's delta tier (0 when disabled
    /// or fully spilled). Exposed for tests and the crash matrix.
    pub fn delta_bytes_used(&self) -> Result<usize> {
        Ok(self.attached()?.shadow_bytes())
    }

    /// Forces the delta tier to spill into the attached LSM regardless of
    /// the budget; returns the number of entries migrated. A visibility
    /// no-op (timestamps are preserved).
    pub fn spill_delta(&self) -> Result<u64> {
        self.attached()?.spill_shadow()
    }

    /// The committed master generation. Master files live under
    /// per-generation directories (`gen-<g>/part-<id>`); OVERWRITE and
    /// COMPACT build the next generation aside and flip this number with
    /// one durable metadata put, so a crash mid-rewrite leaves the old
    /// file set fully live.
    pub(crate) fn current_gen(&self) -> Result<u64> {
        self.inner.env.meta.generation(&self.inner.name)
    }

    pub(crate) fn gen_dir(&self, gen: u64) -> String {
        format!("{}/gen-{gen:010}", Self::master_dir(&self.inner.name))
    }

    /// The path of table `name`'s master file `file_id`: in generation
    /// `gen`, or staged (`None`).
    pub(crate) fn master_path(name: &str, gen: Option<u64>, file_id: u32) -> String {
        let dir = gen.map_or(STAGING.to_string(), |gen| format!("gen-{gen:010}"));
        format!("{}/{dir}/part-{file_id:010}", Self::master_dir(name))
    }

    pub(crate) fn file_path_at(&self, gen: u64, file_id: u32) -> String {
        Self::master_path(&self.inner.name, Some(gen), file_id)
    }

    pub(crate) fn staging_path(&self, file_id: u32) -> String {
        Self::master_path(&self.inner.name, None, file_id)
    }

    /// Master file IDs in ascending order (== record-ID scan order).
    pub fn master_file_ids(&self) -> Result<Vec<u32>> {
        Ok(self.master_file_ids_at(self.current_gen()?))
    }

    pub(crate) fn master_file_ids_at(&self, gen: u64) -> Vec<u32> {
        let prefix = format!("{}/part-", self.gen_dir(gen));
        self.inner
            .env
            .dfs
            .list(&prefix)
            .iter()
            .filter_map(|path| path.strip_prefix(&prefix)?.parse::<u32>().ok())
            .collect()
    }

    // ------------------------------------------------------------------
    // Ingest (LOAD / INSERT INTO)
    // ------------------------------------------------------------------

    /// Appends rows, creating one or more new master files (the paper's
    /// LOAD / INSERT INTO: "data are loaded and inserted into the Master
    /// Table"), visible at one commit.
    pub fn insert_rows<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        insert_all(vec![(self, rows.into_iter().collect())])
    }

    /// Writes `rows` as new master files into the staging directory, where
    /// no generation listing sees them, and returns their file IDs for the
    /// commit to rename into place. A failed write deletes what it wrote.
    pub(crate) fn stage(&self, rows: &[Row]) -> Result<Vec<u32>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let ids = self.reserve(rows.len() as u64)?;
        let dir = format!("{}/{STAGING}", Self::master_dir(&self.inner.name));
        if let Err(e) = self.write_files(&dir, ids.clone(), rows) {
            self.discard_staged(ids);
            return Err(e);
        }
        Ok(ids.collect())
    }

    /// Best-effort delete of the staged files `ids` that exist — of a
    /// commit that did not decide. The next environment open deletes any
    /// that will not go.
    pub(crate) fn discard_staged(&self, ids: impl IntoIterator<Item = u32>) {
        let paths = ids.into_iter().map(|id| self.staging_path(id));
        self.delete_paths(paths.filter(|path| self.inner.env.dfs.exists(path)));
    }

    /// Best-effort deletes; each failure is recorded as cleanup debt
    /// (never swallowed silently). `true` iff every path went.
    pub(crate) fn delete_paths(&self, paths: impl IntoIterator<Item = String>) -> bool {
        let mut all = true;
        for path in paths {
            if self.inner.env.dfs.delete(&path).is_err() {
                self.inner.env.health.cleanup_failures.inc();
                all = false;
            }
        }
        all
    }

    // ------------------------------------------------------------------
    // UNION READ
    // ------------------------------------------------------------------

    /// Streams the table as merged column batches — this is the UNION READ
    /// operation; every other scan entry point is an adapter over it. `f`
    /// gets each master file's ID with one of its stripes and may stop the
    /// scan by returning `Break`. The calling thread does all the work.
    ///
    /// Every read of the table is a [`Snapshot`] read: it pins the
    /// table's current `(generation, timestamp)` and releases the pin when
    /// done, so it sees every commit wholly or not at all and blocks no
    /// writer (DESIGN.md §13). An explicit `opts.snapshot_ts` reads at that
    /// earlier time instead (time travel).
    pub fn for_each_batch(
        &self,
        opts: &UnionReadOptions,
        f: impl FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        self.begin_snapshot()?.for_each_batch(opts, f)
    }

    /// [`DualTableStore::for_each_batch`] split in two, so that a large
    /// read fans out (DESIGN.md §18): `map` turns each batch into a `T`,
    /// on up to [`dt_engine::read_degree`] workers, a master file at a
    /// time, and `consume` takes the `T`s on the calling thread, in the
    /// order `for_each_batch` hands over the batches. `consume` may stop
    /// the scan by returning `Break`.
    pub fn for_each_mapped<T: Send>(
        &self,
        opts: &UnionReadOptions,
        map: &MapFn<'_, T>,
        consume: &mut ConsumeFn<'_, T>,
    ) -> Result<()> {
        let pin = self.begin_snapshot()?;
        let workers = dt_engine::read_degree();
        pin.scan_under(opts, &NO_PATCHES, workers, map, consume)
            .map(drop)
    }

    /// [`DualTableStore::for_each_batch`] unpacked into `(record id, row)`
    /// pairs.
    pub fn for_each(
        &self,
        opts: &UnionReadOptions,
        f: impl FnMut(RecordId, Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        self.begin_snapshot()?.for_each(opts, f)
    }

    /// The master file IDs of `gen` visible to a snapshot at `at_ts`:
    /// everything in the directory except files committed after it.
    pub(crate) fn visible_files(&self, gen: u64, at_ts: u64) -> Vec<u32> {
        // Listed and filtered under one hold of the state mutex, under
        // which a commit renames its files in and records their timestamp:
        // the listing and the filter see the same commits.
        let st = self.inner.mvcc.lock();
        let files = self.master_file_ids_at(gen);
        files
            .into_iter()
            .filter(|&id| st.file_visible(gen, id, at_ts))
            .collect()
    }

    /// UNION READ at an explicit `(generation, opts.snapshot_ts)` epoch,
    /// which a pin (or a writer's `ops` lock) keeps alive, with the
    /// reader's own `ours` on top: its patches as every file's second
    /// patch source, its buffered inserts as one trailing batch under
    /// [`INSERTS_FILE_ID`]. Each merged batch goes
    /// through `map`, and its output to `consume`, in file-ID order.
    ///
    /// At one worker that is the whole loop, inline. A read granted more
    /// fans out over its morsels — each visible master file, and the
    /// buffered inserts — when at least two of them decode a column and
    /// their surviving stripes span [`MIN_FAN_OUT_ROWS`] rows: up to
    /// `workers` threads, the caller's one of them, each merge a morsel
    /// and map its batches, while the caller consumes them in order
    /// ([`dt_engine::ordered_map`]). `Break` iff `consume` stopped the scan.
    pub(crate) fn for_each_at<T: Send>(
        &self,
        gen: u64,
        opts: &UnionReadOptions,
        ours: &PatchSet,
        workers: usize,
        map: &MapFn<'_, T>,
        consume: &mut ConsumeFn<'_, T>,
    ) -> Result<ControlFlow<()>> {
        // Files first, presence index second: the index then covers every
        // delete committed on a listed file before the listing, and a file
        // inserted later is not scanned. The other order lets a concurrent
        // writer slip an insert in between, and a scan returns that new
        // file's rows beside the rows of a file deleted after the index
        // was read — a row set the table never held.
        let files = self.visible_files(gen, opts.snapshot_ts);
        let plan = self.scan_plan(gen, opts, &ours.rows)?;
        let projection = self.projected(opts);
        let inserts = || ColumnBatch::from_rows(&self.inner.schema, &projection, &ours.inserts);
        let morsels = files.len() + usize::from(!ours.inserts.is_empty());
        // Footers are read ahead only for a read that may fan out.
        let planned = match workers > 1 && !projection.is_empty() && morsels >= 2 {
            true => Some(
                files
                    .iter()
                    .map(|&id| self.plan_file(&plan, id))
                    .collect::<Result<Vec<_>>>()?,
            ),
            false => None,
        };
        let workers = match &planned {
            Some(files) => fan_out(workers, files, ours.inserts.len()),
            None => 1,
        };
        if workers > 1 {
            let mut morsels: Vec<Morsel<'_>> =
                planned.into_iter().flatten().map(Morsel::File).collect();
            if !ours.inserts.is_empty() {
                morsels.push(Morsel::Inserts);
            }
            let health = &self.inner.env.health;
            health.scans_parallel.inc();
            health.scan_morsels.add(morsels.len() as u64);
            let task = |morsel| {
                let mut out = Vec::new();
                match morsel {
                    Morsel::File(file) => {
                        let _all =
                            self.merge_planned(&plan, file, &projection, &mut |id, batch| {
                                out.push(map(id, batch)?);
                                Ok(ControlFlow::Continue(()))
                            })?;
                    }
                    Morsel::Inserts => out.push(map(INSERTS_FILE_ID, inserts()?)?),
                }
                Ok(out)
            };
            return dt_engine::ordered_map(workers, morsels, task, &mut |outs: Vec<T>| {
                for out in outs {
                    if consume(out)?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
                Ok(ControlFlow::Continue(()))
            });
        }
        let mut f = |id, batch| consume(map(id, batch)?);
        let files: Box<dyn Iterator<Item = Result<FileScan<'_>>>> = match planned {
            Some(files) => Box::new(files.into_iter().map(Ok)),
            None => Box::new(files.into_iter().map(|id| self.plan_file(&plan, id))),
        };
        for file in files {
            if self
                .merge_planned(&plan, file?, &projection, &mut f)?
                .is_break()
            {
                return Ok(ControlFlow::Break(()));
            }
        }
        if ours.inserts.is_empty() {
            return Ok(ControlFlow::Continue(()));
        }
        f(INSERTS_FILE_ID, inserts()?)
    }

    /// The column ordinals a scan decodes: `opts.projection`, or every
    /// column.
    pub(crate) fn projected<'a>(&self, opts: &'a UnionReadOptions) -> Cow<'a, [usize]> {
        match &opts.projection {
            Some(p) => Cow::Borrowed(p),
            None => (0..self.inner.schema.len()).collect(),
        }
    }

    /// Resolves what every file of one UNION READ shares.
    pub(crate) fn scan_plan<'a>(
        &self,
        gen: u64,
        opts: &'a UnionReadOptions,
        patches: &'a [AttachedEntry],
    ) -> Result<ScanPlan<'a>> {
        let attached = self.attached()?;
        Ok(ScanPlan {
            gen,
            opts,
            presence: self.load_presence(&attached)?,
            attached,
            patches,
        })
    }

    /// The one place a master file meets its patch sources — its attached
    /// range and the plan's own patches: [`Self::plan_file`], then
    /// [`Self::merge_planned`] over columns `projection`.
    pub(crate) fn merge_master(
        &self,
        plan: &ScanPlan<'_>,
        file_id: u32,
        projection: &[usize],
        f: &mut BatchFn<'_>,
    ) -> Result<ControlFlow<()>> {
        let file = self.plan_file(plan, file_id)?;
        self.merge_planned(plan, file, projection, f)
    }

    /// Opens one master file of a scan (footer cache) and keeps the stripe
    /// predicates its overlays leave sound.
    fn plan_file<'p>(&self, plan: &ScanPlan<'p>, file_id: u32) -> Result<FileScan<'p>> {
        let reader = self.open_master(plan.gen, file_id)?;
        let presence = plan.presence.file(file_id);
        let ours = plan.patches.partition_point(|p| p.record.file_id < file_id);
        let ours = &plan.patches[ours..];
        let ours = &ours[..ours.partition_point(|p| p.record.file_id == file_id)];
        let predicates = file_predicates(presence, ours, plan.opts.predicates.as_deref());
        let rows = reader.surviving_rows(predicates.as_deref());
        Ok(FileScan {
            file_id,
            reader,
            ours,
            predicates,
            rows,
        })
    }

    /// Runs [`merge_file`] over a planned file. The attached scan is
    /// decided from the footer and the presence index before any KV work:
    /// it is opened only when a stripe survives and the read can see one
    /// of the file's cells, and then only over the surviving stripes' rows.
    fn merge_planned(
        &self,
        plan: &ScanPlan<'_>,
        file: FileScan<'_>,
        projection: &[usize],
        f: &mut BatchFn<'_>,
    ) -> Result<ControlFlow<()>> {
        let file_id = file.file_id;
        let attached = match (plan.presence.file(file_id), file.rows) {
            (Some(presence), Some(rows)) if presence.visible_to(projection) => {
                // A span to the file's last possible row ends at the next
                // file's first record ID.
                let key = |row: u64| {
                    let first = RecordId::file_start(file_id).as_u64();
                    RecordId::from_u64(first.wrapping_add(row)).to_key()
                };
                let (start, end, at) = (key(rows.start), key(rows.end), plan.opts.snapshot_ts);
                Some(plan.attached.scan_at(Some(&start), Some(&end), at)?)
            }
            _ => {
                self.inner.env.health.attached_scans_skipped.inc();
                None
            }
        };
        merge_file(
            file_id,
            &file.reader,
            projection,
            file.predicates.as_deref(),
            attached,
            file.ours,
            f,
        )
    }

    pub(crate) fn open_master(&self, gen: u64, file_id: u32) -> Result<Arc<OrcReader>> {
        let reader = self
            .inner
            .footers
            .open(&self.inner.env.dfs, &self.file_path_at(gen, file_id))?;
        // The file ID in user metadata must agree with the file name.
        match reader.metadata(FILE_ID_METADATA_KEY) {
            Some(bytes) if bytes == file_id.to_be_bytes() => Ok(reader),
            _ => Err(Error::corrupt(format!(
                "master file {} has inconsistent file-ID metadata",
                self.file_path_at(gen, file_id)
            ))),
        }
    }

    /// Decodes the presence index from the attached table (see
    /// [`crate::presence`]). Authoritative: every file absent from it is
    /// clean — every commit that writes a data cell writes its count in
    /// the same WAL record.
    ///
    /// Always read at `u64::MAX`: counts are monotone within a generation,
    /// so the latest index conservatively over-approximates every earlier
    /// snapshot (see the module docs for the soundness argument).
    pub(crate) fn load_presence(&self, attached: &dt_kvstore::Store) -> Result<PresenceIndex> {
        let mut index = PresenceIndex::default();
        if attached.is_empty() {
            return Ok(index);
        }
        let scan = attached.scan_at(
            None,
            Some(&RecordId::file_start(PRESENCE_FILE_ID.wrapping_add(1)).to_key()[..]),
            u64::MAX,
        )?;
        for row in scan {
            let row = row?;
            let record = RecordId::from_key(&row.row)
                .ok_or_else(|| Error::corrupt("presence row key is not a record ID"))?;
            let mut presence = FilePresence::default();
            for (qual, _ts, value) in &row.cells {
                match presence_column(qual)? {
                    None => presence.delete_markers = decode_count(value)?,
                    Some(col) => {
                        presence.update_counts.insert(col, decode_count(value)?);
                    }
                }
            }
            if !presence.is_clean() {
                index.files.insert(record.row, presence);
            }
        }
        Ok(index)
    }

    /// The current presence index. Exposed for tests and experiments.
    pub fn presence_index(&self) -> Result<PresenceIndex> {
        // Pinned, the attached table it resolves is not the one a swing is
        // truncating.
        let _pin = self.begin_snapshot()?;
        self.load_presence(&self.attached()?)
    }

    /// Counters of this table's footer cache.
    pub fn footer_cache_stats(&self) -> FooterCacheStats {
        self.inner.footers.stats()
    }

    /// Materializes the whole table: `(record id, row)` pairs in record-ID
    /// order.
    pub fn scan_all(&self) -> Result<Vec<(RecordId, Row)>> {
        self.scan(&UnionReadOptions::all())
    }

    /// Materializes a scan with options.
    pub fn scan(&self, opts: &UnionReadOptions) -> Result<Vec<(RecordId, Row)>> {
        self.begin_snapshot()?.scan(opts)
    }

    /// Counts visible rows: a scan that decodes no column. A file answers
    /// from its footer's row counts without any I/O; only a file with
    /// delete markers costs its attached scan, for the markers (update
    /// overlays change no count).
    pub fn count(&self) -> Result<u64> {
        self.begin_snapshot()?.count()
    }

    /// The attached-tier multi-version history of one cell, newest first:
    /// `(timestamp, value)` pairs (paper §V-C: "DualTable can make use of
    /// HBase's multiple-version feature to track data change history").
    pub fn cell_history(
        &self,
        record: RecordId,
        column: usize,
        max: usize,
    ) -> Result<Vec<(u64, Value)>> {
        let qual = crate::attached::update_qualifier(column);
        let versions = self
            .attached()?
            .get_versions(&record.to_key(), &qual, max)?;
        versions
            .into_iter()
            .filter_map(|(ts, bytes)| bytes.map(|b| (ts, b)))
            .map(|(ts, b)| Ok((ts, dt_common::codec::decode_value(&b)?)))
            .collect()
    }

    // ------------------------------------------------------------------
    // UPDATE / DELETE / COMPACT
    // ------------------------------------------------------------------

    /// Statistics used by the cost model and experiments. Row counts come
    /// from the footer cache — repeated calls (every DML statement takes
    /// one) parse each master footer once per process, not once per call.
    pub fn stats(&self) -> Result<TableStats> {
        // The pin keeps the generation's files while they are listed and
        // sized: a swing defers deleting a pinned generation.
        let pin = self.begin_snapshot()?;
        let mut master_bytes = 0u64;
        let mut master_rows = 0u64;
        let mut master_files = 0u64;
        let gen = pin.generation();
        for file_id in self.master_file_ids_at(gen) {
            let path = self.file_path_at(gen, file_id);
            master_bytes += self.inner.env.dfs.len(&path)?;
            master_rows += self.open_master(gen, file_id)?.num_rows();
            master_files += 1;
        }
        Ok(TableStats {
            master_bytes,
            master_rows,
            master_files,
            attached_bytes: self.attached()?.approximate_bytes(),
            attached_entries: self.attached()?.entry_count(),
        })
    }

    fn resolve_ratio(
        &self,
        hint: &RatioHint,
        statement_key: Option<&str>,
        predicate: &dyn RowSelector,
        scan: &UnionReadOptions,
    ) -> Result<f64> {
        match hint {
            RatioHint::Explicit(r) => Ok(r.clamp(0.0, 1.0)),
            RatioHint::Historical => {
                if let Some(key) = statement_key {
                    if let Some(r) = self.inner.env.meta.historical_ratio(key)? {
                        return Ok(r);
                    }
                }
                self.sample_ratio(predicate, scan)
            }
            RatioHint::Sample => self.sample_ratio(predicate, scan),
        }
    }

    /// The share of the first `sample_rows` visible rows (in record-ID
    /// order) that `predicate` matches. Reads only the columns `scan`
    /// names but never its stripe predicates: skipping would bias the
    /// sample towards matching rows.
    fn sample_ratio(&self, predicate: &dyn RowSelector, scan: &UnionReadOptions) -> Result<f64> {
        let limit = self.inner.config.sample_rows.max(1);
        let mut seen = 0usize;
        let mut matched = 0usize;
        let unpushed = UnionReadOptions {
            predicates: None,
            ..scan.clone()
        };
        let (columns, width) = (self.projected(&unpushed), self.inner.schema.len());
        self.for_each_batch(&unpushed, |_, mut batch| {
            // The sample ends inside this batch: only its first rows count.
            let take = (limit - seen).min(batch.selected_len());
            if take < batch.selected_len() {
                batch.select(batch.selected().take(take).map(|i| i as u32).collect());
            }
            seen += take;
            matched += predicate.select(&batch, &columns, width).len();
            Ok(if seen >= limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })?;
        if seen == 0 {
            return Ok(0.0);
        }
        Ok(matched as f64 / seen as f64)
    }

    /// The cost model's verdict on a statement that modifies `ratio` of the
    /// table — equation (1) for an UPDATE, (2) for a DELETE: the plan, the
    /// cost difference (positive favours EDIT) and the master size D.
    fn cost_plan(&self, is_update: bool, ratio: f64) -> Result<(PlanChoice, f64, u64)> {
        let stats = self.stats()?;
        let model = self.cost_model();
        let k = self.inner.config.k_successive_reads;
        let d = stats.master_bytes;
        if is_update {
            return Ok((
                model.choose_update(d, ratio, k),
                model.update_cost_diff(d, ratio, k),
                d,
            ));
        }
        let avg_row = d.checked_div(stats.master_rows).map_or(1, |v| v.max(1));
        let marker_ratio = self.inner.config.delete_marker_bytes as f64 / avg_row as f64;
        Ok((
            model.choose_delete(d, ratio, k, marker_ratio),
            model.delete_cost_diff(d, ratio, k, marker_ratio),
            d,
        ))
    }

    /// Previews the cost-model decision for an UPDATE (`is_update`) or
    /// DELETE with the given predicate, sampling the modification ratio
    /// the way execution does (`scan`: see [`DualTableStore::dml`]) —
    /// without executing anything.
    /// Powers `EXPLAIN UPDATE/DELETE`.
    pub fn plan_preview(
        &self,
        predicate: &dyn RowSelector,
        is_update: bool,
        scan: &UnionReadOptions,
    ) -> Result<PlanPreview> {
        let ratio = self.sample_ratio(predicate, scan)?;
        let (plan, cost_diff, master_bytes) = self.cost_plan(is_update, ratio)?;
        let plan = match self.inner.config.plan_mode {
            PlanMode::CostBased => plan,
            PlanMode::AlwaysEdit => PlanChoice::Edit,
            PlanMode::AlwaysOverwrite => PlanChoice::Overwrite,
        };
        Ok(PlanPreview {
            plan,
            ratio,
            cost_diff,
            master_bytes,
        })
    }

    /// Executes `UPDATE <table> SET ... WHERE <predicate>`.
    ///
    /// * `predicate` selects rows (evaluated against full rows);
    /// * `assignments` are `(column ordinal, value function)` pairs;
    /// * `ratio` is the α hint for the cost model.
    ///
    /// The plan is chosen per [`PlanMode`]; see [`DmlReport`].
    pub fn update(
        &self,
        predicate: impl Fn(&Row) -> bool + Sync,
        assignments: &[Assignment<'_>],
        ratio: RatioHint,
    ) -> Result<DmlReport> {
        let all = UnionReadOptions::all();
        self.dml(&predicate, Some(assignments), ratio, None, &all)
    }

    /// Executes `DELETE FROM <table> WHERE <predicate>`.
    pub fn delete(
        &self,
        predicate: impl Fn(&Row) -> bool + Sync,
        ratio: RatioHint,
    ) -> Result<DmlReport> {
        self.dml(&predicate, None, ratio, None, &UnionReadOptions::all())
    }

    /// The one UPDATE (`assignments` given) or DELETE of the rows
    /// `selector` picks, with a statement key for the historical-ratio log
    /// and a description of what the statement reads: `scan.projection`
    /// lists the columns `selector` and the assignment functions look at
    /// (they see NULL in every other column under the EDIT plan, whose
    /// locate-scan decodes nothing else) and `scan.predicates` holds
    /// conjuncts of the WHERE clause that let that scan skip stripes.
    pub fn dml(
        &self,
        selector: &(dyn RowSelector + Sync),
        assignments: Option<&[Assignment<'_>]>,
        ratio: RatioHint,
        statement_key: Option<&str>,
        scan: &UnionReadOptions,
    ) -> Result<DmlReport> {
        let key = statement_key;
        let workers = dt_engine::read_degree();
        let reports = dml_all(&[self], selector, assignments, scan, (&ratio, key), workers)?;
        Ok(reports.into_iter().next().expect("one report per store"))
    }

    /// Rejects an UPDATE that assigns a column the table does not have.
    pub(crate) fn check_targets(&self, assignments: &[Assignment<'_>]) -> Result<()> {
        match assignments
            .iter()
            .find(|(col, _)| *col >= self.inner.schema.len())
        {
            Some((col, _)) => Err(Error::schema(format!("assignment to unknown column {col}"))),
            None => Ok(()),
        }
    }

    /// What an UPDATE's `set` writes at rows `rows` of `batch` (see
    /// [`RowSelector::assign`]), computed by `selector` — the one meaning
    /// of a SET list, whichever plan runs it. Each column is checked once
    /// against its target: of its type, one value per row. A SET
    /// expression that fails fails the statement.
    pub(crate) fn new_values(
        &self,
        (selector, set): (&dyn RowSelector, &[Assignment<'_>]),
        batch: &ColumnBatch,
        columns: &[usize],
        rows: &[u32],
    ) -> Result<Vec<(usize, Column)>> {
        let schema = &self.inner.schema;
        let values = selector.assign(set, schema, batch, columns, rows)?;
        let asked = |((col, _), (got, v)): (&Assignment<'_>, &(usize, Column))| {
            col == got && v.len() == rows.len()
        };
        if values.len() != set.len() || !set.iter().zip(&values).all(asked) {
            return Err(Error::internal("a SET list gave other values than asked"));
        }
        for (col, column) in &values {
            let field = schema.field(*col);
            if column.data_type() != field.data_type {
                return Err(Error::schema(format!(
                    "UPDATE values of type {} do not fit column '{}'",
                    column.data_type(),
                    field.name
                )));
            }
        }
        Ok(values)
    }

    /// The patches a statement makes of rows `rows` of `batch` (of file
    /// `file_id`, laid out as `columns`): a DELETE's (`set` absent) marker
    /// per row, or an UPDATE's new values per row from
    /// [`Self::new_values`]. A column set twice keeps its last value, one
    /// cell: a commit stamps all its cells at one timestamp.
    fn patches_of(
        &self,
        (selector, set): (&dyn RowSelector, Option<&[Assignment<'_>]>),
        (file_id, batch): (u32, &ColumnBatch),
        columns: &[usize],
        rows: &[u32],
    ) -> Result<Vec<AttachedEntry>> {
        let Some(set) = set else {
            let marker = |&i: &u32| AttachedEntry {
                record: record_of(file_id, batch, i),
                deleted: true,
                updates: Vec::new(),
            };
            return Ok(rows.iter().map(marker).collect());
        };
        let values = self.new_values((selector, set), batch, columns, rows)?;
        let last: Vec<&(usize, Column)> = (0..values.len())
            .filter(|&k| values[k + 1..].iter().all(|(col, _)| *col != values[k].0))
            .map(|k| &values[k])
            .collect();
        let entry = |(k, &i): (usize, &u32)| AttachedEntry {
            record: record_of(file_id, batch, i),
            deleted: false,
            updates: last.iter().map(|(col, v)| (*col, v.value(k))).collect(),
        };
        Ok(rows.iter().enumerate().map(entry).collect())
    }

    /// The one way an EDIT finds its rows (under a pin or the ops lock) —
    /// the locating half of §V-A's UPDATE and DELETE UDTFs, the EDIT
    /// plan's locate-scan: UNION READ at `(gen, scan.snapshot_ts)` under
    /// the caller's own uncommitted `ours` (whose buffered inserts come
    /// last, as records of [`INSERTS_FILE_ID`]), of the columns
    /// `scan.projection` names, minus the stripes `scan.predicates` rule
    /// out, on up to `workers` as [`Self::for_each_at`] runs it. Each batch
    /// is mapped to the [`Self::patches_of`] the rows `predicate` matches,
    /// and those are collected into the statement's patch set in
    /// the ascending record order the scan meets them in. Returns the
    /// patch set (its length is the matched count) and the table's visible
    /// row count as the cost model's α wants it: rows seen plus, from
    /// their footers, the rows of the stripes skipped.
    pub(crate) fn locate_patches(
        &self,
        gen: u64,
        (scan, ours): (&UnionReadOptions, &PatchSet),
        workers: usize,
        predicate: &(dyn RowSelector + Sync),
        assignments: Option<&[Assignment<'_>]>,
    ) -> Result<(Vec<AttachedEntry>, u64)> {
        let (columns, width) = (self.projected(scan), self.inner.schema.len());
        let patches_of = |file_id, batch: ColumnBatch| {
            let counts = (batch.rows() as u64, batch.selected_len() as u64);
            let rows = predicate.select(&batch, &columns, width);
            let statement = (predicate as &dyn RowSelector, assignments);
            let found = self.patches_of(statement, (file_id, &batch), &columns, &rows)?;
            Ok((counts, found))
        };
        let (mut found, mut seen, mut decoded) = (Vec::new(), 0u64, 0u64);
        let _all = self.for_each_at(gen, scan, ours, workers, &patches_of, &mut |(n, mut p)| {
            (decoded, seen) = (decoded + n.0, seen + n.1);
            found.append(&mut p);
            Ok(ControlFlow::Continue(()))
        })?;
        if scan.predicates.is_none() {
            return Ok((found, seen));
        }
        let mut stored = 0u64;
        for file_id in self.visible_files(gen, scan.snapshot_ts) {
            stored += self.open_master(gen, file_id)?.num_rows();
        }
        Ok((found, seen + stored.saturating_sub(decoded)))
    }

    // ------------------------------------------------------------------
    // MVCC sessions (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Pins a read snapshot at the current `(generation, timestamp)`.
    /// The snapshot sees exactly this state until dropped, never blocks
    /// writers, and holds its generation's files against GC.
    pub fn begin_snapshot(&self) -> Result<Snapshot> {
        Ok(Self::pin_all(std::slice::from_ref(self))?.remove(0))
    }

    /// Pins one snapshot on each of `stores` (in their order) at ONE
    /// timestamp, ticked under every store's state mutex, taken in
    /// [`lock_order`]. Every EDIT commit holds its participants' mutexes
    /// from its timestamp until its KV writes land, so a commit is wholly
    /// before or wholly after the pin, on every store it spans.
    ///
    /// The pin is the one moment a read touches the `ops` lock: each
    /// store's read mode is held while the pin is taken and released
    /// before the read starts, so a read never starts inside an exclusive
    /// rewrite (which holds `ops` from its build to its swing) and no
    /// writer ever waits for a read in progress (DESIGN.md §13).
    pub(crate) fn pin_all(stores: &[DualTableStore]) -> Result<Vec<Snapshot>> {
        let Some(env) = stores.first().map(|s| &s.inner.env) else {
            return Ok(Vec::new());
        };
        let order = lock_order(stores)?;
        let _ops: Vec<_> = order.iter().map(|&i| stores[i].inner.ops.read()).collect();
        // No swing lands under `ops`: the generations hold until the pins.
        let gens: Vec<u64> = stores
            .iter()
            .map(Self::current_gen)
            .collect::<Result<_>>()?;
        let mut states: Vec<_> = order.iter().map(|&i| stores[i].inner.mvcc.lock()).collect();
        let ts = env.kv.clock().tick();
        for (st, &i) in states.iter_mut().zip(&order) {
            st.pin(gens[i], ts);
        }
        drop(states);
        env.health.snapshots_pinned.add(stores.len() as u64);
        let snapshot = |(s, gen): (&Self, u64)| Snapshot::new(s.clone(), gen, ts);
        Ok(stores.iter().zip(gens).map(snapshot).collect())
    }

    /// Begins a snapshot-isolation transaction (see [`Transaction`]).
    pub fn begin_transaction(&self) -> Result<Transaction> {
        Ok(Transaction::new(vec![(0, self.begin_snapshot()?)], None))
    }

    /// Releases the pin taken at `ts`, and sweeps when that leaves a
    /// superseded generation with no pin. Any other release reads nothing.
    pub(crate) fn release_pin(&self, ts: u64) {
        let drained = self.inner.mvcc.lock().unpin(ts);
        if drained {
            self.sweep(false);
        }
    }

    /// Live snapshot pins on this table (diagnostics and tests).
    pub fn pinned_snapshots(&self) -> usize {
        self.inner.mvcc.lock().pin_count()
    }

    /// Superseded generations currently kept alive for pinned readers
    /// (diagnostics and tests).
    pub fn retired_generations(&self) -> usize {
        let current = self.current_gen().unwrap_or(u64::MAX);
        self.inner.mvcc.lock().retired_count(current)
    }

    /// The error a first-committer-wins loss returns, naming the store
    /// that lost.
    pub(crate) fn conflict_error(&self, conflict: Conflict, pin_ts: u64) -> Error {
        let name = &self.inner.name;
        match conflict {
            Conflict::Swing => {
                self.inner.env.health.swing_conflicts.inc();
                Error::conflict(format!(
                    "'{name}': pinned at {pin_ts}, lost to a later generation swing or, \
                     rewriting, to any later commit"
                ))
            }
            Conflict::Record(id) => {
                self.inner.env.health.ww_conflicts.inc();
                let record = RecordId::from_u64(id);
                Error::conflict(format!(
                    "'{name}': write-write conflict: record {{file {}, row {}}} committed after \
                     snapshot {pin_ts}",
                    record.file_id, record.row
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::{commit, Action};
    use dt_common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("name", DataType::Utf8),
            ("v", DataType::Float64),
        ])
    }

    fn row(i: i64) -> Row {
        vec![
            Value::Int64(i),
            Value::Utf8(format!("n{}", i % 7)),
            Value::Float64(i as f64),
        ]
    }

    fn table_with(n: i64, config: DualTableConfig) -> DualTableStore {
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "t", schema(), config).unwrap();
        t.insert_rows((0..n).map(row)).unwrap();
        t
    }

    fn small_files() -> DualTableConfig {
        DualTableConfig {
            rows_per_file: 32,
            ..DualTableConfig::default()
        }
    }

    #[test]
    fn a_fanned_out_locate_finds_the_same_patch_set_in_the_same_order() {
        let config = DualTableConfig {
            rows_per_file: 1_500,
            plan_mode: PlanMode::AlwaysEdit,
            writer: dt_orcfile::WriterOptions {
                stripe_rows: 500,
                ..Default::default()
            },
            ..DualTableConfig::default()
        };
        let t = table_with(6_000, config);
        let ratio = RatioHint::Explicit(0.01);
        t.delete(|r| r[0].as_i64().unwrap() % 11 == 3, ratio)
            .unwrap();
        let gen = t.current_gen().unwrap();
        // The transaction's own patches and buffered inserts ride along.
        let ours = PatchSet {
            rows: vec![AttachedEntry {
                record: RecordId::new(2, 7),
                deleted: false,
                updates: vec![(2, Value::Float64(-1.0))],
            }],
            inserts: (10_000..10_300).map(row).collect(),
        };
        let hits = |r: &Row| r[2].as_f64().is_some_and(|v| v < 0.0 || v as i64 % 5 == 0);
        let set: Assignment<'_> = (
            1,
            Box::new(|r: &Row| Ok(Value::Utf8(format!("{:?}", r[0])))),
        );
        let scan = UnionReadOptions::all();
        let before = t.inner.env.health.snapshot().scans_parallel;
        let [one, four] = [1, 4].map(|degree| {
            let _guard = t.inner.ops.read();
            dt_engine::with_degree(degree, || {
                let set = Some(std::slice::from_ref(&set));
                let workers = dt_engine::read_degree();
                t.locate_patches(gen, (&scan, &ours), workers, &hits, set)
                    .unwrap()
            })
        });
        assert_eq!(one, four);
        // Ascending, those of buffered inserts last.
        let (found, _) = one;
        let master = found.partition_point(|p| p.record.file_id != INSERTS_FILE_ID);
        let ascending = |p: &[AttachedEntry]| p.windows(2).all(|w| w[0].record < w[1].record);
        assert!(ascending(&found[..master]) && ascending(&found[master..]));
        assert!(master > 0 && master < found.len());
        let fanned = t.inner.env.health.snapshot().scans_parallel - before;
        assert!(fanned == 1 || dt_engine::cores() < 2, "{fanned}");
    }

    #[test]
    fn insert_and_scan_roundtrip() {
        let t = table_with(100, small_files());
        assert_eq!(t.master_file_ids().unwrap().len(), 4);
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 100);
        for (i, (id, r)) in rows.iter().enumerate() {
            assert_eq!(r, &row(i as i64));
            assert_eq!(id.row as usize, i % 32);
        }
        // Record IDs ascend.
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.count().unwrap(), 100);
    }

    #[test]
    fn update_edit_plan_overlays_values() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(100, config);
        let report = t
            .update(
                |r| r[0].as_i64().unwrap() % 10 == 0,
                &[(
                    2,
                    Box::new(|r: &Row| Ok(Value::Float64(r[0].as_f64().unwrap() * 100.0))),
                )],
                RatioHint::Explicit(0.1),
            )
            .unwrap();
        assert_eq!(report.plan, PlanChoice::Edit);
        assert_eq!(report.rows_matched, 10);
        // Master untouched, attached populated.
        let stats = t.stats().unwrap();
        assert_eq!(stats.master_rows, 100);
        assert!(stats.attached_entries >= 10);
        let rows = t.scan_all().unwrap();
        assert_eq!(rows[30].1[2], Value::Float64(3000.0));
        assert_eq!(rows[31].1[2], Value::Float64(31.0));
    }

    #[test]
    fn update_overwrite_plan_rewrites_master() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysOverwrite;
        let t = table_with(100, config);
        let report = t
            .update(
                |r| r[0].as_i64().unwrap() < 50,
                &[(1, Box::new(|_| Ok(Value::from("updated"))))],
                RatioHint::Explicit(0.5),
            )
            .unwrap();
        assert_eq!(report.plan, PlanChoice::Overwrite);
        assert_eq!(report.rows_matched, 50);
        let stats = t.stats().unwrap();
        assert_eq!(stats.attached_entries, 0, "overwrite clears attached");
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0].1[1], Value::from("updated"));
        assert_eq!(rows[99].1[1], Value::Utf8("n1".into()));
    }

    #[test]
    fn delete_edit_hides_rows_and_compact_materializes() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(100, config);
        let report = t
            .delete(|r| r[0].as_i64().unwrap() >= 90, RatioHint::Explicit(0.1))
            .unwrap();
        assert_eq!(report.rows_matched, 10);
        assert_eq!(t.count().unwrap(), 90);
        let stats = t.stats().unwrap();
        assert_eq!(stats.master_rows, 100, "masters keep deleted rows");

        t.compact().unwrap();
        let stats = t.stats().unwrap();
        assert_eq!(stats.master_rows, 90);
        assert_eq!(stats.attached_entries, 0);
        assert_eq!(t.count().unwrap(), 90);
        // Values preserved.
        let rows = t.scan_all().unwrap();
        assert_eq!(rows[89].1[0], Value::Int64(89));
    }

    #[test]
    fn cost_based_mode_picks_edit_for_small_ratio_and_overwrite_for_large() {
        let t = table_with(200, small_files());
        let r1 = t
            .update(
                |r| r[0].as_i64().unwrap() == 0,
                &[(2, Box::new(|_| Ok(Value::Float64(1.0))))],
                RatioHint::Explicit(0.005),
            )
            .unwrap();
        assert_eq!(r1.plan, PlanChoice::Edit);
        assert!(r1.cost_diff.unwrap() > 0.0);
        let r2 = t
            .update(
                |r| r[0].as_i64().unwrap() >= 0,
                &[(2, Box::new(|_| Ok(Value::Float64(2.0))))],
                RatioHint::Explicit(1.0),
            )
            .unwrap();
        assert_eq!(r2.plan, PlanChoice::Overwrite);
        assert!(r2.cost_diff.unwrap() <= 0.0);
        assert_eq!(t.scan_all().unwrap()[0].1[2], Value::Float64(2.0));
    }

    #[test]
    fn sampling_estimates_ratio() {
        let mut config = small_files();
        config.sample_rows = 50;
        let t = table_with(100, config);
        // Predicate matches ~half; sampled alpha should land near 0.5 and
        // the report must carry it.
        let report = t
            .update(
                |r| r[0].as_i64().unwrap() % 2 == 0,
                &[(2, Box::new(|_| Ok(Value::Float64(0.0))))],
                RatioHint::Sample,
            )
            .unwrap();
        assert!(
            (report.ratio_used - 0.5).abs() < 0.1,
            "alpha={}",
            report.ratio_used
        );
    }

    #[test]
    fn historical_ratio_feeds_cost_model() {
        let t = table_with(100, small_files());
        let key = "stmt-u1";
        // First run records the true ratio (falls back to sampling).
        t.dml(
            &|r: &Row| r[0].as_i64().unwrap() < 5,
            Some(&[(2, Box::new(|_| Ok(Value::Float64(9.0))))]),
            RatioHint::Historical,
            Some(key),
            &UnionReadOptions::all(),
        )
        .unwrap();
        let hist = t.env().meta.historical_ratio(key).unwrap().unwrap();
        assert!((hist - 0.05).abs() < 1e-9);
        // Second run uses the recorded history.
        let r = t
            .dml(
                &|r: &Row| r[0].as_i64().unwrap() < 5,
                Some(&[(2, Box::new(|_| Ok(Value::Float64(10.0))))]),
                RatioHint::Historical,
                Some(key),
                &UnionReadOptions::all(),
            )
            .unwrap();
        assert!((r.ratio_used - 0.05).abs() < 1e-9);
    }

    /// A skippable predicate must not move the cost model's inputs: the
    /// logged α stays matched ÷ table rows (skipped stripes count through
    /// their footers) and the sample stays un-pushed, so the same keyed
    /// statement logs the same ratio and picks the same plans either way.
    #[test]
    fn stripe_skipping_keeps_the_logged_ratio_honest() {
        let run = |scan: &UnionReadOptions| {
            let mut config = small_files();
            config.writer.stripe_rows = 8;
            let t = table_with(100, config);
            let statement = || {
                t.dml(
                    &|r: &Row| r[0].as_i64().unwrap() < 5,
                    Some(&[(2, Box::new(|_| Ok(Value::Float64(9.0))))]),
                    RatioHint::Historical,
                    Some("stmt"),
                    scan,
                )
                .unwrap()
            };
            // Footers are read alike with or without skipping: warm their
            // cache first, so that `read` counts the streams alone.
            t.count().unwrap();
            let before = t.env().dfs.stats().snapshot().bytes_read;
            let first = statement();
            let read = t.env().dfs.stats().snapshot().bytes_read - before;
            let logged = t.env().meta.historical_ratio("stmt").unwrap().unwrap();
            let second = statement();
            assert_eq!(second.ratio_used, logged, "the second run reads the log");
            (
                (first.plan, first.rows_matched, first.rows_scanned),
                (first.ratio_used, logged, second.plan),
                read,
            )
        };
        let full = run(&UnionReadOptions::all());
        let mut pushed = UnionReadOptions::all().with_projection(vec![0]);
        pushed.predicates = Some(vec![ColumnPredicate::new(
            0,
            dt_orcfile::PredicateOp::Lt,
            Value::Int64(5),
        )]);
        let pushed = run(&pushed);
        assert_eq!((pushed.0, pushed.1), (full.0, full.1));
        assert_eq!(full.0, (PlanChoice::Edit, 5, 100));
        assert!(
            pushed.2 * 2 < full.2,
            "the pushed scan must actually skip: read {} vs {} stream bytes",
            pushed.2,
            full.2
        );
    }

    /// A rewrite never hands stripe predicates to the merge: a WHERE that
    /// statistics prune in every stripe matches nothing, and an
    /// OVERWRITE-plan statement must still write every row — a skipped
    /// stripe would vanish from the table.
    #[test]
    fn overwrite_plan_writes_the_stripes_its_predicates_prune() {
        let mut config = small_files();
        config.writer.stripe_rows = 8;
        config.plan_mode = PlanMode::AlwaysOverwrite;
        let t = table_with(100, config);
        let before = t.scan_all().unwrap();
        let mut pruned = UnionReadOptions::all().with_projection(vec![0]);
        pruned.predicates = Some(vec![ColumnPredicate::new(
            0,
            dt_orcfile::PredicateOp::Ge,
            Value::Int64(1000),
        )]);
        let nothing = |r: &Row| r[0].as_i64().unwrap() >= 1000;
        let ratio = RatioHint::Explicit(0.9);
        let deleted = t.dml(&nothing, None, ratio, None, &pruned).unwrap();
        let set: [Assignment<'_>; 1] = [(2, Box::new(|_| Ok(Value::Float64(9.0))))];
        let updated = t.dml(&nothing, Some(&set), ratio, None, &pruned).unwrap();
        for report in [deleted, updated] {
            assert_eq!(report.plan, PlanChoice::Overwrite);
            assert_eq!((report.rows_matched, report.rows_scanned), (0, 100));
        }
        let rows = |scan: Vec<(RecordId, Row)>| -> Vec<Row> {
            scan.into_iter().map(|(_, row)| row).collect()
        };
        assert_eq!(rows(t.scan_all().unwrap()), rows(before));
    }

    #[test]
    fn update_then_delete_interleaving() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(50, config);
        t.update(
            |r| r[0].as_i64().unwrap() == 7,
            &[(2, Box::new(|_| Ok(Value::Float64(700.0))))],
            RatioHint::Explicit(0.02),
        )
        .unwrap();
        t.delete(|r| r[0].as_i64().unwrap() == 7, RatioHint::Explicit(0.02))
            .unwrap();
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 49);
        assert!(rows.iter().all(|(_, r)| r[0] != Value::Int64(7)));
    }

    #[test]
    fn updates_accumulate_latest_wins() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(10, config);
        for round in 0..3 {
            t.update(
                |r| r[0].as_i64().unwrap() == 3,
                &[(2, Box::new(move |_| Ok(Value::Float64(round as f64))))],
                RatioHint::Explicit(0.1),
            )
            .unwrap();
        }
        let rows = t.scan_all().unwrap();
        assert_eq!(rows[3].1[2], Value::Float64(2.0));
        // History preserved in the attached tier.
        let record = rows[3].0;
        let history = t.cell_history(record, 2, 10).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(history[0].1, Value::Float64(2.0));
        assert_eq!(history[2].1, Value::Float64(0.0));
    }

    #[test]
    fn projection_scan_applies_overlays() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(20, config);
        t.update(
            |r| r[0].as_i64().unwrap() == 5,
            &[(2, Box::new(|_| Ok(Value::Float64(-1.0))))],
            RatioHint::Explicit(0.05),
        )
        .unwrap();
        let rows = t
            .scan(&UnionReadOptions::all().with_projection(vec![2, 0]))
            .unwrap();
        assert_eq!(rows[5].1, vec![Value::Float64(-1.0), Value::Int64(5)]);
        assert_eq!(rows[6].1, vec![Value::Float64(6.0), Value::Int64(6)]);
    }

    #[test]
    fn insert_overwrite_replaces_everything() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(40, config);
        t.delete(|r| r[0].as_i64().unwrap() == 0, RatioHint::Explicit(0.02))
            .unwrap();
        t.insert_overwrite((100..110).map(row)).unwrap();
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].1[0], Value::Int64(100));
        assert_eq!(t.stats().unwrap().attached_entries, 0);
    }

    #[test]
    fn drop_table_removes_storage() {
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "gone", schema(), small_files()).unwrap();
        t.insert_rows((0..10).map(row)).unwrap();
        t.clone().drop_table().unwrap();
        assert!(env.dfs.list("/warehouse/gone/").is_empty());
        assert!(env.kv.table("att_gone").is_err());
        // Name reusable.
        DualTableStore::create(&env, "gone", schema(), small_files()).unwrap();
    }

    #[test]
    fn create_duplicate_fails_and_open_finds_existing() {
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "x", schema(), small_files()).unwrap();
        t.insert_rows((0..5).map(row)).unwrap();
        assert!(DualTableStore::create(&env, "x", schema(), small_files()).is_err());
        let t2 = DualTableStore::open(&env, "x", schema(), small_files()).unwrap();
        assert_eq!(t2.count().unwrap(), 5);
        assert!(DualTableStore::open(&env, "missing", schema(), small_files()).is_err());
    }

    #[test]
    fn empty_table_operations() {
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "e", schema(), small_files()).unwrap();
        assert_eq!(t.count().unwrap(), 0);
        assert_eq!(t.scan_all().unwrap().len(), 0);
        let r = t
            .update(
                |_| true,
                &[(2, Box::new(|_| Ok(Value::Float64(0.0))))],
                RatioHint::Sample,
            )
            .unwrap();
        assert_eq!(r.rows_matched, 0);
        t.compact().unwrap();
        assert_eq!(t.count().unwrap(), 0);
    }

    /// A commit stamps all its cells at one timestamp, so a column an
    /// UPDATE sets twice must reach the attached table once, with its last
    /// value, on both attached routes.
    #[test]
    fn a_column_set_twice_keeps_its_last_value() {
        for delta_bytes in [0, 1 << 20] {
            let config = DualTableConfig {
                plan_mode: PlanMode::AlwaysEdit,
                delta_bytes,
                ..small_files()
            };
            let t = table_with(10, config);
            let set: [Assignment<'_>; 2] = [
                (2, Box::new(|_| Ok(Value::Float64(1.0)))),
                (2, Box::new(|_| Ok(Value::Float64(2.0)))),
            ];
            let is_3 = |r: &Row| r[0] == Value::Int64(3);
            t.update(is_3, &set, RatioHint::Explicit(0.1)).unwrap();
            let v = &t.scan_all().unwrap()[3].1[2];
            assert_eq!(*v, Value::Float64(2.0), "delta_bytes {delta_bytes}");
        }
    }

    #[test]
    fn update_type_mismatch_rejected() {
        let t = table_with(10, small_files());
        let err = t.update(
            |_| true,
            &[(2, Box::new(|_| Ok(Value::from("wrong type"))))],
            RatioHint::Explicit(1.0),
        );
        assert!(err.is_err());
        let err = t.update(
            |_| true,
            &[(9, Box::new(|_| Ok(Value::Null)))],
            RatioHint::Explicit(1.0),
        );
        assert!(err.is_err());
    }

    #[test]
    fn snapshot_scan_sees_pre_update_state() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(10, config);
        let snapshot_ts = t.env().kv.clock().tick();
        t.update(
            |r| r[0].as_i64().unwrap() == 1,
            &[(2, Box::new(|_| Ok(Value::Float64(99.0))))],
            RatioHint::Explicit(0.1),
        )
        .unwrap();
        let mut opts = UnionReadOptions::all();
        opts.snapshot_ts = snapshot_ts;
        let old = t.scan(&opts).unwrap();
        assert_eq!(
            old[1].1[2],
            Value::Float64(1.0),
            "snapshot must predate update"
        );
        let new = t.scan_all().unwrap();
        assert_eq!(new[1].1[2], Value::Float64(99.0));
    }

    /// Regression (REVIEW: lost-update race): an autocommit EDIT's records
    /// must be in the conflict window the moment its durable write lands.
    /// A transaction running its first-committer-wins check afterwards
    /// would otherwise miss the already-durable edits and overwrite them.
    #[test]
    fn autocommit_flush_enters_conflict_window_immediately() {
        let t = table_with(10, small_files());
        let txn = t.begin_transaction().unwrap();
        let pin_ts = txn.snapshot_ts();
        let (rec, _) = t.scan_all().unwrap()[0];
        // The one commit, exactly as edit_locked drives it.
        let patch = AttachedEntry {
            record: rec,
            deleted: false,
            updates: vec![(2usize, Value::Float64(-5.0))],
        };
        {
            let _guard = t.inner.ops.read();
            let ours = PatchSet {
                rows: vec![patch],
                inserts: Vec::new(),
            };
            commit(&[(&t, None, Action::Write(Cow::Borrowed(&ours)))]).unwrap();
        }
        assert!(
            t.inner
                .mvcc
                .lock()
                .conflict_since(pin_ts, &[rec.as_u64()])
                .is_some(),
            "committed patch must conflict with the pinned transaction at once"
        );
        drop(txn);
        // A one-store transaction writes no decision record either.
        let mut txn = t.begin_transaction().unwrap();
        txn.insert(vec![row(100)]).unwrap();
        txn.commit().unwrap();
        assert_eq!(t.env().health.commit_records.get(), 0);
    }

    /// Regression (REVIEW: partial statement in the buffer): a failed
    /// transactional UPDATE must leave the transaction buffer untouched —
    /// committed-row patches *and* buffered-insert mutations alike —
    /// or a later COMMIT persists half a statement.
    #[test]
    fn failed_transaction_update_leaves_buffer_untouched() {
        let t = table_with(10, small_files());
        let mut txn = t.begin_transaction().unwrap();
        txn.insert(vec![row(100), row(101)]).unwrap();
        // Valid value for every committed row and the first pending row;
        // wrong type for the second pending row → the statement fails.
        let err = txn
            .update(
                |r| r[0].as_i64().unwrap() >= 5,
                &[(
                    2,
                    Box::new(|r: &Row| {
                        if r[0].as_i64().unwrap() == 101 {
                            Ok(Value::Utf8("bad".into()))
                        } else {
                            Ok(Value::Float64(-1.0))
                        }
                    }),
                )],
                &UnionReadOptions::all(),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Schema(_)), "got {err:?}");
        txn.commit().unwrap();
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 12);
        for (_, r) in &rows {
            let id = r[0].as_i64().unwrap();
            assert_eq!(
                r[2],
                Value::Float64(id as f64),
                "no value from the failed statement may survive (id {id})"
            );
        }
    }

    /// `id % 3 == 1`, read a batch at a time straight off the `id` slice.
    struct IdsOneModThree;

    impl RowSelector for IdsOneModThree {
        fn matches(&self, row: &Row) -> bool {
            row[0].as_i64().is_some_and(|id| id % 3 == 1)
        }

        fn select(&self, batch: &ColumnBatch, columns: &[usize], _: usize) -> Vec<u32> {
            let at = columns
                .iter()
                .position(|&c| c == 0)
                .expect("the scan reads id");
            let column = &batch.columns()[at];
            let dt_orcfile::ColumnData::Int64(ids) = column.data() else {
                panic!("id is a BIGINT column")
            };
            let hit = |&i: &usize| !column.is_null(i) && ids[i] % 3 == 1;
            batch.selected().filter(hit).map(|i| i as u32).collect()
        }
    }

    /// A batch selector and the equivalent closure choose the same rows
    /// on a dirty table — overlays moving rows in and out of the
    /// predicate, deletes leaving selection vectors, a sample that ends
    /// inside a stripe — under both plans and in a transaction.
    #[test]
    fn a_batch_selector_picks_what_the_equivalent_closure_picks() {
        let closure = |r: &Row| r[0].as_i64().is_some_and(|id| id % 3 == 1);
        let bump: [Assignment<'static>; 1] = [(
            2,
            Box::new(|r: &Row| Ok(Value::Float64(r[2].as_f64().unwrap_or(0.0) + 1.0))),
        )];
        let scan = UnionReadOptions::all().with_projection(vec![0, 2]);
        for plan_mode in [PlanMode::AlwaysEdit, PlanMode::AlwaysOverwrite] {
            let config = DualTableConfig {
                rows_per_file: 32,
                sample_rows: 37,
                plan_mode,
                writer: dt_orcfile::WriterOptions {
                    stripe_rows: 8,
                    ..Default::default()
                },
                ..DualTableConfig::default()
            };
            let dirty = || {
                let t = table_with(120, config.clone());
                let moved: [Assignment<'static>; 1] = [(
                    0,
                    Box::new(|r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap() + 1))),
                )];
                let edit = RatioHint::Explicit(0.01);
                let by = |m| move |r: &Row| r[0].as_i64().unwrap() % m == 0;
                t.dml(&by(5), Some(&moved), edit, None, &UnionReadOptions::all())
                    .unwrap();
                t.delete(by(7), edit).unwrap();
                t
            };
            let preview = |t: &DualTableStore, s: &dyn RowSelector| {
                t.plan_preview(s, true, &scan).unwrap().ratio
            };
            // The sample is the first 37 rows, though it ends mid-stripe.
            let clean = table_with(120, config.clone());
            let first_ten = |r: &Row| r[0].as_i64().unwrap() < 10;
            assert_eq!(preview(&clean, &first_ten), 10.0 / 37.0);

            let (a, b) = (dirty(), dirty());
            assert_eq!(preview(&a, &IdsOneModThree), preview(&b, &closure));

            let mut txns = (
                a.begin_transaction().unwrap(),
                b.begin_transaction().unwrap(),
            );
            let matched = txns.0.edit(&IdsOneModThree, Some(&bump), &scan).unwrap();
            assert_eq!(matched, txns.1.update(closure, &bump, &scan).unwrap());
            let rows = |txn: &Transaction| {
                let mut out = Vec::new();
                let all = UnionReadOptions::all();
                txn.for_each_batch(&all, |_, batch| {
                    out.extend(batch.selected_rows());
                    Ok(ControlFlow::Continue(()))
                })
                .unwrap();
                out
            };
            assert_eq!(rows(&txns.0), rows(&txns.1));
            drop(txns);

            let ratio = RatioHint::Sample;
            let by_batch = a.dml(&IdsOneModThree, Some(&bump), ratio, None, &scan);
            let by_row = b.dml(&closure, Some(&bump), ratio, None, &scan);
            assert_eq!(by_batch.unwrap(), by_row.unwrap(), "{plan_mode:?}");
            assert_eq!(
                a.scan_all().unwrap(),
                b.scan_all().unwrap(),
                "{plan_mode:?}"
            );
        }
    }
}

#[cfg(test)]
mod self_healing_tests {
    use super::*;
    use std::sync::Arc;

    use dt_common::fault::{FaultKind, FaultPlan};
    use dt_common::DataType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
    }

    fn row(i: i64) -> Row {
        vec![Value::Int64(i), Value::Int64(0)]
    }

    fn overwrite_config() -> DualTableConfig {
        DualTableConfig {
            rows_per_file: 32,
            plan_mode: PlanMode::AlwaysOverwrite,
            ..DualTableConfig::default()
        }
    }

    fn faulty_table(config: DualTableConfig) -> (DualTableEnv, DualTableStore, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::none());
        plan.set_armed(false);
        let env = DualTableEnv::in_memory_faulty(plan.clone()).unwrap();
        let t = DualTableStore::create(&env, "t", schema(), config).unwrap();
        t.insert_rows((0..64).map(row)).unwrap();
        plan.set_armed(true);
        (env, t, plan)
    }

    #[test]
    fn update_overwrite_falls_back_to_edit_on_rewrite_failure() {
        let (env, t, plan) = faulty_table(overwrite_config());
        // The rewrite's first write (allocating a master file ID) fails
        // permanently; the statement must still succeed via EDIT.
        plan.fail_next(FaultKind::WriteError);
        let report = t
            .update(
                |r| r[0].as_i64().unwrap() < 8,
                &[(1, Box::new(|_| Ok(Value::Int64(7))))],
                RatioHint::Explicit(0.9),
            )
            .unwrap();
        plan.set_armed(false);
        assert_eq!(
            report.plan,
            PlanChoice::Edit,
            "executed plan is the fallback"
        );
        assert_eq!(report.rows_matched, 8);
        assert_eq!(env.health_report().table.plan_fallbacks, 1);
        // EDIT semantics: master untouched, overlay in the attached tier.
        let stats = t.stats().unwrap();
        assert_eq!(stats.master_rows, 64);
        assert!(stats.attached_entries > 0);
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 64);
        assert_eq!(rows[3].1[1], Value::Int64(7));
        assert_eq!(rows[9].1[1], Value::Int64(0));
    }

    #[test]
    fn delete_overwrite_falls_back_to_edit_on_rewrite_failure() {
        let (env, t, plan) = faulty_table(overwrite_config());
        plan.fail_next(FaultKind::WriteError);
        let report = t
            .delete(
                |r| r[0].as_i64().unwrap() % 2 == 0,
                RatioHint::Explicit(0.5),
            )
            .unwrap();
        plan.set_armed(false);
        assert_eq!(report.plan, PlanChoice::Edit);
        assert_eq!(report.rows_matched, 32);
        assert_eq!(env.health_report().table.plan_fallbacks, 1);
        assert_eq!(t.count().unwrap(), 32);
        assert_eq!(t.stats().unwrap().master_rows, 64, "masters keep the rows");
    }

    #[test]
    fn compact_retries_through_transient_outage() {
        let (env, t, plan) = faulty_table(DualTableConfig {
            rows_per_file: 32,
            plan_mode: PlanMode::AlwaysEdit,
            ..DualTableConfig::default()
        });
        t.update(
            |r| r[0].as_i64().unwrap() < 4,
            &[(1, Box::new(|_| Ok(Value::Int64(1))))],
            RatioHint::Explicit(0.1),
        )
        .unwrap();
        // An outage longer than the KV tier's retry budget (4 attempts):
        // the tier-level retry exhausts, the statement-level retry in
        // `compact` takes over and the second pass drains the outage.
        plan.fail_transient_next(FaultKind::TransientWriteError, 5);
        t.compact().unwrap();
        plan.set_armed(false);
        let report = env.health_report();
        assert!(report.table.retry.retries >= 1, "compact itself retried");
        assert_eq!(report.table.retry.retry_successes, 1);
        assert!(
            report.kv.retry.retry_exhausted >= 1,
            "tier retry gave up first"
        );
        assert_eq!(t.count().unwrap(), 64);
        assert_eq!(t.stats().unwrap().attached_entries, 0);
        let rows = t.scan_all().unwrap();
        assert_eq!(rows[0].1[1], Value::Int64(1), "overlay survived compaction");
    }

    #[test]
    fn open_records_failed_gc_and_retries_it() {
        let (env, t, plan) = faulty_table(overwrite_config());
        plan.set_armed(false);
        // A torn, uncommitted rewrite left files in a future generation.
        let stale = format!("{}/part-0000000042", t.gen_dir(99));
        env.dfs.write_file(&stale, b"junk").unwrap();
        // GC on open hits a failing delete: the debt is recorded, not
        // swallowed.
        plan.set_armed(true);
        plan.fail_next(FaultKind::WriteError);
        let t2 = DualTableStore::open(&env, "t", schema(), overwrite_config()).unwrap();
        plan.set_armed(false);
        assert_eq!(env.health_report().table.cleanup_failures, 1);
        assert_eq!(t2.count().unwrap(), 64, "stale generation stays invisible");
        // Debt from a rewrite whose cleanup never ran at all (process
        // death before GC) is settled by the next open.
        let stale2 = format!("{}/part-0000000043", t.gen_dir(98));
        env.dfs.write_file(&stale2, b"junk").unwrap();
        DualTableStore::open(&env, "t", schema(), overwrite_config()).unwrap();
        assert!(!env.dfs.exists(&stale2), "GC retried on open");
        assert!(!env.dfs.exists(&stale));
        assert_eq!(t2.count().unwrap(), 64);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use dt_common::DataType;

    #[test]
    fn plan_preview_matches_execution() {
        let env = DualTableEnv::in_memory();
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Float64)]);
        let t = DualTableStore::create(
            &env,
            "pv",
            schema,
            DualTableConfig {
                rows_per_file: 64,
                ..DualTableConfig::default()
            },
        )
        .unwrap();
        t.insert_rows((0..300).map(|i| vec![Value::Int64(i), Value::Float64(0.0)]))
            .unwrap();

        let small = |r: &Row| r[0].as_i64().unwrap() < 3;
        let preview = t
            .plan_preview(&small, true, &UnionReadOptions::all())
            .unwrap();
        assert_eq!(preview.plan, PlanChoice::Edit);
        assert!(preview.cost_diff > 0.0);
        assert!(preview.ratio < 0.05);
        let report = t
            .update(
                small,
                &[(1, Box::new(|_| Ok(Value::Float64(1.0))))],
                RatioHint::Sample,
            )
            .unwrap();
        assert_eq!(report.plan, preview.plan);

        let huge = |_: &Row| true;
        let preview = t
            .plan_preview(&huge, false, &UnionReadOptions::all())
            .unwrap();
        assert_eq!(preview.plan, PlanChoice::Overwrite);
        assert!(preview.cost_diff < 0.0);
    }
}
