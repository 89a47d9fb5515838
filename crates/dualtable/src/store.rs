//! The DualTable store: master + attached storage, DML plans, COMPACT.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use dt_common::{Error, RecordId, Result, Row, Schema, Value};
use dt_orcfile::{
    ColumnBatch, ColumnPredicate, FooterCache, FooterCacheStats, OrcReader, OrcWriter,
    FILE_ID_METADATA_KEY,
};
use parking_lot::{Mutex, RwLock};

use crate::attached::{delete_cell, update_cells};
use crate::compactor::FoldOutcome;
use crate::config::{DualTableConfig, PlanMode};
use crate::cost::{CostModel, PlanChoice, RatioHint};
use crate::delta::DeltaPolicy;
use crate::env::DualTableEnv;
use crate::mvcc::{
    decode_txn_intent, encode_txn_intent, Conflict, TableMvcc, TXN_INTENT_QUALIFIER,
};
use crate::presence::{
    decode_count, encode_count, presence_key, presence_qualifier, FilePresence, PresenceDelta,
    PresenceIndex, PRESENCE_FILE_ID,
};
use crate::txn::{RewriteJob, RowPatch, Snapshot, Transaction};
use crate::union_read::{for_each_row, merge_file, BatchFn, UnionReadOptions};

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

struct Inner {
    name: String,
    schema: Schema,
    env: DualTableEnv,
    config: DualTableConfig,
    /// Readers/EDIT-DML hold `read`; OVERWRITE-plan DML and COMPACT hold
    /// `write` ("all the other operations will be blocked during COMPACT",
    /// §III-C).
    ops: RwLock<()>,
    /// Parsed ORC footers of this table's master files (DESIGN.md §10).
    /// Invalidated by table prefix at every generation commit.
    footers: FooterCache,
    /// Serializes the read-modify-write of presence-index counts across
    /// concurrent EDIT statements (which only hold `ops` in read mode).
    presence_lock: Mutex<()>,
    /// This table's MVCC state (DESIGN.md §13): snapshot pins, conflict
    /// windows, deferred-GC bookkeeping. Shared through the environment's
    /// registry, so every clone and every session sees the same state.
    /// Lock order: `ops` (read or write) before this state's mutex;
    /// `presence_lock` may nest inside the state mutex.
    mvcc: Arc<TableMvcc>,
}

/// One DualTable (see the crate docs for the model).
///
/// Cheap to clone; clones share the table.
/// One `UPDATE` assignment: `(column ordinal, value function)`. `Sync`
/// because the OVERWRITE plan applies assignments from parallel rewrite
/// workers (DESIGN.md §12).
pub type Assignment<'a> = (usize, Box<dyn Fn(&Row) -> Value + Sync + 'a>);

#[derive(Clone)]
pub struct DualTableStore {
    inner: Arc<Inner>,
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

/// The predicates that may be pushed down into `file_id`'s ORC reader: all
/// of them for a clean file, those on columns without update overlays for a
/// dirty one, none under the conservative fallback. Dropping conjuncts is
/// always sound — predicates are a conjunction, so fewer of them only skip
/// fewer stripes.
fn file_predicates<'a>(
    presence: Option<&PresenceIndex>,
    predicates: Option<&'a [ColumnPredicate]>,
    file_id: u32,
) -> Option<Cow<'a, [ColumnPredicate]>> {
    let predicates = predicates?;
    let index = presence?;
    match index.file(file_id) {
        None => Some(Cow::Borrowed(predicates)),
        Some(fp) => {
            let kept: Vec<ColumnPredicate> = predicates
                .iter()
                .filter(|p| !fp.has_update_on(p.column))
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
    }
}

/// What every file of one UNION READ shares, resolved once per scan and
/// borrowed by all of its (possibly parallel) per-file merges.
struct ScanPlan<'a> {
    gen: u64,
    opts: &'a UnionReadOptions,
    /// Decoded column ordinals (`opts.projection`, or every column).
    projection: Cow<'a, [usize]>,
    attached: dt_kvstore::Store,
    presence: Option<PresenceIndex>,
}

/// One worker's slice of a parallel rewrite: the master files it reads
/// and the output file-ID range its sink draws from.
struct RewritePartition {
    files: Vec<u32>,
    first_id: u32,
    id_count: u32,
}

/// Where a [`MasterWriteSink`] gets the file ID for each file it starts.
enum FileIdAlloc {
    /// One metadata-table counter bump per file (the sequential path).
    Shared,
    /// A contiguous range pre-reserved for one parallel rewrite worker
    /// via [`crate::meta::MetadataManager::reserve_file_ids`]. Drawing
    /// from a private range keeps workers off the shared counter and —
    /// because ranges are reserved in partition order — keeps the new
    /// generation's ascending-file-ID scan order equal to the
    /// concatenation of the partitions.
    Reserved { next: u32, remaining: u32 },
}

impl FileIdAlloc {
    fn next(&mut self, store: &DualTableStore) -> Result<u32> {
        match self {
            FileIdAlloc::Shared => store.inner.env.meta.next_file_id(&store.inner.name),
            FileIdAlloc::Reserved { next, remaining } => {
                if *remaining == 0 {
                    // Ranges are sized from footer row counts, which upper-
                    // bound the UNION READ output; exhaustion is a bug.
                    return Err(Error::internal(
                        "parallel rewrite exhausted its reserved file-ID range",
                    ));
                }
                let id = *next;
                *next += 1;
                *remaining -= 1;
                Ok(id)
            }
        }
    }
}

/// Incrementally writes rows into a generation's master files, rolling to
/// a fresh file (and file ID) every `rows_per_file` rows. At most one
/// file's writer is in flight, so feeding it from a streaming scan keeps
/// memory bounded by one file — COMPACT pipes the UNION READ straight in
/// instead of materializing the table.
struct MasterWriteSink<'a> {
    store: &'a DualTableStore,
    gen: u64,
    alloc: FileIdAlloc,
    writer: Option<OrcWriter>,
    in_file: usize,
    written: u64,
    /// File IDs this sink created, in creation order.
    created: Vec<u32>,
}

impl<'a> MasterWriteSink<'a> {
    fn new(store: &'a DualTableStore, gen: u64) -> Self {
        Self::with_alloc(store, gen, FileIdAlloc::Shared)
    }

    /// A sink drawing file IDs from the pre-reserved range
    /// `[first_id, first_id + count)` instead of the shared counter.
    fn reserved(store: &'a DualTableStore, gen: u64, first_id: u32, count: u32) -> Self {
        Self::with_alloc(
            store,
            gen,
            FileIdAlloc::Reserved {
                next: first_id,
                remaining: count,
            },
        )
    }

    fn with_alloc(store: &'a DualTableStore, gen: u64, alloc: FileIdAlloc) -> Self {
        MasterWriteSink {
            store,
            gen,
            alloc,
            writer: None,
            in_file: 0,
            written: 0,
            created: Vec::new(),
        }
    }

    fn push(&mut self, row: Row) -> Result<()> {
        let inner = &self.store.inner;
        if self.writer.is_none() {
            let file_id = self.alloc.next(self.store)?;
            self.created.push(file_id);
            let mut w = OrcWriter::create(
                &inner.env.dfs,
                &self.store.file_path_at(self.gen, file_id),
                inner.schema.clone(),
                inner.config.writer.clone(),
            )?;
            w.set_metadata(FILE_ID_METADATA_KEY, file_id.to_be_bytes().to_vec());
            self.writer = Some(w);
            self.in_file = 0;
        }
        self.writer
            .as_mut()
            .expect("writer just created")
            .write_row(row)?;
        self.written += 1;
        self.in_file += 1;
        if self.in_file >= inner.config.rows_per_file {
            self.writer.take().expect("writer exists").finish()?;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<u64> {
        if let Some(w) = self.writer.take() {
            w.finish()?;
        }
        Ok(self.written)
    }

    /// [`MasterWriteSink::finish`] that also reports which file IDs the
    /// sink created — for callers that register file visibility with the
    /// MVCC state or write a transactional-insert undo intent.
    fn finish_with_ids(mut self) -> Result<(u64, Vec<u32>)> {
        if let Some(w) = self.writer.take() {
            w.finish()?;
        }
        Ok((self.written, std::mem::take(&mut self.created)))
    }
}

impl DualTableStore {
    fn attached_name(name: &str) -> String {
        format!("att_{name}")
    }

    fn master_dir(name: &str) -> String {
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
        Ok(DualTableStore {
            inner: Arc::new(Inner {
                name: name.to_string(),
                schema,
                env: env.clone(),
                footers: FooterCache::with_health(
                    config.footer_cache_entries,
                    Some(env.health.clone()),
                ),
                config,
                ops: RwLock::new(()),
                presence_lock: Mutex::new(()),
                mvcc: env.mvcc.table(name),
            }),
        })
    }

    /// Opens an existing DualTable. Retries any garbage collection a
    /// previous swap left behind (post-commit cleanup is best-effort; the
    /// debt is recorded in the health counters and settled here), and
    /// undoes any transactional insert whose intent cell survived a crash
    /// (the transaction never committed; its files must not reappear).
    pub fn open(
        env: &DualTableEnv,
        name: &str,
        schema: Schema,
        config: DualTableConfig,
    ) -> Result<Self> {
        env.kv.table(&Self::attached_name(name))?;
        let store = DualTableStore {
            inner: Arc::new(Inner {
                name: name.to_string(),
                schema,
                env: env.clone(),
                footers: FooterCache::with_health(
                    config.footer_cache_entries,
                    Some(env.health.clone()),
                ),
                config,
                ops: RwLock::new(()),
                presence_lock: Mutex::new(()),
                mvcc: env.mvcc.table(name),
            }),
        };
        store.recover_txn_intents();
        if let Ok(gen) = store.current_gen() {
            store.cleanup_stale_generations(gen);
        }
        store.sweep_fold_residue();
        Ok(store)
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

    /// Undoes a transactional insert interrupted between its durable
    /// intent write and its commit: the intent cell lists the master files
    /// the commit was about to publish; none of them committed, so delete
    /// them and the intent. Best-effort like all recovery cleanup —
    /// failures are recorded as cleanup debt and retried on the next open
    /// (an undeleted file stays invisible anyway until the intent cell is
    /// gone, and the intent is deleted last).
    fn recover_txn_intents(&self) {
        // A live pin means a session of this process is mid-transaction;
        // its intent is not crash debris. (After a real crash the registry
        // is empty, so recovery always runs.)
        if self.inner.mvcc.lock().pin_count() > 0 {
            return;
        }
        let Ok(attached) = self.attached() else {
            return;
        };
        if attached.is_empty() {
            return;
        }
        let intent_row = RecordId::new(PRESENCE_FILE_ID, 0);
        let Ok(scan) = attached.scan_at(
            Some(&intent_row.to_key()[..]),
            Some(&RecordId::new(PRESENCE_FILE_ID, 1).to_key()[..]),
            u64::MAX,
        ) else {
            self.inner.env.health.record_cleanup_failure();
            return;
        };
        for row in scan {
            let Ok(row) = row else {
                self.inner.env.health.record_cleanup_failure();
                return;
            };
            for (qual, _ts, value) in &row.cells {
                if !qual.starts_with(&TXN_INTENT_QUALIFIER) {
                    continue;
                }
                let Some((gen, file_ids)) = decode_txn_intent(value) else {
                    self.inner.env.health.record_cleanup_failure();
                    continue;
                };
                let mut undone = true;
                for id in file_ids {
                    let path = self.file_path_at(gen, id);
                    if self.inner.env.dfs.exists(&path) && self.inner.env.dfs.delete(&path).is_err()
                    {
                        self.inner.env.health.record_cleanup_failure();
                        undone = false;
                    }
                }
                // The intent is deleted last, so a partial undo keeps it
                // and the next open retries the whole thing.
                if undone && attached.delete_cell(&intent_row.to_key(), qual).is_err() {
                    self.inner.env.health.record_cleanup_failure();
                }
            }
        }
    }

    /// Sweeps attached-tier residue of an interrupted incremental fold: a
    /// crash between a fold's generation swing and its attached-row
    /// retirement leaves presence rows and data cells keyed to folded —
    /// now nonexistent — master files. They are invisible to every scan
    /// (no live file covers their record-ID ranges), but they would make
    /// the presence index lie about files that no longer exist, so openers
    /// retire them here. Skipped while any session still reads an older
    /// generation — its files are absent from the current listing but are
    /// not residue — and under the conservative pre-index fallback (no
    /// index rows to reconcile).
    fn sweep_fold_residue(&self) {
        {
            let st = self.inner.mvcc.lock();
            if st.pin_count() > 0 || st.retired_count() > 0 {
                return;
            }
        }
        let Ok(gen) = self.current_gen() else {
            return;
        };
        let Ok(attached) = self.attached() else {
            return;
        };
        let Ok(Some(index)) = self.load_presence(&attached) else {
            return;
        };
        let live: BTreeSet<u32> = self.master_file_ids_at(gen).into_iter().collect();
        let orphans: Vec<u32> = index
            .files
            .keys()
            .copied()
            .filter(|id| !live.contains(id))
            .collect();
        if orphans.is_empty() {
            return;
        }
        if self.collect_folded_attached(&orphans).is_err() {
            self.inner.env.health.record_cleanup_failure();
        }
    }

    /// Drops the table: master files and the attached table (paper §III-C,
    /// DROP).
    pub fn drop_table(self) -> Result<()> {
        let _guard = self.inner.ops.write();
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
    fn attached(&self) -> Result<dt_kvstore::Store> {
        self.inner
            .env
            .kv
            .table(&Self::attached_name(&self.inner.name))
    }

    /// This table's delta-tier policy (DESIGN.md §17).
    fn delta_policy(&self) -> DeltaPolicy {
        DeltaPolicy::new(self.inner.config.delta_bytes)
    }

    /// The cost model for plan selection, reflecting whether EDIT cells
    /// ride the delta tier (cheaper attached writes shift the crossover).
    fn cost_model(&self) -> CostModel {
        if self.delta_policy().enabled() {
            CostModel::with_delta_tier(self.inner.config.rates, self.inner.config.write_threads)
        } else {
            CostModel::with_parallelism(self.inner.config.rates, self.inner.config.write_threads)
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
    fn current_gen(&self) -> Result<u64> {
        self.inner.env.meta.generation(&self.inner.name)
    }

    fn gen_dir(&self, gen: u64) -> String {
        format!("{}/gen-{gen:010}", Self::master_dir(&self.inner.name))
    }

    fn file_path_at(&self, gen: u64, file_id: u32) -> String {
        format!("{}/part-{file_id:010}", self.gen_dir(gen))
    }

    /// Master file IDs in ascending order (== record-ID scan order).
    pub fn master_file_ids(&self) -> Result<Vec<u32>> {
        Ok(self.master_file_ids_at(self.current_gen()?))
    }

    fn master_file_ids_at(&self, gen: u64) -> Vec<u32> {
        let prefix = format!("{}/part-", self.gen_dir(gen));
        self.inner
            .env
            .dfs
            .list(&prefix)
            .iter()
            .filter_map(|path| path.strip_prefix(&prefix)?.parse::<u32>().ok())
            .collect()
    }

    /// The first generation number safe to build into: past the committed
    /// one *and* past any directory a crashed, uncommitted rewrite left
    /// behind (whose stale files must never join a new generation).
    fn next_generation(&self) -> Result<u64> {
        let committed = self.current_gen()?;
        let prefix = format!("{}/gen-", Self::master_dir(&self.inner.name));
        let max_present = self
            .inner
            .env
            .dfs
            .list(&prefix)
            .iter()
            .filter_map(|path| {
                path.strip_prefix(&prefix)?
                    .split('/')
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0);
        // Also stay clear of any generation number reserved for an
        // off-to-the-side build this process knows about — a zero-row
        // build leaves no directory for the listing to see.
        Ok(self
            .inner
            .mvcc
            .lock()
            .observe_build_gen(committed.max(max_present) + 1))
    }

    /// Best-effort removal of every master file outside `current` —
    /// retired generations and torn uncommitted ones. Failed deletes are
    /// recorded as cleanup debt in the health counters (never swallowed
    /// silently) and retried on the next swap or table open; stale
    /// generations are unreachable in the meantime. Returns
    /// `(generations fully swept, deletes failed)`.
    fn cleanup_stale_generations(&self, current: u64) -> (u64, u64) {
        // Generations pinned by live snapshots, parked for deferred GC or
        // being built off to the side are not stale, merely not current.
        let protected = self.inner.mvcc.lock().protected_gens();
        let prefix = format!("{}/gen-", Self::master_dir(&self.inner.name));
        let mut failed = 0u64;
        // Per-generation sweep outcome: a generation counts as swept only
        // if every one of its files was deleted.
        let mut touched: BTreeMap<u64, bool> = BTreeMap::new();
        for path in self.inner.env.dfs.list(&prefix) {
            let Some(gen) = path
                .strip_prefix(&prefix)
                .and_then(|rest| rest.split('/').next())
                .and_then(|g| g.parse::<u64>().ok())
                .filter(|&g| g != current && !protected.contains(&g))
            else {
                continue;
            };
            if self.inner.env.dfs.delete(&path).is_err() {
                self.inner.env.health.record_cleanup_failure();
                failed += 1;
                touched.insert(gen, false);
            } else {
                // The path can never be opened again; retire its footer.
                self.inner.footers.invalidate_prefix(&path);
                touched.entry(gen).or_insert(true);
            }
        }
        let swept = touched.values().filter(|&&ok| ok).count() as u64;
        (swept, failed)
    }

    // ------------------------------------------------------------------
    // Ingest (LOAD / INSERT INTO / INSERT OVERWRITE)
    // ------------------------------------------------------------------

    /// Appends rows, creating one or more new master files (the paper's
    /// LOAD / INSERT INTO: "data are loaded and inserted into the Master
    /// Table").
    pub fn insert_rows<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        let _guard = self.inner.ops.read();
        let rows: Vec<Row> = rows.into_iter().collect();
        if rows.is_empty() {
            return Ok(0);
        }
        let gen = self.current_gen()?;
        // Stage the file IDs *before* any file becomes listable: files the
        // MVCC state has never heard of default to always-visible, so a
        // snapshot pinned between the file write and the commit below
        // would first see the new rows, then lose them once the commit
        // lands after its pin — a non-repeatable read. Mirrors the
        // transactional insert path ([`Self::commit_transaction`] phase
        // 1), minus the durable undo intent: autocommit inserts have no
        // in-flight state to recover.
        let rows_per_file = self.inner.config.rows_per_file.max(1);
        let files = u32::try_from(rows.len().div_ceil(rows_per_file))
            .map_err(|_| Error::internal("insert needs too many files"))?;
        let first = self
            .inner
            .env
            .meta
            .reserve_file_ids(&self.inner.name, files)?;
        let ids: Vec<u32> = (first..first + files).collect();
        {
            let mut st = self.inner.mvcc.lock();
            for &id in &ids {
                st.stage_file(gen, id);
            }
        }
        let mut sink = MasterWriteSink::reserved(self, gen, first, files);
        let written = rows
            .into_iter()
            .try_for_each(|row| sink.push(row))
            .and_then(|()| sink.finish());
        let written = match written {
            Ok(w) => w,
            Err(e) => {
                // Delete any partial files before unstaging — a forgotten
                // *existing* file would be visible.
                let mut all_deleted = true;
                for &id in &ids {
                    let path = self.file_path_at(gen, id);
                    if self.inner.env.dfs.exists(&path) && self.inner.env.dfs.delete(&path).is_err()
                    {
                        self.inner.env.health.record_cleanup_failure();
                        all_deleted = false;
                    }
                }
                if all_deleted {
                    self.inner.mvcc.lock().unstage_files(gen, ids);
                }
                return Err(e);
            }
        };
        // Autocommit commit point: the files become visible at a fresh
        // timestamp, ticked under the state mutex so no pin can land
        // between the timestamp and the visibility flip.
        let mut st = self.inner.mvcc.lock();
        let ts = self.inner.env.kv.clock().tick();
        st.commit_files(gen, ids, ts);
        // Bump the edit clock too: a two-phase rewrite pinned before this
        // insert must conflict at finish, or its swing would silently drop
        // these files (they only exist in the generation it replaces).
        st.note_edit_commit([], ts);
        Ok(written)
    }

    fn write_master_files<I>(&self, gen: u64, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        Ok(self.write_master_files_tracked(gen, rows)?.0)
    }

    fn write_master_files_tracked<I>(&self, gen: u64, rows: I) -> Result<(u64, Vec<u32>)>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut sink = MasterWriteSink::new(self, gen);
        for row in rows {
            sink.push(row)?;
        }
        sink.finish_with_ids()
    }

    /// Replaces the whole table content (Hive's `INSERT OVERWRITE TABLE`):
    /// new master files, cleared attached table. Atomic under crashes via
    /// the generation commit (see [`DualTableStore::swap_in`]).
    pub fn insert_overwrite<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        let _guard = self.inner.ops.write();
        self.swap_in(rows)
    }

    fn truncate_attached(&self) -> Result<()> {
        self.inner
            .env
            .kv
            .truncate_table(&Self::attached_name(&self.inner.name))
    }

    // ------------------------------------------------------------------
    // UNION READ
    // ------------------------------------------------------------------

    /// Streams the table as merged column batches — this is the UNION READ
    /// operation; every other scan entry point is an adapter over it. `f`
    /// gets each master file's ID with one of its stripes and may stop the
    /// scan by returning `Break`.
    pub fn for_each_batch(
        &self,
        opts: &UnionReadOptions,
        mut f: impl FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let _guard = self.inner.ops.read();
        self.for_each_at(self.current_gen()?, opts, &mut f)
    }

    /// [`DualTableStore::for_each_batch`] unpacked into `(record id, row)`
    /// pairs.
    pub fn for_each(
        &self,
        opts: &UnionReadOptions,
        mut f: impl FnMut(RecordId, Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        self.for_each_batch(opts, |file_id, batch| for_each_row(file_id, &batch, &mut f))
    }

    /// UNION READ at a pinned epoch (`opts.snapshot_ts` must be the pin's
    /// timestamp). Takes the ops lock in read mode like any scan — pinned
    /// readers don't block EDIT writers, only rewrites' commit step.
    pub(crate) fn pinned_for_each(
        &self,
        gen: u64,
        opts: &UnionReadOptions,
        f: &mut BatchFn<'_>,
    ) -> Result<()> {
        let _guard = self.inner.ops.read();
        self.for_each_at(gen, opts, f)
    }

    /// The master file IDs of `gen` visible to a snapshot at `at_ts`:
    /// everything in the directory except files some in-flight (or
    /// later-committed) transactional insert staged after the snapshot.
    fn visible_files(&self, gen: u64, at_ts: u64) -> Vec<u32> {
        let files = self.master_file_ids_at(gen);
        let st = self.inner.mvcc.lock();
        files
            .into_iter()
            .filter(|&id| st.file_visible(gen, id, at_ts))
            .collect()
    }

    /// Sequential UNION READ at an explicit `(generation,
    /// opts.snapshot_ts)` epoch, ops lock already held.
    fn for_each_at(&self, gen: u64, opts: &UnionReadOptions, f: &mut BatchFn<'_>) -> Result<()> {
        let plan = self.scan_plan(gen, opts)?;
        for file_id in self.visible_files(gen, opts.snapshot_ts) {
            if self.merge_master(&plan, file_id, f)?.is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Resolves what every file of one UNION READ shares.
    fn scan_plan<'a>(&self, gen: u64, opts: &'a UnionReadOptions) -> Result<ScanPlan<'a>> {
        let attached = self.attached()?;
        Ok(ScanPlan {
            gen,
            opts,
            projection: match &opts.projection {
                Some(p) => Cow::Borrowed(p),
                None => (0..self.inner.schema.len()).collect(),
            },
            presence: self.load_presence(&attached)?,
            attached,
        })
    }

    /// The one place a master file meets its attached range: opens the
    /// file (footer cache), skips the attached scan when the presence
    /// index proves the file clean, keeps the stripe predicates the
    /// file's overlays leave sound, and runs [`merge_file`].
    fn merge_master(
        &self,
        plan: &ScanPlan<'_>,
        file_id: u32,
        f: &mut BatchFn<'_>,
    ) -> Result<ControlFlow<()>> {
        let reader = self.open_master(plan.gen, file_id)?;
        let presence = plan.presence.as_ref();
        let attached = if presence.is_some_and(|idx| !idx.is_dirty(file_id)) {
            self.inner.env.health.record_attached_scan_skipped();
            None
        } else {
            Some(plan.attached.scan_at(
                Some(&RecordId::file_start(file_id).to_key()[..]),
                Some(&RecordId::file_start(file_id.wrapping_add(1)).to_key()[..]),
                plan.opts.snapshot_ts,
            )?)
        };
        let predicates = file_predicates(presence, plan.opts.predicates.as_deref(), file_id);
        merge_file(
            file_id,
            &reader,
            &plan.projection,
            predicates.as_deref(),
            attached,
            f,
        )
    }

    /// [`Self::merge_master`] unpacked into rows, for the consumers that
    /// take every one of them: the parallel scan and the rewrites.
    fn merge_master_rows(
        &self,
        plan: &ScanPlan<'_>,
        file_id: u32,
        f: &mut dyn FnMut(RecordId, Row) -> Result<()>,
    ) -> Result<()> {
        let flow = self.merge_master(plan, file_id, &mut |file_id, batch| {
            for_each_row(file_id, &batch, &mut |id, row| {
                f(id, row)?;
                Ok(ControlFlow::Continue(()))
            })
        })?;
        debug_assert!(flow.is_continue(), "a take-every-row consumer never breaks");
        Ok(())
    }

    fn open_master(&self, gen: u64, file_id: u32) -> Result<Arc<OrcReader>> {
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
    /// [`crate::presence`]). Returns:
    ///
    /// * `Some(index)` — authoritative: every file absent from it is clean;
    /// * `None` — the attached table holds data cells but no index rows
    ///   (data written before the index existed); fall back to the
    ///   conservative pre-index behaviour: scan every file, no push-down.
    ///
    /// Always read at `u64::MAX`: counts are monotone within a generation,
    /// so the latest index conservatively over-approximates every earlier
    /// snapshot (see the module docs for the soundness argument).
    fn load_presence(&self, attached: &dt_kvstore::Store) -> Result<Option<PresenceIndex>> {
        if attached.is_empty() {
            return Ok(Some(PresenceIndex::default()));
        }
        let mut index = PresenceIndex::default();
        let scan = attached.scan_at(
            None,
            Some(&RecordId::file_start(PRESENCE_FILE_ID.wrapping_add(1)).to_key()[..]),
            u64::MAX,
        )?;
        for row in scan {
            let row = row?;
            let record = RecordId::from_key(&row.row)
                .ok_or_else(|| Error::corrupt("presence row key is not a record ID"))?;
            if record.row == 0 {
                // `{0, 0}` is the transactional-insert intent cell, not a
                // presence row (real file IDs start at 1).
                continue;
            }
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
        if index.files.is_empty() {
            // Non-empty attached table without index rows: pre-index data.
            return Ok(None);
        }
        Ok(Some(index))
    }

    /// The current presence index, if one is decodable (`None` under the
    /// conservative fallback). Exposed for tests and experiments.
    pub fn presence_index(&self) -> Result<Option<PresenceIndex>> {
        let _guard = self.inner.ops.read();
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

    /// Parallel UNION READ: one map task per master file, each merging its
    /// file with the matching attached range — "a simple Map Reduce
    /// algorithm using a divide-and-conquer strategy" (paper §III-C).
    /// Output order equals [`DualTableStore::scan`].
    pub fn scan_parallel(
        &self,
        opts: &UnionReadOptions,
        job: &dt_engine::JobConfig,
    ) -> Result<Vec<(RecordId, Row)>> {
        let _guard = self.inner.ops.read();
        let gen = self.current_gen()?;
        let plan = self.scan_plan(gen, opts)?;
        let files = self.visible_files(gen, opts.snapshot_ts);
        let per_file = dt_engine::parallel_map_fallible(job, files, |file_id| {
            let mut out = Vec::new();
            self.merge_master_rows(&plan, file_id, &mut |id, row| {
                out.push((id, row));
                Ok(())
            })?;
            Ok(out)
        })?;
        Ok(per_file.into_iter().flatten().collect())
    }

    /// Materializes a scan with options.
    pub fn scan(&self, opts: &UnionReadOptions) -> Result<Vec<(RecordId, Row)>> {
        let mut out = Vec::new();
        self.for_each(opts, |id, row| {
            out.push((id, row));
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// Counts visible rows: a scan that decodes no column. A clean file
    /// answers from its footer's row counts without any I/O; a dirty one
    /// costs its attached scan, for the delete markers.
    pub fn count(&self) -> Result<u64> {
        let mut n = 0u64;
        self.for_each_batch(
            &UnionReadOptions::all().with_projection(Vec::new()),
            |_, batch| {
                n += batch.selected_len() as u64;
                Ok(ControlFlow::Continue(()))
            },
        )?;
        Ok(n)
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
        let mut master_bytes = 0u64;
        let mut master_rows = 0u64;
        let mut master_files = 0u64;
        let gen = self.current_gen()?;
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
        predicate: &dyn Fn(&Row) -> bool,
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
    fn sample_ratio(
        &self,
        predicate: &dyn Fn(&Row) -> bool,
        scan: &UnionReadOptions,
    ) -> Result<f64> {
        let limit = self.inner.config.sample_rows.max(1);
        let mut seen = 0u64;
        let mut matched = 0u64;
        let unpushed = UnionReadOptions {
            predicates: None,
            ..scan.clone()
        };
        let _guard = self.inner.ops.read();
        self.locate(&unpushed, &mut |_, row| {
            seen += 1;
            if predicate(row) {
                matched += 1;
            }
            Ok(if seen as usize >= limit {
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
    /// DELETE with the given predicate, sampling the modification ratio —
    /// without executing anything. Powers `EXPLAIN UPDATE/DELETE`.
    pub fn plan_preview(
        &self,
        predicate: &dyn Fn(&Row) -> bool,
        is_update: bool,
    ) -> Result<PlanPreview> {
        let ratio = self.sample_ratio(predicate, &UnionReadOptions::all())?;
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
        self.update_keyed(
            predicate,
            assignments,
            ratio,
            None,
            &UnionReadOptions::all(),
        )
    }

    /// Like [`DualTableStore::update`] with a statement key for the
    /// historical-ratio log and a description of what the statement reads:
    /// `scan.projection` lists the columns `predicate` and the assignment
    /// functions look at (they see NULL in every other column under the
    /// EDIT plan, whose locate-scan decodes nothing else) and
    /// `scan.predicates` holds conjuncts of `predicate` that let that scan
    /// skip stripes.
    pub fn update_keyed(
        &self,
        predicate: impl Fn(&Row) -> bool + Sync,
        assignments: &[Assignment<'_>],
        ratio: RatioHint,
        statement_key: Option<&str>,
        scan: &UnionReadOptions,
    ) -> Result<DmlReport> {
        for (col, _) in assignments {
            if *col >= self.inner.schema.len() {
                return Err(Error::schema(format!("assignment to unknown column {col}")));
            }
        }
        self.dml(&predicate, Some(assignments), ratio, statement_key, scan)
    }

    /// Executes `DELETE FROM <table> WHERE <predicate>`.
    pub fn delete(
        &self,
        predicate: impl Fn(&Row) -> bool + Sync,
        ratio: RatioHint,
    ) -> Result<DmlReport> {
        self.delete_keyed(predicate, ratio, None, &UnionReadOptions::all())
    }

    /// Like [`DualTableStore::delete`] with a statement key and a scan
    /// description (see [`DualTableStore::update_keyed`]).
    pub fn delete_keyed(
        &self,
        predicate: impl Fn(&Row) -> bool + Sync,
        ratio: RatioHint,
        statement_key: Option<&str>,
        scan: &UnionReadOptions,
    ) -> Result<DmlReport> {
        self.dml(&predicate, None, ratio, statement_key, scan)
    }

    /// One UPDATE (`assignments` given) or DELETE: resolve the ratio, let
    /// the cost model pick the plan, run it, log the observed ratio.
    fn dml(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: Option<&[Assignment<'_>]>,
        ratio: RatioHint,
        statement_key: Option<&str>,
        scan: &UnionReadOptions,
    ) -> Result<DmlReport> {
        let ratio_used = self.resolve_ratio(&ratio, statement_key, predicate, scan)?;
        let (by_cost, diff, _) = self.cost_plan(assignments.is_some(), ratio_used)?;
        let (plan, cost_diff) = match self.inner.config.plan_mode {
            PlanMode::AlwaysEdit => (PlanChoice::Edit, None),
            PlanMode::AlwaysOverwrite => (PlanChoice::Overwrite, None),
            PlanMode::CostBased => (by_cost, Some(diff)),
        };
        // `executed` can differ from the chosen `plan`: a pre-commit
        // OVERWRITE failure falls back to EDIT.
        let ((rows_matched, rows_scanned), executed) = match plan {
            PlanChoice::Edit => {
                let _guard = self.inner.ops.read();
                let counts = self.edit_locked(predicate, assignments, scan)?;
                (counts, PlanChoice::Edit)
            }
            PlanChoice::Overwrite => self.overwrite(predicate, assignments, scan)?,
        };
        if let (Some(key), true) = (statement_key, rows_scanned > 0) {
            self.inner
                .env
                .meta
                .record_ratio(key, rows_matched as f64 / rows_scanned as f64)?;
        }
        Ok(DmlReport {
            plan: executed,
            rows_matched,
            rows_scanned,
            ratio_used,
            cost_diff,
        })
    }

    /// Rejects an UPDATE value that does not fit its column.
    fn check_assigned(&self, col: usize, value: &Value) -> Result<()> {
        let field = self.inner.schema.field(col);
        if value.conforms_to(field.data_type) {
            return Ok(());
        }
        Err(Error::schema(format!(
            "UPDATE value {value:?} does not fit column '{}'",
            field.name
        )))
    }

    /// The EDIT plan's locate-scan (ops lock held): UNION READ of the
    /// columns `scan.projection` names, minus the stripes
    /// `scan.predicates` rule out, handed to `f` as full-width rows — NULL
    /// in every column not read. Returns the table's visible row count as
    /// the cost model's α wants it: rows seen plus, from their footers, the
    /// rows of the stripes skipped.
    fn locate(
        &self,
        scan: &UnionReadOptions,
        f: &mut dyn FnMut(RecordId, &Row) -> Result<ControlFlow<()>>,
    ) -> Result<u64> {
        let gen = self.current_gen()?;
        let width = self.inner.schema.len();
        let columns: Vec<usize> = match &scan.projection {
            Some(p) => p.clone(),
            None => (0..width).collect(),
        };
        let mut row = vec![Value::Null; width];
        let (mut seen, mut decoded) = (0u64, 0u64);
        self.for_each_at(gen, scan, &mut |file_id, batch| {
            decoded += batch.rows() as u64;
            for i in batch.selected() {
                seen += 1;
                for (column, &ordinal) in batch.columns().iter().zip(&columns) {
                    row[ordinal] = column.value(i);
                }
                let record = RecordId::new(file_id, (batch.row_start() + i as u64) as u32);
                if f(record, &row)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        })?;
        if scan.predicates.is_none() {
            return Ok(seen);
        }
        let mut stored = 0u64;
        for file_id in self.visible_files(gen, scan.snapshot_ts) {
            stored += self.open_master(gen, file_id)?.num_rows();
        }
        Ok(seen + stored.saturating_sub(decoded))
    }

    /// The EDIT plan (ops lock held — the OVERWRITE→EDIT fallback runs
    /// under the write lock, which is not reentrant): the UPDATE and
    /// DELETE UDTFs of §V-A. An UPDATE stores the updated columns' new
    /// values in the Attached Table, a DELETE (`assignments` absent) one
    /// delete marker per removed row. Returns `(matched, scanned)`.
    fn edit_locked(
        &self,
        predicate: &dyn Fn(&Row) -> bool,
        assignments: Option<&[Assignment<'_>]>,
        scan: &UnionReadOptions,
    ) -> Result<(u64, u64)> {
        let mut matched = 0u64;
        let mut batch: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> = Vec::new();
        let mut delta = PresenceDelta::new();
        let mut touched: Vec<u64> = Vec::new();
        let attached = self.attached()?;
        let scanned = self.locate(scan, &mut |record, row| {
            if !predicate(row) {
                return Ok(ControlFlow::Continue(()));
            }
            matched += 1;
            match assignments {
                Some(assignments) => {
                    let values: Vec<(usize, Value)> =
                        assignments.iter().map(|(col, f)| (*col, f(row))).collect();
                    for (col, value) in &values {
                        self.check_assigned(*col, value)?;
                        delta.add_updates(record.file_id, *col, 1);
                    }
                    batch.extend(update_cells(record, &values));
                }
                None => {
                    batch.push(delete_cell(record));
                    delta.add_delete(record.file_id);
                }
            }
            touched.push(record.as_u64());
            if batch.len() >= 4096 {
                self.flush_edit_batch(&attached, &mut batch, &mut delta, &mut touched)?;
            }
            Ok(ControlFlow::Continue(()))
        })?;
        self.flush_edit_batch(&attached, &mut batch, &mut delta, &mut touched)?;
        Ok((matched, scanned))
    }

    /// Commits one EDIT-plan batch: the data cells plus the presence-index
    /// increments they imply, in a single `put_batch` — one fsynced WAL
    /// record, so the index can never drift from the data (see
    /// [`crate::presence`]). The read-modify-write of the counts is
    /// serialized against concurrent EDIT statements by `presence_lock`.
    ///
    /// The records the batch writes (`touched`, drained on success) are
    /// registered in the conflict window under the [`TableMvcc`] state
    /// mutex, held across the durable write — the same "conflict check +
    /// batch + bookkeeping as one atomic step" discipline as
    /// [`Self::commit_transaction`]. Deferring the registration to the end
    /// of the statement would open a lost-update race: a transaction
    /// running its first-committer-wins check between our `put_batch` and
    /// the deferred registration would see no record of the already-
    /// durable edits, pass the check, and overwrite them. Returns the
    /// batch's commit timestamp (`0` for an empty batch).
    fn flush_edit_batch(
        &self,
        attached: &dt_kvstore::Store,
        batch: &mut Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>,
        delta: &mut PresenceDelta,
        touched: &mut Vec<u64>,
    ) -> Result<u64> {
        if batch.is_empty() && delta.is_empty() {
            return Ok(0);
        }
        let mut cells = std::mem::take(batch);
        // Lock order (module doc in `mvcc`): state mutex, then
        // presence lock — matching commit_transaction.
        let mut st = self.inner.mvcc.lock();
        let _presence_guard = self.inner.presence_lock.lock();
        for ((file_id, column), n) in delta.drain() {
            let key = presence_key(file_id);
            let qual = presence_qualifier(column);
            let current = match attached.get(&key, &qual)? {
                Some(bytes) => decode_count(&bytes)?,
                None => 0,
            };
            cells.push((key.to_vec(), qual.to_vec(), encode_count(current + n)));
        }
        // With a delta budget the whole batch — data cells AND presence
        // counts — rides the WAL-only shadow tier: same fsync'd record,
        // no memtable/SSTable work on the hot path. Presence reads above
        // see shadow entries (the store merges the tier into every read),
        // so the read-modify-write stays correct across the routes.
        let policy = self.delta_policy();
        let ts = if policy.enabled() {
            attached.put_shadow_batch(cells)?
        } else {
            attached.put_batch(cells)?
        };
        // Autocommit EDITs enter the conflict window too: a transaction
        // pinned before this batch must not silently overwrite rows it
        // changed.
        st.note_edit_commit(touched.drain(..), ts);
        drop(_presence_guard);
        drop(st);
        // Budget enforcement happens after the locks drop: the batch is
        // already durable, so a failed spill costs nothing — the next
        // commit retries it.
        let _ = policy.maybe_spill(attached);
        Ok(ts)
    }

    /// The OVERWRITE plan: Hive's INSERT OVERWRITE — rewrite the master
    /// with the updated values (UPDATE) or without the matching rows
    /// (DELETE, `assignments` absent), then clear the attached table.
    ///
    /// If the rewrite fails before its commit point the old generation is
    /// still fully live, so the statement falls back to the EDIT plan —
    /// it must still succeed (DESIGN.md §8). Returns the executed plan
    /// alongside the `(matched, scanned)` counts.
    fn overwrite(
        &self,
        predicate: &(dyn Fn(&Row) -> bool + Sync),
        assignments: Option<&[Assignment<'_>]>,
        scan: &UnionReadOptions,
    ) -> Result<((u64, u64), PlanChoice)> {
        let _guard = self.inner.ops.write();
        let transform = |_: RecordId, mut row: Row| {
            if !predicate(&row) {
                return Ok((Some(row), false));
            }
            let Some(assignments) = assignments else {
                return Ok((None, true));
            };
            for (col, f) in assignments {
                let value = f(&row);
                self.check_assigned(*col, &value)?;
                row[*col] = value;
            }
            Ok((Some(row), true))
        };
        let next = self.next_generation()?;
        let attempt = self
            .parallel_rewrite(next, &transform)
            .and_then(|counts| self.commit_and_cleanup(next).map(|_| counts));
        match attempt {
            Ok((_, matched, scanned)) => Ok(((matched, scanned), PlanChoice::Overwrite)),
            // A bad assignment fails the statement, not the plan: EDIT
            // would reject the same value, so falling back would only bury
            // the user's type error under a second scan. Sweep whatever the
            // aborted workers wrote before surfacing it.
            Err(e @ Error::Schema(_)) => {
                if let Ok(gen) = self.current_gen() {
                    self.cleanup_stale_generations(gen);
                }
                Err(e)
            }
            Err(_) => {
                self.inner.env.health.record_plan_fallback();
                if let Ok(gen) = self.current_gen() {
                    self.cleanup_stale_generations(gen);
                }
                let counts = self.edit_locked(predicate, assignments, scan)?;
                Ok((counts, PlanChoice::Edit))
            }
        }
    }

    /// Replaces the master file set with `rows` and clears the attached
    /// table. Caller must hold the write lock.
    ///
    /// Crash-atomic: the new files are built in a fresh generation
    /// directory, invisible to readers, and become the table in one
    /// durable metadata put. A failure before the commit leaves the old
    /// generation fully live (the half-built one is skipped and later
    /// garbage-collected); a failure after the commit only delays
    /// cleanup — stale attached overlays reference retired file IDs and
    /// can never resolve against the new files.
    fn swap_in<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        let next = self.next_generation()?;
        let pool = dt_engine::JobPool::new(self.inner.config.write_threads);
        let written = if pool.workers() <= 1 {
            self.write_master_files(next, rows)?
        } else {
            self.write_master_files_parallel(next, rows.into_iter().collect(), &pool)?
        };
        self.commit_and_cleanup(next)?;
        Ok(written)
    }

    /// Fans a materialized row set out across the worker pool: the rows
    /// are split at whole-file boundaries (multiples of `rows_per_file`),
    /// so the produced file layout is exactly the sequential writer's,
    /// and each worker streams its slice through its own
    /// [`MasterWriteSink`] drawing from a file-ID range reserved for its
    /// slice in slice order. No commit happens here.
    fn write_master_files_parallel(
        &self,
        gen: u64,
        mut rows: Vec<Row>,
        pool: &dt_engine::JobPool,
    ) -> Result<u64> {
        let rows_per_file = self.inner.config.rows_per_file.max(1);
        let total_files = rows.len().div_ceil(rows_per_file);
        let workers = pool.workers_for(total_files);
        if workers <= 1 {
            return self.write_master_files(gen, rows);
        }
        self.record_write_workers(workers);
        // Assign each worker a contiguous run of whole files.
        let base = total_files / workers;
        let extra = total_files % workers;
        let mut chunks: Vec<(Vec<Row>, u32, u32)> = Vec::with_capacity(workers);
        for w in 0..workers {
            let files = base + usize::from(w < extra);
            let take = (files * rows_per_file).min(rows.len());
            let chunk: Vec<Row> = rows.drain(..take).collect();
            let first_id = self
                .inner
                .env
                .meta
                .reserve_file_ids(&self.inner.name, files as u32)?;
            chunks.push((chunk, first_id, files as u32));
        }
        debug_assert!(rows.is_empty(), "all rows assigned to a chunk");
        let written = pool.run(chunks, |_, (chunk, first_id, count)| {
            let mut sink = MasterWriteSink::reserved(self, gen, first_id, count);
            for row in chunk {
                sink.push(row)?;
            }
            sink.finish()
        })?;
        Ok(written.into_iter().sum())
    }

    /// Records how many rewrite workers a statement fanned out to, in both
    /// the table health counters (SHOW HEALTH) and the DFS I/O stats.
    fn record_write_workers(&self, workers: usize) {
        self.inner.env.health.record_write_workers(workers as u64);
        self.inner
            .env
            .dfs
            .stats()
            .record_write_workers(workers as u64);
    }

    /// Rewrites the whole table into generation `next` with the worker
    /// pool (DESIGN.md §12): the master file list is partitioned into
    /// contiguous chunks, and each worker streams its chunk's UNION READ
    /// through `transform` into its own [`MasterWriteSink`].
    ///
    /// `transform` returns `(output row, matched)` — `None` drops the row
    /// (DELETE). Returns `(rows written, rows matched, rows scanned)`
    /// summed across workers.
    ///
    /// The commit deliberately does NOT happen here: every caller runs
    /// [`Self::commit_and_cleanup`] single-threaded afterwards (the
    /// single-threaded commit rule), so all parallel output lands in one
    /// still-invisible generation and every crash point sees exactly the
    /// old or the new file set.
    fn parallel_rewrite<F>(&self, next: u64, transform: &F) -> Result<(u64, u64, u64)>
    where
        F: Fn(RecordId, Row) -> Result<(Option<Row>, bool)> + Sync,
    {
        let gen = self.current_gen()?;
        self.parallel_rewrite_from(gen, u64::MAX, next, transform)
    }

    /// [`Self::parallel_rewrite`] reading from an explicit `(source_gen,
    /// at_ts)` epoch — the two-phase COMPACT/OVERWRITE build path, which
    /// materializes its pinned snapshot rather than "latest".
    fn parallel_rewrite_from<F>(
        &self,
        gen: u64,
        at_ts: u64,
        next: u64,
        transform: &F,
    ) -> Result<(u64, u64, u64)>
    where
        F: Fn(RecordId, Row) -> Result<(Option<Row>, bool)> + Sync,
    {
        let files = self.visible_files(gen, at_ts);
        if files.is_empty() {
            return Ok((0, 0, 0));
        }
        let pool = dt_engine::JobPool::new(self.inner.config.write_threads);
        let workers = pool.workers_for(files.len());
        let partitions = self.rewrite_partitions(gen, &files, workers)?;
        if workers > 1 {
            self.record_write_workers(workers);
        }
        let opts = UnionReadOptions {
            snapshot_ts: at_ts,
            ..UnionReadOptions::all()
        };
        let plan = self.scan_plan(gen, &opts)?;
        let plan = &plan;
        let totals = pool.run(partitions, |_, part| {
            let RewritePartition {
                files,
                first_id,
                id_count,
            } = part;
            let mut sink = MasterWriteSink::reserved(self, next, first_id, id_count);
            let mut matched = 0u64;
            let mut scanned = 0u64;
            for file_id in files {
                self.merge_master_rows(plan, file_id, &mut |id, row| {
                    scanned += 1;
                    let (out, hit) = transform(id, row)?;
                    if hit {
                        matched += 1;
                    }
                    match out {
                        Some(row) => sink.push(row),
                        None => Ok(()),
                    }
                })?;
            }
            let written = sink.finish()?;
            Ok((written, matched, scanned))
        })?;
        Ok(totals
            .into_iter()
            .fold((0, 0, 0), |(w, m, s), (pw, pm, ps)| {
                (w + pw, m + pm, s + ps)
            }))
    }

    /// Splits `files` into `workers` contiguous partitions and reserves
    /// each partition's output file-ID range — in partition order, so IDs
    /// ascend across partitions and the rewritten generation scans in the
    /// same row order as the source. Range sizes come from footer row
    /// counts, which upper-bound each partition's UNION READ output (the
    /// attached tier only updates or deletes rows, never adds them); the
    /// unused tail of a range is a harmless ID gap.
    fn rewrite_partitions(
        &self,
        gen: u64,
        files: &[u32],
        workers: usize,
    ) -> Result<Vec<RewritePartition>> {
        let rows_per_file = self.inner.config.rows_per_file.max(1) as u64;
        let base = files.len() / workers;
        let extra = files.len() % workers;
        let mut partitions = Vec::with_capacity(workers);
        let mut start = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let chunk = &files[start..start + len];
            start += len;
            let mut rows_bound = 0u64;
            for &file_id in chunk {
                rows_bound += self.open_master(gen, file_id)?.num_rows();
            }
            let id_count = u32::try_from(rows_bound.div_ceil(rows_per_file).max(1))
                .map_err(|_| Error::internal("rewrite partition needs too many file IDs"))?;
            let first_id = self
                .inner
                .env
                .meta
                .reserve_file_ids(&self.inner.name, id_count)?;
            partitions.push(RewritePartition {
                files: chunk.to_vec(),
                first_id,
                id_count,
            });
        }
        Ok(partitions)
    }

    /// The commit point of a same-thread rewrite (caller holds the write
    /// lock and read "latest", so nothing can have raced it) plus its
    /// post-commit cleanup.
    fn commit_and_cleanup(&self, next: u64) -> Result<()> {
        self.commit_generation_mvcc(next, u64::MAX, None)
    }

    /// Swings the generation pointer to `next` against the MVCC state:
    ///
    /// 1. Under the state mutex, verify nothing committed after
    ///    `snapshot_ts` (the epoch the new generation was derived from —
    ///    any later EDIT would be silently lost by the swing). Losers get
    ///    a retryable [`Error::Conflict`] and the old generation stays
    ///    live.
    /// 2. Commit the pointer (one durable metadata put — THE commit
    ///    point), stamp the swing, and either hand the old generation to
    ///    the sweeper or — if another session still pins it — park it for
    ///    deferred GC. `own_pin_ts` is the swinging job's build pin, which
    ///    must not count as such a reader.
    /// 3. Outside the mutex, run best-effort cleanup: attached-tier
    ///    truncate when no old pin needs the overlays, stale-directory
    ///    sweep, and the deferred-GC sweeper. Failures are recorded as
    ///    cleanup debt, never silent.
    ///
    /// Cached footers are invalidated per retired path at deletion time —
    /// not by whole-table purge — so pinned readers keep their cache
    /// entries across other sessions' swings.
    fn commit_generation_mvcc(
        &self,
        next: u64,
        snapshot_ts: u64,
        own_pin_ts: Option<u64>,
    ) -> Result<()> {
        let truncate_ok;
        {
            let mut st = self.inner.mvcc.lock();
            if snapshot_ts != u64::MAX
                && (st.conflict_since(snapshot_ts, &[]).is_some() || st.edits_since(snapshot_ts))
            {
                self.inner.env.health.record_swing_conflict();
                return Err(Error::conflict(format!(
                    "generation swing abandoned: writes committed after snapshot {snapshot_ts}"
                )));
            }
            let old_gen = self.current_gen()?;
            // The commit point. Still under the state mutex: a concurrent
            // EDIT commit must observe either (old pointer, no swing
            // stamp) or (new pointer, swing stamp), never a torn mix.
            self.inner
                .env
                .meta
                .commit_generation(&self.inner.name, next)?;
            let swing_ts = self.inner.env.kv.clock().tick();
            // Past the commit point: nothing may fail the swing any more.
            // A floor we cannot compute degrades to 0 — attached rows of
            // retired files leak (space, not correctness) as cleanup debt.
            let floor = self.generation_floor(next).unwrap_or_else(|_| {
                self.inner.env.health.record_cleanup_failure();
                0
            });
            let deferred = st.note_swing(old_gen, next, swing_ts, floor, own_pin_ts);
            if deferred {
                self.inner.env.health.record_generation_deferred();
            }
            // Whole-table truncate (the fast path that also resets the
            // presence index) is only sound when no reader can still need
            // the old overlays.
            truncate_ok = !deferred && st.retired_count() == 0;
            if truncate_ok {
                st.clear_attached_floor();
            }
        }
        if truncate_ok {
            // Stale attached overlays reference retired file IDs and can
            // never resolve against the new files, so a failed truncate
            // degrades space, not correctness. The presence index lives
            // inside the attached table, so the truncate resets it for
            // free.
            if self.truncate_attached().is_err() {
                self.inner.env.health.record_cleanup_failure();
            }
        }
        self.cleanup_stale_generations(next);
        self.sweep_gc();
        Ok(())
    }

    /// The lowest file ID belonging to generation `next` — every ID below
    /// it is retired with the superseded generations, and its attached
    /// cells become collectible once the last old-generation pin drains.
    /// An empty new generation retires *all* existing IDs: reserve a fresh
    /// one as the floor.
    fn generation_floor(&self, next: u64) -> Result<u32> {
        match self.master_file_ids_at(next).into_iter().min() {
            Some(min) => Ok(min),
            None => self.inner.env.meta.reserve_file_ids(&self.inner.name, 1),
        }
    }

    /// Runs the deferred-GC sweeper: physically deletes dead (superseded,
    /// unpinned) generations past the `max_generations` budget and, once
    /// no old-generation pin remains, the retired attached-tier rows.
    /// Best-effort; failures become cleanup debt and the files remain
    /// protected stale directories for the next sweep.
    fn sweep_gc(&self) {
        let (gens, floor) = self
            .inner
            .mvcc
            .lock()
            .take_sweepable(self.inner.config.max_generations);
        let mut gcd = 0u64;
        for gen in gens {
            let dir = format!("{}/", self.gen_dir(gen));
            self.inner.footers.invalidate_prefix(&dir);
            let mut ok = true;
            for path in self.inner.env.dfs.list(&dir) {
                if self.inner.env.dfs.delete(&path).is_err() {
                    self.inner.env.health.record_cleanup_failure();
                    ok = false;
                }
            }
            if ok {
                gcd += 1;
            }
        }
        if gcd > 0 {
            self.inner.env.health.record_generations_gcd(gcd);
        }
        if let Some(floor) = floor {
            if self.collect_attached_below(floor).is_err() {
                self.inner.env.health.record_cleanup_failure();
            }
        }
    }

    /// Deletes the attached-tier rows of retired file IDs (everything
    /// strictly below `floor`): their presence rows and their data rows.
    /// Ranged, not a truncate — file IDs at or above the floor belong to
    /// live generations and keep their overlays.
    fn collect_attached_below(&self, floor: u32) -> Result<()> {
        if floor <= 1 {
            return Ok(());
        }
        let attached = self.attached()?;
        if attached.is_empty() {
            return Ok(());
        }
        let mut rows: Vec<Vec<u8>> = Vec::new();
        // Presence rows {0, 1} .. {0, floor} — the intent row {0, 0} and
        // live files' rows stay.
        let scan = attached.scan_at(
            Some(&presence_key(1)[..]),
            Some(&presence_key(floor)[..]),
            u64::MAX,
        )?;
        for row in scan {
            rows.push(row?.row);
        }
        // Data rows {1, 0} .. {floor, 0}.
        let scan = attached.scan_at(
            Some(&RecordId::file_start(1).to_key()[..]),
            Some(&RecordId::file_start(floor).to_key()[..]),
            u64::MAX,
        )?;
        for row in scan {
            rows.push(row?.row);
        }
        if !rows.is_empty() {
            attached.delete_rows(rows)?;
        }
        Ok(())
    }

    /// Deletes the attached-tier rows of explicitly folded (or orphaned)
    /// master files: each file's presence row and its data rows, all in
    /// ONE atomic delete batch. The atomicity is the crash-safety contract
    /// of the incremental fold — the presence entries and the data cells
    /// retire together, so no crash can leave an index claiming a file is
    /// clean while its overlay cells survive, or vice versa.
    fn collect_folded_attached(&self, folded: &[u32]) -> Result<()> {
        let attached = self.attached()?;
        if attached.is_empty() || folded.is_empty() {
            return Ok(());
        }
        let mut rows: Vec<Vec<u8>> = Vec::new();
        for &file_id in folded {
            // The file's presence row {0, file_id} …
            let scan = attached.scan_at(
                Some(&presence_key(file_id)[..]),
                Some(&presence_key(file_id.wrapping_add(1))[..]),
                u64::MAX,
            )?;
            for row in scan {
                rows.push(row?.row);
            }
            // … and its data rows {file_id, 0} .. {file_id + 1, 0}.
            let scan = attached.scan_at(
                Some(&RecordId::file_start(file_id).to_key()[..]),
                Some(&RecordId::file_start(file_id.wrapping_add(1)).to_key()[..]),
                u64::MAX,
            )?;
            for row in scan {
                rows.push(row?.row);
            }
        }
        if !rows.is_empty() {
            attached.delete_rows(rows)?;
        }
        Ok(())
    }

    /// COMPACT (paper §III-C): UNION READ everything into a fresh Master
    /// Table and clear the Attached Table. Blocks all other operations.
    ///
    /// The rows stream straight from the UNION READ into the new
    /// generation's files — memory stays bounded by one master file, not
    /// the table. A transient storage fault aborts the half-built
    /// generation and the whole pass retries with backoff (each attempt
    /// builds into a fresh generation, so a torn attempt is inert).
    pub fn compact(&self) -> Result<()> {
        let _guard = self.inner.ops.write();
        let policy = self.inner.config.retry;
        policy.run(&self.inner.env.health, || self.compact_once())
    }

    fn compact_once(&self) -> Result<()> {
        let next = self.next_generation()?;
        // Identity transform: COMPACT materializes the UNION READ as-is.
        self.parallel_rewrite(next, &|_, row| Ok((Some(row), false)))?;
        self.commit_and_cleanup(next)
    }

    // ------------------------------------------------------------------
    // Incremental background compaction (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Scores every dirty master file with the §IV-derived fold score
    /// ([`CostModel::fold_score`]) and returns the `max_files_per_cycle`
    /// dirtiest, ascending by file ID (scan order). Files the presence
    /// index proves clean never appear; under the conservative pre-index
    /// fallback nothing is a candidate (there is no per-file accounting to
    /// score with — a full `COMPACT` resolves that state).
    pub fn fold_candidates(&self) -> Result<Vec<u32>> {
        let _guard = self.inner.ops.read();
        self.fold_candidates_at(self.current_gen()?, u64::MAX)
    }

    fn fold_candidates_at(&self, gen: u64, at_ts: u64) -> Result<Vec<u32>> {
        let knobs = self.inner.config.compaction;
        if knobs.max_files_per_cycle == 0 {
            return Ok(Vec::new());
        }
        let attached = self.attached()?;
        let Some(index) = self.load_presence(&attached)? else {
            return Ok(Vec::new());
        };
        if index.files.is_empty() {
            return Ok(Vec::new());
        }
        let live: BTreeSet<u32> = self.visible_files(gen, at_ts).into_iter().collect();
        let model = self.cost_model();
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for (&file_id, presence) in &index.files {
            if !live.contains(&file_id) {
                // Fold residue or a file staged after our snapshot — not
                // ours to fold.
                continue;
            }
            let cells = presence.delete_markers + presence.update_counts.values().sum::<u64>();
            if cells < knobs.min_attached_cells.max(1) {
                continue;
            }
            let rows = self.open_master(gen, file_id)?.num_rows();
            let bytes = self.inner.env.dfs.len(&self.file_path_at(gen, file_id))?;
            scored.push((
                model.fold_score(cells, rows, bytes, self.inner.config.k_successive_reads),
                file_id,
            ));
        }
        // Dirtiest first; ties resolve to the lower file ID so cycles are
        // deterministic.
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let mut picked: Vec<u32> = scored
            .into_iter()
            .take(knobs.max_files_per_cycle)
            .map(|(_, id)| id)
            .collect();
        picked.sort_unstable();
        Ok(picked)
    }

    /// Starts an incremental COMPACT: pins a snapshot, picks the k
    /// dirtiest master files and folds ONLY those into a fresh generation
    /// off to the side — every other file is byte-copied under its
    /// original file ID, so its record IDs, attached overlays and presence
    /// entries stay valid untouched. Returns `None` when nothing is dirty
    /// enough to fold. Like [`DualTableStore::begin_compact`], concurrent
    /// DML never blocks, and [`RewriteJob::finish`] loses with a retryable
    /// [`Error::Conflict`] to anything that committed since the pin.
    pub fn begin_incremental_compact(&self) -> Result<Option<RewriteJob>> {
        self.begin_incremental_inner(|| {})
    }

    /// [`Self::begin_incremental_compact`] with a hook that fires exactly
    /// when a build actually starts — after candidate selection found
    /// work, before any byte is written. [`Self::compact_incremental`]
    /// uses it to open its health ledger at the precise moment the cycle
    /// stops being a no-op.
    fn begin_incremental_inner(&self, on_build_start: impl FnOnce()) -> Result<Option<RewriteJob>> {
        let snapshot = self.begin_snapshot()?;
        let _guard = self.inner.ops.read();
        let fold = self.fold_candidates_at(snapshot.generation(), snapshot.ts())?;
        if fold.is_empty() {
            return Ok(None);
        }
        on_build_start();
        let next = self.next_generation()?;
        self.inner.mvcc.lock().register_build(next);
        match self.fold_build(&snapshot, next, &fold) {
            Ok(written) => Ok(Some(RewriteJob::new_fold(snapshot, next, written, fold))),
            Err(e) => {
                self.abandon_rewrite(next);
                Err(e)
            }
        }
    }

    /// Builds the incremental fold's generation: carried (not-folded)
    /// files are byte-copied under their original file IDs; folded files
    /// are UNION READ merged at the snapshot into fresh file IDs appended
    /// past them. Returns total rows written (carried + folded).
    fn fold_build(&self, snapshot: &Snapshot, next: u64, fold: &[u32]) -> Result<u64> {
        let gen = snapshot.generation();
        let at_ts = snapshot.ts();
        let fold_set: BTreeSet<u32> = fold.iter().copied().collect();
        // Reserve the folded rows' output file-ID range up front; footer
        // row counts upper-bound the UNION READ output (the attached tier
        // only updates or deletes rows, never adds them).
        let rows_per_file = self.inner.config.rows_per_file.max(1) as u64;
        let mut rows_bound = 0u64;
        for &file_id in fold {
            rows_bound += self.open_master(gen, file_id)?.num_rows();
        }
        let id_count = u32::try_from(rows_bound.div_ceil(rows_per_file).max(1))
            .map_err(|_| Error::internal("incremental fold needs too many file IDs"))?;
        let first_id = self
            .inner
            .env
            .meta
            .reserve_file_ids(&self.inner.name, id_count)?;
        let mut written = 0u64;
        for file_id in self.visible_files(gen, at_ts) {
            if fold_set.contains(&file_id) {
                continue;
            }
            // Carried file: byte-identical copy, same file ID. Its record
            // IDs — and therefore its overlays and presence entry — stay
            // valid in the new generation.
            let bytes = self
                .inner
                .env
                .dfs
                .read_to_vec(&self.file_path_at(gen, file_id))?;
            self.inner
                .env
                .dfs
                .write_file(&self.file_path_at(next, file_id), &bytes)?;
            written += self.open_master(gen, file_id)?.num_rows();
        }
        let opts = UnionReadOptions {
            snapshot_ts: at_ts,
            ..UnionReadOptions::all()
        };
        let plan = self.scan_plan(gen, &opts)?;
        let mut sink = MasterWriteSink::reserved(self, next, first_id, id_count);
        for &file_id in fold {
            self.merge_master_rows(&plan, file_id, &mut |_, row| sink.push(row))?;
        }
        written += sink.finish()?;
        Ok(written)
    }

    /// One cycle of the background maintenance loop: pick the dirtiest
    /// files, fold them off to the side, swing. Health-ledger exact —
    /// every call that starts building ends as exactly one of completed,
    /// lost-race or aborted, even across panics (a drop guard converts an
    /// unwind into the aborted entry). The chaos soak asserts the ledger:
    /// `compactions_completed + compactions_lost_race + compactions_aborted
    /// == compactions_started`.
    ///
    /// A lost swing race is a clean retry, not an error: the abandoned
    /// generation is already deleted, and the stale-directory sweep is
    /// retried eagerly (counted by `stale_gens_swept`) rather than waiting
    /// for the next reopen.
    pub fn compact_incremental(&self) -> Result<FoldOutcome> {
        struct AbortGuard {
            health: Arc<dt_common::HealthCounters>,
            armed: std::cell::Cell<bool>,
        }
        impl Drop for AbortGuard {
            fn drop(&mut self) {
                if self.armed.get() {
                    self.health.record_compaction_aborted();
                }
            }
        }
        let guard = AbortGuard {
            health: self.inner.env.health.clone(),
            armed: std::cell::Cell::new(false),
        };
        let job = self.begin_incremental_inner(|| {
            self.inner.env.health.record_compaction_started();
            guard.armed.set(true);
        })?;
        let Some(job) = job else {
            return Ok(FoldOutcome::Clean);
        };
        let files = job.folded_files().map_or(0, <[u32]>::len);
        let rows = job.rows_written();
        match job.finish() {
            Ok(_) => {
                guard.armed.set(false);
                self.inner.env.health.record_compaction_completed();
                Ok(FoldOutcome::Folded { files, rows })
            }
            Err(e) if e.is_conflict() => {
                guard.armed.set(false);
                self.inner.env.health.record_compaction_lost_race();
                // Eagerly retry the sweep of any stale directory an
                // earlier failure left behind, so leaks are observable
                // and bounded instead of waiting for the next reopen.
                if let Ok(gen) = self.current_gen() {
                    let (swept, _) = self.cleanup_stale_generations(gen);
                    if swept > 0 {
                        self.inner.env.health.record_stale_gens_swept(swept);
                    }
                }
                Ok(FoldOutcome::LostRace)
            }
            Err(e) => Err(e),
        }
    }

    /// [`DualTableStore::finish_rewrite`] for an incremental fold: same
    /// conflict rules and swing, but the attached tier is retired only for
    /// the folded files — never truncated — because carried files' record
    /// IDs stay live and keep their overlays.
    pub(crate) fn finish_fold(&self, next: u64, pin_ts: u64, folded: &[u32]) -> Result<()> {
        let _guard = self.inner.ops.write();
        let result = self.commit_generation_incremental(next, pin_ts, Some(pin_ts), folded);
        if result.is_err() {
            self.abandon_rewrite(next);
        }
        result
    }

    /// [`DualTableStore::commit_generation_mvcc`] for the incremental
    /// fold. Identical swing protocol — conflict check, commit point,
    /// swing stamp, floor, deferred GC — with one difference in step 3:
    /// instead of the whole-table attached truncate, only the folded
    /// files' presence and data rows are retired, in one atomic batch, and
    /// only when no pinned reader of an older generation could still need
    /// them. When retirement is gated off (or crashes), the residue is
    /// unreachable either way — no live file covers those record-ID
    /// ranges, and file IDs are never reused — and the open-time
    /// [`Self::sweep_fold_residue`] settles it.
    fn commit_generation_incremental(
        &self,
        next: u64,
        snapshot_ts: u64,
        own_pin_ts: Option<u64>,
        folded: &[u32],
    ) -> Result<()> {
        let collect_ok;
        {
            let mut st = self.inner.mvcc.lock();
            if st.conflict_since(snapshot_ts, &[]).is_some() || st.edits_since(snapshot_ts) {
                self.inner.env.health.record_swing_conflict();
                return Err(Error::conflict(format!(
                    "incremental fold abandoned: writes committed after snapshot {snapshot_ts}"
                )));
            }
            let old_gen = self.current_gen()?;
            // The commit point (see `commit_generation_mvcc`).
            self.inner
                .env
                .meta
                .commit_generation(&self.inner.name, next)?;
            let swing_ts = self.inner.env.kv.clock().tick();
            let floor = self.generation_floor(next).unwrap_or_else(|_| {
                self.inner.env.health.record_cleanup_failure();
                0
            });
            let deferred = st.note_swing(old_gen, next, swing_ts, floor, own_pin_ts);
            if deferred {
                self.inner.env.health.record_generation_deferred();
            }
            collect_ok = !deferred && st.retired_count() == 0;
        }
        if collect_ok && self.collect_folded_attached(folded).is_err() {
            self.inner.env.health.record_cleanup_failure();
        }
        self.cleanup_stale_generations(next);
        self.sweep_gc();
        Ok(())
    }

    // ------------------------------------------------------------------
    // MVCC sessions (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Pins a read snapshot at the current `(generation, timestamp)`.
    /// The snapshot sees exactly this state until dropped, never blocks
    /// writers, and holds its generation's files against GC.
    pub fn begin_snapshot(&self) -> Result<Snapshot> {
        let mut st = self.inner.mvcc.lock();
        let gen = self.current_gen()?;
        // Ticked under the state mutex: every commit batch — a
        // transaction's single commit batch and each flushed autocommit
        // EDIT batch — holds this mutex across its KV write, so a pin
        // timestamp never lands inside a batch's cell-timestamp range.
        // Transactions are therefore entirely visible or entirely
        // invisible to every snapshot. Autocommit UPDATE/DELETE
        // statements are atomic per *batch*, not per statement: one
        // flushes durably every 4096 cells, and a snapshot pinned
        // mid-statement sees the already-flushed prefix (DESIGN.md §13).
        // Statement-level atomicity requires BEGIN/COMMIT.
        let ts = self.inner.env.kv.clock().tick();
        st.pin(gen, ts);
        drop(st);
        self.inner.env.health.record_snapshot_pinned();
        Ok(Snapshot::new(self.clone(), gen, ts))
    }

    /// Begins a snapshot-isolation transaction (see [`Transaction`]).
    pub fn begin_transaction(&self) -> Result<Transaction> {
        Ok(Transaction::new(self.begin_snapshot()?))
    }

    /// Releases the pin taken at `ts` and sweeps any generation whose
    /// last pin just drained.
    pub(crate) fn release_pin(&self, ts: u64) {
        self.inner.mvcc.lock().unpin(ts);
        self.sweep_gc();
    }

    /// Live snapshot pins on this table (diagnostics and tests).
    pub fn pinned_snapshots(&self) -> usize {
        self.inner.mvcc.lock().pin_count()
    }

    /// Retired generations currently kept alive for pinned readers
    /// (diagnostics and tests).
    pub fn retired_generations(&self) -> usize {
        self.inner.mvcc.lock().retired_count()
    }

    /// Starts a two-phase COMPACT: pins a snapshot and rewrites it into a
    /// fresh generation off to the side *without* blocking concurrent DML
    /// (only the ops read lock is held, like any scan). The returned
    /// [`RewriteJob`] must be `finish()`ed to swing the pointer — which
    /// fails with a retryable [`Error::Conflict`] if anything committed
    /// since the pin.
    pub fn begin_compact(&self) -> Result<RewriteJob> {
        self.begin_rewrite_job(|store, snapshot, next| {
            store
                .parallel_rewrite_from(snapshot.generation(), snapshot.ts(), next, &|_, row| {
                    Ok((Some(row), false))
                })
                .map(|(written, _, _)| written)
        })
    }

    /// Starts a two-phase INSERT OVERWRITE: writes `rows` as a fresh
    /// generation off to the side. Like [`DualTableStore::begin_compact`],
    /// the swing happens at [`RewriteJob::finish`] and loses to any
    /// concurrent commit.
    pub fn begin_insert_overwrite(&self, rows: Vec<Row>) -> Result<RewriteJob> {
        self.begin_rewrite_job(move |store, _snapshot, next| {
            store.write_master_files(next, rows.clone())
        })
    }

    /// Common scaffolding of the two-phase rewrites: pin, reserve a build
    /// generation (protected from cleanup while in progress), build, and
    /// on build failure delete the half-built generation.
    fn begin_rewrite_job(
        &self,
        build: impl Fn(&DualTableStore, &Snapshot, u64) -> Result<u64>,
    ) -> Result<RewriteJob> {
        let snapshot = self.begin_snapshot()?;
        let _guard = self.inner.ops.read();
        let next = self.next_generation()?;
        self.inner.mvcc.lock().register_build(next);
        match build(self, &snapshot, next) {
            Ok(written) => Ok(RewriteJob::new(snapshot, next, written)),
            Err(e) => {
                self.abandon_rewrite(next);
                Err(e)
            }
        }
    }

    /// Swings the pointer to a finished two-phase build. On conflict (any
    /// commit since the build's pin) the built generation is deleted and
    /// the error is retryable.
    pub(crate) fn finish_rewrite(&self, next: u64, pin_ts: u64) -> Result<()> {
        let _guard = self.inner.ops.write();
        let result = self.commit_generation_mvcc(next, pin_ts, Some(pin_ts));
        if result.is_err() {
            self.abandon_rewrite(next);
        }
        result
    }

    /// Deletes an abandoned (never-committed) build generation. Unlike the
    /// sweeper this never counts toward `generations_gcd` — the generation
    /// was never live.
    pub(crate) fn abandon_rewrite(&self, next: u64) {
        self.inner.mvcc.lock().finish_build(next);
        let dir = format!("{}/", self.gen_dir(next));
        self.inner.footers.invalidate_prefix(&dir);
        for path in self.inner.env.dfs.list(&dir) {
            if self.inner.env.dfs.delete(&path).is_err() {
                self.inner.env.health.record_cleanup_failure();
            }
        }
    }

    fn conflict_error(&self, conflict: Conflict, pin_ts: u64) -> Error {
        match conflict {
            Conflict::Swing => {
                self.inner.env.health.record_swing_conflict();
                Error::conflict(format!(
                    "transaction pinned at {pin_ts} lost to a generation swing"
                ))
            }
            Conflict::Record(id) => {
                self.inner.env.health.record_ww_conflict();
                let record = RecordId::from_u64(id);
                Error::conflict(format!(
                    "write-write conflict: record {{file {}, row {}}} committed after snapshot {pin_ts}",
                    record.file_id, record.row
                ))
            }
        }
    }

    /// Best-effort undo of a transactional insert that failed before its
    /// commit batch: delete the written files, forget their staging, and
    /// remove the durable intent. Any residue is re-collected by
    /// [`Self::recover_txn_intents`] on the next open (the files stay
    /// invisible either way — they are only reachable via staging that is
    /// being forgotten, and a forgotten *existing* file would be visible,
    /// which is why files are deleted before unstaging).
    fn undo_staged_insert(
        &self,
        attached: &dt_kvstore::Store,
        gen: u64,
        staged: &[u32],
        intent_qual: &[u8],
    ) {
        if staged.is_empty() {
            return;
        }
        let mut all_deleted = true;
        for &id in staged {
            let path = self.file_path_at(gen, id);
            if self.inner.env.dfs.exists(&path) && self.inner.env.dfs.delete(&path).is_err() {
                self.inner.env.health.record_cleanup_failure();
                all_deleted = false;
            }
        }
        if all_deleted {
            self.inner
                .mvcc
                .lock()
                .unstage_files(gen, staged.iter().copied());
            let intent_row = RecordId::new(PRESENCE_FILE_ID, 0).to_key();
            if attached.delete_cell(&intent_row, intent_qual).is_err() {
                self.inner.env.health.record_cleanup_failure();
            }
        }
    }

    /// Commits a transaction's buffered effects atomically:
    ///
    /// 1. Transactional inserts are written as staged (invisible) master
    ///    files under a durable undo intent.
    /// 2. Under the state mutex, the first-committer-wins check runs and —
    ///    if it passes — every buffered cell, the presence increments they
    ///    imply and the intent removal land in ONE WAL-atomic attached
    ///    batch. The batch's timestamp is the commit timestamp: snapshots
    ///    pinned before it see none of the transaction, later ones all of
    ///    it.
    ///
    /// Returns the commit timestamp.
    pub(crate) fn commit_transaction(
        &self,
        pin_gen: u64,
        pin_ts: u64,
        overlay: &BTreeMap<RecordId, RowPatch>,
        inserts: &[Row],
    ) -> Result<u64> {
        if overlay.is_empty() && inserts.is_empty() {
            return Ok(pin_ts);
        }
        let _guard = self.inner.ops.read();
        let attached = self.attached()?;
        let write_set: Vec<u64> = overlay.keys().map(|r| r.as_u64()).collect();
        let intent_row = RecordId::new(PRESENCE_FILE_ID, 0).to_key();

        // Phase 1 — transactional inserts: reserve IDs, write the durable
        // undo intent, stage the IDs (invisible to every snapshot), then
        // write the files. Scans are only blocked for the brief staging
        // step, not the file writes.
        let mut staged: Vec<u32> = Vec::new();
        let mut intent_qual: Vec<u8> = Vec::new();
        if !inserts.is_empty() {
            let rows_per_file = self.inner.config.rows_per_file.max(1);
            let files = u32::try_from(inserts.len().div_ceil(rows_per_file))
                .map_err(|_| Error::internal("transactional insert needs too many files"))?;
            let first = self
                .inner
                .env
                .meta
                .reserve_file_ids(&self.inner.name, files)?;
            staged = (first..first + files).collect();
            intent_qual = crate::mvcc::txn_intent_qualifier(first);
            attached.put(
                &intent_row,
                &intent_qual,
                &encode_txn_intent(pin_gen, &staged),
            )?;
            {
                let mut st = self.inner.mvcc.lock();
                for &id in &staged {
                    st.stage_file(pin_gen, id);
                }
            }
            let mut sink = MasterWriteSink::reserved(self, pin_gen, first, files);
            let written = inserts
                .iter()
                .try_for_each(|row| sink.push(row.clone()))
                .and_then(|()| sink.finish().map(|_| ()));
            if let Err(e) = written {
                self.undo_staged_insert(&attached, pin_gen, &staged, &intent_qual);
                return Err(e);
            }
        }

        // Phase 2 — under the state mutex, so the conflict check and the
        // commit batch are one atomic step against other committers (and
        // against pin acquisition).
        let mut st = self.inner.mvcc.lock();
        if let Some(conflict) = st.conflict_since(pin_ts, &write_set) {
            drop(st);
            self.undo_staged_insert(&attached, pin_gen, &staged, &intent_qual);
            return Err(self.conflict_error(conflict, pin_ts));
        }
        let mut puts: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> = Vec::new();
        let mut delta = PresenceDelta::new();
        for (&record, patch) in overlay {
            if patch.deleted {
                puts.push(delete_cell(record));
                delta.add_delete(record.file_id);
            } else {
                let values: Vec<(usize, Value)> = patch
                    .updates
                    .iter()
                    .map(|(&col, v)| (col, v.clone()))
                    .collect();
                for (col, _) in &values {
                    delta.add_updates(record.file_id, *col, 1);
                }
                puts.extend(update_cells(record, &values));
            }
        }
        let deletes: Vec<(Vec<u8>, Vec<u8>)> = if staged.is_empty() {
            Vec::new()
        } else {
            vec![(intent_row.to_vec(), intent_qual.clone())]
        };
        let policy = self.delta_policy();
        let applied = (|| -> Result<u64> {
            let _presence_guard = self.inner.presence_lock.lock();
            for ((file_id, column), n) in delta.drain() {
                let key = presence_key(file_id);
                let qual = presence_qualifier(column);
                let current = match attached.get(&key, &qual)? {
                    Some(bytes) => decode_count(&bytes)?,
                    None => 0,
                };
                puts.push((key.to_vec(), qual.to_vec(), encode_count(current + n)));
            }
            if policy.enabled() {
                // Same WAL-atomic record: cells into the shadow tier, the
                // intent clear as a regular tombstone.
                attached.mutate_batch_shadow(puts, deletes)
            } else {
                attached.mutate_batch(puts, deletes)
            }
        })();
        match applied {
            Ok(commit_ts) => {
                st.note_edit_commit(write_set, commit_ts);
                st.commit_files(pin_gen, staged, commit_ts);
                drop(st);
                let _ = policy.maybe_spill(&attached);
                Ok(commit_ts)
            }
            Err(e) => {
                drop(st);
                self.undo_staged_insert(&attached, pin_gen, &staged, &intent_qual);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    Box::new(|r: &Row| Value::Float64(r[0].as_f64().unwrap() * 100.0)),
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
                &[(1, Box::new(|_| Value::from("updated")))],
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
                &[(2, Box::new(|_| Value::Float64(1.0)))],
                RatioHint::Explicit(0.005),
            )
            .unwrap();
        assert_eq!(r1.plan, PlanChoice::Edit);
        assert!(r1.cost_diff.unwrap() > 0.0);
        let r2 = t
            .update(
                |r| r[0].as_i64().unwrap() >= 0,
                &[(2, Box::new(|_| Value::Float64(2.0)))],
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
                &[(2, Box::new(|_| Value::Float64(0.0)))],
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
        t.update_keyed(
            |r| r[0].as_i64().unwrap() < 5,
            &[(2, Box::new(|_| Value::Float64(9.0)))],
            RatioHint::Historical,
            Some(key),
            &UnionReadOptions::all(),
        )
        .unwrap();
        let hist = t.env().meta.historical_ratio(key).unwrap().unwrap();
        assert!((hist - 0.05).abs() < 1e-9);
        // Second run uses the recorded history.
        let r = t
            .update_keyed(
                |r| r[0].as_i64().unwrap() < 5,
                &[(2, Box::new(|_| Value::Float64(10.0)))],
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
                t.update_keyed(
                    |r| r[0].as_i64().unwrap() < 5,
                    &[(2, Box::new(|_| Value::Float64(9.0)))],
                    RatioHint::Historical,
                    Some("stmt"),
                    scan,
                )
                .unwrap()
            };
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
            "the pushed scan must actually skip: read {} vs {} bytes",
            pushed.2,
            full.2
        );
    }

    #[test]
    fn update_then_delete_interleaving() {
        let mut config = small_files();
        config.plan_mode = PlanMode::AlwaysEdit;
        let t = table_with(50, config);
        t.update(
            |r| r[0].as_i64().unwrap() == 7,
            &[(2, Box::new(|_| Value::Float64(700.0)))],
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
                &[(2, Box::new(move |_| Value::Float64(round as f64)))],
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
            &[(2, Box::new(|_| Value::Float64(-1.0)))],
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
                &[(2, Box::new(|_| Value::Float64(0.0)))],
                RatioHint::Sample,
            )
            .unwrap();
        assert_eq!(r.rows_matched, 0);
        t.compact().unwrap();
        assert_eq!(t.count().unwrap(), 0);
    }

    #[test]
    fn update_type_mismatch_rejected() {
        let t = table_with(10, small_files());
        let err = t.update(
            |_| true,
            &[(2, Box::new(|_| Value::from("wrong type")))],
            RatioHint::Explicit(1.0),
        );
        assert!(err.is_err());
        let err = t.update(
            |_| true,
            &[(9, Box::new(|_| Value::Null))],
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
            &[(2, Box::new(|_| Value::Float64(99.0)))],
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

    /// Regression (REVIEW: lost-update race): an autocommit EDIT batch
    /// must be in the conflict window the moment its durable write lands
    /// — not at end of statement. A transaction running its
    /// first-committer-wins check in between would otherwise miss the
    /// already-durable edits and overwrite them.
    #[test]
    fn autocommit_flush_enters_conflict_window_immediately() {
        let t = table_with(10, small_files());
        let txn = t.begin_transaction().unwrap();
        let pin_ts = txn.snapshot_ts();
        let (rec, _) = t.scan_all().unwrap()[0];
        // One mid-statement flush, exactly as update_edit_locked drives it.
        let attached = t.attached().unwrap();
        let values = vec![(2usize, Value::Float64(-5.0))];
        let mut batch = update_cells(rec, &values);
        let mut delta = PresenceDelta::new();
        delta.add_updates(rec.file_id, 2, 1);
        let mut touched = vec![rec.as_u64()];
        t.flush_edit_batch(&attached, &mut batch, &mut delta, &mut touched)
            .unwrap();
        assert!(touched.is_empty(), "flush drains the touched set");
        assert!(
            t.inner
                .mvcc
                .lock()
                .conflict_since(pin_ts, &[rec.as_u64()])
                .is_some(),
            "flushed batch must conflict with the pinned transaction at once"
        );
        drop(txn);
    }

    /// Regression (REVIEW: non-repeatable read): autocommit INSERT must
    /// stage its files before they become listable. A snapshot pinned
    /// after the file write but before the commit must never see the new
    /// rows — with unstaged files (absent-means-visible) it would first
    /// see them, then lose them when the commit lands past its pin.
    #[test]
    fn snapshot_pinned_mid_insert_never_sees_staged_files() {
        let t = table_with(10, small_files());
        let gen = t.current_gen().unwrap();
        // Replicate insert_rows' window: reserve + stage + write, no
        // commit yet.
        let first = t.inner.env.meta.reserve_file_ids(&t.inner.name, 1).unwrap();
        t.inner.mvcc.lock().stage_file(gen, first);
        let mut sink = MasterWriteSink::reserved(&t, gen, first, 1);
        for i in 100..110 {
            sink.push(row(i)).unwrap();
        }
        sink.finish().unwrap();
        // Pinned inside the window: the durable-but-uncommitted file is
        // invisible.
        let snap = t.begin_snapshot().unwrap();
        assert_eq!(snap.count().unwrap(), 10, "staged file must be invisible");
        // Commit point (as insert_rows runs it).
        {
            let mut st = t.inner.mvcc.lock();
            let ts = t.inner.env.kv.clock().tick();
            st.commit_files(gen, [first], ts);
            st.note_edit_commit([], ts);
        }
        assert_eq!(
            snap.count().unwrap(),
            10,
            "repeatable read across the commit point"
        );
        drop(snap);
        assert_eq!(t.count().unwrap(), 20, "new snapshots see the insert");
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
                            Value::Utf8("bad".into())
                        } else {
                            Value::Float64(-1.0)
                        }
                    }),
                )],
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
                &[(1, Box::new(|_| Value::Int64(7)))],
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
            &[(1, Box::new(|_| Value::Int64(1)))],
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
        assert!(report.table.retries >= 1, "compact itself retried");
        assert_eq!(report.table.retry_successes, 1);
        assert!(report.kv.retry_exhausted >= 1, "tier retry gave up first");
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
    fn parallel_scan_equals_sequential() {
        let env = DualTableEnv::in_memory();
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Float64)]);
        let config = DualTableConfig {
            rows_per_file: 50,
            plan_mode: PlanMode::AlwaysEdit,
            ..DualTableConfig::default()
        };
        let t = DualTableStore::create(&env, "p", schema, config).unwrap();
        t.insert_rows((0..500).map(|i| vec![Value::Int64(i), Value::Float64(0.0)]))
            .unwrap();
        t.update(
            |r| r[0].as_i64().unwrap() % 9 == 0,
            &[(1, Box::new(|_| Value::Float64(9.0)))],
            RatioHint::Explicit(0.11),
        )
        .unwrap();
        t.delete(
            |r| r[0].as_i64().unwrap() % 13 == 0,
            RatioHint::Explicit(0.08),
        )
        .unwrap();

        let sequential = t.scan_all().unwrap();
        let job = dt_engine::JobConfig {
            max_mappers: 4,
            num_reducers: 2,
        };
        let parallel = t.scan_parallel(&UnionReadOptions::all(), &job).unwrap();
        assert_eq!(sequential, parallel);

        // Projection path too.
        let opts = UnionReadOptions::all().with_projection(vec![1]);
        let seq = t.scan(&opts).unwrap();
        let par = t.scan_parallel(&opts, &job).unwrap();
        assert_eq!(seq, par);
    }

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
        let preview = t.plan_preview(&small, true).unwrap();
        assert_eq!(preview.plan, PlanChoice::Edit);
        assert!(preview.cost_diff > 0.0);
        assert!(preview.ratio < 0.05);
        let report = t
            .update(
                small,
                &[(1, Box::new(|_| Value::Float64(1.0)))],
                RatioHint::Sample,
            )
            .unwrap();
        assert_eq!(report.plan, preview.plan);

        let huge = |_: &Row| true;
        let preview = t.plan_preview(&huge, false).unwrap();
        assert_eq!(preview.plan, PlanChoice::Overwrite);
        assert!(preview.cost_diff < 0.0);
    }
}
