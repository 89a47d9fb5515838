//! Rewrites (DESIGN.md §19): every way a DualTable replaces master files is
//! one fold — UNION READ a set of files into a fresh generation, swing the
//! generation pointer, retire what the fold consumed.
//!
//! * [`DualTableStore::build`] writes generation `next` from a source
//!   epoch, batch in, stripe out: each stripe of the fold set ([`Retire`])
//!   is merged as a [`ColumnBatch`](dt_orcfile::ColumnBatch) of the columns
//!   something may change, patched by an OVERWRITE-plan statement's matches
//!   ([`Dml`]), and written as one output stripe in which every column
//!   nothing changed is *carried* — its stored stream copied, never
//!   decoded. A stripe that lost a row or is short is re-encoded whole and
//!   coalesces with its neighbours. Files outside the fold set are carried
//!   whole under their own IDs by [`dt_dfs::Dfs::copy_file`], which places
//!   their verified blocks again without re-checksumming them.
//! * The swing is an action of the one commit ([`crate::commit`]), which
//!   puts the generation pointer and records it under the MVCC mutex.
//! * [`DualTableStore::sweep`] is the one garbage collector: it deletes
//!   every generation directory and every attached row that no live
//!   generation needs, working both out from what is on disk and what is
//!   pinned. It runs after every swing, when an unpin drains a superseded
//!   generation, at open and after a lost fold race.
//!
//! Callers only choose the epoch, the fold set, the rows and the lock
//! mode. *Exclusive* (`COMPACT`, `INSERT OVERWRITE`, OVERWRITE-plan DML):
//! the ops write lock is held from build to swing, the epoch is "latest"
//! and nothing can conflict; every shard of a sharded table swings in the
//! same commit. *Optimistic* ([`RewriteJob`]): the build
//! runs under a pin alone, beside concurrent DML, and the swing takes the
//! write lock only for the pointer flip, losing with a retryable
//! [`Error::Conflict`] to anything committed since the pin. A read holds
//! the lock only for the instant of its pin (DESIGN.md §13): a swing
//! never waits for a read in progress.

use std::collections::BTreeSet;
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use dt_common::{Error, RecordId, Result, Row};
use dt_engine::parallel_map_fallible;
use dt_orcfile::{Column, ColumnBatch, OrcReader, OrcWriter, FILE_ID_METADATA_KEY};

use crate::commit::{autocommit, commit, Action};
use crate::compactor::FoldOutcome;
use crate::presence::presence_key;
use crate::store::{Assignment, DualTableStore, RowSelector, ScanPlan};
use crate::txn::Snapshot;
use crate::union_read::{deselect, positions, UnionReadOptions};

/// The fold set of a rewrite: the master files its build consumes.
pub(crate) enum Retire {
    /// Every file of the source epoch.
    All,
    /// These files only (ascending). Every other file is carried into the
    /// new generation under its own ID, so its record IDs, overlays and
    /// presence entry stay valid.
    Files(Vec<u32>),
}

/// An OVERWRITE-plan statement, run stripe by stripe as the build merges
/// the table: an UPDATE (`assignments` given) or DELETE of the rows
/// `predicate` matches, reading the columns `scan.projection` names.
#[derive(Clone, Copy)]
pub(crate) struct Dml<'a> {
    pub(crate) predicate: &'a (dyn RowSelector + Sync),
    pub(crate) assignments: Option<&'a [Assignment<'a>]>,
    pub(crate) scan: &'a UnionReadOptions,
}

/// The rows a build writes in place of its fold set.
pub(crate) enum Rows<'a> {
    /// The fold set's UNION READ at the source epoch, under the statement
    /// when there is one.
    Merged(Option<Dml<'a>>),
    /// A materialised row set.
    Given(Vec<Row>),
}

/// Row counts of one build (or one partition of it).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Built {
    pub(crate) written: u64,
    pub(crate) matched: u64,
    pub(crate) scanned: u64,
}

/// Writes stripes into master files in directory `dir`, rolling to the next
/// file ID of its reserved range at the first stripe boundary at or past
/// `rows_per_file` rows. One file's writer is in flight and it holds one
/// stripe, so a streaming source keeps memory bounded by one stripe.
struct MasterWriteSink<'a> {
    store: &'a DualTableStore,
    dir: String,
    ids: Range<u32>,
    writer: Option<OrcWriter>,
    in_file: usize,
    written: u64,
}

impl MasterWriteSink<'_> {
    /// The open file's writer; opens the next file when there is none.
    fn writer(&mut self) -> Result<&mut OrcWriter> {
        if self.writer.is_none() {
            let inner = &self.store.inner;
            // Ranges are sized from row counts that upper-bound the
            // output, and every file but a range's last holds at least
            // `rows_per_file` rows; exhaustion is a bug.
            let file_id = self
                .ids
                .next()
                .ok_or_else(|| Error::internal("rewrite exhausted its reserved file-ID range"))?;
            let mut w = OrcWriter::create(
                &inner.env.dfs,
                &format!("{}/part-{file_id:010}", self.dir),
                inner.schema.clone(),
                inner.config.writer.clone(),
            )?;
            w.set_metadata(FILE_ID_METADATA_KEY, file_id.to_be_bytes().to_vec());
            self.writer = Some(w);
        }
        Ok(self.writer.as_mut().expect("writer just created"))
    }

    /// Rows the open (or next) file still takes before it rolls.
    fn room(&self) -> usize {
        self.store.inner.config.rows_per_file.max(1) - self.in_file
    }

    /// Counts `rows` just written and seals the file once it is full.
    fn wrote(&mut self, rows: usize) -> Result<()> {
        self.written += rows as u64;
        self.in_file += rows;
        if self.in_file >= self.store.inner.config.rows_per_file.max(1) {
            self.writer.take().expect("rows were written").finish()?;
            self.in_file = 0;
        }
        Ok(())
    }

    /// Appends the surviving rows of full-width `batch`, to be encoded:
    /// they coalesce into full stripes and fill each file to exactly
    /// `rows_per_file`, the sequential writer's layout.
    fn push(&mut self, mut batch: ColumnBatch) -> Result<()> {
        let rows: Vec<u32> = batch.selected().map(|i| i as u32).collect();
        let mut rest = &rows[..];
        while !rest.is_empty() {
            let (part, tail) = rest.split_at(self.room().min(rest.len()));
            if part.len() < rows.len() {
                batch.select(part.to_vec()); // straddles a file boundary
            }
            self.writer()?.write_batch(&batch)?;
            self.wrote(part.len())?;
            rest = tail;
        }
        Ok(())
    }

    /// Writes stripe `stripe` of `source` on, whole, into the open file:
    /// `values` encoded, every other column carried.
    fn carry(
        &mut self,
        source: &OrcReader,
        stripe: usize,
        values: &[(usize, &Column)],
    ) -> Result<()> {
        self.writer()?.carry_stripe(source, stripe, values)?;
        self.wrote(source.stripe_stats(stripe)?[0].count as usize)
    }

    fn finish(mut self) -> Result<u64> {
        if let Some(w) = self.writer.take() {
            w.finish()?;
        }
        Ok(self.written)
    }
}

impl DualTableStore {
    // ------------------------------------------------------------------
    // Build
    // ------------------------------------------------------------------

    /// Reserves the output file-ID range of one partition: enough IDs for
    /// `rows_bound` rows (at least one). Partitions reserve in order, so
    /// IDs ascend across them and the new generation scans in the order
    /// the partitions were cut; an unused range tail is a harmless gap.
    pub(crate) fn reserve(&self, rows_bound: u64) -> Result<Range<u32>> {
        let rows_per_file = self.inner.config.rows_per_file.max(1) as u64;
        let count = u32::try_from(rows_bound.div_ceil(rows_per_file).max(1))
            .map_err(|_| Error::internal("write needs too many file IDs"))?;
        let first = self
            .inner
            .env
            .meta
            .reserve_file_ids(&self.inner.name, count)?;
        Ok(first..first + count)
    }

    fn sink(&self, dir: String, ids: Range<u32>) -> MasterWriteSink<'_> {
        MasterWriteSink {
            store: self,
            dir,
            ids,
            writer: None,
            in_file: 0,
            written: 0,
        }
    }

    /// Writes `rows` (checked against the schema here, where they enter)
    /// into files `ids` — every one of them, when `ids` came from
    /// [`Self::reserve`] for these rows — of directory `dir`, a stripe's
    /// worth of typed columns at a time. Returns the rows written.
    pub(crate) fn write_files(&self, dir: &str, ids: Range<u32>, rows: &[Row]) -> Result<u64> {
        let schema = &self.inner.schema;
        let every: Vec<usize> = (0..schema.len()).collect();
        let mut sink = self.sink(dir.to_string(), ids);
        for chunk in rows.chunks(self.inner.config.writer.stripe_rows.max(1)) {
            chunk.iter().try_for_each(|row| schema.check_row(row))?;
            sink.push(ColumnBatch::from_rows(schema, &every, chunk)?)?;
        }
        sink.finish()
    }

    /// Cuts `units` of work into one contiguous run per worker, at most
    /// `workers` of them and as even as possible, and records the fan-out.
    /// No units, no runs.
    fn runs(&self, workers: usize, units: usize) -> Vec<usize> {
        if units == 0 {
            return Vec::new();
        }
        let workers = workers.clamp(1, units);
        if workers > 1 {
            self.inner.env.health.write_workers_used.add(workers as u64);
        }
        (0..workers)
            .map(|w| units / workers + usize::from(w < units % workers))
            .collect()
    }

    /// Builds generation `next` from the source epoch `(gen, at_ts)`:
    /// files outside `fold` are copied whole under their own IDs, and
    /// `rows` are cut into contiguous partitions — whole output files of a
    /// materialised set, whole source files of a merge — one per worker of
    /// the statement's granted [`dt_engine::degree`] (an incremental fold
    /// uses one), each written through its own sink by
    /// [`dt_engine::parallel_map_fallible`]. With one worker the layout is
    /// exactly the sequential writer's. Nothing is committed here: all
    /// output lands in one still-invisible generation, so every crash point
    /// sees exactly the old or the new file set.
    pub(crate) fn build(
        &self,
        next: u64,
        (gen, at_ts): (u64, u64),
        fold: &Retire,
        rows: Rows<'_>,
    ) -> Result<Built> {
        let mut total = Built::default();
        let mut files = self.visible_files(gen, at_ts);
        let mut workers = dt_engine::degree();
        if let Retire::Files(picked) = fold {
            for &file_id in files.iter().filter(|id| picked.binary_search(id).is_err()) {
                self.inner.env.dfs.copy_file(
                    &self.file_path_at(gen, file_id),
                    &self.file_path_at(next, file_id),
                )?;
                total.written += self.open_master(gen, file_id)?.num_rows();
            }
            files.retain(|id| picked.binary_search(id).is_ok());
            // The few picked files stay on the caller's thread: a fold is
            // background work racing foreground DML to its swing, and
            // waiting for workers on busy cores only widens the window it
            // loses in.
            workers = 1;
        }
        let built = match rows {
            Rows::Given(rows) => {
                let mut parts = Vec::new();
                let rows_per_file = self.inner.config.rows_per_file.max(1);
                let mut rest = &rows[..];
                for len in self.runs(workers, rows.len().div_ceil(rows_per_file)) {
                    let (chunk, tail) = rest.split_at((len * rows_per_file).min(rest.len()));
                    rest = tail;
                    parts.push((self.reserve(chunk.len() as u64)?, chunk));
                }
                let dir = self.gen_dir(next);
                parallel_map_fallible(workers, parts, |(ids, chunk)| {
                    Ok(Built {
                        written: self.write_files(&dir, ids, chunk)?,
                        ..Built::default()
                    })
                })?
            }
            Rows::Merged(statement) => {
                let mut parts = Vec::new();
                let mut rest = &files[..];
                for len in self.runs(workers, files.len()) {
                    let (chunk, tail) = rest.split_at(len);
                    rest = tail;
                    // Footer row counts upper-bound the UNION READ output:
                    // the attached tier updates or deletes rows, never
                    // adds them.
                    let mut bound = 0u64;
                    for &file_id in chunk {
                        bound += self.open_master(gen, file_id)?.num_rows();
                    }
                    parts.push((self.reserve(bound)?, chunk));
                }
                // Never stripe predicates: a stripe the statement cannot
                // match must still be written.
                let opts = UnionReadOptions {
                    snapshot_ts: at_ts,
                    ..UnionReadOptions::all()
                };
                let plan = self.scan_plan(gen, &opts, &[])?;
                parallel_map_fallible(workers, parts, |(ids, chunk)| {
                    let mut built = Built::default();
                    let mut sink = self.sink(self.gen_dir(next), ids);
                    for &file_id in chunk {
                        self.fold_file(&plan, statement, file_id, &mut sink, &mut built)?;
                    }
                    built.written = sink.finish()?;
                    Ok(built)
                })?
            }
        };
        for part in built {
            total.written += part.written;
            total.matched += part.matched;
            total.scanned += part.scanned;
        }
        Ok(total)
    }

    /// Folds one source file into `sink`, stripe by stripe. Only the
    /// columns something may change — the file's presence entry or the
    /// statement's SET list names them — and those the statement reads are
    /// decoded and merged; the statement's matches leave the batch (a
    /// DELETE) or take their new values, one typed scatter per SET column
    /// (an UPDATE); then
    /// the stripe is written on with every unchanged column carried. A
    /// stripe that lost a row, or holds less than half of what a stripe
    /// can, is widened to all of its columns instead and joins the sink's
    /// open stripe, so deletes and small insert files fold back into full
    /// stripes.
    fn fold_file(
        &self,
        plan: &ScanPlan<'_>,
        statement: Option<Dml<'_>>,
        file_id: u32,
        sink: &mut MasterWriteSink<'_>,
        built: &mut Built,
    ) -> Result<()> {
        let config = &self.inner.config;
        let width = self.inner.schema.len();
        let reader = self.open_master(plan.gen, file_id)?;
        let assigned = statement.and_then(|s| s.assignments).unwrap_or(&[]);
        let presence = plan.presence.file(file_id);
        let changed = |c: &usize| {
            presence.is_some_and(|p| p.has_update_on(*c))
                || assigned.iter().any(|(col, _)| col == c)
        };
        let reads = statement.map(|s| self.projected(s.scan));
        let merged: Vec<usize> = (0..width)
            .filter(|c| changed(c) || reads.as_ref().is_some_and(|r| r.contains(c)))
            .collect();
        let pos_of = positions(width, &merged);
        let short = config.writer.stripe_rows.min(config.rows_per_file.max(1)) / 2;
        let mut stripe = 0;
        let flow = self.merge_master(plan, file_id, &merged, &mut |_, mut batch| {
            built.scanned += batch.selected_len() as u64;
            if let Some(s) = statement {
                let rows = s.predicate.select(&batch, &merged, width);
                built.matched += rows.len() as u64;
                match s.assignments {
                    // Each SET column scattered in place, in SET order: a
                    // column set twice keeps its last value.
                    Some(set) => {
                        let selector = (s.predicate as &dyn RowSelector, set);
                        for (col, values) in self.new_values(selector, &batch, &merged, &rows)? {
                            let pos = pos_of[col].expect("a SET column is merged");
                            batch.column_mut(pos).scatter(&rows, &values)?;
                        }
                    }
                    None => deselect(&mut batch, rows),
                }
            }
            if batch.selected_len() < batch.rows() || batch.rows() < short {
                sink.push(reader.widen(stripe, &merged, batch)?)?;
            } else {
                let values = merged.iter().copied().zip(batch.columns());
                let values: Vec<_> = values.filter(|(c, _)| changed(c)).collect();
                sink.carry(&reader, stripe, &values)?;
            }
            stripe += 1;
            Ok(ControlFlow::Continue(()))
        })?;
        debug_assert!(flow.is_continue(), "a build never stops its scan");
        Ok(())
    }

    /// Reserves the first generation number safe to build into: past the
    /// committed one, past any directory a crashed rewrite left behind
    /// (whose stale files must never join a new generation) and past every
    /// number reserved for a build this process knows about — a zero-row
    /// build leaves no directory for the listing to see.
    fn next_generation(&self) -> Result<u64> {
        let committed = self.current_gen()?;
        let max_present = self.listed_generations().last().copied().unwrap_or(0);
        Ok(self
            .inner
            .mvcc
            .lock()
            .reserve_build_gen(committed.max(max_present) + 1))
    }

    /// Builds a reserved next generation — protected from cleanup while it
    /// is built — from the epoch `(gen, at_ts)` (see [`Self::build`]); a
    /// failed build is abandoned. Returns the generation and its counts.
    fn build_next(&self, epoch: (u64, u64), fold: &Retire, rows: Rows<'_>) -> Result<(u64, Built)> {
        let next = self.next_generation()?;
        match self.build(next, epoch, fold, rows) {
            Ok(built) => Ok((next, built)),
            Err(e) => {
                self.abandon_rewrite(next);
                Err(e)
            }
        }
    }

    /// Every generation number with a directory under the table.
    fn listed_generations(&self) -> BTreeSet<u64> {
        let prefix = format!("{}/gen-", Self::master_dir(&self.inner.name));
        self.inner
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
            .collect()
    }

    /// The build of an exclusive rewrite (caller holds the ops write lock):
    /// generation `next` from the latest epoch, fold set everything.
    /// Returns `next` with the build's counts; a failed build deletes what
    /// it wrote.
    pub(crate) fn build_exclusive(&self, rows: Rows<'_>) -> Result<(u64, Built)> {
        self.build_next((self.current_gen()?, u64::MAX), &Retire::All, rows)
    }

    // ------------------------------------------------------------------
    // Retire and sweep
    // ------------------------------------------------------------------

    /// Deletes the attached rows of retired master files — for each
    /// file-ID range its presence rows and its data rows — in ONE atomic
    /// delete batch: a fold's presence entries and data cells retire
    /// together, so no crash leaves an index claiming a file clean while
    /// its overlay cells survive, or vice versa. Ranged, not a truncate:
    /// live files' rows stay.
    fn retire_attached(&self, ranges: impl IntoIterator<Item = Range<u32>>) -> Result<()> {
        let attached = self.attached()?;
        if attached.is_empty() {
            return Ok(());
        }
        let mut rows: Vec<Vec<u8>> = Vec::new();
        for range in ranges {
            let spans = [
                (presence_key(range.start), presence_key(range.end)),
                (
                    RecordId::file_start(range.start).to_key(),
                    RecordId::file_start(range.end).to_key(),
                ),
            ];
            for (lo, hi) in spans {
                for row in attached.scan_at(Some(&lo[..]), Some(&hi[..]), u64::MAX)? {
                    rows.push(row?.row);
                }
            }
        }
        if !rows.is_empty() {
            attached.delete_rows(rows)?;
        }
        Ok(())
    }

    /// Best-effort deletion of every file of generation `gen`; `true` iff
    /// all of them went. Failed deletes are recorded as cleanup debt and
    /// retried by the next sweep; the generation is unreachable in the
    /// meantime.
    fn delete_generation(&self, gen: u64) -> bool {
        let dir = format!("{}/", self.gen_dir(gen));
        let ok = self.delete_paths(self.inner.env.dfs.list(&dir));
        // The paths can never be opened again; retire their footers.
        self.inner.footers.invalidate_prefix(&dir);
        ok
    }

    /// The one garbage collector (DESIGN.md §13). It is told nothing: the
    /// live generations are the current one, every pinned one and every
    /// one being built, and every other listed `gen-N` directory is
    /// deleted (counted by `generations_gcd`). A presence-index file that
    /// is no master file of a live generation is dead, and its presence
    /// and data rows go in one ranged delete — or, when every presence key
    /// is dead, no read is pinned and `ops` is held exclusively (by the
    /// caller, `holds_ops`, or taken here without waiting), the attached
    /// table is truncated instead. Without any `ops` hold the attached
    /// rows wait for the next sweep: a writer holding `ops` exclusively
    /// ends in a swing, and so in a sweep.
    ///
    /// The directory listing and the presence index are read before the
    /// live set, so nothing they name can turn live after it is read: a
    /// build's directory appears only after its number is reserved, and a
    /// commit writes attached rows only for files of the generation it
    /// commits on, which its pin or `ops` keeps live. Never fails: a
    /// failure is counted in `cleanup_failures` and the next sweep finds
    /// the same garbage again.
    pub(crate) fn sweep(&self, holds_ops: bool) {
        let write = (!holds_ops).then(|| self.inner.ops.try_write()).flatten();
        let exclusive = holds_ops || write.is_some();
        let read = (!exclusive).then(|| self.inner.ops.try_read()).flatten();
        let listed = self.listed_generations();
        let index = (exclusive || read.is_some()).then(|| {
            let attached = self.attached()?;
            Ok((self.load_presence(&attached)?, attached))
        });
        let (live, pinned) = {
            let mut st = self.inner.mvcc.lock();
            // Read under the state mutex, under which a swing flips it and
            // unmarks its build: the new generation is current or building.
            let current = match self.current_gen() {
                Ok(gen) if !st.dropped() => gen,
                _ => return,
            };
            (st.live_generations(current), st.pin_count() > 0)
        };
        let health = &self.inner.env.health;
        let retired = index.map_or(Ok(()), |index: Result<_>| {
            let (index, attached) = index?;
            let files: BTreeSet<u32> = (live.iter())
                .flat_map(|&gen| self.master_file_ids_at(gen))
                .collect();
            let dead: Vec<u32> = (index.files.keys().copied())
                .filter(|id| !files.contains(id))
                .collect();
            if dead.len() == index.files.len() && !pinned && exclusive && !attached.is_empty() {
                // The presence index lives inside the attached table, so
                // the truncate resets it too.
                let name = Self::attached_name(&self.inner.name);
                return self.inner.env.kv.truncate_table(&name);
            }
            self.retire_attached(dead.iter().map(|&id| id..id.wrapping_add(1)))
        });
        if retired.is_err() {
            health.cleanup_failures.inc();
        }
        drop((write, read));
        let gcd = listed
            .into_iter()
            .filter(|gen| !live.contains(gen))
            .filter(|&gen| self.delete_generation(gen))
            .count() as u64;
        if gcd > 0 {
            health.generations_gcd.add(gcd);
        }
    }

    /// Deletes an abandoned (never-committed) build generation. Unlike the
    /// sweep this never counts toward `generations_gcd` — the generation
    /// was never live.
    pub(crate) fn abandon_rewrite(&self, next: u64) {
        self.inner.mvcc.lock().finish_build(next);
        self.delete_generation(next);
    }

    // ------------------------------------------------------------------
    // Exclusive rewrites
    // ------------------------------------------------------------------

    /// Replaces the whole table content (Hive's `INSERT OVERWRITE TABLE`):
    /// new master files, cleared attached table (see [`overwrite_all`]).
    pub fn insert_overwrite<I>(&self, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = Row>,
    {
        overwrite_all(vec![(self, rows.into_iter().collect())])
    }

    /// COMPACT (paper §III-C): UNION READ everything into a fresh Master
    /// Table and clear the Attached Table (see [`compact_all`]).
    pub fn compact(&self) -> Result<()> {
        compact_all(&[self])
    }

    // ------------------------------------------------------------------
    // Optimistic rewrites
    // ------------------------------------------------------------------

    /// Starts a two-phase COMPACT: pins a snapshot and rewrites it into a
    /// fresh generation off to the side *without* blocking concurrent DML
    /// (it holds only the pin, like any read). The returned
    /// [`RewriteJob`] must be `finish()`ed to swing the pointer — which
    /// fails with a retryable [`Error::Conflict`] if anything committed
    /// since the pin.
    pub fn begin_compact(&self) -> Result<RewriteJob> {
        self.build_aside(self.begin_snapshot()?, Retire::All, Rows::Merged(None))
    }

    /// Starts a two-phase INSERT OVERWRITE: writes `rows` as a fresh
    /// generation off to the side. Like [`DualTableStore::begin_compact`],
    /// the swing happens at [`RewriteJob::finish`] and loses to any
    /// concurrent commit.
    pub fn begin_insert_overwrite(&self, rows: Vec<Row>) -> Result<RewriteJob> {
        self.build_aside(self.begin_snapshot()?, Retire::All, Rows::Given(rows))
    }

    /// Starts an incremental COMPACT: pins a snapshot, picks the k
    /// dirtiest master files and folds ONLY those into a fresh generation
    /// off to the side. Returns `None` when nothing is dirty enough to
    /// fold. Like [`DualTableStore::begin_compact`], concurrent DML never
    /// blocks, and [`RewriteJob::finish`] loses with a retryable
    /// [`Error::Conflict`] to anything that committed since the pin.
    /// `on_build_start` fires exactly when a build actually starts — after
    /// candidate selection found work, before any byte is written;
    /// [`Self::compact_incremental`] opens its health ledger there, at the
    /// moment the cycle stops being a no-op.
    pub fn begin_incremental(&self, on_build_start: impl FnOnce()) -> Result<Option<RewriteJob>> {
        let snapshot = self.begin_snapshot()?;
        let picked = self.fold_candidates_at(snapshot.generation(), snapshot.ts())?;
        if picked.is_empty() {
            return Ok(None);
        }
        on_build_start();
        self.build_aside(snapshot, Retire::Files(picked), Rows::Merged(None))
            .map(Some)
    }

    /// The optimistic build: the next generation, built from the pinned
    /// epoch. It holds no lock — the pin keeps the epoch alive — so no
    /// writer waits for it.
    fn build_aside(
        &self,
        snapshot: Snapshot,
        retire: Retire,
        rows: Rows<'_>,
    ) -> Result<RewriteJob> {
        let epoch = (snapshot.generation(), snapshot.ts());
        let (next, built) = self.build_next(epoch, &retire, rows)?;
        Ok(RewriteJob {
            snapshot,
            next,
            written: built.written,
            finished: false,
            retire,
        })
    }

    /// Scores every dirty master file with the §IV-derived fold score
    /// ([`crate::CostModel::fold_score`]) and returns the
    /// `max_files_per_cycle` dirtiest, ascending by file ID (scan order).
    /// Files the presence index proves clean never appear.
    pub fn fold_candidates(&self) -> Result<Vec<u32>> {
        let pin = self.begin_snapshot()?;
        self.fold_candidates_at(pin.generation(), pin.ts())
    }

    fn fold_candidates_at(&self, gen: u64, at_ts: u64) -> Result<Vec<u32>> {
        let knobs = self.inner.config.compaction;
        if knobs.max_files_per_cycle == 0 {
            return Ok(Vec::new());
        }
        let index = self.load_presence(&self.attached()?)?;
        if index.files.is_empty() {
            return Ok(Vec::new());
        }
        let live = self.visible_files(gen, at_ts);
        let model = self.cost_model();
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for (&file_id, presence) in &index.files {
            if live.binary_search(&file_id).is_err() {
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

    /// One cycle of the background maintenance loop: pick the dirtiest
    /// files, fold them off to the side, swing. Health-ledger exact —
    /// every call that starts building ends as exactly one of completed,
    /// lost-race or aborted, even across panics (a drop guard converts an
    /// unwind into the aborted entry):
    /// `compactions_completed + compactions_lost_race + compactions_aborted
    /// == compactions_started`, asserted by the soaks and by the lost-race
    /// test in `tests/concurrency_and_disk.rs`.
    ///
    /// A lost swing race is a clean retry, not an error: the abandoned
    /// generation is already deleted, and the sweep (DESIGN.md §13) runs
    /// at once rather than waiting for the next trigger.
    pub fn compact_incremental(&self) -> Result<FoldOutcome> {
        struct AbortGuard {
            health: Arc<crate::TableCounters>,
            armed: std::cell::Cell<bool>,
        }
        impl Drop for AbortGuard {
            fn drop(&mut self) {
                if self.armed.get() {
                    self.health.compactions_aborted.inc();
                }
            }
        }
        let guard = AbortGuard {
            health: self.inner.env.health.clone(),
            armed: std::cell::Cell::new(false),
        };
        let job = self.begin_incremental(|| {
            self.inner.env.health.compactions_started.inc();
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
                self.inner.env.health.compactions_completed.inc();
                Ok(FoldOutcome::Folded { files, rows })
            }
            Err(e) if e.is_conflict() => {
                guard.armed.set(false);
                self.inner.env.health.compactions_lost_race.inc();
                self.sweep(false);
                Ok(FoldOutcome::LostRace)
            }
            Err(e) => Err(e),
        }
    }
}

/// INSERT OVERWRITE of `parts` — each store with its rows, one table's
/// shards or its one store — as one exclusive rewrite
/// ([`crate::commit::autocommit`]): every store's ops write lock from build
/// to swing, each store's next generation built of its rows, one commit
/// swinging every pointer. Returns the rows written.
pub(crate) fn overwrite_all(parts: Vec<(&DualTableStore, Vec<Row>)>) -> Result<u64> {
    let n = parts.iter().map(|(_, rows)| rows.len() as u64).sum();
    let (stores, mut rows): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
    autocommit(&stores, &vec![true; stores.len()], |i| {
        let (next, _) = stores[i].build_exclusive(Rows::Given(std::mem::take(&mut rows[i])))?;
        Ok(Action::Swing(next))
    })?;
    Ok(n)
}

/// COMPACT of `stores` — one table's shards, or its one store — as one
/// exclusive rewrite, like [`overwrite_all`] but each generation built from
/// the latest epoch — "all the other operations will be blocked during
/// COMPACT" (§III-C). A failure before the commit leaves every old
/// generation fully live; one after it only delays cleanup. Stripes go
/// straight from the UNION READ into the new generations' files — memory
/// stays bounded by one stripe per worker, not the table. A transient
/// storage fault aborts the half-built generations and the whole pass
/// retries with backoff (each attempt builds into fresh generations, so a
/// torn attempt is inert).
pub(crate) fn compact_all(stores: &[&DualTableStore]) -> Result<()> {
    let policy = stores[0].inner.config.retry;
    policy.run(&stores[0].inner.env.health.retry, || {
        autocommit(stores, &vec![true; stores.len()], |i| {
            let (next, _) = stores[i].build_exclusive(Rows::Merged(None))?;
            Ok(Action::Swing(next))
        })
    })
}

/// A two-phase (optimistic) rewrite: [`DualTableStore::begin_compact`],
/// [`DualTableStore::begin_insert_overwrite`] and the incremental fold of
/// [`DualTableStore::compact_incremental`] build the new generation
/// off to the side from a pinned snapshot — without blocking concurrent
/// DML — and [`RewriteJob::finish`] atomically swings the generation
/// pointer, failing with a retryable [`Error::Conflict`] if anything
/// committed since the pin (the built files would silently lose those
/// writes). Dropping an unfinished job abandons the built generation;
/// failures there are reported via counters, never panics (the server's
/// teardown relies on it, see [`crate::txn`]).
pub struct RewriteJob {
    snapshot: Snapshot,
    next: u64,
    written: u64,
    finished: bool,
    retire: Retire,
}

impl RewriteJob {
    /// The snapshot timestamp the build read from.
    pub fn snapshot_ts(&self) -> u64 {
        self.snapshot.ts()
    }

    /// The generation number being built.
    pub fn target_generation(&self) -> u64 {
        self.next
    }

    /// Rows written into the new generation (carried copies included).
    pub fn rows_written(&self) -> u64 {
        self.written
    }

    /// The master files an incremental fold will retire; `None` for full
    /// rewrites.
    pub fn folded_files(&self) -> Option<&[u32]> {
        match &self.retire {
            Retire::All => None,
            Retire::Files(files) => Some(files),
        }
    }

    /// Atomically swings the generation pointer to the built generation,
    /// taking the ops write lock only for the swing. Returns the rows
    /// written, or [`Error::Conflict`] if a commit raced the build (the
    /// built generation is deleted; retry from a fresh begin).
    pub fn finish(mut self) -> Result<u64> {
        self.finished = true;
        let store = self.snapshot.store();
        let _guard = store.inner.ops.write();
        let pin = (self.snapshot.generation(), self.snapshot.ts());
        if let Err(e) = commit(&[(store, Some(pin), Action::Swing(self.next))]) {
            store.abandon_rewrite(self.next);
            return Err(e);
        }
        Ok(self.written)
    }

    /// Abandons the build, deleting the half-built generation.
    pub fn abandon(self) {}
}

impl Drop for RewriteJob {
    fn drop(&mut self) {
        if !self.finished {
            self.snapshot.store().abandon_rewrite(self.next);
        }
    }
}
