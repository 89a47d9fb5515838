//! Session-facing MVCC objects (DESIGN.md §13): pinned snapshots and
//! first-committer-wins transactions. (The third pinned object, the
//! two-phase [`crate::RewriteJob`], lives with the rewrites.)
//!
//! All three types wrap a pinned `(generation, timestamp)` epoch and hold
//! it until dropped; dropping the last pin on a superseded generation runs
//! the sweep that collects it ([`crate::DualTableStore::sweep`]).
//!
//! # Panic safety of the `Drop` paths
//!
//! These destructors are the teardown mechanism the server relies on
//! (DESIGN.md §14): when a session panics mid-statement or a connection
//! dies mid-transaction, dropping its `Transaction`/`Snapshot` must still
//! release the pin, or generation GC stalls forever behind a phantom
//! reader. Three properties make that hold:
//!
//! * `Snapshot::drop` → `release_pin` → `sweep` never panics: GC
//!   failures are swallowed into the `cleanup_failures` health counter and
//!   found again by the next sweep, so unwinding through the drop is safe.
//! * The registry locks are the poison-recovering `parking_lot` shim
//!   (`unwrap_or_else(|e| e.into_inner())`): a thread that panicked while
//!   holding one does not wedge every later pin release.
//! * `RewriteJob::drop` → `abandon_rewrite` likewise reports failures via
//!   counters rather than panicking.
//!
//! The regression test `tests/drop_safety.rs` pins these properties: a
//! session that panics inside `catch_unwind` with a live transaction must
//! leave `pinned_snapshots() == 0` and must not block a subsequent
//! OVERWRITE's generation GC.

use std::borrow::Cow;
use std::ops::ControlFlow;

use dt_common::{Error, RecordId, Result, Row};
use dt_orcfile::ColumnBatch;

use crate::commit::{commit, Action};
use crate::shard::ShardSpec;
use crate::store::{Assignment, DualTableStore, RowSelector};
use crate::union_read::{for_each_row, ConsumeFn, MapFn, PatchSet, UnionReadOptions, NO_PATCHES};

/// A pinned read snapshot: scans see exactly the table as of the pin's
/// `(generation, timestamp)`, regardless of what commits afterwards — and
/// never block writers. Dropping the snapshot releases the pin (and any
/// generation GC it was holding back).
pub struct Snapshot {
    store: DualTableStore,
    gen: u64,
    ts: u64,
}

impl Snapshot {
    pub(crate) fn new(store: DualTableStore, gen: u64, ts: u64) -> Self {
        Snapshot { store, gen, ts }
    }

    /// The pinned generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The pinned timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    pub(crate) fn store(&self) -> &DualTableStore {
        &self.store
    }

    /// The one pinned read (DESIGN.md §13): UNION READ at the pin under
    /// the pin holder's own uncommitted `ours`, on up to `workers` (see
    /// [`DualTableStore::for_each_mapped`]), at the earlier of
    /// `opts.snapshot_ts` and the pin's timestamp — so a time-travel read
    /// still reads at its own time. Holds no lock: the pin keeps the
    /// generation's files and attached cells alive, and a commit is wholly
    /// before or wholly after it, so readers never block writers nor see
    /// half a commit.
    pub(crate) fn scan_under<T: Send>(
        &self,
        opts: &UnionReadOptions,
        ours: &PatchSet,
        workers: usize,
        map: &MapFn<'_, T>,
        consume: &mut ConsumeFn<'_, T>,
    ) -> Result<ControlFlow<()>> {
        let opts = self.at_pin(opts);
        self.store
            .for_each_at(self.gen, &opts, ours, workers, map, consume)
    }

    /// `opts` read at the pin: at the earlier of its own time and the pin's.
    fn at_pin(&self, opts: &UnionReadOptions) -> UnionReadOptions {
        let mut opts = opts.clone();
        opts.snapshot_ts = opts.snapshot_ts.min(self.ts);
        opts
    }

    /// UNION READ at the pin, as merged column batches (see
    /// [`DualTableStore::for_each_batch`]), at the earlier of
    /// `opts.snapshot_ts` and the pin's timestamp.
    pub fn for_each_batch(
        &self,
        opts: &UnionReadOptions,
        mut f: impl FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let batch = |id, batch| Ok((id, batch));
        let scan = self.scan_under(opts, &NO_PATCHES, 1, &batch, &mut |(id, batch)| {
            f(id, batch)
        });
        scan.map(|_| ())
    }

    /// [`Snapshot::for_each_batch`] unpacked into `(record id, row)` pairs.
    pub fn for_each(
        &self,
        opts: &UnionReadOptions,
        mut f: impl FnMut(RecordId, Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        self.for_each_batch(opts, |file_id, batch| for_each_row(file_id, &batch, &mut f))
    }

    /// Materializes a scan at the pin.
    pub fn scan(&self, opts: &UnionReadOptions) -> Result<Vec<(RecordId, Row)>> {
        let mut out = Vec::new();
        self.for_each(opts, |id, row| {
            out.push((id, row));
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// Materializes the whole table at the pin.
    pub fn scan_all(&self) -> Result<Vec<(RecordId, Row)>> {
        self.scan(&UnionReadOptions::all())
    }

    /// Counts rows visible at the pin (see [`DualTableStore::count`]).
    pub fn count(&self) -> Result<u64> {
        let mut n = 0u64;
        let opts = UnionReadOptions::all().with_projection(Vec::new());
        self.for_each_batch(&opts, |_, batch| {
            n += batch.selected_len() as u64;
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(n)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.store.release_pin(self.ts);
    }
}

/// A snapshot-isolation transaction over one DualTable — over every shard
/// of it, each with its own pinned snapshot, when the table is
/// range-sharded. It is also how an autocommit SQL statement reads a
/// DUALTABLE: a read-only transaction pinned on just the stores its read
/// reaches ([`DualTableStore::begin_transaction`],
/// [`ShardedTable::begin_read`]).
///
/// Reads are UNION READ at the pin with this transaction's own buffered
/// writes as a second patch source (read-your-own-writes); nothing is
/// visible to other sessions until commit, which applies every store's
/// buffered effect at one commit timestamp — after re-validating, under
/// each store's state mutex, that no other transaction committed a write
/// to the same record ids (and no OVERWRITE/COMPACT swung the generation)
/// since this transaction began. The first committer wins; losers get a
/// retryable [`dt_common::Error::Conflict`] and nothing is applied.
///
/// [`ShardedTable::begin_read`]: crate::ShardedTable::begin_read
pub struct Transaction {
    /// One part per pinned store, in shard order: its shard number, its
    /// pinned snapshot and the transaction's buffered effect on it.
    parts: Vec<(usize, Snapshot, PatchSet)>,
    /// How rows and statements route to `parts`; `None` = one store.
    spec: Option<ShardSpec>,
}

impl Transaction {
    /// A transaction over `pins`: each shard number (ascending) of a
    /// table partitioned by `spec` — or 0 for a table's one store — with
    /// its pin.
    pub(crate) fn new(pins: Vec<(usize, Snapshot)>, spec: Option<ShardSpec>) -> Self {
        let parts = pins
            .into_iter()
            .map(|(shard, pin)| (shard, pin, PatchSet::default()));
        Transaction {
            parts: parts.collect(),
            spec,
        }
    }

    /// The pinned generation this transaction reads (of its first store).
    pub fn generation(&self) -> u64 {
        self.parts[0].1.generation()
    }

    /// The pinned snapshot timestamp (of its first store).
    pub fn snapshot_ts(&self) -> u64 {
        self.parts[0].1.ts()
    }

    /// `true` iff committing would write nothing.
    pub fn is_read_only(&self) -> bool {
        self.parts.iter().all(|(_, _, ours)| ours.is_empty())
    }

    /// Buffers `UPDATE ... SET ... WHERE predicate`. Sees (and may touch)
    /// this transaction's earlier writes and buffered inserts. `scan` says
    /// what the statement reads (see [`DualTableStore::dml`]; on
    /// a sharded table its predicates also prune shards). Returns the
    /// matched row count.
    pub fn update(
        &mut self,
        predicate: impl Fn(&Row) -> bool + Sync,
        assignments: &[Assignment<'_>],
        scan: &UnionReadOptions,
    ) -> Result<u64> {
        self.edit(&predicate, Some(assignments), scan)
    }

    /// Buffers `DELETE FROM ... WHERE predicate` (`scan`: see
    /// [`Transaction::update`]). Returns the matched row count.
    pub fn delete(
        &mut self,
        predicate: impl Fn(&Row) -> bool + Sync,
        scan: &UnionReadOptions,
    ) -> Result<u64> {
        self.edit(&predicate, None, scan)
    }

    /// The position in `parts` of shard `shard`: a read pins only the
    /// shards it reads, and writes nowhere else.
    fn part(&self, shard: usize) -> Result<usize> {
        let found = self.parts.binary_search_by_key(&shard, |p| p.0);
        found.map_err(|_| Error::invalid(format!("shard {shard} is not pinned by this read")))
    }

    /// One buffered UPDATE (`assignments` given) or DELETE of the rows
    /// `selector` picks: on every store the statement can touch, the rows
    /// it matches — found by the store's one locate-scan, at the pin, under
    /// what is buffered so far — become patches. The whole statement is
    /// located, every new value checked, before any of it is buffered: a
    /// failed statement must leave the buffer untouched, or a later COMMIT
    /// would persist half of it. Returns the matched row count.
    pub fn edit(
        &mut self,
        selector: &(dyn RowSelector + Sync),
        assignments: Option<&[Assignment<'_>]>,
        scan: &UnionReadOptions,
    ) -> Result<u64> {
        if let Some(assignments) = assignments {
            self.parts[0].1.store().check_targets(assignments)?;
        }
        let targets = match &self.spec {
            Some(spec) => spec.dml_shards(assignments, scan.predicates.as_deref())?,
            None => vec![0],
        };
        let workers = self.read_workers();
        let mut statement = Vec::with_capacity(targets.len());
        for shard in targets {
            let i = self.part(shard)?;
            let (_, pin, ours) = &self.parts[i];
            let (store, gen, scan) = (pin.store(), pin.generation(), (&pin.at_pin(scan), ours));
            let (patches, _) = store.locate_patches(gen, scan, workers, selector, assignments)?;
            statement.push((i, patches));
        }
        let matched = statement
            .iter()
            .map(|(_, patches)| patches.len())
            .sum::<usize>();
        for (i, patches) in statement {
            self.parts[i].2.absorb(patches);
        }
        Ok(matched as u64)
    }

    /// Buffers an insert. The rows become master files only at commit,
    /// which stages them and renames them into place with the rest of its
    /// writes.
    pub fn insert(&mut self, rows: Vec<Row>) -> Result<u64> {
        let schema = self.parts[0].1.store().schema();
        rows.iter().try_for_each(|row| schema.check_row(row))?;
        let n = rows.len() as u64;
        // Every row routes before any is buffered.
        let buckets = match &self.spec {
            Some(spec) => spec.partition(rows)?,
            None => vec![rows],
        };
        if buckets.len() != self.parts.len() {
            return Err(Error::invalid("a read pins only the shards it reads"));
        }
        for ((_, _, ours), bucket) in self.parts.iter_mut().zip(buckets) {
            ours.inserts.extend(bucket);
        }
        Ok(n)
    }

    /// The read-your-own-writes scan: UNION READ at the pin with this
    /// transaction's patches as second patch source (see
    /// [`DualTableStore::for_each_batch`] and [`Snapshot::for_each_batch`]
    /// for the time it reads at), store by store in shard order — a
    /// sharded table's `opts.predicates` prune whole shards first — each
    /// store's buffered inserts following its files as one trailing batch
    /// under file ID 0, which no master file has.
    pub fn for_each_batch(
        &self,
        opts: &UnionReadOptions,
        mut f: impl FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let batch = |id, batch| Ok((id, batch));
        self.scan(opts, 1, &batch, &mut |(id, batch)| f(id, batch))
    }

    /// [`Transaction::for_each_batch`] split in two as
    /// [`DualTableStore::for_each_mapped`] splits it: a transaction on an
    /// unsharded table fans out at the [`dt_engine::read_degree`]; one on a
    /// sharded table reads its shards in order on the calling thread.
    pub fn for_each_mapped<T: Send>(
        &self,
        opts: &UnionReadOptions,
        map: &MapFn<'_, T>,
        consume: &mut ConsumeFn<'_, T>,
    ) -> Result<()> {
        self.scan(opts, self.read_workers(), map, consume)
    }

    /// The workers this transaction's reads and locates may fan out over:
    /// one for a sharded table, whose shards are read in order on the
    /// calling thread.
    fn read_workers(&self) -> usize {
        match self.spec {
            Some(_) => 1,
            None => dt_engine::read_degree(),
        }
    }

    fn scan<T: Send>(
        &self,
        opts: &UnionReadOptions,
        workers: usize,
        map: &MapFn<'_, T>,
        consume: &mut ConsumeFn<'_, T>,
    ) -> Result<()> {
        let reached = |shard| match (&self.spec, &opts.predicates) {
            (Some(spec), Some(predicates)) => spec.shard_may_match(shard, predicates),
            _ => true,
        };
        for (_, pin, ours) in self.parts.iter().filter(|part| reached(part.0)) {
            let flow = pin.scan_under(opts, ours, workers, map, consume)?;
            if flow.is_break() {
                break;
            }
        }
        Ok(())
    }

    /// Commits every buffered effect (see [`Transaction::commit_all`]).
    pub fn commit(self) -> Result<u64> {
        Self::commit_all([self])
    }

    /// Commits several transactions, on distinct tables, as one — the
    /// tables of a session, each with all of its shards. Every store any of
    /// them wrote becomes durable and visible at one commit timestamp, or
    /// none does: on a first-committer-wins loss on any store this returns
    /// a retryable [`dt_common::Error::Conflict`] naming that store, with
    /// nothing applied — re-begin and retry. Returns the commit timestamp
    /// (0 when nothing was written).
    pub fn commit_all(txns: impl IntoIterator<Item = Transaction>) -> Result<u64> {
        let parts: Vec<_> = txns
            .into_iter()
            .flat_map(|t| t.parts)
            .filter(|(_, _, ours)| !ours.is_empty())
            .collect();
        let pin = |s: &Snapshot| Some((s.generation(), s.ts()));
        let parts: Vec<_> = parts
            .iter()
            .map(|(_, s, ours)| (s.store(), pin(s), Action::Write(Cow::Borrowed(ours))))
            .collect();
        commit(&parts)
    }

    /// Discards every buffered effect. (Dropping the transaction does the
    /// same; this spelling documents intent.)
    pub fn rollback(self) {}
}
