//! Session-facing MVCC objects (DESIGN.md §13): pinned snapshots and
//! first-committer-wins transactions. (The third pinned object, the
//! two-phase [`crate::RewriteJob`], lives with the rewrites.)
//!
//! All three types wrap a pinned `(generation, timestamp)` epoch and hold
//! it until dropped; dropping the last pin on a superseded generation
//! triggers its physical GC (see [`crate::mvcc`]).
//!
//! # Panic safety of the `Drop` paths
//!
//! These destructors are the teardown mechanism the server relies on
//! (DESIGN.md §14): when a session panics mid-statement or a connection
//! dies mid-transaction, dropping its `Transaction`/`Snapshot` must still
//! release the pin, or generation GC stalls forever behind a phantom
//! reader. Three properties make that hold:
//!
//! * `Snapshot::drop` → `release_pin` → `sweep_gc` never panics: GC
//!   failures are swallowed into the `cleanup_failures` health counter and
//!   retried by the next sweep, so unwinding through the drop is safe.
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

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use dt_common::{Error, RecordId, Result, Row, Value};
use dt_orcfile::ColumnBatch;

use crate::store::{Assignment, DualTableStore};
use crate::union_read::{for_each_row, UnionReadOptions};

/// A transaction's buffered effect on one committed record.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowPatch {
    /// Row deleted by this transaction (wins over updates).
    pub(crate) deleted: bool,
    /// Column ordinal → new value.
    pub(crate) updates: BTreeMap<usize, Value>,
}

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

    /// UNION READ at the pin, as merged column batches (see
    /// [`DualTableStore::for_each_batch`]). `opts.snapshot_ts` is
    /// overridden by the pin's timestamp — a snapshot has exactly one
    /// point in time.
    pub fn for_each_batch(
        &self,
        opts: &UnionReadOptions,
        mut f: impl FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let mut opts = opts.clone();
        opts.snapshot_ts = self.ts;
        self.store.pinned_for_each(self.gen, &opts, &mut f)
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

/// A snapshot-isolation transaction over one DualTable.
///
/// Reads see the pinned snapshot plus this transaction's own buffered
/// writes (read-your-own-writes); nothing is visible to other sessions
/// until [`Transaction::commit`], which applies every buffered effect in
/// one atomic attached-tier batch — after re-validating, under the
/// table's commit lock, that no other transaction committed a write to
/// the same record ids (and no OVERWRITE/COMPACT swung the generation)
/// since this transaction began. The first committer wins; losers get a
/// retryable [`Error::Conflict`] and nothing is applied.
pub struct Transaction {
    snapshot: Snapshot,
    overlay: BTreeMap<RecordId, RowPatch>,
    pending: Vec<Row>,
}

impl Transaction {
    pub(crate) fn new(snapshot: Snapshot) -> Self {
        Transaction {
            snapshot,
            overlay: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    /// The pinned generation this transaction reads.
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// The pinned snapshot timestamp.
    pub fn snapshot_ts(&self) -> u64 {
        self.snapshot.ts()
    }

    /// Committed record ids this transaction has written (its write set —
    /// the first-committer-wins conflict footprint). Buffered inserts are
    /// not in it: fresh rows can never collide with anyone.
    pub fn write_set(&self) -> Vec<RecordId> {
        self.overlay.keys().copied().collect()
    }

    /// `true` iff committing would write nothing.
    pub fn is_read_only(&self) -> bool {
        self.overlay.is_empty() && self.pending.is_empty()
    }

    fn schema_check(&self, col: usize, value: &Value) -> Result<()> {
        let schema = self.snapshot.store().schema();
        if !value.conforms_to(schema.field(col).data_type) {
            return Err(Error::schema(format!(
                "value {value:?} does not fit column '{}'",
                schema.field(col).name
            )));
        }
        Ok(())
    }

    /// Streams the committed snapshot with this transaction's overlay
    /// applied: deleted rows dropped, updated columns replaced.
    fn for_each_visible(
        &self,
        mut f: impl FnMut(RecordId, Row) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        self.snapshot
            .for_each(&UnionReadOptions::all(), |id, mut row| {
                if let Some(patch) = self.overlay.get(&id) {
                    if patch.deleted {
                        return Ok(ControlFlow::Continue(()));
                    }
                    for (&col, value) in &patch.updates {
                        row[col] = value.clone();
                    }
                }
                f(id, row)
            })
    }

    /// Buffers `UPDATE ... SET ... WHERE predicate`. Sees (and may touch)
    /// this transaction's earlier writes and buffered inserts. Returns the
    /// matched row count.
    pub fn update(
        &mut self,
        predicate: impl Fn(&Row) -> bool,
        assignments: &[Assignment<'_>],
    ) -> Result<u64> {
        let schema_len = self.snapshot.store().schema().len();
        for (col, _) in assignments {
            if *col >= schema_len {
                return Err(Error::schema(format!("assignment to unknown column {col}")));
            }
        }
        let mut matched = 0u64;
        let mut patches: Vec<(RecordId, Vec<(usize, Value)>)> = Vec::new();
        self.for_each_visible(|id, row| {
            if predicate(&row) {
                matched += 1;
                let values: Vec<(usize, Value)> =
                    assignments.iter().map(|(col, f)| (*col, f(&row))).collect();
                patches.push((id, values));
            }
            Ok(ControlFlow::Continue(()))
        })?;
        let mut pending_patches: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
        for (i, row) in self.pending.iter().enumerate() {
            if predicate(row) {
                matched += 1;
                let values: Vec<(usize, Value)> =
                    assignments.iter().map(|(col, f)| (*col, f(row))).collect();
                pending_patches.push((i, values));
            }
        }
        // Validate every new value — committed-row patches and buffered
        // inserts alike — before mutating any transaction state: a failed
        // UPDATE statement must leave the buffer untouched, or a later
        // COMMIT would persist the partial statement.
        for values in patches
            .iter()
            .map(|(_, v)| v)
            .chain(pending_patches.iter().map(|(_, v)| v))
        {
            for (col, value) in values {
                self.schema_check(*col, value)?;
            }
        }
        for (id, values) in patches {
            let patch = self.overlay.entry(id).or_default();
            for (col, value) in values {
                patch.updates.insert(col, value);
            }
        }
        for (i, values) in pending_patches {
            for (col, value) in values {
                self.pending[i][col] = value;
            }
        }
        Ok(matched)
    }

    /// Buffers `DELETE FROM ... WHERE predicate`. Returns the matched row
    /// count.
    pub fn delete(&mut self, predicate: impl Fn(&Row) -> bool) -> Result<u64> {
        let mut matched = 0u64;
        let mut hits: Vec<RecordId> = Vec::new();
        self.for_each_visible(|id, row| {
            if predicate(&row) {
                matched += 1;
                hits.push(id);
            }
            Ok(ControlFlow::Continue(()))
        })?;
        for id in hits {
            let patch = self.overlay.entry(id).or_default();
            patch.deleted = true;
            patch.updates.clear();
        }
        let before = self.pending.len();
        self.pending.retain(|row| !predicate(row));
        matched += (before - self.pending.len()) as u64;
        Ok(matched)
    }

    /// Buffers an insert. The rows become master files only at commit,
    /// under a durable undo intent (crash-atomic with the rest of the
    /// transaction).
    pub fn insert(&mut self, rows: Vec<Row>) -> Result<u64> {
        let schema = self.snapshot.store().schema();
        for row in &rows {
            if row.len() != schema.len() {
                return Err(Error::schema(format!(
                    "row arity {} does not match schema arity {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (col, value) in row.iter().enumerate() {
                self.schema_check(col, value)?;
            }
        }
        let n = rows.len() as u64;
        self.pending.extend(rows);
        Ok(n)
    }

    /// Snapshot + overlay scan of committed rows, in record-id order.
    /// Buffered inserts are not included (they have no record ids yet);
    /// use [`Transaction::rows`] for the full read-your-own-writes view.
    pub fn scan(&self) -> Result<Vec<(RecordId, Row)>> {
        let mut out = Vec::new();
        self.for_each_visible(|id, row| {
            out.push((id, row));
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(out)
    }

    /// The full read-your-own-writes view: committed rows (with overlay)
    /// followed by this transaction's buffered inserts, optionally
    /// projected.
    pub fn rows(&self, projection: Option<&[usize]>) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.for_each_visible(|_, row| {
            out.push(row);
            Ok(ControlFlow::Continue(()))
        })?;
        out.extend(self.pending.iter().cloned());
        if let Some(projection) = projection {
            for row in &mut out {
                *row = projection.iter().map(|&c| row[c].clone()).collect();
            }
        }
        Ok(out)
    }

    /// Commits every buffered effect atomically. Returns the commit
    /// timestamp. On a first-committer-wins loss, returns
    /// [`Error::Conflict`] and applies nothing — re-begin and retry.
    pub fn commit(self) -> Result<u64> {
        self.snapshot.store().commit_transaction(
            self.snapshot.generation(),
            self.snapshot.ts(),
            &self.overlay,
            self.pending,
        )
        // `self.snapshot` drops here: pin released, GC swept.
    }

    /// Discards every buffered effect. (Dropping the transaction does the
    /// same; this spelling documents intent.)
    pub fn rollback(self) {}
}
