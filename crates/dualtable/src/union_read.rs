//! UNION READ (paper §III-C): merge one master file's rows with the
//! Attached Table entries for its record-ID range.
//!
//! Record IDs within an ORC file ascend with the row number, and attached
//! row keys are big-endian record IDs, so both inputs arrive sorted and a
//! single forward pass suffices — "it only needs to read through and merge
//! two sorted ID lists" (§V-B).

use std::borrow::Cow;
use std::ops::ControlFlow;

use dt_common::{Error, RecordId, Result, Row};
use dt_kvstore::ScanIter;
use dt_orcfile::{ColumnBatch, ColumnPredicate, OrcReader};

use crate::attached::AttachedEntry;

/// Options for UNION READ scans.
#[derive(Debug, Clone, Default)]
pub struct UnionReadOptions {
    /// Columns to materialize, in order; `None` = all columns.
    pub projection: Option<Vec<usize>>,
    /// Stripe-skipping predicates.
    ///
    /// Applied per master file and per column: a predicate on column `c`
    /// is pushed down for file `f` unless the presence index says `f` has
    /// an update overlay on `c` (an overlay can move a row into a range
    /// its stripe statistics exclude). Delete markers never un-skip a
    /// stripe, so they don't block push-down. See DESIGN.md §18 for the
    /// soundness argument.
    pub predicates: Option<Vec<ColumnPredicate>>,
    /// Read at this attached-tier snapshot timestamp (`u64::MAX` = latest)
    /// — time-travel over the attached table's multi-version history.
    pub snapshot_ts: u64,
}

impl UnionReadOptions {
    /// Default options reading everything at the latest snapshot.
    pub fn all() -> Self {
        UnionReadOptions {
            projection: None,
            predicates: None,
            snapshot_ts: u64::MAX,
        }
    }

    /// Restricts to the given columns.
    pub fn with_projection(mut self, projection: Vec<usize>) -> Self {
        self.projection = Some(projection);
        self
    }
}

/// The one in-memory form of an EDIT — what an autocommit statement
/// commits at once, what a transaction buffers until COMMIT, and, for the
/// transaction's own reads, the second patch source of UNION READ next to
/// the attached range.
#[derive(Debug, Default, Clone)]
pub(crate) struct PatchSet {
    /// Patches of committed records, ascending by record ID.
    pub(crate) rows: Vec<AttachedEntry>,
    /// Inserted rows: master files only at commit, one trailing batch of
    /// [`INSERTS_FILE_ID`] to its owner's scans until then.
    pub(crate) inserts: Vec<Row>,
}

/// The file ID a patch set's buffered inserts are scanned under (row
/// number = position): no master file has it, real IDs start at 1.
pub(crate) const INSERTS_FILE_ID: u32 = 0;

/// The patch set of every reader but an open transaction.
pub(crate) static NO_PATCHES: PatchSet = PatchSet {
    rows: Vec::new(),
    inserts: Vec::new(),
};

impl PatchSet {
    /// `true` iff committing would write nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.inserts.is_empty()
    }

    /// Folds one statement's patches in, as the locate-scan found them
    /// under this set: ascending, those of buffered inserts last. A record
    /// both hold keeps its earlier updates under the later ones, a delete
    /// wins over everything before it, and a buffered insert changes (or
    /// goes) in place.
    pub(crate) fn absorb(&mut self, mut statement: Vec<AttachedEntry>) {
        let ours = statement.partition_point(|p| p.record.file_id != INSERTS_FILE_ID);
        // A deleted insert is emptied, then swept: a table has at least
        // one column, so no live row is empty.
        for patch in statement.split_off(ours) {
            let row = &mut self.inserts[patch.record.row as usize];
            if patch.deleted {
                row.clear();
            }
            for (col, value) in patch.updates {
                row[col] = value;
            }
        }
        self.inserts.retain(|row| !row.is_empty());
        self.rows.extend(statement);
        // Stable, and linear on two ascending runs: equal records stay in
        // statement order.
        self.rows.sort_by_key(|p| p.record);
        self.rows.dedup_by(|later, earlier| {
            let same = later.record == earlier.record;
            if same && later.deleted {
                std::mem::swap(later, earlier);
            } else if same {
                let kept = |(col, _): &(usize, _)| later.updates.iter().all(|(c, _)| c != col);
                earlier.updates.retain(kept);
                earlier.updates.append(&mut later.updates);
            }
            same
        });
    }
}

/// What a UNION READ hands its consumer: a master file's ID and one of its
/// stripes as a merged [`ColumnBatch`]. `Break` stops the scan.
pub(crate) type BatchFn<'a> = dyn FnMut(u32, ColumnBatch) -> Result<ControlFlow<()>> + 'a;

/// The half of a UNION READ consumer that may run on any worker: a master
/// file's ID and one merged batch in, what the consumer keeps out.
pub type MapFn<'a, T> = dyn Fn(u32, ColumnBatch) -> Result<T> + Sync + 'a;

/// The half that runs on the statement's thread, in scan order; `Break`
/// stops the scan.
pub type ConsumeFn<'a, T> = dyn FnMut(T) -> Result<ControlFlow<()>> + 'a;

/// Merges one master file with its two patch sources, batch in, batch out:
/// each surviving stripe gets its update overlays patched in by row number
/// and its delete markers applied as the batch's selection vector, then
/// goes to `f`. Returns `Break` if the callback stopped the scan.
///
/// `attached` must be a scan within this file's record-ID range that
/// covers the rows from the first stripe `predicates` leave to the end of
/// the last one, or `None` when the read can see none of the file's cells
/// (`DualTableStore::merge_master` decides which); `patches` are a
/// statement's or transaction's own uncommitted entries for this file,
/// ascending, applied on top. With neither, batches pass through
/// untouched, with no KV work at all. `projection` lists the decoded
/// column ordinals (absolute); overlays on other columns are dropped.
/// `predicates` only skip stripes; entries for rows in a skipped stripe
/// are discarded.
pub(crate) fn merge_file(
    file_id: u32,
    reader: &OrcReader,
    projection: &[usize],
    predicates: Option<&[ColumnPredicate]>,
    attached: Option<ScanIter>,
    mut patches: &[AttachedEntry],
    f: &mut BatchFn<'_>,
) -> Result<ControlFlow<()>> {
    let mut attached = attached.map(Iterator::peekable);
    let pos_of = positions(reader.schema().len(), projection);
    for batch in reader.batches(Some(projection), predicates)? {
        let mut batch = batch?;
        let end = batch.row_start() + batch.rows() as u64;
        if end > u64::from(u32::MAX) + 1 {
            return Err(Error::corrupt("row number exceeds record-ID range"));
        }
        // Every input ascends by record ID: consume the entries up to this
        // batch's last row, then leave the rest for the next batch.
        let stored = std::iter::from_fn(|| {
            let kv_row = attached.as_mut()?.next_if(|kv| {
                let row = kv.as_ref().ok().and_then(|kv| RecordId::from_key(&kv.row));
                row.is_none_or(|r| u64::from(r.row) < end)
            })?;
            Some(
                kv_row
                    .and_then(|kv| AttachedEntry::from_row(&kv))
                    .map(Cow::Owned),
            )
        });
        let ours = patches.partition_point(|p| u64::from(p.record.row) < end);
        let (ours, later) = patches.split_at(ours);
        patches = later;
        patch_batch(
            &mut batch,
            &pos_of,
            stored.chain(ours.iter().map(|p| Ok(Cow::Borrowed(p)))),
        )?;
        if f(file_id, batch)?.is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
    Ok(ControlFlow::Continue(()))
}

/// Position of each absolute column ordinal within a batch of
/// `projection`.
pub(crate) fn positions(width: usize, projection: &[usize]) -> Vec<Option<usize>> {
    let mut pos_of = vec![None; width];
    for (pos, col) in projection.iter().enumerate() {
        pos_of[*col] = Some(pos);
    }
    pos_of
}

/// Patches `entries` into one batch — the one way a modification reaches
/// rows, whichever source it comes from (the attached range, a reader's
/// own patch set, the matches of an OVERWRITE-plan statement): update
/// overlays are written in by row number (those on columns the batch
/// lacks are dropped), delete markers leave the batch's selection. An
/// entry for a row some skipped stripe holds is discarded.
pub(crate) fn patch_batch<'a>(
    batch: &mut ColumnBatch,
    pos_of: &[Option<usize>],
    entries: impl Iterator<Item = Result<Cow<'a, AttachedEntry>>>,
) -> Result<()> {
    let mut deleted = Vec::new();
    for entry in entries {
        let entry = entry?;
        let Some(i) = u64::from(entry.record.row).checked_sub(batch.row_start()) else {
            continue;
        };
        if entry.deleted {
            deleted.push(i as u32);
            continue;
        }
        for (column, value) in entry.into_owned().updates {
            if let Some(pos) = pos_of.get(column).copied().flatten() {
                batch.column_mut(pos).set(i as usize, value)?;
            }
        }
    }
    if !deleted.is_empty() {
        // Each source ascends; together they need not.
        deleted.sort_unstable();
        let mut deleted = deleted.into_iter().peekable();
        let kept = batch.selected().map(|i| i as u32).filter(|i| {
            // Skip what an earlier patch already dropped, and duplicates.
            while deleted.next_if(|d| d < i).is_some() {}
            deleted.peek() != Some(i)
        });
        let kept = kept.collect();
        batch.select(kept);
    }
    Ok(())
}

/// The row-at-a-time view of a merged batch: `(record id, row)` per
/// surviving row.
pub(crate) fn for_each_row(
    file_id: u32,
    batch: &ColumnBatch,
    f: &mut dyn FnMut(RecordId, Row) -> Result<ControlFlow<()>>,
) -> Result<ControlFlow<()>> {
    for i in batch.selected() {
        let record = RecordId::new(file_id, (batch.row_start() + i as u64) as u32);
        if f(record, batch.row(i))?.is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
    Ok(ControlFlow::Continue(()))
}
