//! The attached-table presence index (DESIGN.md §10).
//!
//! UNION READ pays two per-file costs even when a master file has no
//! modifications at all: a KV range scan over the file's record-ID range,
//! and — because a single update cell *anywhere* in the table makes stripe
//! push-down unsound *everywhere* — the loss of all predicate pruning.
//!
//! The presence index removes both, and narrows the scan of a dirty file
//! too: UNION READ opens it only when the read can see one of the file's
//! cells — a delete marker, or an overlay on a projected column
//! ([`FilePresence::visible_to`]) — and then only over the rows of the
//! stripes the file's sound predicates leave; when none survive, no scan.
//!
//! The index lives inside the attached table itself, under the reserved
//! master file ID `0` (real file IDs start at 1, see
//! [`crate::MetadataManager`]): the index row for master file `f` has row
//! key `RecordId(0, f)`, which sorts strictly before every data row, so
//! per-file data scans never see it. Its cells reuse the attached-cell
//! qualifier scheme — [`update_qualifier`]`(col)` holds the count of update
//! cells written for that column of file `f`, and
//! [`DELETE_MARKER_QUALIFIER`] holds the count of delete markers — each as
//! a big-endian `u64`.
//!
//! **Maintenance is transactional**: every EDIT-plan flush appends its
//! index increments to the same `put_batch` as the data cells, and the KV
//! store commits a batch as one fsynced WAL record — the index can never
//! drift from the data, even across crashes (a torn WAL tail drops the
//! whole record). OVERWRITE and COMPACT reset the index for free: the
//! attached-table truncate that retires the data cells retires the index
//! rows with them.
//!
//! **Snapshot soundness**: within a generation, attached cells only
//! accumulate — nothing deletes them short of the truncate at a generation
//! swap, which retires every record ID at once. Counts are therefore
//! monotone in time, and the index read at the *latest* timestamp is a
//! conservative over-approximation for every earlier snapshot: a file with
//! no index row is clean at any `snapshot_ts`, and a column listed as
//! updated may merely be "updated later". Skipping the scan for clean
//! files and withholding push-down for listed columns is thus sound for
//! time-travel reads too, and so is skipping the scan of a file none of
//! whose counted cells is a delete marker or an overlay on a projected
//! column.

use std::collections::BTreeMap;

use dt_common::{Error, RecordId, Result};

use crate::attached::{update_qualifier, DELETE_MARKER_QUALIFIER};

/// The reserved master file ID under which index rows live.
pub const PRESENCE_FILE_ID: u32 = 0;

/// Row key of the index row for master file `file_id`.
pub fn presence_key(file_id: u32) -> [u8; 8] {
    RecordId::new(PRESENCE_FILE_ID, file_id).to_key()
}

/// Qualifier for one index cell: a column's update count, or the
/// delete-marker count when `column` is `None`.
pub fn presence_qualifier(column: Option<usize>) -> [u8; 2] {
    match column {
        Some(col) => update_qualifier(col),
        None => DELETE_MARKER_QUALIFIER,
    }
}

/// Decodes a big-endian `u64` count cell.
pub fn decode_count(bytes: &[u8]) -> Result<u64> {
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| Error::corrupt("presence-index count is not 8 bytes"))?;
    Ok(u64::from_be_bytes(arr))
}

/// Encodes a count cell.
pub fn encode_count(count: u64) -> Vec<u8> {
    count.to_be_bytes().to_vec()
}

/// What the attached table holds for one master file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilePresence {
    /// Delete markers written against this file.
    pub delete_markers: u64,
    /// Update cells written against this file, per column ordinal.
    pub update_counts: BTreeMap<usize, u64>,
}

impl FilePresence {
    /// `true` iff the file has neither updates nor delete markers.
    pub fn is_clean(&self) -> bool {
        self.delete_markers == 0 && self.update_counts.values().all(|&n| n == 0)
    }

    /// `true` iff at least one update cell targets `column` — the
    /// condition under which stripe push-down on that column is unsound
    /// for this file (an overlay can move a row into a range its stripe
    /// statistics exclude).
    pub fn has_update_on(&self, column: usize) -> bool {
        self.update_counts.get(&column).copied().unwrap_or(0) > 0
    }

    /// `true` iff a read of columns `projection` can see one of this
    /// file's attached cells: a delete marker, or an update cell on a
    /// projected column. Overlays on other columns are dropped unread, so
    /// otherwise UNION READ opens no attached scan for the file.
    pub fn visible_to(&self, projection: &[usize]) -> bool {
        self.delete_markers > 0 || projection.iter().any(|&c| self.has_update_on(c))
    }
}

/// The decoded index: per-master-file presence, files ascending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PresenceIndex {
    /// Files with at least one attached cell. A file absent from this map
    /// is clean: UNION READ skips its attached scan and keeps full
    /// push-down.
    pub files: BTreeMap<u32, FilePresence>,
}

impl PresenceIndex {
    /// Presence info for one file, if it is dirty.
    pub fn file(&self, file_id: u32) -> Option<&FilePresence> {
        self.files.get(&file_id)
    }

    /// `true` iff the attached table holds anything for `file_id`.
    pub fn is_dirty(&self, file_id: u32) -> bool {
        self.files.contains_key(&file_id)
    }
}

/// Accumulates one commit's index increments: `(master file,
/// column-or-delete) → cells added`.
#[derive(Debug, Default)]
pub struct PresenceDelta {
    counts: BTreeMap<(u32, Option<usize>), u64>,
}

impl PresenceDelta {
    /// Fresh, empty delta.
    pub fn new() -> Self {
        PresenceDelta::default()
    }

    /// Records `n` update cells on `column` of `record`'s file.
    pub fn add_updates(&mut self, file_id: u32, column: usize, n: u64) {
        *self.counts.entry((file_id, Some(column))).or_insert(0) += n;
    }

    /// Records one delete marker on `record`'s file.
    pub fn add_delete(&mut self, file_id: u32) {
        *self.counts.entry((file_id, None)).or_insert(0) += 1;
    }

    /// Takes the accumulated increments, leaving the delta empty.
    pub fn drain(&mut self) -> BTreeMap<(u32, Option<usize>), u64> {
        std::mem::take(&mut self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_rows_sort_before_every_data_row() {
        // File IDs start at 1; the index row for any file sorts before the
        // first data row of file 1.
        let first_data = RecordId::file_start(1).to_key();
        assert!(presence_key(u32::MAX) < first_data);
        assert!(presence_key(0) < first_data);
    }

    #[test]
    fn count_codec_roundtrip() {
        assert_eq!(decode_count(&encode_count(0)).unwrap(), 0);
        assert_eq!(decode_count(&encode_count(u64::MAX)).unwrap(), u64::MAX);
        assert!(decode_count(b"short").is_err());
    }

    #[test]
    fn delta_accumulates_and_drains() {
        let mut d = PresenceDelta::new();
        d.add_updates(3, 1, 2);
        d.add_updates(3, 1, 1);
        d.add_delete(3);
        d.add_delete(7);
        let drained = d.drain();
        assert!(d.drain().is_empty());
        assert_eq!(drained[&(3, Some(1))], 3);
        assert_eq!(drained[&(3, None)], 1);
        assert_eq!(drained[&(7, None)], 1);
    }

    #[test]
    fn file_presence_cleanliness_and_pushdown_query() {
        let mut p = FilePresence::default();
        assert!(p.is_clean());
        p.update_counts.insert(2, 5);
        assert!(!p.is_clean());
        assert!(p.has_update_on(2));
        assert!(!p.has_update_on(0));
        let d = FilePresence {
            delete_markers: 1,
            ..Default::default()
        };
        assert!(!d.is_clean());
        assert!(!d.has_update_on(0), "delete markers never block push-down");

        assert!(p.visible_to(&[0, 2]));
        assert!(!p.visible_to(&[0, 1]), "overlays on unread columns");
        assert!(!p.visible_to(&[]));
        assert!(d.visible_to(&[]), "a delete marker drops a row of any read");
    }
}
