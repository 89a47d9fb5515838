//! Attached-Table cell layout (paper §V-B).
//!
//! * row key = the 8-byte big-endian record ID ([`RecordId::to_key`]);
//! * UPDATE info: qualifier = the updated column's 2-byte big-endian
//!   ordinal, cell value = the encoded new field value;
//! * DELETE info: a marker cell under the reserved qualifier
//!   [`DELETE_MARKER_QUALIFIER`].
//!
//! Because record IDs are big-endian and the KV store scans row keys in
//! lexicographic order, the attached scan order equals master scan order.

use dt_common::codec::{decode_value, encode_value};
use dt_common::{Error, RecordId, Result, Value};
use dt_kvstore::{CellKey, Mutation, RowEntry};

/// Qualifier of the delete marker ("a special HBase cell", §V-B). Column
/// ordinals are bounded by the schema width, so `0xFFFF` cannot collide.
pub const DELETE_MARKER_QUALIFIER: [u8; 2] = [0xFF, 0xFF];

/// Qualifier bytes for an updated column ordinal.
pub fn update_qualifier(column: usize) -> [u8; 2] {
    debug_assert!(column < 0xFFFF, "column ordinal out of qualifier range");
    (column as u16).to_be_bytes()
}

/// One record's resolved modification state from the Attached Table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttachedEntry {
    /// Which master row this entry modifies.
    pub record: RecordId,
    /// `true` iff a delete marker is present (deletes dominate updates).
    pub deleted: bool,
    /// Updated cells: `(column ordinal, new value)`, ordinals ascending.
    pub updates: Vec<(usize, Value)>,
}

impl AttachedEntry {
    /// Parses one KV row into an entry.
    pub fn from_row(row: &RowEntry) -> Result<Self> {
        let record = RecordId::from_key(&row.row)
            .ok_or_else(|| Error::corrupt("attached row key is not a record ID"))?;
        let mut deleted = false;
        let mut updates = Vec::new();
        let mut delete_ts = 0u64;
        for (qual, ts, value) in &row.cells {
            if qual.as_slice() == DELETE_MARKER_QUALIFIER {
                deleted = true;
                delete_ts = *ts;
                continue;
            }
            let bytes: [u8; 2] = qual
                .as_slice()
                .try_into()
                .map_err(|_| Error::corrupt("attached qualifier is not a column ordinal"))?;
            let column = u16::from_be_bytes(bytes) as usize;
            updates.push((column, *ts, decode_value(value)?));
        }
        // An update issued after a delete marker is unreachable through
        // UNION READ (the row is gone), but multi-version history can hold
        // both; updates older than the marker are shadowed by it.
        let updates = updates
            .into_iter()
            .filter(|(_, ts, _)| !deleted || *ts > delete_ts)
            .map(|(c, _, v)| (c, v))
            .collect();
        Ok(AttachedEntry {
            record,
            deleted,
            updates,
        })
    }
}

/// Builds the KV cells for an EDIT-plan UPDATE of one record.
pub fn update_cells(record: RecordId, assignments: &[(usize, Value)]) -> Vec<(CellKey, Mutation)> {
    let cell = |(column, value): &(usize, Value)| {
        let key = CellKey::new(record.to_key(), update_qualifier(*column));
        (key, Mutation::Put(encode_value(value)))
    };
    assignments.iter().map(cell).collect()
}

/// Builds the KV cell for an EDIT-plan DELETE of one record.
pub fn delete_cell(record: RecordId) -> (CellKey, Mutation) {
    let key = CellKey::new(record.to_key(), DELETE_MARKER_QUALIFIER);
    (key, Mutation::Put(Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_cells_roundtrip_through_row_entry() {
        let record = RecordId::new(3, 17);
        let cells = update_cells(record, &[(2, Value::Int64(9)), (0, Value::from("x"))]);
        let row = RowEntry {
            row: record.to_key().to_vec(),
            cells: cells
                .iter()
                .enumerate()
                .map(|(i, (k, m))| (k.qual.clone(), i as u64 + 1, m.value().unwrap().to_vec()))
                .collect(),
        };
        let entry = AttachedEntry::from_row(&row).unwrap();
        assert_eq!(entry.record, record);
        assert!(!entry.deleted);
        assert_eq!(entry.updates.len(), 2);
        assert!(entry.updates.contains(&(2, Value::Int64(9))));
        assert!(entry.updates.contains(&(0, Value::from("x"))));
    }

    #[test]
    fn delete_marker_dominates_older_updates() {
        let record = RecordId::new(1, 1);
        let (key, marker) = delete_cell(record);
        let (rk, dq, dv) = (key.row, key.qual, marker.value().unwrap().to_vec());
        let row = RowEntry {
            row: rk,
            cells: vec![
                (
                    update_qualifier(0).to_vec(),
                    1,
                    encode_value(&Value::Int64(5)),
                ),
                (dq, 2, dv),
            ],
        };
        let entry = AttachedEntry::from_row(&row).unwrap();
        assert!(entry.deleted);
        assert!(entry.updates.is_empty());
    }

    #[test]
    fn bad_key_rejected() {
        let row = RowEntry {
            row: vec![1, 2, 3],
            cells: vec![],
        };
        assert!(AttachedEntry::from_row(&row).is_err());
    }
}
