//! Cell keys, versions and mutations.

use dt_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use dt_common::{Error, Result};

/// Qualifier reserved for row-level tombstones (HBase's `DeleteFamily`
/// marker). User qualifiers must not collide; the store rejects puts with
/// this qualifier.
pub const ROW_TOMBSTONE_QUALIFIER: &[u8] = b"\xff\xff\xff\xf0row-tomb";

/// Addresses one logical cell: `(row key, column qualifier)`.
///
/// Ordering is `(row, qualifier)` lexicographic — scan order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Row key bytes.
    pub row: Vec<u8>,
    /// Column qualifier bytes.
    pub qual: Vec<u8>,
}

impl CellKey {
    /// Creates a cell key.
    pub fn new(row: impl Into<Vec<u8>>, qual: impl Into<Vec<u8>>) -> Self {
        CellKey {
            row: row.into(),
            qual: qual.into(),
        }
    }
}

/// One timestamped version of a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Logical timestamp assigned at write time; larger = newer.
    pub ts: u64,
    /// The mutation recorded at that timestamp.
    pub mutation: Mutation,
}

/// What a write did to a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Sets the cell to a value.
    Put(Vec<u8>),
    /// Deletes the cell (tombstone).
    Delete,
}

impl Mutation {
    /// `true` iff this is a tombstone.
    pub fn is_delete(&self) -> bool {
        matches!(self, Mutation::Delete)
    }

    /// The put payload, if any.
    pub fn value(&self) -> Option<&[u8]> {
        match self {
            Mutation::Put(v) => Some(v),
            Mutation::Delete => None,
        }
    }
}

const KIND_PUT: u8 = 0;
const KIND_DELETE: u8 = 1;
// WAL-only kinds: shadow-tier entries ride the group-commit log without
// ever entering the memtable or an SSTable (DESIGN.md §17), so SSTable
// decoding (`decode_entry`) rejects them.
const KIND_SHADOW_PUT: u8 = 2;
const KIND_SHADOW_DELETE: u8 = 3;
const KIND_SHADOW_RETIRE: u8 = 4;

/// One logical operation in a WAL record. `Data` entries replay into the
/// memtable; `Shadow` entries replay into the in-memory shadow tier; a
/// `ShadowRetire(t)` marker drops every shadow entry with `ts <= t` (the
/// durable half of a spill, whose re-encoded `Data` copies precede it in
/// the same record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalEntry {
    Data(CellKey, Version),
    Shadow(CellKey, Version),
    ShadowRetire(u64),
}

/// Serializes one `(key, version)` entry (shared by the WAL, SSTables and
/// the table tier's commit decision records).
pub fn encode_entry(buf: &mut Vec<u8>, key: &CellKey, version: &Version) {
    put_bytes(buf, &key.row);
    put_bytes(buf, &key.qual);
    put_uvarint(buf, version.ts);
    match &version.mutation {
        Mutation::Put(v) => {
            buf.push(KIND_PUT);
            put_bytes(buf, v);
        }
        Mutation::Delete => buf.push(KIND_DELETE),
    }
}

/// Inverse of [`encode_entry`].
pub fn decode_entry(buf: &[u8], pos: &mut usize) -> Result<(CellKey, Version)> {
    let row = get_bytes(buf, pos)?.to_vec();
    let qual = get_bytes(buf, pos)?.to_vec();
    let ts = get_uvarint(buf, pos)?;
    let kind = *buf
        .get(*pos)
        .ok_or_else(|| Error::corrupt("truncated entry kind"))?;
    *pos += 1;
    let mutation = match kind {
        KIND_PUT => Mutation::Put(get_bytes(buf, pos)?.to_vec()),
        KIND_DELETE => Mutation::Delete,
        other => return Err(Error::corrupt(format!("unknown entry kind {other}"))),
    };
    Ok((CellKey { row, qual }, Version { ts, mutation }))
}

/// Serializes one WAL operation. Data entries use the SSTable entry
/// encoding ([`encode_entry`]).
pub(crate) fn encode_wal_entry(buf: &mut Vec<u8>, entry: &WalEntry) {
    match entry {
        WalEntry::Data(key, version) => encode_entry(buf, key, version),
        WalEntry::Shadow(key, version) => {
            put_bytes(buf, &key.row);
            put_bytes(buf, &key.qual);
            put_uvarint(buf, version.ts);
            match &version.mutation {
                Mutation::Put(v) => {
                    buf.push(KIND_SHADOW_PUT);
                    put_bytes(buf, v);
                }
                Mutation::Delete => buf.push(KIND_SHADOW_DELETE),
            }
        }
        WalEntry::ShadowRetire(ts) => {
            put_bytes(buf, &[]);
            put_bytes(buf, &[]);
            put_uvarint(buf, *ts);
            buf.push(KIND_SHADOW_RETIRE);
        }
    }
}

/// Inverse of [`encode_wal_entry`].
pub(crate) fn decode_wal_entry(buf: &[u8], pos: &mut usize) -> Result<WalEntry> {
    let row = get_bytes(buf, pos)?.to_vec();
    let qual = get_bytes(buf, pos)?.to_vec();
    let ts = get_uvarint(buf, pos)?;
    let kind = *buf
        .get(*pos)
        .ok_or_else(|| Error::corrupt("truncated entry kind"))?;
    *pos += 1;
    Ok(match kind {
        KIND_PUT => WalEntry::Data(
            CellKey { row, qual },
            Version {
                ts,
                mutation: Mutation::Put(get_bytes(buf, pos)?.to_vec()),
            },
        ),
        KIND_DELETE => WalEntry::Data(
            CellKey { row, qual },
            Version {
                ts,
                mutation: Mutation::Delete,
            },
        ),
        KIND_SHADOW_PUT => WalEntry::Shadow(
            CellKey { row, qual },
            Version {
                ts,
                mutation: Mutation::Put(get_bytes(buf, pos)?.to_vec()),
            },
        ),
        KIND_SHADOW_DELETE => WalEntry::Shadow(
            CellKey { row, qual },
            Version {
                ts,
                mutation: Mutation::Delete,
            },
        ),
        KIND_SHADOW_RETIRE => WalEntry::ShadowRetire(ts),
        other => return Err(Error::corrupt(format!("unknown entry kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrip() {
        let key = CellKey::new(b"row".to_vec(), b"qual".to_vec());
        for mutation in [Mutation::Put(b"value".to_vec()), Mutation::Delete] {
            let v = Version { ts: 42, mutation };
            let mut buf = Vec::new();
            encode_entry(&mut buf, &key, &v);
            let mut pos = 0;
            let (k2, v2) = decode_entry(&buf, &mut pos).unwrap();
            assert_eq!(k2, key);
            assert_eq!(v2, v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn wal_entry_roundtrip_all_flavors() {
        let key = CellKey::new(b"row".to_vec(), b"qual".to_vec());
        let entries = vec![
            WalEntry::Data(
                key.clone(),
                Version {
                    ts: 7,
                    mutation: Mutation::Put(b"v".to_vec()),
                },
            ),
            WalEntry::Shadow(
                key.clone(),
                Version {
                    ts: 8,
                    mutation: Mutation::Put(b"w".to_vec()),
                },
            ),
            WalEntry::Shadow(
                key.clone(),
                Version {
                    ts: 9,
                    mutation: Mutation::Delete,
                },
            ),
            WalEntry::ShadowRetire(9),
        ];
        for entry in &entries {
            let mut buf = Vec::new();
            encode_wal_entry(&mut buf, entry);
            let mut pos = 0;
            assert_eq!(&decode_wal_entry(&buf, &mut pos).unwrap(), entry);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn sstable_decoder_rejects_shadow_kinds() {
        let mut buf = Vec::new();
        encode_wal_entry(
            &mut buf,
            &WalEntry::Shadow(
                CellKey::new(b"r".to_vec(), b"q".to_vec()),
                Version {
                    ts: 1,
                    mutation: Mutation::Delete,
                },
            ),
        );
        let mut pos = 0;
        assert!(decode_entry(&buf, &mut pos).is_err());
    }

    #[test]
    fn cell_key_orders_row_then_qual() {
        let a = CellKey::new(b"a".to_vec(), b"z".to_vec());
        let b = CellKey::new(b"b".to_vec(), b"a".to_vec());
        assert!(a < b);
        let c = CellKey::new(b"a".to_vec(), b"a".to_vec());
        assert!(c < a);
    }

    #[test]
    fn decode_rejects_garbage_kind() {
        let key = CellKey::new(b"r".to_vec(), b"q".to_vec());
        let mut buf = Vec::new();
        encode_entry(
            &mut buf,
            &key,
            &Version {
                ts: 1,
                mutation: Mutation::Delete,
            },
        );
        let last = buf.len() - 1;
        buf[last] = 99;
        let mut pos = 0;
        assert!(decode_entry(&buf, &mut pos).is_err());
    }
}
