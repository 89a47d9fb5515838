//! Immutable sorted string tables.
//!
//! Layout:
//!
//! ```text
//! [data block 0][data block 1]…[index block][bloom block][footer]
//! ```
//!
//! * data blocks: consecutive `(CellKey, Version)` entries in `(key asc,
//!   ts desc)` order, cut near `block_size` bytes at entry boundaries;
//! * index block: for every data block, its first key, offset and length;
//! * bloom block: a bloom filter over row keys;
//! * footer (fixed 48 bytes): offsets/lengths of index and bloom blocks,
//!   entry count, a CRC of the index+bloom region, and a magic number.
//!
//! Point reads consult the bloom filter, binary-search the index and scan at
//! most a handful of blocks; range scans stream blocks sequentially.

use std::sync::Arc;

use dt_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use dt_common::crc32::crc32;
use dt_common::{Error, Result};

use crate::bloom::BloomFilter;
use crate::cell::{decode_entry, encode_entry, CellKey, Version};
use crate::env::Env;
use crate::KvCounters;

const MAGIC: u64 = 0x4454_5353_5441_424C; // "DTSSTABL"
const FOOTER_LEN: usize = 56;

/// Builds an SSTable from entries supplied in sorted order.
pub(crate) struct SsTableBuilder {
    data: Vec<u8>,
    block_start: usize,
    block_size: usize,
    index: Vec<(CellKey, u64, u64)>,
    bloom: BloomFilter,
    first_in_block: bool,
    last_key: Option<CellKey>,
    entry_count: u64,
    max_ts: u64,
}

impl SsTableBuilder {
    pub fn new(expected_entries: usize, block_size: usize) -> Self {
        SsTableBuilder {
            data: Vec::new(),
            block_start: 0,
            block_size: block_size.max(64),
            index: Vec::new(),
            bloom: BloomFilter::new(expected_entries, 10),
            first_in_block: true,
            last_key: None,
            entry_count: 0,
            max_ts: 0,
        }
    }

    /// Adds the next entry; keys must be non-decreasing and versions of one
    /// key must arrive newest-first.
    pub fn add(&mut self, key: &CellKey, version: &Version) -> Result<()> {
        if let Some(last) = &self.last_key {
            if key < last {
                return Err(Error::internal(format!(
                    "SSTable entries out of order: {key:?} after {last:?}"
                )));
            }
        }
        if self.first_in_block {
            self.index.push((key.clone(), self.block_start as u64, 0));
            self.first_in_block = false;
        }
        self.bloom.insert(&key.row);
        encode_entry(&mut self.data, key, version);
        self.entry_count += 1;
        self.max_ts = self.max_ts.max(version.ts);
        self.last_key = Some(key.clone());
        if self.data.len() - self.block_start >= self.block_size {
            self.seal_block();
        }
        Ok(())
    }

    fn seal_block(&mut self) {
        if self.first_in_block {
            // Current block is empty (e.g. the previous add sealed exactly
            // at the threshold); nothing to record.
            return;
        }
        if let Some(last) = self.index.last_mut() {
            last.2 = (self.data.len() - self.block_start) as u64;
        }
        self.block_start = self.data.len();
        self.first_in_block = true;
    }

    /// Serializes the table into one buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.seal_block();
        let index_off = self.data.len() as u64;
        let mut meta = Vec::new();
        put_uvarint(&mut meta, self.index.len() as u64);
        for (key, off, len) in &self.index {
            put_bytes(&mut meta, &key.row);
            put_bytes(&mut meta, &key.qual);
            put_uvarint(&mut meta, *off);
            put_uvarint(&mut meta, *len);
        }
        let index_len = meta.len() as u64;
        let bloom_off = index_off + index_len;
        let mut bloom_buf = Vec::new();
        self.bloom.encode(&mut bloom_buf);
        let bloom_len = bloom_buf.len() as u64;
        meta.extend_from_slice(&bloom_buf);
        let meta_crc = crc32(&meta);

        let mut out = self.data;
        out.extend_from_slice(&meta);
        out.extend_from_slice(&index_off.to_le_bytes());
        out.extend_from_slice(&index_len.to_le_bytes());
        out.extend_from_slice(&bloom_off.to_le_bytes());
        out.extend_from_slice(&bloom_len.to_le_bytes());
        out.extend_from_slice(&self.entry_count.to_le_bytes());
        out.extend_from_slice(&self.max_ts.to_le_bytes());
        out.extend_from_slice(&(u64::from(meta_crc) << 32 | (MAGIC & 0xFFFF_FFFF)).to_le_bytes());
        out
    }
}

/// An open, immutable SSTable: index and bloom resident, data blocks read
/// on demand.
///
/// Deletion is deferred, POSIX-unlink style: compaction marks replaced
/// tables *obsolete* and the backing file is removed only when the last
/// reference (e.g. an in-flight scan) drops.
pub(crate) struct SsTable {
    env: Arc<dyn Env>,
    name: String,
    obsolete: std::sync::atomic::AtomicBool,
    index: Vec<(CellKey, u64, u64)>,
    bloom: BloomFilter,
    entry_count: u64,
    max_ts: u64,
    /// Byte length of the data-block region (equals the index offset).
    #[allow(dead_code)]
    pub(crate) data_len: u64,
    stats: Arc<KvCounters>,
}

impl SsTable {
    /// Opens a table file, validating footer magic and metadata CRC.
    pub fn open(env: Arc<dyn Env>, name: String, stats: Arc<KvCounters>) -> Result<Self> {
        let total = env.len(&name)?;
        if (total as usize) < FOOTER_LEN {
            return Err(Error::corrupt(format!("sstable '{name}' too short")));
        }
        let mut footer = vec![0u8; FOOTER_LEN];
        env.read_at(&name, total - FOOTER_LEN as u64, &mut footer)?;
        let index_off = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let index_len = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let bloom_off = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let bloom_len = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        let entry_count = u64::from_le_bytes(footer[32..40].try_into().unwrap());
        let max_ts = u64::from_le_bytes(footer[40..48].try_into().unwrap());
        let tail = u64::from_le_bytes(footer[48..56].try_into().unwrap());
        if tail & 0xFFFF_FFFF != MAGIC & 0xFFFF_FFFF {
            return Err(Error::corrupt(format!("sstable '{name}': bad magic")));
        }
        let meta_crc = (tail >> 32) as u32;
        let meta_len = (index_len + bloom_len) as usize;
        // Checked arithmetic: a torn file can put arbitrary bytes where
        // the footer belongs, and a wild offset must surface as Corrupt,
        // not an overflow panic.
        if index_off.checked_add(index_len) != Some(bloom_off)
            || bloom_off.checked_add(bloom_len) != Some(total - FOOTER_LEN as u64)
        {
            return Err(Error::corrupt(format!("sstable '{name}': bad layout")));
        }
        let mut meta = vec![0u8; meta_len];
        env.read_at(&name, index_off, &mut meta)?;
        if crc32(&meta) != meta_crc {
            return Err(Error::corrupt(format!(
                "sstable '{name}': metadata CRC mismatch"
            )));
        }
        let mut pos = 0usize;
        let n = get_uvarint(&meta, &mut pos)? as usize;
        let mut index = Vec::with_capacity(n);
        for _ in 0..n {
            let row = get_bytes(&meta, &mut pos)?.to_vec();
            let qual = get_bytes(&meta, &mut pos)?.to_vec();
            let off = get_uvarint(&meta, &mut pos)?;
            let len = get_uvarint(&meta, &mut pos)?;
            index.push((CellKey { row, qual }, off, len));
        }
        let bloom = BloomFilter::decode(&meta, &mut pos)?;
        Ok(SsTable {
            env,
            name,
            obsolete: std::sync::atomic::AtomicBool::new(false),
            index,
            bloom,
            entry_count,
            max_ts,
            data_len: index_off,
            stats,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Marks the table as replaced by a compaction; its file is deleted
    /// once the last handle (scan) drops.
    pub fn mark_obsolete(&self) {
        self.obsolete
            .store(true, std::sync::atomic::Ordering::Release);
    }

    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Largest timestamp stored in the file (used to resume the logical
    /// clock when a store is reopened).
    pub fn max_ts(&self) -> u64 {
        self.max_ts
    }

    /// Total file bytes (data + metadata).
    pub fn file_len(&self) -> Result<u64> {
        self.env.len(&self.name)
    }

    /// `false` means no entry with this row key exists.
    pub fn may_contain_row(&self, row: &[u8]) -> bool {
        self.bloom.may_contain(row)
    }

    fn read_block(&self, i: usize) -> Result<Vec<u8>> {
        let (_, off, len) = &self.index[i];
        let mut buf = vec![0u8; *len as usize];
        self.stats.seeks.inc();
        self.stats.bytes_read.add(*len);
        self.stats.read_ops.inc();
        self.env.read_at(&self.name, *off, &mut buf)?;
        Ok(buf)
    }

    /// Index of the first block that could contain `key`.
    ///
    /// A block whose *first* key equals `key` may be preceded by blocks
    /// ending with older/newer versions of the same key, so we walk back to
    /// the last block whose first key is strictly less (or block 0).
    fn seek_block(&self, key: &CellKey) -> usize {
        let mut i = match self.index.binary_search_by(|(first, _, _)| first.cmp(key)) {
            Ok(i) => i,
            Err(0) => return 0,
            Err(i) => i - 1,
        };
        while i > 0 && self.index[i].0 == *key {
            i -= 1;
        }
        i
    }

    /// All versions of one cell, newest first.
    pub fn get(&self, key: &CellKey) -> Result<Vec<Version>> {
        if self.index.is_empty() || !self.bloom.may_contain(&key.row) {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let mut block = self.seek_block(key);
        'blocks: while block < self.index.len() {
            let data = self.read_block(block)?;
            let mut pos = 0usize;
            while pos < data.len() {
                let (k, v) = decode_entry(&data, &mut pos)?;
                match k.cmp(key) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => out.push(v),
                    std::cmp::Ordering::Greater => break 'blocks,
                }
            }
            block += 1;
        }
        Ok(out)
    }

    /// Streams entries whose row key is in `[start, end)`, in key order.
    /// The iterator shares ownership of the table, so it can outlive the
    /// caller's borrow (scans hold no store locks).
    pub fn iter(self: &Arc<Self>, start: Option<Vec<u8>>, end: Option<Vec<u8>>) -> SsTableIter {
        let block = match &start {
            Some(row) => self.seek_block(&CellKey::new(row.clone(), Vec::new())),
            None => 0,
        };
        SsTableIter {
            table: Arc::clone(self),
            block,
            data: Vec::new(),
            pos: 0,
            loaded: false,
            start,
            end,
            done: false,
        }
    }
}

impl Drop for SsTable {
    fn drop(&mut self) {
        if self.obsolete.load(std::sync::atomic::Ordering::Acquire) {
            // Best-effort: destroy() may have removed it already.
            let _ = self.env.delete(&self.name);
        }
    }
}

/// Streaming iterator over an SSTable's entries.
pub(crate) struct SsTableIter {
    table: Arc<SsTable>,
    block: usize,
    data: Vec<u8>,
    pos: usize,
    loaded: bool,
    start: Option<Vec<u8>>,
    end: Option<Vec<u8>>,
    done: bool,
}

impl SsTableIter {
    fn next_entry(&mut self) -> Result<Option<(CellKey, Version)>> {
        if self.done {
            return Ok(None);
        }
        loop {
            if !self.loaded {
                if self.block >= self.table.index.len() {
                    self.done = true;
                    return Ok(None);
                }
                self.data = self.table.read_block(self.block)?;
                self.pos = 0;
                self.loaded = true;
            }
            while self.pos < self.data.len() {
                let (k, v) = decode_entry(&self.data, &mut self.pos)?;
                if let Some(s) = &self.start {
                    if k.row.as_slice() < s.as_slice() {
                        continue;
                    }
                }
                if let Some(e) = &self.end {
                    if k.row.as_slice() >= e.as_slice() {
                        self.done = true;
                        return Ok(None);
                    }
                }
                return Ok(Some((k, v)));
            }
            self.block += 1;
            self.loaded = false;
        }
    }
}

impl Iterator for SsTableIter {
    type Item = Result<(CellKey, Version)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_entry().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Mutation;
    use crate::env::MemEnv;

    fn build(entries: &[(&str, &str, u64, &str)]) -> (Arc<MemEnv>, Arc<SsTable>) {
        let env = Arc::new(MemEnv::new());
        let mut b = SsTableBuilder::new(entries.len(), 64);
        for (row, qual, ts, val) in entries {
            b.add(
                &CellKey::new(row.as_bytes().to_vec(), qual.as_bytes().to_vec()),
                &Version {
                    ts: *ts,
                    mutation: Mutation::Put(val.as_bytes().to_vec()),
                },
            )
            .unwrap();
        }
        let bytes = b.finish();
        env.write_file("sst_0", &bytes).unwrap();
        let t = Arc::new(SsTable::open(env.clone(), "sst_0".into(), Arc::default()).unwrap());
        (env, t)
    }

    #[test]
    fn get_finds_all_versions_newest_first() {
        let (_env, t) = build(&[("a", "q", 3, "v3"), ("a", "q", 1, "v1"), ("b", "q", 2, "w")]);
        let vs = t.get(&CellKey::new(b"a".to_vec(), b"q".to_vec())).unwrap();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].ts, 3);
        assert_eq!(vs[1].ts, 1);
        assert!(t
            .get(&CellKey::new(b"zz".to_vec(), b"q".to_vec()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn iter_is_ordered_and_range_bounded() {
        let rows: Vec<String> = (0..100).map(|i| format!("row{i:03}")).collect();
        let entries: Vec<(&str, &str, u64, &str)> =
            rows.iter().map(|r| (r.as_str(), "q", 1u64, "v")).collect();
        let (_env, t) = build(&entries);
        let all: Vec<_> = t.iter(None, None).map(|r| r.unwrap().0.row).collect();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));

        let some: Vec<_> = t
            .iter(Some(b"row010".to_vec()), Some(b"row020".to_vec()))
            .map(|r| r.unwrap().0.row)
            .collect();
        assert_eq!(some.len(), 10);
        assert_eq!(some[0], b"row010");
    }

    #[test]
    fn corrupt_metadata_rejected() {
        let env = Arc::new(MemEnv::new());
        let mut b = SsTableBuilder::new(1, 64);
        b.add(
            &CellKey::new(b"r".to_vec(), b"q".to_vec()),
            &Version {
                ts: 1,
                mutation: Mutation::Put(b"v".to_vec()),
            },
        )
        .unwrap();
        let mut bytes = b.finish();
        // Flip a bit in the index region (just past the data, before footer).
        let n = bytes.len();
        bytes[n - FOOTER_LEN - 1] ^= 0x01;
        env.write_file("bad", &bytes).unwrap();
        assert!(SsTable::open(env, "bad".into(), Arc::default()).is_err());
    }

    #[test]
    fn out_of_order_add_rejected() {
        let mut b = SsTableBuilder::new(2, 64);
        b.add(
            &CellKey::new(b"b".to_vec(), b"q".to_vec()),
            &Version {
                ts: 1,
                mutation: Mutation::Delete,
            },
        )
        .unwrap();
        assert!(b
            .add(
                &CellKey::new(b"a".to_vec(), b"q".to_vec()),
                &Version {
                    ts: 1,
                    mutation: Mutation::Delete,
                },
            )
            .is_err());
    }

    #[test]
    fn entry_count_preserved() {
        let (_env, t) = build(&[("a", "q", 1, "v"), ("b", "q", 1, "v"), ("c", "q", 1, "v")]);
        assert_eq!(t.entry_count(), 3);
        assert!(t.data_len > 0);
    }
}
