//! Positioned and streaming reads over a closed DFS file.

use std::io::{self, Read, Seek, SeekFrom};
use std::sync::Arc;

use dt_common::{Error, Result};

use crate::namenode::FileMeta;
use crate::{DfsInner, DfsWriter};

/// Reader over one closed (immutable) file.
///
/// Supports random positioned reads ([`DfsReader::read_at`]) and implements
/// [`std::io::Read`] + [`std::io::Seek`] for streaming consumers.
///
/// Every read is served from a checksum-verified copy of the whole block:
/// the reader fetches a replica in full, verifies it against the block
/// group's CRC-32, and fails over to the next replica on mismatch or I/O
/// error (quarantining the bad copy in the namenode). Verified blocks are
/// published to the DFS-wide shared block cache (DESIGN.md §10), and the
/// last one is also pinned locally so sequential consumers skip even the
/// cache lookup, like an HDFS client checksumming a packet stream.
pub struct DfsReader {
    inner: Arc<DfsInner>,
    path: String,
    meta: FileMeta,
    pos: u64,
    /// `(block group index, verified bytes)` of the last block served.
    verified: Option<(usize, Arc<Vec<u8>>)>,
}

impl DfsReader {
    pub(crate) fn new(inner: Arc<DfsInner>, path: String, meta: FileMeta) -> Self {
        DfsReader {
            inner,
            path,
            meta,
            pos: 0,
            verified: None,
        }
    }

    /// File length in bytes.
    pub fn len(&self) -> u64 {
        self.meta.len
    }

    /// `true` iff the file is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.len == 0
    }

    /// Fills `buf` from the absolute file offset `offset`. Fails if the
    /// range extends past end-of-file.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let end = offset
            .checked_add(buf.len() as u64)
            .ok_or_else(|| Error::invalid("read range overflow"))?;
        if end > self.meta.len {
            return Err(Error::invalid(format!(
                "read [{offset}, {end}) beyond file of {} bytes",
                self.meta.len
            )));
        }
        if buf.is_empty() {
            return Ok(());
        }
        self.inner.stats().bytes_read.add(buf.len() as u64);
        self.inner.stats().read_ops.inc();

        // Walk the block list to the first block containing `offset`.
        let mut block_start = 0u64;
        let mut filled = 0usize;
        for gi in 0..self.meta.blocks.len() {
            let block_end = block_start + self.meta.blocks[gi].len;
            if end <= block_start {
                break;
            }
            if offset < block_end {
                let from = offset.max(block_start);
                let to = end.min(block_end);
                let within = (from - block_start) as usize;
                let n = (to - from) as usize;
                let block = self.block(gi)?;
                buf[filled..filled + n].copy_from_slice(&block[within..within + n]);
                filled += n;
            }
            block_start = block_end;
        }
        debug_assert_eq!(filled, buf.len());
        Ok(())
    }

    /// Block group `gi`, verified, pinned as the last block served.
    pub(crate) fn block(&mut self, gi: usize) -> Result<&Arc<Vec<u8>>> {
        if self
            .verified
            .as_ref()
            .is_none_or(|(pinned, _)| *pinned != gi)
        {
            let block = self.fetch(gi)?;
            self.verified = Some((gi, block));
        }
        Ok(&self.verified.as_ref().expect("pinned above").1)
    }

    /// Block group `gi` from the shared cache, or else from the first
    /// replica that verifies, which the cache then shares as it is.
    ///
    /// Replicas are tried in placement order, like an HDFS client walking
    /// the datanode list. Per replica: transient failures are retried
    /// under the configured [`RetryPolicy`](dt_common::RetryPolicy)
    /// (a healthy copy behind a brief outage should not be condemned);
    /// a permanent failure, a wrong length or a CRC mismatch quarantines
    /// the replica in the namenode and fails the read over to the next
    /// one. Only when every replica is exhausted does the read fail.
    fn fetch(&mut self, gi: usize) -> Result<Arc<Vec<u8>>> {
        if let Some(block) = self.inner.cache().get(&self.path, gi) {
            self.inner.stats().cache_hits.inc();
            return Ok(block);
        }
        let group = self.meta.blocks[gi].clone();
        let inner = self.inner.clone();
        let policy = inner.config().retry;
        let mut last_err = None;
        for (attempt, replica) in group.replicas.iter().enumerate() {
            if attempt > 0 {
                inner.stats().failovers.inc();
            }
            let fetched = policy.run(&inner.stats().retry, || inner.blocks().read_block(*replica));
            match fetched {
                Ok(block) if group.holds(&block) => {
                    inner.stats().cache_misses.inc();
                    let evicted = inner.cache().insert(&self.path, gi, block.clone());
                    inner.stats().cache_evictions.add(evicted);
                    return Ok(block);
                }
                Ok(_) => {
                    self.quarantine(gi, *replica);
                    last_err = Some(Error::corrupt(format!(
                        "replica {replica:?} of block {gi} of '{}' failed verification",
                        self.path
                    )));
                }
                Err(e) => {
                    self.quarantine(gi, *replica);
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| Error::internal("block group with zero replicas")))
    }

    /// Appends every block of this file, verified, to `dst` as its next
    /// block group, under the checksum already recorded for it.
    pub(crate) fn copy_to(&mut self, dst: &mut DfsWriter) -> Result<()> {
        self.inner.stats().bytes_read.add(self.meta.len);
        self.inner.stats().read_ops.inc();
        for gi in 0..self.meta.blocks.len() {
            let crc = self.meta.blocks[gi].crc;
            dst.place(self.block(gi)?.clone(), crc)?;
        }
        Ok(())
    }

    /// Reports a bad replica to the namenode and drops it from this
    /// reader's own snapshot so later reads skip it immediately.
    fn quarantine(&mut self, gi: usize, replica: crate::block_store::BlockId) {
        if self.inner.quarantine_replica(&self.path, gi, replica) {
            self.inner.stats().quarantined_replicas.inc();
        }
        let replicas = &mut self.meta.blocks[gi].replicas;
        if replicas.len() > 1 {
            replicas.retain(|r| *r != replica);
        }
    }

    /// Reads the final `n` bytes of the file (ORC footers live at the tail).
    pub fn read_tail(&mut self, n: usize) -> Result<Vec<u8>> {
        let n = n.min(self.meta.len as usize);
        let mut buf = vec![0u8; n];
        let start = self.meta.len - n as u64;
        self.read_at(start, &mut buf)?;
        Ok(buf)
    }
}

impl Read for DfsReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.meta.len.saturating_sub(self.pos);
        let n = (buf.len() as u64).min(remaining) as usize;
        if n == 0 {
            return Ok(0);
        }
        self.read_at(self.pos, &mut buf[..n])
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl Seek for DfsReader {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let new = match pos {
            SeekFrom::Start(o) => o as i128,
            SeekFrom::End(o) => self.meta.len as i128 + o as i128,
            SeekFrom::Current(o) => self.pos as i128 + o as i128,
        };
        if new < 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek before start",
            ));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dfs, DfsConfig};
    use std::io::{Read, Seek, SeekFrom};

    fn setup() -> Dfs {
        let dfs = Dfs::in_memory(DfsConfig::small_chunks(7));
        let data: Vec<u8> = (0..=255u8).collect();
        dfs.write_file("/f", &data).unwrap();
        dfs
    }

    #[test]
    fn read_at_spans_block_boundaries() {
        let dfs = setup();
        let mut r = dfs.open("/f").unwrap();
        let mut buf = vec![0u8; 20];
        r.read_at(5, &mut buf).unwrap();
        let expect: Vec<u8> = (5..25u8).collect();
        assert_eq!(buf, expect);
    }

    #[test]
    fn streaming_read_matches_content() {
        let dfs = setup();
        let mut r = dfs.open("/f").unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        let expect: Vec<u8> = (0..=255u8).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn seek_and_partial_read() {
        let dfs = setup();
        let mut r = dfs.open("/f").unwrap();
        r.seek(SeekFrom::End(-4)).unwrap();
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![252, 253, 254, 255]);
    }

    #[test]
    fn read_tail_clamps() {
        let dfs = Dfs::in_memory(DfsConfig::small_chunks(4));
        dfs.write_file("/short", b"abc").unwrap();
        let mut r = dfs.open("/short").unwrap();
        assert_eq!(r.read_tail(10).unwrap(), b"abc");
        assert_eq!(r.read_tail(2).unwrap(), b"bc");
    }

    #[test]
    fn out_of_range_read_errors() {
        let dfs = setup();
        let mut r = dfs.open("/f").unwrap();
        let mut buf = vec![0u8; 2];
        assert!(r.read_at(255, &mut buf).is_err());
    }

    #[test]
    fn shared_cache_serves_second_reader_without_refetch() {
        let dfs = setup();
        let mut buf = vec![0u8; 256];
        dfs.open("/f").unwrap().read_at(0, &mut buf).unwrap();
        let warm = dfs.stats().snapshot();
        assert!(warm.cache_misses > 0);
        assert!(dfs.block_cache_entries() > 0);
        // A brand-new reader over the same file hits only the cache.
        let mut again = vec![0u8; 256];
        dfs.open("/f").unwrap().read_at(0, &mut again).unwrap();
        let delta = dfs.stats().snapshot().since(&warm);
        assert_eq!(delta.cache_misses, 0, "warm read paid a physical fetch");
        assert!(delta.cache_hits > 0);
        assert_eq!(again, buf);
    }

    #[test]
    fn delete_invalidates_cached_blocks() {
        let dfs = Dfs::in_memory(DfsConfig::small_chunks(8));
        dfs.write_file("/p", b"old-bytes").unwrap();
        assert_eq!(dfs.read_to_vec("/p").unwrap(), b"old-bytes");
        assert!(dfs.block_cache_entries() > 0);
        dfs.delete("/p").unwrap();
        assert_eq!(dfs.block_cache_entries(), 0);
        dfs.write_file("/p", b"new-bytes").unwrap();
        assert_eq!(dfs.read_to_vec("/p").unwrap(), b"new-bytes");
    }

    #[test]
    fn rename_invalidates_source_path() {
        let dfs = Dfs::in_memory(DfsConfig::small_chunks(8));
        dfs.write_file("/from", b"payload-a").unwrap();
        dfs.read_to_vec("/from").unwrap();
        dfs.rename("/from", "/to").unwrap();
        assert_eq!(dfs.block_cache_entries(), 0);
        // The freed path can carry fresh bytes without serving stale ones.
        dfs.write_file("/from", b"payload-b").unwrap();
        assert_eq!(dfs.read_to_vec("/from").unwrap(), b"payload-b");
        assert_eq!(dfs.read_to_vec("/to").unwrap(), b"payload-a");
    }

    #[test]
    fn crash_and_reopen_purges_cache() {
        let dfs = setup();
        dfs.read_to_vec("/f").unwrap();
        assert!(dfs.block_cache_resident_bytes() > 0);
        dfs.crash_and_reopen().unwrap();
        assert_eq!(dfs.block_cache_resident_bytes(), 0);
        assert_eq!(dfs.block_cache_entries(), 0);
        let expect: Vec<u8> = (0..=255u8).collect();
        assert_eq!(dfs.read_to_vec("/f").unwrap(), expect);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let dfs = Dfs::in_memory(DfsConfig {
            block_cache_bytes: 0,
            ..DfsConfig::small_chunks(7)
        });
        dfs.write_file("/g", &[7u8; 64]).unwrap();
        dfs.read_to_vec("/g").unwrap();
        dfs.read_to_vec("/g").unwrap();
        let snap = dfs.stats().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert!(snap.cache_misses > 0);
        assert_eq!(dfs.block_cache_entries(), 0);
    }

    #[test]
    fn cache_evictions_are_counted_and_bounded() {
        let mut cfg = DfsConfig::small_chunks(8);
        cfg.block_cache_bytes = 16; // room for two 8-byte blocks
        let dfs = Dfs::in_memory(cfg);
        dfs.write_file("/big", &[1u8; 64]).unwrap(); // 8 blocks
        dfs.read_to_vec("/big").unwrap();
        let snap = dfs.stats().snapshot();
        assert!(snap.cache_evictions > 0);
        assert!(dfs.block_cache_resident_bytes() <= 16);
    }

    #[test]
    fn read_stats_account_bytes() {
        let dfs = setup();
        let before = dfs.stats().snapshot();
        let mut r = dfs.open("/f").unwrap();
        let mut buf = vec![0u8; 64];
        r.read_at(0, &mut buf).unwrap();
        let delta = dfs.stats().snapshot().since(&before);
        assert_eq!(delta.bytes_read, 64);
    }
}
