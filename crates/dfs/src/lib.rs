//! An HDFS-like file system simulator.
//!
//! The paper stores Master Tables on HDFS, whose essential properties are:
//!
//! * **write-once files** — a file is the consistency unit; once closed it is
//!   immutable (no random writes),
//! * **chunked storage** — files are split into fixed-size blocks (the paper's
//!   clusters use 64 MB), each replicated,
//! * **high-throughput streaming reads and writes**, poor at point updates.
//!
//! [`Dfs`] reproduces exactly that contract. Two block stores are provided:
//! an in-memory store for tests and deterministic experiments, and a local
//! on-disk store for benchmarks that want real file I/O. Replication is
//! accounted in the I/O statistics (bytes × replication factor) rather than
//! shipped over a network — the paper's experiments depend on I/O volume, not
//! on network topology (see DESIGN.md §2).
//!
//! ```
//! use dt_dfs::{Dfs, DfsConfig};
//!
//! let dfs = Dfs::in_memory(DfsConfig::default());
//! let mut w = dfs.create("/warehouse/t/part-0").unwrap();
//! w.write_all(b"hello world").unwrap();
//! w.close().unwrap();
//!
//! let mut r = dfs.open("/warehouse/t/part-0").unwrap();
//! let mut buf = vec![0u8; 5];
//! r.read_at(6, &mut buf).unwrap();
//! assert_eq!(&buf, b"world");
//! ```

mod block_store;
mod cache;
mod config;
mod faulty;
mod journal;
mod namenode;
mod reader;
mod writer;

pub use block_store::{BlockId, BlockStore, DiskBlockStore, MemBlockStore};
pub use config::DfsConfig;
pub use dt_common::RetryPolicy;
pub use faulty::FaultyBlockStore;
pub use journal::{RecoveryReport, CHECKPOINT_FILE, CHECKPOINT_TMP, EDITS_FILE};
pub use reader::DfsReader;
pub use writer::DfsWriter;

use std::sync::Arc;

use cache::BlockCache;
use dt_common::fault::FaultPlan;
use dt_common::{Error, Result, RetryCounters, RetrySnapshot};
use namenode::{FileMeta, NameNode};

dt_common::counters! {
    /// Everything the DFS (the Master tier in cost-model terms) counts:
    /// data-path I/O volume, block-cache traffic, and the self-healing
    /// work of its retry, failover and scrub machinery.
    pub struct DfsCounters => DfsSnapshot {
        ..retry: RetryCounters => RetrySnapshot,
        /// Total bytes read.
        bytes_read,
        /// Total bytes written, every replica counted.
        bytes_written,
        /// Number of read calls.
        read_ops,
        /// Number of block replicas written.
        write_ops,
        /// Block reads served from the block cache (DESIGN.md §10).
        cache_hits,
        /// Block reads that missed the cache and paid a physical fetch.
        cache_misses,
        /// Cached blocks evicted to make room for newer ones.
        cache_evictions,
        /// Replica failovers performed by readers.
        failovers,
        /// Replicas quarantined out of the serving set.
        quarantined_replicas,
        /// Replicas recreated by scrub/re-replication passes.
        rereplicated_replicas,
    }
}

/// Handle to a DFS namespace plus its block storage.
///
/// Cheap to clone; clones share the same namespace.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
}

pub(crate) struct DfsInner {
    namenode: NameNode,
    blocks: Arc<dyn BlockStore>,
    config: DfsConfig,
    stats: Arc<DfsCounters>,
    cache: BlockCache,
    /// Bumped on every namenode restart. Higher-level read caches (ORC
    /// footers) tag entries with the epoch they were filled under and
    /// treat any entry from an older epoch as stale, because recovery can
    /// roll the namespace back past commits (DESIGN.md §10).
    epoch: std::sync::atomic::AtomicU64,
}

impl Dfs {
    /// Creates a DFS backed by in-memory blocks.
    pub fn in_memory(config: DfsConfig) -> Self {
        Self::with_block_store(Arc::new(MemBlockStore::new()), config)
            .expect("fresh in-memory store has no journal to recover")
    }

    /// Creates a DFS whose blocks live as files under `root` on the local
    /// disk. Reopening a root that already holds a journal recovers the
    /// namespace from it.
    pub fn on_disk(root: impl Into<std::path::PathBuf>, config: DfsConfig) -> Result<Self> {
        Self::with_block_store(Arc::new(DiskBlockStore::new(root.into())?), config)
    }

    /// Creates an in-memory DFS whose block I/O is subject to `plan`'s
    /// injected faults (see [`FaultyBlockStore`]).
    pub fn in_memory_faulty(config: DfsConfig, plan: Arc<FaultPlan>) -> Self {
        Self::with_block_store(
            Arc::new(FaultyBlockStore::new(Arc::new(MemBlockStore::new()), plan)),
            config,
        )
        .expect("fresh in-memory store has no journal to recover")
    }

    /// Opens a DFS over an arbitrary block store, recovering the
    /// namespace from any edit log / checkpoint already persisted there.
    /// A store with no journal streams yields an empty namespace.
    pub fn with_block_store(blocks: Arc<dyn BlockStore>, config: DfsConfig) -> Result<Self> {
        let stats = Arc::new(DfsCounters::default());
        let namenode = NameNode::recover(
            blocks.clone(),
            config.retry,
            stats.clone(),
            config.checkpoint_interval,
        )?;
        Ok(Dfs {
            inner: Arc::new(DfsInner {
                namenode,
                blocks,
                config,
                stats,
                cache: BlockCache::new(config.block_cache_bytes),
                epoch: std::sync::atomic::AtomicU64::new(0),
            }),
        })
    }

    /// Simulates a namenode crash + restart: discards every piece of
    /// in-memory namespace state and rebuilds it from the durable edit
    /// log and checkpoint. Block data is untouched — datanodes survive a
    /// namenode restart. Pending writers are implicitly aborted (their
    /// placed blocks become orphans for [`Dfs::scrub`] to collect).
    /// Returns what recovery had to clean up.
    ///
    /// The block cache is purged *before* recovery: a reload can roll the
    /// namespace back past a commit (torn edit-log tail), after which a
    /// path may be recreated with different bytes — no pre-crash
    /// path→bytes association survives a restart.
    pub fn crash_and_reopen(&self) -> Result<RecoveryReport> {
        self.inner.cache.clear();
        self.inner
            .epoch
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.namenode.reload()
    }

    /// The namespace epoch: bumped on every [`Dfs::crash_and_reopen`].
    /// Read caches layered above the DFS compare this against the epoch
    /// recorded at fill time to reject entries that predate a restart.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// This file system's counters: I/O volume and self-healing work
    /// (the `dfs` rows of `SHOW HEALTH`).
    pub fn stats(&self) -> &DfsCounters {
        &self.inner.stats
    }

    /// Number of replicas currently quarantined and awaiting a
    /// [`Dfs::scrub`] pass.
    pub fn quarantined_replicas(&self) -> usize {
        self.inner.namenode.quarantined_count()
    }

    /// The configured chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.inner.config.chunk_size
    }

    /// Bytes currently resident in the shared block cache.
    pub fn block_cache_resident_bytes(&self) -> u64 {
        self.inner.cache.resident_bytes()
    }

    /// Entries currently resident in the shared block cache.
    pub fn block_cache_entries(&self) -> usize {
        self.inner.cache.entries()
    }

    /// Creates a new file for writing. Fails if the path already exists
    /// (HDFS write-once semantics).
    pub fn create(&self, path: &str) -> Result<DfsWriter> {
        validate_path(path)?;
        self.inner.namenode.begin_create(path)?;
        Ok(DfsWriter::new(self.inner.clone(), path.to_string()))
    }

    /// Opens a closed file for reading.
    pub fn open(&self, path: &str) -> Result<DfsReader> {
        let meta = self.inner.namenode.get_closed(path)?;
        Ok(DfsReader::new(self.inner.clone(), path.to_string(), meta))
    }

    /// Length in bytes of a closed file.
    pub fn len(&self, path: &str) -> Result<u64> {
        Ok(self.inner.namenode.get_closed(path)?.len)
    }

    /// `true` iff a closed file exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.namenode.get_closed(path).is_ok()
    }

    /// Lists closed files whose path starts with `prefix`, in lexicographic
    /// order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.namenode.list(prefix)
    }

    /// Deletes a file, releasing every replica of every block. Deleting a
    /// missing file is an error. Replica release is best-effort: the
    /// namespace entry is already gone, so a failed unlink merely leaks an
    /// unreferenced block (reported via the first error).
    pub fn delete(&self, path: &str) -> Result<()> {
        let meta = self.inner.namenode.remove(path)?;
        self.inner.cache.invalidate_path(path);
        let mut first_err = None;
        for group in &meta.blocks {
            for replica in &group.replicas {
                if let Err(e) = self.inner.blocks.delete(*replica) {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Deletes every file under `prefix`; returns how many were removed.
    pub fn delete_prefix(&self, prefix: &str) -> Result<usize> {
        let files = self.list(prefix);
        for f in &files {
            self.delete(f)?;
        }
        Ok(files.len())
    }

    /// Atomically renames a closed file. Fails if the destination exists.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        validate_path(to)?;
        self.inner.namenode.rename(from, to)?;
        self.inner.cache.invalidate_path(from);
        Ok(())
    }

    /// Total bytes stored across all closed files (logical size, before
    /// replication).
    pub fn total_bytes(&self) -> u64 {
        self.inner.namenode.total_bytes()
    }

    /// Reads an entire file into memory.
    pub fn read_to_vec(&self, path: &str) -> Result<Vec<u8>> {
        let mut r = self.open(path)?;
        let len = r.len() as usize;
        let mut buf = vec![0u8; len];
        r.read_at(0, &mut buf)?;
        Ok(buf)
    }

    /// Creates a file holding exactly `data`.
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<()> {
        let mut w = self.create(path)?;
        w.write_all(data)?;
        w.close()
    }

    /// Creates `to` as a copy of the closed file `from`. Each block of
    /// `from` is fetched as a read fetches it — from the block cache, or
    /// from the first replica that verifies — and placed under new
    /// replica ids with the checksum already recorded for it, so the copy
    /// costs no checksum pass (and, in memory, no byte copy).
    pub fn copy_file(&self, from: &str, to: &str) -> Result<()> {
        let mut src = self.open(from)?;
        let mut dst = self.create(to)?;
        src.copy_to(&mut dst)?;
        dst.close()
    }

    /// Integrity audit in the spirit of `hdfs fsck`: re-reads every
    /// replica of every block of every closed file and verifies its
    /// stored CRC-32.
    ///
    /// A block group with **no** healthy replica makes its file
    /// `corrupt`; a group with some but not all healthy replicas makes
    /// its file `under_replicated` (data still readable, durability
    /// degraded). [`Dfs::repair`] restores the latter.
    pub fn fsck(&self) -> Result<FsckReport> {
        let mut report = FsckReport::default();
        for path in self.list("/") {
            report.files += 1;
            let meta = self.inner.namenode.get_closed(&path)?;
            let mut file_corrupt = false;
            let mut file_under = false;
            for group in &meta.blocks {
                report.blocks += 1;
                let healthy = group
                    .replicas
                    .iter()
                    .filter(|r| {
                        let block = self.inner.blocks.read_block(**r);
                        block.is_ok_and(|b| group.holds(&b))
                    })
                    .count();
                if healthy == 0 {
                    file_corrupt = true;
                } else if healthy < group.replicas.len() {
                    file_under = true;
                }
            }
            if file_corrupt {
                report.corrupt.push(path.clone());
            } else if file_under {
                report.under_replicated.push(path.clone());
            }
        }
        // Orphan accounting only makes sense with no writer in flight: a
        // pending writer's placed-but-uncommitted blocks are legitimately
        // unreferenced until its commit.
        if self.inner.namenode.pending_count() == 0 {
            let referenced = self.inner.namenode.referenced_blocks();
            report.orphan_blocks = self
                .inner
                .blocks
                .list_blocks()
                .into_iter()
                .filter(|id| !referenced.contains(id))
                .count() as u64;
        }
        Ok(report)
    }

    /// Re-replication pass: for every block group with dead or rotted
    /// replicas, drops the bad copies and clones a healthy replica until
    /// the group is back at the configured replication factor. Groups
    /// with no healthy replica are reported as unrecoverable (the file
    /// stays listed so higher layers can decide what to drop).
    pub fn repair(&self) -> Result<RepairReport> {
        let mut report = RepairReport::default();
        let target = self.inner.config.replication.max(1) as usize;
        for path in self.list("/") {
            let mut meta = self.inner.namenode.get_closed(&path)?;
            let mut changed = false;
            let mut unrecoverable = false;
            for group in &mut meta.blocks {
                let mut healthy_bytes = None;
                let mut good = Vec::new();
                let mut bad = Vec::new();
                for replica in &group.replicas {
                    match self.inner.blocks.read_block(*replica) {
                        Ok(block) if group.holds(&block) => {
                            good.push(*replica);
                            healthy_bytes.get_or_insert(block);
                        }
                        _ => bad.push(*replica),
                    }
                }
                if bad.is_empty() && good.len() >= target {
                    continue;
                }
                let Some(bytes) = healthy_bytes else {
                    unrecoverable = true;
                    continue;
                };
                for dead in bad {
                    // Best-effort: the replica may already be gone.
                    let _ = self.inner.blocks.delete(dead);
                }
                while good.len() < target {
                    let id = self.inner.blocks.put(bytes.clone())?;
                    self.inner.stats.bytes_written.add(group.len);
                    self.inner.stats.write_ops.inc();
                    good.push(id);
                    report.replicas_recreated += 1;
                }
                group.replicas = good;
                changed = true;
            }
            if changed {
                self.inner.namenode.replace(&path, meta)?;
                self.inner.cache.invalidate_path(&path);
                report.files_repaired += 1;
            }
            if unrecoverable {
                report.unrecoverable.push(path);
            }
        }
        Ok(report)
    }

    /// Scrubber pass: [`Dfs::repair`] plus quarantine reclamation.
    ///
    /// Readers that hit a bad replica only *remove it from the serving
    /// set* (cheap, on the read path); restoring the replication factor
    /// and reclaiming the quarantined storage is this background pass's
    /// job, like the HDFS block scanner feeding the re-replication queue.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let repair = self.repair()?;
        self.inner
            .stats
            .rereplicated_replicas
            .add(repair.replicas_recreated);
        let quarantined = self.inner.namenode.take_quarantined()?;
        let quarantined_purged = quarantined.len() as u64;
        for id in quarantined {
            // Best-effort: the replica is already out of every block
            // group, so a failed unlink merely leaks unreferenced bytes.
            let _ = self.inner.blocks.delete(id);
        }
        // Orphan collection: blocks no closed file (and no quarantine
        // entry) references — the leavings of crashed writers and torn
        // block puts. Only safe with no writer in flight.
        let mut orphans_collected = 0u64;
        if self.inner.namenode.pending_count() == 0 {
            let referenced = self.inner.namenode.referenced_blocks();
            for id in self.inner.blocks.list_blocks() {
                if !referenced.contains(&id) && self.inner.blocks.delete(id).is_ok() {
                    orphans_collected += 1;
                }
            }
        }
        Ok(ScrubReport {
            files_repaired: repair.files_repaired,
            replicas_recreated: repair.replicas_recreated,
            quarantined_purged,
            orphans_collected,
            unrecoverable: repair.unrecoverable,
        })
    }
}

/// Result of [`Dfs::scrub`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files whose block lists were rewritten back to full replication.
    pub files_repaired: u64,
    /// Replicas cloned from healthy copies.
    pub replicas_recreated: u64,
    /// Quarantined replicas reclaimed from the block store.
    pub quarantined_purged: u64,
    /// Unreferenced blocks (crashed writers, torn puts) reclaimed.
    pub orphans_collected: u64,
    /// Paths with a block group that has no healthy replica left.
    pub unrecoverable: Vec<String>,
}

/// Result of [`Dfs::fsck`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Closed files audited.
    pub files: u64,
    /// Block groups audited.
    pub blocks: u64,
    /// Paths with at least one block group having **no** healthy replica.
    pub corrupt: Vec<String>,
    /// Paths readable today but with at least one block group below full
    /// replication.
    pub under_replicated: Vec<String>,
    /// Blocks in the store referenced by no closed file and no quarantine
    /// entry (counted only when no writer is in flight). Dead weight, not
    /// a danger: [`Dfs::scrub`] reclaims them.
    pub orphan_blocks: u64,
}

impl FsckReport {
    /// `true` iff every replica of every block verified. Orphans do not
    /// affect health — they are unreachable garbage, not data loss.
    pub fn healthy(&self) -> bool {
        self.corrupt.is_empty() && self.under_replicated.is_empty()
    }
}

/// Result of [`Dfs::repair`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Files whose block lists were rewritten.
    pub files_repaired: u64,
    /// Replicas cloned from healthy copies.
    pub replicas_recreated: u64,
    /// Paths with a block group that has no healthy replica left.
    pub unrecoverable: Vec<String>,
}

impl DfsInner {
    pub(crate) fn blocks(&self) -> &Arc<dyn BlockStore> {
        &self.blocks
    }

    pub(crate) fn config(&self) -> &DfsConfig {
        &self.config
    }

    pub(crate) fn stats(&self) -> &DfsCounters {
        &self.stats
    }

    pub(crate) fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Reader-reported bad replica: drop it from the serving set (unless
    /// it is the last copy) and queue it for scrub. Returns `true` iff
    /// this call removed it.
    pub(crate) fn quarantine_replica(
        &self,
        path: &str,
        group_index: usize,
        replica: BlockId,
    ) -> bool {
        self.namenode.quarantine_replica(path, group_index, replica)
    }

    pub(crate) fn commit_file(&self, path: &str, meta: FileMeta) -> Result<()> {
        self.namenode.commit(path, meta)
    }

    pub(crate) fn abort_file(&self, path: &str) {
        self.namenode.abort(path);
    }
}

fn validate_path(path: &str) -> Result<()> {
    if !path.starts_with('/') || path.ends_with('/') || path.contains("//") {
        return Err(Error::invalid(format!(
            "invalid DFS path '{path}': must be absolute, with no trailing or doubled slashes"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let dfs = Dfs::in_memory(DfsConfig::small_chunks(8));
        let payload: Vec<u8> = (0..100u8).collect();
        dfs.write_file("/a/b", &payload).unwrap();
        assert_eq!(dfs.read_to_vec("/a/b").unwrap(), payload);
        assert_eq!(dfs.len("/a/b").unwrap(), 100);
    }

    #[test]
    fn create_existing_fails() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        dfs.write_file("/x", b"1").unwrap();
        assert!(matches!(dfs.create("/x"), Err(Error::AlreadyExists(_))));
    }

    #[test]
    fn open_unclosed_file_fails() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let _w = dfs.create("/pending").unwrap();
        assert!(dfs.open("/pending").is_err());
        assert!(!dfs.exists("/pending"));
    }

    #[test]
    fn dropped_writer_aborts_creation() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        {
            let mut w = dfs.create("/tmpfile").unwrap();
            w.write_all(b"partial").unwrap();
            // dropped without close()
        }
        assert!(!dfs.exists("/tmpfile"));
        // The path is free again.
        dfs.write_file("/tmpfile", b"done").unwrap();
        assert_eq!(dfs.read_to_vec("/tmpfile").unwrap(), b"done");
    }

    #[test]
    fn list_is_sorted_and_prefix_filtered() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        dfs.write_file("/t/b", b"").unwrap();
        dfs.write_file("/t/a", b"").unwrap();
        dfs.write_file("/u/c", b"").unwrap();
        assert_eq!(
            dfs.list("/t/"),
            vec!["/t/a".to_string(), "/t/b".to_string()]
        );
    }

    #[test]
    fn delete_frees_path_and_delete_prefix_counts() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        dfs.write_file("/d/1", b"x").unwrap();
        dfs.write_file("/d/2", b"y").unwrap();
        assert_eq!(dfs.delete_prefix("/d/").unwrap(), 2);
        assert!(!dfs.exists("/d/1"));
        assert!(dfs.delete("/d/1").is_err());
    }

    #[test]
    fn rename_moves_and_protects_destination() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        dfs.write_file("/old", b"data").unwrap();
        dfs.write_file("/busy", b"").unwrap();
        assert!(dfs.rename("/old", "/busy").is_err());
        dfs.rename("/old", "/new").unwrap();
        assert!(!dfs.exists("/old"));
        assert_eq!(dfs.read_to_vec("/new").unwrap(), b"data");
    }

    #[test]
    fn replication_is_accounted_in_write_stats() {
        let cfg = DfsConfig {
            chunk_size: 1024,
            replication: 3,
            ..DfsConfig::default()
        };
        let dfs = Dfs::in_memory(cfg);
        dfs.write_file("/r", &[0u8; 100]).unwrap();
        assert_eq!(dfs.stats().snapshot().bytes_written, 300);
    }

    /// Every replica of a block group, and every replica of a copy of
    /// it, is the one buffer the writer filled; the copy carries the
    /// source's lengths and checksums under replica ids of its own.
    #[test]
    fn replicas_and_copies_share_the_written_buffer() {
        let store = Arc::new(MemBlockStore::new());
        let cfg = DfsConfig {
            chunk_size: 16,
            replication: 2,
            ..DfsConfig::default()
        };
        let dfs = Dfs::with_block_store(store.clone(), cfg).unwrap();
        dfs.write_file("/a", &(0..40u8).collect::<Vec<_>>())
            .unwrap();
        dfs.copy_file("/a", "/b").unwrap();
        let a = dfs.inner.namenode.get_closed("/a").unwrap();
        let b = dfs.inner.namenode.get_closed("/b").unwrap();
        assert_eq!((a.len, a.blocks.len()), (b.len, b.blocks.len()));
        for (ga, gb) in a.blocks.iter().zip(&b.blocks) {
            assert_eq!((ga.len, ga.crc), (gb.len, gb.crc));
            assert!(gb.replicas.iter().all(|r| !ga.replicas.contains(r)));
            let written = store.read_block(ga.replicas[0]).unwrap();
            for replica in ga.replicas.iter().chain(&gb.replicas) {
                assert!(Arc::ptr_eq(&store.read_block(*replica).unwrap(), &written));
            }
        }
    }

    #[test]
    fn path_validation() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        assert!(dfs.create("relative").is_err());
        assert!(dfs.create("/a//b").is_err());
        assert!(dfs.create("/a/").is_err());
    }

    #[test]
    fn total_bytes_tracks_files() {
        let dfs = Dfs::in_memory(DfsConfig::default());
        dfs.write_file("/a", &[0u8; 10]).unwrap();
        dfs.write_file("/b", &[0u8; 5]).unwrap();
        assert_eq!(dfs.total_bytes(), 15);
        dfs.delete("/a").unwrap();
        assert_eq!(dfs.total_bytes(), 5);
    }

    #[test]
    fn disk_backed_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dt-dfs-test-{}", std::process::id()));
        let dfs = Dfs::on_disk(&dir, DfsConfig::small_chunks(16)).unwrap();
        let payload: Vec<u8> = (0..255u8).collect();
        dfs.write_file("/disk/file", &payload).unwrap();
        assert_eq!(dfs.read_to_vec("/disk/file").unwrap(), payload);
        dfs.delete("/disk/file").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
