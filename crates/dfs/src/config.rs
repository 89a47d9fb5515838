//! DFS tuning knobs.

use dt_common::RetryPolicy;

/// Configuration for a [`crate::Dfs`] instance.
#[derive(Debug, Clone, Copy)]
pub struct DfsConfig {
    /// Block ("chunk") size in bytes. The paper's clusters use 64 MB; tests
    /// shrink this to exercise multi-block paths.
    pub chunk_size: usize,
    /// Replication factor. Writes are accounted as `bytes × replication`
    /// in the I/O statistics, mirroring the write amplification an HDFS
    /// pipeline incurs. The paper's clusters use 3.
    pub replication: u32,
    /// Retry policy for transient block-I/O failures: the write pipeline
    /// retries each replica placement, and readers retry a replica before
    /// failing over to the next one (DESIGN.md §8).
    pub retry: RetryPolicy,
    /// Namenode edit-log entries between checkpoints. After this many
    /// journaled mutations, the namenode snapshots its full state and
    /// truncates the edit log (DESIGN.md §9). High by default so the edit
    /// log carries most of the recovery load in short-lived tests; lower
    /// it to exercise the checkpoint path.
    pub checkpoint_interval: u64,
    /// Capacity in bytes of the shared CRC-verified block cache
    /// (DESIGN.md §10). `0` disables caching; every read then pays a
    /// physical replica fetch.
    pub block_cache_bytes: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            chunk_size: 64 * 1024 * 1024,
            replication: 3,
            retry: RetryPolicy::default(),
            checkpoint_interval: 1024,
            block_cache_bytes: 64 * 1024 * 1024,
        }
    }
}

impl DfsConfig {
    /// A configuration with tiny chunks and no replication amplification,
    /// for tests that want to exercise block boundaries.
    pub fn small_chunks(chunk_size: usize) -> Self {
        DfsConfig {
            chunk_size,
            replication: 1,
            ..DfsConfig::default()
        }
    }
}
