//! An HBase-like log-structured merge key-value store.
//!
//! The paper's Attached Table lives in HBase, whose essential properties are
//! **record-level consistency** and **efficient random reads and writes** at
//! the cost of batch-scan throughput. This crate reproduces the storage
//! engine underneath that contract:
//!
//! * a **write-ahead log** (CRC-framed, replayed on open) so puts are
//!   durable before they are acknowledged,
//! * an in-memory **memtable** (sorted map) absorbing writes,
//! * immutable, block-structured **SSTables** with a sparse block index and
//!   a **bloom filter** per file,
//! * **size-tiered compaction** bounding read amplification,
//! * **multi-version cells**: every put is timestamped by a logical clock
//!   and up to `max_versions` versions are retained (the paper notes
//!   DualTable can exploit HBase multi-versioning to track change history),
//! * **tombstones** for cell and row deletes,
//! * ordered **scans** that merge the memtable and all SSTables.
//!
//! Data model: `(row key bytes, qualifier bytes) → timestamped versions`,
//! a single-column-family simplification of HBase's model — the paper's
//! Attached Table uses exactly one family with column-ordinal qualifiers.
//!
//! ```
//! use dt_kvstore::{KvCluster, KvConfig};
//!
//! let cluster = KvCluster::in_memory(KvConfig::default());
//! let t = cluster.create_table("attached_x").unwrap();
//! t.put(b"row1", b"q1", b"v1").unwrap();
//! assert_eq!(t.get(b"row1", b"q1").unwrap().unwrap(), b"v1");
//! ```

mod bloom;
mod cell;
mod compaction;
mod env;
mod memtable;
mod merge;
mod shadow;
mod sstable;
mod store;
mod wal;

pub use bloom::BloomFilter;
pub use cell::{decode_entry, encode_entry, CellKey, Mutation, Version, ROW_TOMBSTONE_QUALIFIER};
pub use env::{DiskEnv, Env, FaultyEnv, MemEnv, RetryEnv};
pub use store::{KvConfig, RowEntry, ScanIter, Store};

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use dt_common::fault::FaultPlan;
use dt_common::{Error, LogicalClock, Result, RetryCounters, RetrySnapshot};
use parking_lot::RwLock;

dt_common::counters! {
    /// Everything the KV tier (the Attached tier in cost-model terms)
    /// counts, summed over a cluster's tables: I/O volume, WAL group
    /// commit, the delta (HTAP) tier, and file-I/O retries.
    pub struct KvCounters => KvSnapshot {
        ..retry: RetryCounters => RetrySnapshot,
        /// Total bytes read from SSTable blocks.
        bytes_read,
        /// Total bytes written (WAL appends, flushes, compactions).
        bytes_written,
        /// Number of SSTable block reads.
        read_ops,
        /// Number of WAL appends and SSTable writes.
        write_ops,
        /// Random repositionings (SSTable point lookups and block seeks).
        seeks,
        /// WAL appends that durably committed more than one caller batch.
        group_commits,
        /// Fsyncs avoided by coalescing concurrent batches into one append.
        wal_fsyncs_saved,
        /// Delta (shadow) tier spills into the LSM proper (DESIGN.md §17).
        delta_spills,
        /// Version entries served out of the delta tier by gets and scans.
        delta_hits,
        /// Live heap bytes held by delta tiers (gauge; zero outside
        /// [`KvCluster::health_snapshot`], which sums it live).
        delta_bytes_used,
        /// 1 while any table refuses writes (gauge; computed live by
        /// [`KvCluster::health_snapshot`]).
        degraded,
    }
}

impl KvCounters {
    fn record_write(&self, bytes: u64) {
        self.bytes_written.add(bytes);
        self.write_ops.inc();
    }
}

/// A collection of named stores sharing one clock and one set of I/O
/// counters — the moral equivalent of an HBase cluster.
#[derive(Clone)]
pub struct KvCluster {
    inner: Arc<ClusterInner>,
}

struct ClusterInner {
    tables: RwLock<HashMap<String, Store>>,
    // Each table's env outlives its Store handle so a simulated crash can
    // reopen the table from its persisted state (see `crash_and_reopen`).
    envs: RwLock<HashMap<String, Arc<dyn Env>>>,
    config: KvConfig,
    clock: LogicalClock,
    // One set of counters shared by every table's store and retry
    // wrapper — the `kv` rows of `SHOW HEALTH`.
    stats: Arc<KvCounters>,
    disk_root: Option<PathBuf>,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl KvCluster {
    /// A cluster whose tables live purely in memory.
    pub fn in_memory(config: KvConfig) -> Self {
        Self::build(config, None, None)
    }

    /// An in-memory cluster whose every table I/O consults `plan` — the
    /// fault-injection entry point for crash-recovery tests. With a
    /// disarmed plan behaviour is identical to [`KvCluster::in_memory`].
    pub fn in_memory_faulty(config: KvConfig, plan: Arc<FaultPlan>) -> Self {
        Self::build(config, None, Some(plan))
    }

    /// A cluster whose tables persist under `root` (one directory per
    /// table).
    pub fn on_disk(root: impl Into<PathBuf>, config: KvConfig) -> Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self::build(config, Some(root), None))
    }

    fn build(
        config: KvConfig,
        disk_root: Option<PathBuf>,
        fault_plan: Option<Arc<FaultPlan>>,
    ) -> Self {
        KvCluster {
            inner: Arc::new(ClusterInner {
                tables: RwLock::new(HashMap::new()),
                envs: RwLock::new(HashMap::new()),
                config,
                clock: LogicalClock::new(),
                stats: Arc::default(),
                disk_root,
                fault_plan,
            }),
        }
    }

    /// The shared fault plan, if this cluster was built with one.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.inner.fault_plan.as_ref()
    }

    /// A point-in-time view of the counters, with the degraded flag
    /// computed live: the cluster is degraded while *any* of its tables
    /// is refusing writes. A table reopen (e.g. [`Self::crash_and_reopen`])
    /// therefore clears the flag. Likewise `delta_bytes_used` is summed
    /// live over the open stores' shadow tiers (a gauge counter would
    /// leak across reopen/truncate/destroy).
    pub fn health_snapshot(&self) -> KvSnapshot {
        let mut snap = self.inner.stats.snapshot();
        let tables = self.inner.tables.read();
        snap.degraded = u64::from(tables.values().any(Store::is_degraded));
        snap.delta_bytes_used = tables.values().map(|s| s.shadow_bytes() as u64).sum();
        snap
    }

    /// Simulates a whole-process crash and restart: heals any sticky
    /// injected crash (the "process" is back up), drops every store
    /// handle, and reopens each table from its persisted state — WAL
    /// replay, SSTable quarantine and all.
    pub fn crash_and_reopen(&self) -> Result<()> {
        if let Some(plan) = &self.inner.fault_plan {
            plan.heal();
        }
        let mut tables = self.inner.tables.write();
        let names: Vec<String> = tables.keys().cloned().collect();
        for name in names {
            let store = Store::open(
                self.env_for(&name)?,
                self.inner.config.clone(),
                self.inner.clock.clone(),
                self.inner.stats.clone(),
            )?;
            tables.insert(name, store);
        }
        Ok(())
    }

    /// The counters aggregated over all tables.
    pub fn stats(&self) -> &KvCounters {
        &self.inner.stats
    }

    /// The shared logical clock stamping every mutation.
    pub fn clock(&self) -> &LogicalClock {
        &self.inner.clock
    }

    /// Returns the table's retained env, creating (and retaining) one on
    /// first use so reopen sees the same storage.
    fn env_for(&self, name: &str) -> Result<Arc<dyn Env>> {
        if let Some(env) = self.inner.envs.read().get(name) {
            return Ok(env.clone());
        }
        let base: Arc<dyn Env> = match &self.inner.disk_root {
            None => Arc::new(MemEnv::new()),
            Some(root) => Arc::new(DiskEnv::new(root.join(name))?),
        };
        let env: Arc<dyn Env> = match &self.inner.fault_plan {
            Some(plan) => Arc::new(FaultyEnv::new(base, plan.clone())),
            None => base,
        };
        // Retry sits *outside* fault injection so each retry attempt is a
        // fresh op in the plan's schedule — exactly how a real datanode
        // hiccup looks to the layer above.
        let env: Arc<dyn Env> = if self.inner.config.retry.enabled() {
            Arc::new(RetryEnv::new(
                env,
                self.inner.config.retry,
                self.inner.stats.clone(),
            ))
        } else {
            env
        };
        self.inner
            .envs
            .write()
            .insert(name.to_string(), env.clone());
        Ok(env)
    }

    /// Creates a table; fails if it exists.
    pub fn create_table(&self, name: &str) -> Result<Store> {
        let mut tables = self.inner.tables.write();
        if tables.contains_key(name) {
            return Err(Error::AlreadyExists(format!("kv table '{name}'")));
        }
        let store = Store::open(
            self.env_for(name)?,
            self.inner.config.clone(),
            self.inner.clock.clone(),
            self.inner.stats.clone(),
        )?;
        tables.insert(name.to_string(), store.clone());
        Ok(store)
    }

    /// Returns an existing table.
    pub fn table(&self, name: &str) -> Result<Store> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("kv table '{name}'")))
    }

    /// Returns the table, creating it if missing.
    pub fn table_or_create(&self, name: &str) -> Result<Store> {
        if let Ok(t) = self.table(name) {
            return Ok(t);
        }
        self.create_table(name)
    }

    /// Drops a table and its storage.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let store = self
            .inner
            .tables
            .write()
            .remove(name)
            .ok_or_else(|| Error::not_found(format!("kv table '{name}'")))?;
        self.inner.envs.write().remove(name);
        store.destroy()
    }

    /// Removes all data from a table, keeping it registered.
    ///
    /// The old handle stays registered until its replacement is open: a
    /// fault mid-truncate must leave the table degraded (partially
    /// cleared, recoverable by reopen), never unregistered.
    pub fn truncate_table(&self, name: &str) -> Result<()> {
        let mut tables = self.inner.tables.write();
        let store = tables
            .get(name)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("kv table '{name}'")))?;
        store.destroy()?;
        let fresh = Store::open(
            self.env_for(name)?,
            self.inner.config.clone(),
            self.inner.clock.clone(),
            self.inner.stats.clone(),
        )?;
        tables.insert(name.to_string(), fresh);
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<_> = self.inner.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop_table() {
        let c = KvCluster::in_memory(KvConfig::default());
        let t = c.create_table("t").unwrap();
        t.put(b"r", b"q", b"v").unwrap();
        assert!(c.create_table("t").is_err());
        assert_eq!(
            c.table("t").unwrap().get(b"r", b"q").unwrap().unwrap(),
            b"v"
        );
        c.drop_table("t").unwrap();
        assert!(c.table("t").is_err());
    }

    #[test]
    fn truncate_clears_data_but_keeps_table() {
        let c = KvCluster::in_memory(KvConfig::default());
        let t = c.create_table("t").unwrap();
        t.put(b"r", b"q", b"v").unwrap();
        c.truncate_table("t").unwrap();
        let t = c.table("t").unwrap();
        assert!(t.get(b"r", b"q").unwrap().is_none());
    }

    #[test]
    fn crash_and_reopen_recovers_unflushed_writes() {
        use dt_common::fault::{FaultKind, FaultPlan};

        let plan = Arc::new(FaultPlan::new(21));
        let c = KvCluster::in_memory_faulty(KvConfig::default(), plan.clone());
        let t = c.table_or_create("t").unwrap();
        t.put(b"r", b"q", b"committed").unwrap();
        // Kill the process on its next I/O.
        plan.fail_next(FaultKind::Crash);
        assert!(t.put(b"r2", b"q", b"lost").is_err());
        assert!(plan.is_crashed());
        c.crash_and_reopen().unwrap();
        let t = c.table("t").unwrap();
        assert_eq!(t.get(b"r", b"q").unwrap().unwrap(), b"committed");
        // The crashed put never hit the WAL; it is correctly gone.
        assert!(t.get(b"r2", b"q").unwrap().is_none());
        // Timestamps stay monotone across the reopen.
        t.put(b"r3", b"q", b"after").unwrap();
        assert_eq!(t.get(b"r3", b"q").unwrap().unwrap(), b"after");
    }

    #[test]
    fn faulty_cluster_disarmed_is_transparent() {
        use dt_common::fault::FaultPlan;

        let plan = Arc::new(FaultPlan::none());
        let c = KvCluster::in_memory_faulty(KvConfig::default(), plan.clone());
        let t = c.table_or_create("t").unwrap();
        t.put(b"r", b"q", b"v").unwrap();
        t.flush().unwrap();
        assert_eq!(t.get(b"r", b"q").unwrap().unwrap(), b"v");
        assert_eq!(plan.injected_count(), 0);
        assert_eq!(plan.ops_seen(), 0, "disarmed plan must not even count");
    }

    #[test]
    fn transient_wal_fault_is_retried_invisibly() {
        use dt_common::fault::{FaultKind, FaultPlan};

        let plan = Arc::new(FaultPlan::new(11));
        let c = KvCluster::in_memory_faulty(KvConfig::default(), plan.clone());
        let t = c.table_or_create("t").unwrap();
        plan.fail_transient_next(FaultKind::TransientWriteError, 2);
        // Two WAL-append hiccups, then success: the caller never notices.
        t.put(b"r", b"q", b"v").unwrap();
        assert_eq!(t.get(b"r", b"q").unwrap().unwrap(), b"v");
        let snap = c.health_snapshot();
        assert_eq!(snap.retry.retries, 2);
        assert_eq!(snap.retry.retry_successes, 1);
        assert_eq!(snap.degraded, 0);
    }

    #[test]
    fn permanent_wal_failure_degrades_to_read_only_until_reopen() {
        use dt_common::fault::{FaultKind, FaultPlan};

        let plan = Arc::new(FaultPlan::new(12));
        let c = KvCluster::in_memory_faulty(KvConfig::default(), plan.clone());
        let t = c.table_or_create("t").unwrap();
        t.put(b"r", b"q", b"durable").unwrap();
        // A permanent (non-transient) WAL failure: retry must NOT mask it.
        plan.fail_next(FaultKind::WriteError);
        assert!(t.put(b"r2", b"q", b"lost").is_err());
        assert!(t.is_degraded());
        assert_eq!(c.health_snapshot().degraded, 1);
        // Reads keep serving durable data; writes are refused outright
        // (the WAL is not even attempted), and permanently: no retry can
        // succeed before the reopen.
        assert_eq!(t.get(b"r", b"q").unwrap().unwrap(), b"durable");
        let err = t.put(b"r3", b"q", b"refused").unwrap_err();
        assert!(
            matches!(&err, Error::Io(e) if e.kind() == std::io::ErrorKind::ReadOnlyFilesystem),
            "got {err:?}"
        );
        assert!(!err.is_transient());
        assert_eq!(plan.injected_count(), 1, "degraded writes never hit I/O");
        // Reopening the table is the recovery action.
        c.crash_and_reopen().unwrap();
        let t = c.table("t").unwrap();
        assert!(!t.is_degraded());
        assert_eq!(c.health_snapshot().degraded, 0);
        t.put(b"r4", b"q", b"back").unwrap();
        assert_eq!(t.get(b"r4", b"q").unwrap().unwrap(), b"back");
        assert_eq!(t.get(b"r2", b"q").unwrap(), None, "failed put stayed out");
    }

    #[test]
    fn table_or_create_is_idempotent() {
        let c = KvCluster::in_memory(KvConfig::default());
        c.table_or_create("x")
            .unwrap()
            .put(b"a", b"b", b"c")
            .unwrap();
        assert_eq!(
            c.table_or_create("x")
                .unwrap()
                .get(b"a", b"b")
                .unwrap()
                .unwrap(),
            b"c"
        );
        assert_eq!(c.table_names(), vec!["x".to_string()]);
    }
}
