//! The shared substrate a set of DualTables lives on: one DFS (master
//! tier), one KV cluster (attached tier + system-wide metadata table).

use std::sync::Arc;

use dt_common::fault::FaultPlan;
use dt_common::{Result, RetryCounters, RetrySnapshot};
use dt_dfs::{Dfs, DfsConfig, DfsSnapshot};
use dt_kvstore::{KvCluster, KvConfig, KvSnapshot};

use crate::compactor::CompactionController;
use crate::meta::MetadataManager;
use crate::mvcc::MvccRegistry;

dt_common::counters! {
    /// What the table tier counts, over every DualTable on an environment:
    /// plan and rewrite work, MVCC conflicts and generation GC, and the
    /// background compactor's fold ledger (`compactions_completed +
    /// compactions_lost_race + compactions_aborted ==
    /// compactions_started`, asserted by the soaks).
    pub struct TableCounters => TableSnapshot {
        ..retry: RetryCounters => RetrySnapshot,
        /// Best-effort cleanups that failed (the next sweep retries them).
        cleanup_failures,
        /// Plan fallbacks (OVERWRITE → EDIT) taken to keep a statement alive.
        plan_fallbacks,
        /// Attached-tier range scans UNION READ skipped for files that are
        /// clean, pruned or unprojected: the presence index proves no
        /// cell, no stripe survives the predicates, or no cell is a delete
        /// marker or an overlay on a projected column.
        attached_scans_skipped,
        /// UNION READs that fanned out over more than one worker
        /// (DESIGN.md §18).
        scans_parallel,
        /// Morsels — master files, and a transaction's buffered inserts —
        /// that those reads split into.
        scan_morsels,
        /// Worker threads used by parallel rewrites (OVERWRITE/COMPACT
        /// fan-out), summed over statements.
        write_workers_used,
        /// Snapshot epochs pinned by readers and transactions (MVCC).
        snapshots_pinned,
        /// Transactions aborted by a first-committer-wins record conflict.
        ww_conflicts,
        /// Swings/transactions aborted by a generation-pointer race.
        swing_conflicts,
        /// Generation GCs deferred because a pinned reader still needs them.
        generations_deferred,
        /// Generation directories the sweep deleted: superseded ones and
        /// those of abandoned or crashed builds.
        generations_gcd,
        /// Background incremental compactions that began building.
        compactions_started,
        /// Incremental compactions whose folded generation swung in.
        compactions_completed,
        /// Incremental compactions that lost the swing race and retired.
        compactions_lost_race,
        /// Incremental compactions aborted by a fault or panic pre-swing.
        compactions_aborted,
        /// Maintenance ticks that fell due while statements held the
        /// service pool's queue, and so waited for it to drain.
        compactor_throttled,
        /// Commits that wrote a decision record: those spanning two or
        /// more stores (DESIGN.md §13).
        commit_records,
    }
}

dt_common::counters! {
    /// What the serving tier (`dualtabled`, DESIGN.md §14) counts. Declared
    /// here because the environment carries it to `SHOW HEALTH`; idle
    /// outside a server. Admission ledger the soaks assert:
    /// `stmts_accepted + stmts_shed == stmts_submitted`.
    pub struct ServerCounters => ServerSnapshot {
        /// Live server connections (gauge).
        sessions_active,
        /// Statements waiting on the dispatch queue (gauge).
        queue_depth,
        /// Statements the workers are running (gauge): the load the pool
        /// grants each statement's degree from. Sampled with `queue_depth`,
        /// at each admission.
        workers_busy,
        /// Statements that arrived at the server front door.
        stmts_submitted,
        /// Statements that passed admission control.
        stmts_accepted,
        /// Statements refused admission with a retryable shed error.
        stmts_shed,
        /// Statements aborted at a row-batch boundary by their deadline.
        stmts_timed_out,
        /// Connections that died with an open transaction (rolled back by
        /// teardown).
        conns_dropped_in_txn,
    }
}

dt_common::counters! {
    /// What the range-sharding tier (DESIGN.md §16) counts. Idle without
    /// sharded tables.
    pub struct ShardCounters => ShardSnapshot {
        /// Live shards across all range-sharded tables (gauge).
        shards_total,
        /// Scans that fanned out across a sharded table.
        scatter_scans,
        /// Shards excluded from scans by range pruning before any I/O.
        shards_pruned_by_range,
    }
}

/// Every tier's counters at one instant — the table behind `SHOW HEALTH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Master tier.
    pub dfs: DfsSnapshot,
    /// Attached tier, with its live `degraded` and `delta_bytes_used`.
    pub kv: KvSnapshot,
    /// Table tier.
    pub table: TableSnapshot,
    /// Serving tier.
    pub server: ServerSnapshot,
    /// Sharding tier.
    pub shard: ShardSnapshot,
}

impl HealthReport {
    /// `(tier, metric, value)` triples: each tier's own counters, in a
    /// stable order — the row source for `SHOW HEALTH`.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, u64)> {
        [
            ("dfs", self.dfs.metrics()),
            ("kv", self.kv.metrics()),
            ("table", self.table.metrics()),
            ("server", self.server.metrics()),
            ("shard", self.shard.metrics()),
        ]
        .into_iter()
        .flat_map(|(tier, rows)| {
            rows.into_iter()
                .map(move |(metric, value)| (tier, metric, value))
        })
        .collect()
    }
}

/// The deployment environment (Figure 3): HDFS for master tables, HBase
/// for attached tables and a system-wide metadata table.
#[derive(Clone)]
pub struct DualTableEnv {
    /// Master tier.
    pub dfs: Dfs,
    /// Attached tier.
    pub kv: KvCluster,
    /// The system-wide metadata manager.
    pub meta: MetadataManager,
    /// Table-tier counters, shared by every table on this environment.
    pub health: Arc<TableCounters>,
    /// The process-wide MVCC registry (DESIGN.md §13): snapshot pins,
    /// write-write conflict windows and deferred generation GC, shared by
    /// every session on this environment.
    pub mvcc: Arc<MvccRegistry>,
    /// Serving-tier counters (DESIGN.md §14), bumped by `dualtabled`'s
    /// admission control and teardown machinery and surfaced as the
    /// `server` tier of `SHOW HEALTH`. Idle (all zero) outside a server.
    pub server_health: Arc<ServerCounters>,
    /// Background-compaction mode/state cell (DESIGN.md §15), shared by
    /// every session (`SET COMPACTION`, `SHOW COMPACTION`) and the
    /// server's maintenance daemon. Inert as a plain library.
    pub compaction: Arc<CompactionController>,
    /// Sharding-tier counters (DESIGN.md §16), bumped by the
    /// [`ShardedTable`](crate::ShardedTable) routing layer and surfaced
    /// as the `shard` tier of `SHOW HEALTH`. Idle without sharded tables.
    pub shard_health: Arc<ShardCounters>,
}

impl DualTableEnv {
    /// Fully in-memory environment (tests, deterministic experiments).
    pub fn in_memory() -> Self {
        Self::new(
            Dfs::in_memory(DfsConfig::default()),
            KvCluster::in_memory(KvConfig::default()),
        )
        .expect("in-memory env cannot fail")
    }

    /// Fully in-memory environment whose every storage operation — DFS
    /// block I/O and KV file I/O alike — consults the shared `plan`.
    ///
    /// Build the plan disarmed (or call [`FaultPlan::set_armed`] around
    /// setup) if table creation itself must not fault; with a disarmed
    /// plan this environment behaves identically to
    /// [`DualTableEnv::in_memory`].
    pub fn in_memory_faulty(plan: Arc<FaultPlan>) -> Result<Self> {
        Self::in_memory_faulty_with(plan, DfsConfig::default(), KvConfig::default())
    }

    /// [`DualTableEnv::in_memory_faulty`] with explicit tier configs —
    /// the entry point for availability experiments that vary the retry
    /// policies (e.g. proving a fault schedule is survivable only *with*
    /// retries).
    pub fn in_memory_faulty_with(
        plan: Arc<FaultPlan>,
        dfs_config: DfsConfig,
        kv_config: KvConfig,
    ) -> Result<Self> {
        Self::new(
            Dfs::in_memory_faulty(dfs_config, plan.clone()),
            KvCluster::in_memory_faulty(kv_config, plan),
        )
    }

    /// Environment over caller-provided tiers. Over existing data, every
    /// commit decision record a dead process left is redone, and every
    /// staged file no commit decided deleted, before any table opens.
    pub fn new(dfs: Dfs, kv: KvCluster) -> Result<Self> {
        let meta = MetadataManager::open(&kv)?;
        let env = DualTableEnv {
            dfs,
            kv,
            meta,
            health: Arc::default(),
            mvcc: Arc::new(MvccRegistry::new()),
            server_health: Arc::default(),
            compaction: Arc::new(CompactionController::new()),
            shard_health: Arc::default(),
        };
        crate::commit::recover(&env)?;
        Ok(env)
    }

    /// A point-in-time health report across all five tiers.
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            dfs: self.dfs.stats().snapshot(),
            kv: self.kv.health_snapshot(),
            table: self.health.snapshot(),
            server: self.server_health.snapshot(),
            shard: self.shard_health.snapshot(),
        }
    }

    /// Simulates a whole-stack crash and restart: heals any sticky
    /// injected crash, reopens every KV table (WAL replay, SSTable
    /// quarantine), restarts the DFS namenode — its in-memory namespace
    /// is discarded and rebuilt from the durable edit log and checkpoint,
    /// implicitly aborting any pending DFS writers (their blocks become
    /// orphans for the next scrub pass) — and settles every commit left
    /// half done (see [`crate::commit`]) before any table opens.
    pub fn crash_and_reopen(&self) -> Result<()> {
        self.kv.crash_and_reopen()?;
        self.dfs.crash_and_reopen()?;
        // No session survives a crash: every pin and conflict window of
        // the old process is gone.
        self.mvcc.reset();
        crate::commit::recover(self)
    }

    /// On-disk environment rooted at `root` (benchmarks with real file
    /// I/O).
    pub fn on_disk(root: impl AsRef<std::path::Path>) -> Result<Self> {
        let root = root.as_ref();
        Self::new(
            Dfs::on_disk(root.join("dfs"), DfsConfig::default())?,
            KvCluster::on_disk(root.join("kv"), KvConfig::default())?,
        )
    }
}
