//! DualTable configuration.

use dt_common::RetryPolicy;
use dt_orcfile::WriterOptions;

use crate::cost::Rates;

/// How UPDATE/DELETE choose their implementation plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Decide per statement with the §IV cost model (the paper's default).
    #[default]
    CostBased,
    /// Always write deltas to the Attached Table ("DualTable EDIT" in the
    /// paper's figures).
    AlwaysEdit,
    /// Always rewrite the Master Table (Hive's behaviour).
    AlwaysOverwrite,
}

/// Background incremental compaction knobs (DESIGN.md §15).
///
/// These bound one *cycle* of the maintenance loop. When a cycle runs,
/// and what happens when one fails, is the server's maintenance tick
/// (`dualtabled`), not a per-table setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionConfig {
    /// Upper bound on master files folded per incremental cycle: the
    /// "pick the k dirtiest" of the fold score
    /// ([`crate::cost::CostModel::fold_score`]). `0` disables
    /// incremental folding entirely (every cycle is a no-op).
    pub max_files_per_cycle: usize,
    /// Files carrying fewer attached cells than this are never fold
    /// candidates — folding them would pay a full rewrite to reclaim
    /// almost nothing.
    pub min_attached_cells: u64,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            max_files_per_cycle: 2,
            min_attached_cells: 1,
        }
    }
}

/// Per-table configuration.
#[derive(Debug, Clone)]
pub struct DualTableConfig {
    /// Maximum rows per master ORC file; inserts roll over to a new file
    /// (and a new file ID) beyond this.
    pub rows_per_file: usize,
    /// ORC writer options for master files.
    pub writer: WriterOptions,
    /// Plan selection mode.
    pub plan_mode: PlanMode,
    /// The cost model's `k`: how many times the table is expected to be
    /// read after a modification (set by the designer or inferred from the
    /// HiveQL code, per §IV).
    pub k_successive_reads: u32,
    /// Throughput rates used by the cost model.
    pub rates: Rates,
    /// Rows sampled when a DML statement provides no ratio hint.
    pub sample_rows: usize,
    /// Encoded size of a delete marker in the Attached Table (the `m` of
    /// the §IV DELETE model).
    pub delete_marker_bytes: u64,
    /// Retry policy for table-level operations that may hit transient
    /// storage faults (COMPACT; see DESIGN.md §8). Tier-internal retries
    /// (DFS pipeline, KV env I/O) are configured on those tiers.
    pub retry: RetryPolicy,
    /// Maximum parsed ORC footers kept by this table's footer cache
    /// (DESIGN.md §10). `0` disables the cache and re-parses every footer
    /// on every open.
    pub footer_cache_entries: u64,
    /// Background incremental compaction knobs (DESIGN.md §15).
    pub compaction: CompactionConfig,
    /// Memory budget for the delta (shadow) tier in the attached kvstore
    /// (DESIGN.md §17). EDIT-plan DML routes its cells through the
    /// WAL-durable in-memory tier — no memtable or SSTable work on the
    /// hot path — until the tier holds this many bytes, at which point it
    /// spills into the LSM proper. `0` disables the delta tier and EDITs
    /// write straight to the memtable (the pre-HTAP behaviour).
    pub delta_bytes: usize,
}

impl Default for DualTableConfig {
    fn default() -> Self {
        DualTableConfig {
            rows_per_file: 1 << 20,
            writer: WriterOptions::default(),
            plan_mode: PlanMode::CostBased,
            k_successive_reads: 1,
            rates: Rates::default(),
            sample_rows: 2_000,
            // Row key (8) + qualifier (2) + LSM entry overhead.
            delete_marker_bytes: 26,
            retry: RetryPolicy::default(),
            footer_cache_entries: 1024,
            compaction: CompactionConfig::default(),
            delta_bytes: 0,
        }
    }
}
