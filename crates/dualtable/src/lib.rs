//! **DualTable** — the hybrid storage model of *"DualTable: A Hybrid Storage
//! Model for Update Optimization in Hive"* (ICDE 2015), built on the
//! workspace's HDFS-like DFS ([`dt_dfs`]), ORC-like columnar format
//! ([`dt_orcfile`]) and HBase-like LSM store ([`dt_kvstore`]).
//!
//! A [`DualTableStore`] is one table made of (paper §III):
//!
//! * a **Master Table** — a set of immutable ORC files in a DFS directory,
//!   batch-read optimized, initially holding all records;
//! * an **Attached Table** — a KV table holding *update cells* (new values
//!   for individual columns) and *delete markers*, keyed by record ID;
//! * a **record ID** per row: the master file's table-unique *file ID*
//!   (allocated from a system-wide metadata table, stored in ORC user
//!   metadata) concatenated with the row number computed during reads
//!   (§V-B) — see [`dt_common::RecordId`];
//! * **UNION READ** — a linear merge of the master scan with the attached
//!   scan (both ordered by record ID), overlaying updated cells and
//!   dropping deleted rows;
//! * **UPDATE / DELETE** executed by one of two plans, chosen by the §IV
//!   **cost model** ([`CostModel`]): the *EDIT plan* writes deltas to the
//!   Attached Table, the *OVERWRITE plan* rewrites the Master Table;
//! * **COMPACT** — folds the Attached Table into a fresh Master Table and
//!   clears it, blocking other operations while it runs.
//!
//! ```
//! use dt_common::{DataType, Schema, Value};
//! use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, RatioHint};
//!
//! let env = DualTableEnv::in_memory();
//! let schema = Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Float64)]);
//! let t = DualTableStore::create(&env, "meter", schema, DualTableConfig::default()).unwrap();
//! t.insert_rows((0..100).map(|i| vec![Value::Int64(i), Value::Float64(0.0)])).unwrap();
//!
//! // UPDATE meter SET v = 1.0 WHERE id < 3  — the cost model picks EDIT.
//! let report = t.update(
//!     |row| row[0].as_i64().unwrap() < 3,
//!     &[(1, Box::new(|_| Ok(Value::Float64(1.0))))],
//!     RatioHint::Explicit(0.03),
//! ).unwrap();
//! assert_eq!(report.rows_matched, 3);
//!
//! let rows = t.scan_all().unwrap();
//! assert_eq!(rows.len(), 100);
//! assert_eq!(rows[2].1[1], Value::Float64(1.0));
//! ```

mod attached;
mod commit;
mod compactor;
mod config;
mod cost;
mod delta;
mod env;
mod meta;
mod mvcc;
mod presence;
mod rewrite;
mod shard;
mod store;
mod txn;
mod union_read;

pub use attached::{AttachedEntry, DELETE_MARKER_QUALIFIER};
pub use compactor::{CompactionController, CompactionMode, CompactorState, FoldOutcome};
pub use config::{CompactionConfig, DualTableConfig, PlanMode};
pub use cost::{CostModel, PlanChoice, Rates, RatioHint};
pub use env::{
    DualTableEnv, HealthReport, ServerCounters, ServerSnapshot, ShardCounters, ShardSnapshot,
    TableCounters, TableSnapshot,
};
pub use meta::MetadataManager;
pub use mvcc::MvccRegistry;
pub use presence::{FilePresence, PresenceIndex, PRESENCE_FILE_ID};
pub use rewrite::RewriteJob;
pub use shard::{ShardFoldStats, ShardMap, ShardSpec, ShardedDmlReport, ShardedTable};
pub use store::{
    assign_rows, Assignment, DmlReport, DualTableStore, PlanPreview, RowSelector, TableStats,
};
pub use txn::{Snapshot, Transaction};
pub use union_read::{ConsumeFn, MapFn, UnionReadOptions};
