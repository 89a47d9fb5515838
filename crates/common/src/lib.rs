//! Shared foundation types for the DualTable reproduction.
//!
//! Everything that more than one crate needs lives here:
//!
//! * [`Schema`], [`Field`], [`DataType`], [`Value`], [`Row`] — the logical
//!   data model shared by the columnar format, the KV store cell codec, the
//!   query engine and DualTable itself.
//! * [`RecordId`] — the `(file_id, row_number)` identifier that links a
//!   Master-Table row to its Attached-Table entries (paper §V-B).
//! * [`codec`] — varint / zig-zag / length-prefixed primitives used by the
//!   on-disk formats.
//! * [`crc32`] — CRC-32 (IEEE) for WAL and block checksums.
//! * [`counters`] — the [`Counter`] instrument and the declaration form
//!   behind every tier's I/O volumes (cost-model calibration, experiments)
//!   and `SHOW HEALTH` rows.
//! * [`rng`] — a small deterministic PRNG so workload generation is
//!   reproducible across platforms.
//! * [`clock`] — a logical timestamp source for multi-version cells.

pub mod clock;
pub mod codec;
pub mod counters;
pub mod crash_matrix;
pub mod crc32;
pub mod deadline;
pub mod error;
pub mod fault;
pub mod lru;
pub mod record_id;
pub mod retry;
pub mod rng;
pub mod seed_report;
pub mod types;

pub use clock::LogicalClock;
pub use counters::Counter;
pub use crash_matrix::{run_crash_matrix, CrashMatrixReport};
pub use deadline::Deadline;
pub use error::{Error, ErrorClass, Result};
pub use fault::{FaultKind, FaultPlan, IoOp};
pub use lru::LruCache;
pub use record_id::RecordId;
pub use retry::{RetryCounters, RetryPolicy, RetrySnapshot};
pub use rng::Rng64;
pub use seed_report::{seed_from_env, with_seed_repro};
pub use types::{DataType, Field, Row, Schema, Value};
