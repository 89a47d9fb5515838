//! An ORC-like columnar file format over [`dt_dfs`].
//!
//! The paper stores Master Tables as ORC files on HDFS (§V-B) and relies on
//! two ORC properties:
//!
//! 1. file-level **user metadata** carrying the DualTable *file ID*
//!    allocated from the system-wide metadata table, and
//! 2. **row numbers computed during reads** at zero storage cost, which
//!    combined with the file ID form the record ID.
//!
//! This crate reproduces the format's essentials:
//!
//! * rows are grouped into **stripes** (default 64k rows);
//! * within a stripe each column is stored as an independent **stream**:
//!   a presence bitmap plus a type-specific encoding — run-length/delta
//!   varints for integers and dates, dictionary or direct encoding for
//!   strings, bit-packing for booleans, and for doubles the varints of
//!   `v·10^s` when a scale `s ≤ 4` round-trips every value of the stripe
//!   bit for bit, raw IEEE bytes when none does;
//! * streams are block-**compressed** with a byte-oriented LZ codec, kept
//!   only where it saves at least a tenth of the stream;
//! * per-stripe, per-column **statistics** (min/max/null-count) enable
//!   predicate push-down: stripes whose ranges cannot match are skipped
//!   without being read;
//! * a **footer** records the schema, stripe directory, file statistics and
//!   user metadata, terminated by a fixed postscript with a magic number.
//!
//! ```
//! use dt_common::{DataType, Schema, Value};
//! use dt_dfs::{Dfs, DfsConfig};
//! use dt_orcfile::{OrcWriter, OrcReader, WriterOptions};
//!
//! let dfs = Dfs::in_memory(DfsConfig::default());
//! let schema = Schema::from_pairs(&[("id", DataType::Int64), ("name", DataType::Utf8)]);
//! let mut w = OrcWriter::create(&dfs, "/t/part-0", schema.clone(), WriterOptions::default()).unwrap();
//! w.write_row(vec![Value::Int64(1), Value::from("alice")]).unwrap();
//! w.write_row(vec![Value::Int64(2), Value::from("bob")]).unwrap();
//! w.finish().unwrap();
//!
//! let reader = OrcReader::open(&dfs, "/t/part-0").unwrap();
//! let rows: Vec<_> = reader.rows(None, None).unwrap().map(|r| r.unwrap()).collect();
//! assert_eq!(rows.len(), 2);
//! assert_eq!(rows[0].0, 0); // row number
//! assert_eq!(rows[1].1[1], Value::from("bob"));
//! ```

pub mod batch;
pub mod compress;
pub mod footer_cache;
pub mod predicate;
pub mod rle;
mod schema_io;
pub mod stats;
mod stripe;

mod reader;
mod writer;

pub use batch::{Column, ColumnBatch, ColumnData};
pub use compress::Codec;
pub use footer_cache::{FooterCache, FooterCacheStats};
pub use predicate::{ColumnPredicate, PredicateOp};
pub use reader::{BatchIter, OrcReader, RowIter};
pub use stats::ColumnStats;
pub use stripe::decode_stream;
pub use writer::{OrcWriter, WriterOptions};

/// User-metadata key under which the DualTable file ID is stored.
pub const FILE_ID_METADATA_KEY: &str = "dualtable.file_id";
