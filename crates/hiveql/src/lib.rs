//! A HiveQL dialect over pluggable storage handlers, with the DualTable
//! DML extensions of paper §V-A.
//!
//! Statements are parsed by a recursive-descent parser ([`parser::parse`]),
//! planned and executed by [`exec::Executor`], and dispatched to storage
//! through [`catalog::TableHandle`] — the moral equivalent of Hive's
//! InputFormat/OutputFormat/SerDe storage-handler stack (Figure 3):
//!
//! * `STORED AS ORC` → stock Hive on the DFS ([`dt_baselines::HiveHdfsTable`]);
//! * `STORED AS HBASE` → the HBase handler ([`dt_baselines::HiveHbaseTable`]);
//! * `STORED AS DUALTABLE` → the paper's hybrid model ([`dualtable::DualTableStore`]);
//! * `STORED AS ACID` → Hive-ACID-style base+delta ([`dt_baselines::HiveAcidTable`]).
//!
//! The three comparators sit behind one [`dt_baselines::StorageHandler`];
//! every single-table SELECT, on any storage, scans through one
//! [`catalog::TableHandle::for_each_batch`] call into the executor.
//!
//! Beyond stock HiveQL 0.11, the dialect adds `UPDATE`, `DELETE` and
//! `COMPACT TABLE` — exactly the commands DualTable's extended parser
//! accepts, routed through the cost model when the table is a DualTable.
//!
//! ```
//! use dt_hiveql::Session;
//!
//! let mut s = Session::in_memory();
//! s.execute("CREATE TABLE meter (id BIGINT, org STRING, kwh DOUBLE) STORED AS DUALTABLE").unwrap();
//! s.execute("INSERT INTO meter VALUES (1, 'hz', 10.0), (2, 'nb', 20.0), (3, 'hz', 30.0)").unwrap();
//! s.execute("UPDATE meter SET kwh = kwh * 2 WHERE org = 'hz'").unwrap();
//! let r = s.execute("SELECT org, SUM(kwh) FROM meter GROUP BY org ORDER BY org").unwrap();
//! assert_eq!(r.rows()[0][1].as_f64().unwrap(), 80.0);
//! ```

pub mod ast;
pub mod catalog;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
mod session;
pub mod sum;
pub mod vector;

pub use catalog::{Catalog, DmlOutcome, SharedCatalog, TableHandle};
pub use exec::{ExecConfig, Executor, QueryResult};
pub use parser::parse;
pub use session::{Session, SessionConfig};
