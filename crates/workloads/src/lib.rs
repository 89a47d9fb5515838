//! Synthetic workloads reproducing the paper's two evaluation data sets
//! and its statement mixes:
//!
//! * [`tpch`] — dbgen-style generators for TPC-H `lineitem` and `orders`
//!   (the two largest TPC-H tables, used in §VI-B), plus the evaluation's
//!   queries (Q1, Q12, `COUNT(*)`) and DML statements (DML-a/b/c).
//! * [`smartgrid`] — generators for the Zhejiang-Grid tables of Tables II
//!   and III (same column names, 36-day uniform date spread), and the
//!   U#1–U#4 / D#1–D#4 statements of Table IV with their modification
//!   ratios.
//! * [`scenarios`] — the stored-procedure corpora behind Table I and the
//!   DML-ratio analyzer that reproduces its percentages.
//!
//! All generators are deterministic: the same seed yields the same rows on
//! every platform (they use [`dt_common::Rng64`], not `rand`).

pub mod scenarios;
pub mod smartgrid;
pub mod tpch;
