//! Inputs: a seeded generator for the two tables, and every statement the
//! workloads send, each as one value that gives both its SQL text and the
//! facts the oracle needs to apply it to the model.
//!
//! Nothing here reads the environment: `--seed` is the only input.

use crate::rungs::{Row, Value};

/// SplitMix64. The ladder owns its generator so that a change to the
/// repository's `Rng64` cannot change the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[(self.next_u64() % items.len() as u64) as usize]
    }
}

// ---------------------------------------------------------------------
// lineitem
// ---------------------------------------------------------------------

pub const LINEITEM: &str = "lineitem";
pub const LINEITEM_COLUMNS: &str = "l_orderkey BIGINT, l_partkey BIGINT, l_suppkey BIGINT, \
    l_linenumber BIGINT, l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE, \
    l_tax DOUBLE, l_returnflag STRING, l_linestatus STRING, l_shipdate DATE, \
    l_commitdate DATE, l_receiptdate DATE, l_shipinstruct STRING, l_shipmode STRING, \
    l_comment STRING";

pub const L_ORDERKEY: usize = 0;
pub const L_PARTKEY: usize = 1;
pub const L_LINENUMBER: usize = 3;
pub const L_QUANTITY: usize = 4;
pub const L_EXTENDEDPRICE: usize = 5;
pub const L_DISCOUNT: usize = 6;
pub const L_TAX: usize = 7;
pub const L_RETURNFLAG: usize = 8;
pub const L_LINESTATUS: usize = 9;
pub const L_SHIPDATE: usize = 10;

/// 1992-01-01 in days since the epoch, and the span base rows cover.
pub const DATE_BASE: i32 = 8035;
pub const DATE_SPAN: i32 = 2556;
/// Q1's cutoff: 90 days before the last base ship date.
pub const Q1_CUTOFF: i32 = DATE_BASE + DATE_SPAN - 90;

const LINES_PER_ORDER: i64 = 4;

/// Rows `first..first + n` of an endless lineitem stream. Ship dates rise
/// with the row index over the first `base` rows (a fact table loaded in
/// date order, so a date range filter can skip stripes) and rows past
/// `base` — the batches a cycle appends — all carry dates after the span.
pub fn lineitem_rows(seed: u64, base: usize, first: usize, n: usize) -> Vec<Row> {
    (first..first + n)
        .map(|i| {
            // One generator state per row: any slice of the stream can be
            // produced without producing the rows before it.
            let mut r = Rng::new(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let shipdate = if i < base {
                DATE_BASE + (i as i64 * i64::from(DATE_SPAN) / base as i64) as i32
            } else {
                DATE_BASE + DATE_SPAN + 1 + (r.range(0, 29) as i32)
            };
            let quantity = r.range(1, 50) as f64;
            vec![
                Value::Int64(i as i64 / LINES_PER_ORDER + 1),
                Value::Int64(r.range(1, 200_000)),
                Value::Int64(r.range(1, 10_000)),
                Value::Int64(i as i64 % LINES_PER_ORDER + 1),
                Value::Float64(quantity),
                Value::Float64(quantity * r.range(900, 100_000) as f64 / 100.0),
                Value::Float64(r.range(0, 10) as f64 / 100.0),
                Value::Float64(r.range(0, 8) as f64 / 100.0),
                Value::Utf8(r.pick(&["R", "A", "N"]).into()),
                Value::Utf8(r.pick(&["O", "F"]).into()),
                Value::Date(shipdate),
                Value::Date(shipdate + r.range(-30, 30) as i32),
                Value::Date(shipdate + r.range(1, 30) as i32),
                Value::Utf8(
                    r.pick(&[
                        "DELIVER IN PERSON",
                        "COLLECT COD",
                        "NONE",
                        "TAKE BACK RETURN",
                    ])
                    .into(),
                ),
                Value::Utf8(
                    r.pick(&["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"])
                        .into(),
                ),
                Value::Utf8(format!("comment-{:016x}", r.next_u64())),
            ]
        })
        .collect()
}

/// The order key of stream row `i` (batches are deleted by key range).
pub fn orderkey_of(i: usize) -> i64 {
    i as i64 / LINES_PER_ORDER + 1
}

/// A statement on `lineitem`.
#[derive(Debug, Clone, PartialEq)]
pub enum TpchStmt {
    /// TPC-H Q1, the pricing summary report.
    Q1,
    Count,
    /// `COUNT(*), SUM(l_extendedprice)` over a ship-date range.
    ShipRange {
        lo: i32,
        hi: i32,
    },
    /// `SET l_quantity = l_quantity + 1 WHERE l_partkey % 100 = r` (1 %).
    Edit1 {
        r: i64,
    },
    /// `SET l_tax = l_tax + 0.01 WHERE l_partkey % 20 = r` (5 %).
    Edit5 {
        r: i64,
    },
    /// `SET l_discount = l_discount + 0.01 WHERE l_partkey % 2 = r` (50 %).
    Over50 {
        r: i64,
    },
    /// Deletes one appended batch by its order-key range.
    DeleteKeys {
        lo: i64,
        hi: i64,
    },
    /// Appends stream rows `first..first + n`.
    Insert {
        first: usize,
        n: usize,
    },
    Compact,
}

impl TpchStmt {
    /// The statement text against `table` (`lineitem`, or the Hive copy).
    /// `Insert` needs the rows it carries.
    pub fn sql(&self, table: &str, rows: &[Row]) -> String {
        match self {
            TpchStmt::Q1 => format!(
                "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                 SUM(l_extendedprice) AS sum_base_price, \
                 SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                 SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
                 AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                 AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
                 FROM {table} WHERE l_shipdate <= DATE {Q1_CUTOFF} \
                 GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
            ),
            TpchStmt::Count => format!("SELECT COUNT(*) FROM {table}"),
            TpchStmt::ShipRange { lo, hi } => format!(
                "SELECT COUNT(*), SUM(l_extendedprice) FROM {table} \
                 WHERE l_shipdate >= DATE {lo} AND l_shipdate < DATE {hi}"
            ),
            TpchStmt::Edit1 { r } => format!(
                "UPDATE {table} SET l_quantity = l_quantity + 1 WHERE l_partkey % 100 = {r}"
            ),
            TpchStmt::Edit5 { r } => {
                format!("UPDATE {table} SET l_tax = l_tax + 0.01 WHERE l_partkey % 20 = {r}")
            }
            TpchStmt::Over50 { r } => format!(
                "UPDATE {table} SET l_discount = l_discount + 0.01 WHERE l_partkey % 2 = {r}"
            ),
            TpchStmt::DeleteKeys { lo, hi } => {
                format!("DELETE FROM {table} WHERE l_orderkey >= {lo} AND l_orderkey < {hi}")
            }
            TpchStmt::Insert { .. } => insert_sql(table, rows),
            TpchStmt::Compact => format!("COMPACT TABLE {table}"),
        }
    }
}

// ---------------------------------------------------------------------
// readings (smart grid)
// ---------------------------------------------------------------------

pub const READINGS_COLUMNS: &str = "zdjh BIGINT, rq DATE, rcjl DOUBLE, status BIGINT";
pub const R_ZDJH: usize = 0;
pub const R_RCJL: usize = 2;
pub const R_STATUS: usize = 3;

/// Readings for terminals `first..first + n`: one row each, status 0.
/// `rcjl` is a small whole number, so sums of it are exact in any order.
pub fn readings_rows(seed: u64, first: i64, n: usize) -> Vec<Row> {
    (first..first + n as i64)
        .map(|id| {
            let mut r = Rng::new(seed ^ (id as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            vec![
                Value::Int64(id),
                Value::Date(16_000 + (id % 36) as i32),
                Value::Float64(r.range(90, 96) as f64),
                Value::Int64(0),
            ]
        })
        .collect()
}

/// A statement on a readings-schema table named `table`.
#[derive(Debug, Clone, PartialEq)]
pub enum GridStmt {
    /// The dashboard: `status, COUNT(*), SUM(rcjl) GROUP BY status`.
    Dashboard,
    Count,
    /// `COUNT(*), SUM(rcjl)` over terminals `lo..hi`.
    IdRange {
        lo: i64,
        hi: i64,
    },
    /// `SET status = s` for terminals `lo..hi`.
    SetStatus {
        lo: i64,
        hi: i64,
        status: i64,
    },
    /// `SET status = 0 WHERE zdjh % 2 = r` (50 %).
    ResetHalf {
        r: i64,
    },
    DeleteIds {
        lo: i64,
        hi: i64,
    },
    /// Appends terminals `first..first + n`.
    Insert {
        first: i64,
        n: usize,
    },
    CompactIncremental,
    Compact,
}

impl GridStmt {
    pub fn sql(&self, table: &str, rows: &[Row]) -> String {
        match self {
            GridStmt::Dashboard => format!(
                "SELECT status, COUNT(*), SUM(rcjl) FROM {table} GROUP BY status ORDER BY status"
            ),
            GridStmt::Count => format!("SELECT COUNT(*) FROM {table}"),
            GridStmt::IdRange { lo, hi } => format!(
                "SELECT COUNT(*), SUM(rcjl) FROM {table} WHERE zdjh >= {lo} AND zdjh < {hi}"
            ),
            GridStmt::SetStatus { lo, hi, status } if hi - lo == 1 => {
                format!("UPDATE {table} SET status = {status} WHERE zdjh = {lo}")
            }
            GridStmt::SetStatus { lo, hi, status } => {
                format!("UPDATE {table} SET status = {status} WHERE zdjh >= {lo} AND zdjh < {hi}")
            }
            GridStmt::ResetHalf { r } => {
                format!("UPDATE {table} SET status = 0 WHERE zdjh % 2 = {r}")
            }
            GridStmt::DeleteIds { lo, hi } if hi - lo == 1 => {
                format!("DELETE FROM {table} WHERE zdjh = {lo}")
            }
            GridStmt::DeleteIds { lo, hi } => {
                format!("DELETE FROM {table} WHERE zdjh >= {lo} AND zdjh < {hi}")
            }
            GridStmt::Insert { .. } => insert_sql(table, rows),
            GridStmt::CompactIncremental => format!("COMPACT TABLE {table} INCREMENTAL"),
            GridStmt::Compact => format!("COMPACT TABLE {table}"),
        }
    }
}

// ---------------------------------------------------------------------
// SQL literals
// ---------------------------------------------------------------------

fn insert_sql(table: &str, rows: &[Row]) -> String {
    let mut sql = format!("INSERT INTO {table} VALUES ");
    for (i, row) in rows.iter().enumerate() {
        sql.push_str(if i == 0 { "(" } else { ", (" });
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                sql.push_str(", ");
            }
            match v {
                Value::Int64(x) => sql.push_str(&x.to_string()),
                // `{:?}` prints the shortest text that parses back to the
                // same f64, so the table holds the model's exact value.
                Value::Float64(x) => sql.push_str(&format!("{x:?}")),
                Value::Utf8(s) => {
                    sql.push('\'');
                    sql.push_str(s);
                    sql.push('\'');
                }
                Value::Date(d) => sql.push_str(&format!("DATE {d}")),
                Value::Bool(b) => sql.push_str(if *b { "TRUE" } else { "FALSE" }),
                Value::Null => sql.push_str("NULL"),
            }
        }
        sql.push(')');
    }
    sql
}

/// Bytes of user data in `rows`: 8 per number, 4 per date, the length of
/// each string. The base of every "per user byte" ratio.
pub fn raw_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .flatten()
        .map(|v| match v {
            Value::Int64(_) | Value::Float64(_) => 8,
            Value::Date(_) => 4,
            Value::Utf8(s) => s.len() as u64,
            Value::Bool(_) => 1,
            Value::Null => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_any_slice_of_the_stream() {
        let a = lineitem_rows(7, 1000, 0, 1000);
        assert_eq!(a, lineitem_rows(7, 1000, 0, 1000));
        assert_ne!(a, lineitem_rows(8, 1000, 0, 1000));
        assert_eq!(a[400..500], lineitem_rows(7, 1000, 400, 100)[..]);
        assert_eq!(readings_rows(3, 0, 64), readings_rows(3, 0, 64));
        assert_ne!(readings_rows(3, 0, 64), readings_rows(4, 0, 64));
    }

    #[test]
    fn base_ship_dates_rise_and_appended_rows_fall_after_the_span() {
        let rows = lineitem_rows(1, 500, 0, 600);
        let date = |r: &Row| match r[L_SHIPDATE] {
            Value::Date(d) => d,
            _ => unreachable!(),
        };
        assert!(rows[..500].windows(2).all(|w| date(&w[0]) <= date(&w[1])));
        assert!(rows[..500].iter().all(|r| date(r) < DATE_BASE + DATE_SPAN));
        assert!(rows[500..].iter().all(|r| date(r) > DATE_BASE + DATE_SPAN));
    }

    #[test]
    fn modulo_predicates_hit_their_nominal_share() {
        let rows = lineitem_rows(5, 20_000, 0, 20_000);
        let share = |m: i64| {
            rows.iter()
                .filter(|r| matches!(r[L_PARTKEY], Value::Int64(p) if p % m == 3))
                .count() as f64
                / rows.len() as f64
        };
        assert!((0.007..0.013).contains(&share(100)));
        assert!((0.04..0.06).contains(&share(20)));
    }
}
