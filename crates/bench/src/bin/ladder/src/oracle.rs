//! The reference model: a plain `Vec<Row>` per table. Every statement a
//! workload sends is applied here as well, and every result the engine
//! returns is compared with what the model says it should be.

use std::collections::BTreeMap;

use crate::gen::*;
use crate::rungs::{Row, Value};

/// What a statement should have returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Result rows, in order.
    Rows(Vec<Row>),
    /// Rows matched by a DML statement.
    Affected(u64),
    /// Nothing to compare (COMPACT).
    Nothing,
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int64(x) => *x,
        Value::Date(d) => i64::from(*d),
        other => panic!("model: expected an integer, found {other:?}"),
    }
}

fn float(v: &Value) -> f64 {
    match v {
        Value::Float64(x) => *x,
        other => panic!("model: expected a float, found {other:?}"),
    }
}

/// Two values agree: floats to 1e-9 relative (the engine sums partial
/// aggregates in a different order than the model), all else exactly.
pub fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        // SUM over whole numbers comes back as an integer or a float
        // depending on the inputs' types; the number is what is checked.
        (Value::Int64(x), Value::Float64(y)) | (Value::Float64(y), Value::Int64(x)) => {
            (*x as f64 - y).abs() <= 1e-9 * y.abs()
        }
        _ => a == b,
    }
}

pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_value(p, q)))
}

/// Compares a reply with the model's expectation.
pub fn agrees(expect: &Expect, rows: &[Row], affected: u64) -> bool {
    match expect {
        Expect::Rows(want) => same_rows(want, rows),
        Expect::Affected(n) => *n == affected,
        Expect::Nothing => true,
    }
}

// ---------------------------------------------------------------------
// lineitem
// ---------------------------------------------------------------------

pub struct TpchModel {
    pub rows: Vec<Row>,
    seed: u64,
    base: usize,
}

impl TpchModel {
    pub fn new(seed: u64, base: usize, rows: Vec<Row>) -> TpchModel {
        TpchModel { rows, seed, base }
    }

    /// The rows an `Insert` carries (empty for every other statement).
    pub fn payload(&self, stmt: &TpchStmt) -> Vec<Row> {
        match stmt {
            TpchStmt::Insert { first, n } => lineitem_rows(self.seed, self.base, *first, *n),
            _ => Vec::new(),
        }
    }

    /// Applies `stmt` and says what the engine should answer.
    pub fn apply(&mut self, stmt: &TpchStmt) -> Expect {
        match stmt {
            TpchStmt::Q1 => Expect::Rows(self.q1()),
            TpchStmt::Count => Expect::Rows(vec![vec![Value::Int64(self.rows.len() as i64)]]),
            TpchStmt::ShipRange { lo, hi } => {
                let (mut n, mut sum) = (0i64, 0.0f64);
                for row in &self.rows {
                    let d = int(&row[L_SHIPDATE]);
                    if d >= i64::from(*lo) && d < i64::from(*hi) {
                        n += 1;
                        sum += float(&row[L_EXTENDEDPRICE]);
                    }
                }
                let sum = if n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum)
                };
                Expect::Rows(vec![vec![Value::Int64(n), sum]])
            }
            TpchStmt::Edit1 { r } => self.bump(100, *r, L_QUANTITY, 1.0),
            TpchStmt::Edit5 { r } => self.bump(20, *r, L_TAX, 0.01),
            TpchStmt::Over50 { r } => self.bump(2, *r, L_DISCOUNT, 0.01),
            TpchStmt::DeleteKeys { lo, hi } => {
                let before = self.rows.len();
                self.rows
                    .retain(|row| !(*lo..*hi).contains(&int(&row[L_ORDERKEY])));
                Expect::Affected((before - self.rows.len()) as u64)
            }
            TpchStmt::Insert { .. } => {
                let rows = self.payload(stmt);
                let n = rows.len() as u64;
                self.rows.extend(rows);
                Expect::Affected(n)
            }
            TpchStmt::Compact => Expect::Nothing,
        }
    }

    fn bump(&mut self, modulus: i64, r: i64, column: usize, by: f64) -> Expect {
        let mut matched = 0;
        for row in &mut self.rows {
            if int(&row[L_PARTKEY]) % modulus == r {
                row[column] = Value::Float64(float(&row[column]) + by);
                matched += 1;
            }
        }
        Expect::Affected(matched)
    }

    fn q1(&self) -> Vec<Row> {
        // Per (returnflag, linestatus): qty, price, disc_price, charge,
        // discount sums and the row count.
        let mut groups: BTreeMap<(String, String), ([f64; 5], i64)> = BTreeMap::new();
        for row in &self.rows {
            if int(&row[L_SHIPDATE]) > i64::from(Q1_CUTOFF) {
                continue;
            }
            let (Value::Utf8(flag), Value::Utf8(status)) = (&row[L_RETURNFLAG], &row[L_LINESTATUS])
            else {
                panic!("model: flag and status are strings");
            };
            let (qty, price) = (float(&row[L_QUANTITY]), float(&row[L_EXTENDEDPRICE]));
            let (disc, tax) = (float(&row[L_DISCOUNT]), float(&row[L_TAX]));
            let (sums, n) = groups.entry((flag.clone(), status.clone())).or_default();
            sums[0] += qty;
            sums[1] += price;
            sums[2] += price * (1.0 - disc);
            sums[3] += price * (1.0 - disc) * (1.0 + tax);
            sums[4] += disc;
            *n += 1;
        }
        groups
            .into_iter()
            .map(|((flag, status), (s, n))| {
                let nf = n as f64;
                vec![
                    Value::Utf8(flag),
                    Value::Utf8(status),
                    Value::Float64(s[0]),
                    Value::Float64(s[1]),
                    Value::Float64(s[2]),
                    Value::Float64(s[3]),
                    Value::Float64(s[0] / nf),
                    Value::Float64(s[1] / nf),
                    Value::Float64(s[4] / nf),
                    Value::Int64(n),
                ]
            })
            .collect()
    }

    /// The model's rows in primary-key order, for the final comparison.
    pub fn sorted(&self) -> Vec<Row> {
        sort_lineitem(&self.rows)
    }
}

pub fn sort_lineitem(rows: &[Row]) -> Vec<Row> {
    sorted_by(rows, |r| (int(&r[L_ORDERKEY]), int(&r[L_LINENUMBER])))
}

fn sorted_by<K: Ord>(rows: &[Row], key: impl Fn(&Row) -> K) -> Vec<Row> {
    let mut out = rows.to_vec();
    out.sort_by_key(|r| key(r));
    out
}

// ---------------------------------------------------------------------
// readings
// ---------------------------------------------------------------------

/// The dashboard's answer: per status, row count and `SUM(rcjl)`.
pub type Histogram = BTreeMap<i64, (i64, f64)>;

pub struct GridModel {
    /// Terminal id → (rcjl, status). Ids are unique.
    rows: BTreeMap<i64, (f64, i64)>,
    seed: u64,
    hist: Histogram,
}

impl GridModel {
    pub fn new(seed: u64, rows: &[Row]) -> GridModel {
        let mut m = GridModel {
            rows: BTreeMap::new(),
            seed,
            hist: Histogram::new(),
        };
        m.insert(rows);
        m
    }

    fn insert(&mut self, rows: &[Row]) {
        for row in rows {
            let (rcjl, status) = (float(&row[R_RCJL]), int(&row[R_STATUS]));
            let clash = self.rows.insert(int(&row[R_ZDJH]), (rcjl, status));
            assert!(clash.is_none(), "model: terminal ids are unique");
            let slot = self.hist.entry(status).or_default();
            slot.0 += 1;
            slot.1 += rcjl;
        }
    }

    fn set_status(&mut self, ids: Vec<i64>, status: i64) {
        for id in ids {
            let (rcjl, old) = self.rows[&id];
            self.unhist(old, rcjl);
            let slot = self.hist.entry(status).or_default();
            slot.0 += 1;
            slot.1 += rcjl;
            self.rows.insert(id, (rcjl, status));
        }
    }

    fn unhist(&mut self, status: i64, rcjl: f64) {
        let slot = self.hist.get_mut(&status).expect("status was counted");
        slot.0 -= 1;
        slot.1 -= rcjl;
        if slot.0 == 0 {
            self.hist.remove(&status);
        }
    }

    pub fn count(&self) -> i64 {
        self.rows.len() as i64
    }

    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    pub fn payload(&self, stmt: &GridStmt) -> Vec<Row> {
        match stmt {
            GridStmt::Insert { first, n } => readings_rows(self.seed, *first, *n),
            _ => Vec::new(),
        }
    }

    pub fn apply(&mut self, stmt: &GridStmt) -> Expect {
        match stmt {
            GridStmt::Dashboard => Expect::Rows(histogram_rows(&self.hist)),
            GridStmt::Count => Expect::Rows(vec![vec![Value::Int64(self.count())]]),
            GridStmt::IdRange { lo, hi } => Expect::Rows(vec![self.id_range(*lo, *hi)]),
            GridStmt::SetStatus { lo, hi, status } => {
                let ids: Vec<i64> = self.rows.range(*lo..*hi).map(|(id, _)| *id).collect();
                let n = ids.len() as u64;
                self.set_status(ids, *status);
                Expect::Affected(n)
            }
            GridStmt::ResetHalf { r } => {
                let ids: Vec<i64> = self
                    .rows
                    .keys()
                    .copied()
                    .filter(|id| id % 2 == *r)
                    .collect();
                let n = ids.len() as u64;
                self.set_status(ids, 0);
                Expect::Affected(n)
            }
            GridStmt::DeleteIds { lo, hi } => {
                let ids: Vec<i64> = self.rows.range(*lo..*hi).map(|(id, _)| *id).collect();
                for id in &ids {
                    let (rcjl, status) = self.rows.remove(id).expect("listed above");
                    self.unhist(status, rcjl);
                }
                Expect::Affected(ids.len() as u64)
            }
            GridStmt::Insert { .. } => {
                let rows = self.payload(stmt);
                self.insert(&rows);
                Expect::Affected(rows.len() as u64)
            }
            GridStmt::CompactIncremental | GridStmt::Compact => Expect::Nothing,
        }
    }

    /// `COUNT(*), SUM(rcjl)` over terminals `lo..hi`.
    pub fn id_range(&self, lo: i64, hi: i64) -> Row {
        let (mut n, mut sum) = (0i64, 0.0f64);
        for (rcjl, _) in self.rows.range(lo..hi).map(|(_, v)| v) {
            n += 1;
            sum += rcjl;
        }
        let sum = if n == 0 {
            Value::Null
        } else {
            Value::Float64(sum)
        };
        vec![Value::Int64(n), sum]
    }

    /// `(zdjh, rcjl, status)` in id order, for the final comparison.
    pub fn sorted(&self) -> Vec<(i64, f64, i64)> {
        self.rows.iter().map(|(id, (r, s))| (*id, *r, *s)).collect()
    }
}

pub fn histogram_rows(hist: &Histogram) -> Vec<Row> {
    hist.iter()
        .map(|(status, (n, sum))| {
            vec![
                Value::Int64(*status),
                Value::Int64(*n),
                Value::Float64(*sum),
            ]
        })
        .collect()
}

/// `(zdjh, rcjl, status)` of table rows, in id order.
pub fn sort_readings(rows: &[Row]) -> Vec<(i64, f64, i64)> {
    let mut out: Vec<(i64, f64, i64)> = rows
        .iter()
        .map(|r| (int(&r[R_ZDJH]), float(&r[R_RCJL]), int(&r[R_STATUS])))
        .collect();
    out.sort_by_key(|r| r.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tpch_model_counts_what_it_changes() {
        let rows = lineitem_rows(9, 400, 0, 400);
        let mut m = TpchModel::new(9, 400, rows);
        let Expect::Affected(n) = m.apply(&TpchStmt::Over50 { r: 0 }) else {
            panic!()
        };
        assert!(n > 150 && n < 250);
        assert_eq!(
            m.apply(&TpchStmt::Insert { first: 400, n: 8 }),
            Expect::Affected(8)
        );
        let (lo, hi) = (orderkey_of(400), orderkey_of(408));
        assert_eq!(
            m.apply(&TpchStmt::DeleteKeys { lo, hi }),
            Expect::Affected(8)
        );
        assert_eq!(
            m.apply(&TpchStmt::Count),
            Expect::Rows(vec![vec![Value::Int64(400)]])
        );
        let Expect::Rows(q1) = m.apply(&TpchStmt::Q1) else {
            panic!()
        };
        assert!(q1.len() <= 6 && !q1.is_empty());
    }

    #[test]
    fn grid_histogram_follows_every_statement() {
        let mut m = GridModel::new(2, &readings_rows(2, 0, 100));
        m.apply(&GridStmt::SetStatus {
            lo: 10,
            hi: 30,
            status: 4,
        });
        m.apply(&GridStmt::Insert { first: 100, n: 10 });
        m.apply(&GridStmt::DeleteIds { lo: 20, hi: 25 });
        assert_eq!(m.count(), 105);
        assert_eq!(m.histogram()[&4].0, 15);
        assert_eq!(m.histogram()[&0].0, 90);
        m.apply(&GridStmt::ResetHalf { r: 0 });
        // Terminals 10..20 and 25..30 carry status 4; eight of them are odd.
        assert_eq!(m.histogram()[&4].0, 8);
        let total: i64 = m.histogram().values().map(|v| v.0).sum();
        assert_eq!(total, m.count());
    }

    #[test]
    fn floats_agree_within_tolerance_only() {
        assert!(same_value(
            &Value::Float64(1.0),
            &Value::Float64(1.0 + 1e-12)
        ));
        assert!(!same_value(&Value::Float64(1.0), &Value::Float64(1.001)));
        assert!(same_value(&Value::Int64(5), &Value::Float64(5.0)));
        assert!(!same_value(&Value::Int64(5), &Value::Int64(6)));
    }
}
