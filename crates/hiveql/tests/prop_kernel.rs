//! Kernel ≡ row interpreter (DESIGN.md §18). At every selected row of a
//! batch, the vectorised kernels of `dt_hiveql::vector` must return the
//! value `expr::eval` returns on that row, or fail where it fails with the
//! same kind of error; as a WHERE clause they must select the rows it
//! selects; and a grouped aggregate must equal a fold with `eval`, bit for
//! bit, whose SUM and AVG are exact. The exact sum is Shewchuk's partials
//! (as in Python's `math.fsum`), independent of the engine's
//! superaccumulator, which is checked against it here too.
//!
//! The batches are the merged UNION READ batches of a dirty DualTable:
//! low-cardinality strings dictionary-coded, high-cardinality ones stored
//! direct, updated strings appended to the dictionaries (unsorted), deleted
//! rows leaving selection vectors, NULLs in every column, and a
//! transaction's buffered inserts as one trailing batch of direct strings.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use dt_common::rng::Rng64;
use dt_common::{DataType, Deadline, Error, Result, Row, Schema, Value};
use dt_hiveql::ast::{BinOp, Expr, SelectItem, Statement, UnOp};
use dt_hiveql::expr::{eval, is_true, Binding, EvalContext, GroupKey, HashableValue};
use dt_hiveql::sum::Exact;
use dt_hiveql::vector::{self, Input, Kernels};
use dt_hiveql::{parse, Session, SharedCatalog};
use dt_orcfile::{ColumnBatch, WriterOptions};
use dualtable::{
    Assignment, DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint,
    UnionReadOptions,
};
use proptest::prelude::*;

const COLUMNS: [(&str, DataType); 6] = [
    ("i", DataType::Int64),
    ("f", DataType::Float64),
    ("d", DataType::Date),
    ("b", DataType::Bool),
    ("s", DataType::Utf8),
    ("t", DataType::Utf8),
];

/// Column `s`'s values, and the strings expressions compare with: empty,
/// multi-byte, and LIKE wildcards as plain characters.
const WORDS: [&str; 7] = ["alpha", "beta", "gamma", "ab", "", "é%ü", "a_b"];

const PATTERNS: [&str; 9] = ["%", "a%", "%a%", "_", "%%b", "", "é%", "%_%_%", "t1%-%"];

fn schema() -> Schema {
    Schema::from_pairs(&COLUMNS)
}

fn random_value(rng: &mut Rng64, column: usize, n: u64) -> Value {
    if rng.chance(0.15) {
        return Value::Null;
    }
    match column {
        0 => Value::Int64(match rng.next_below(8) {
            0 => 0,
            1 => 9_007_199_254_740_993,
            _ => rng.range_i64(-40, 40),
        }),
        // ±1e16 beside small numbers: a row-order f64 sum loses them.
        1 => Value::Float64(match rng.next_below(12) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            3 => 1e16,
            4 => -1e16,
            _ => rng.range_i64(-400, 400) as f64 / 8.0,
        }),
        2 => Value::Date(rng.range_i64(18_200, 18_400) as i32),
        3 => Value::Bool(rng.chance(0.5)),
        4 => Value::from(*rng.choose(&WORDS)),
        _ => Value::Utf8(format!("t{n}-{}", rng.next_below(1000))),
    }
}

fn random_rows(rng: &mut Rng64, from: u64, n: u64) -> Vec<Row> {
    (from..from + n)
        .map(|k| {
            (0..COLUMNS.len())
                .map(|c| random_value(rng, c, k))
                .collect()
        })
        .collect()
}

/// A dirty DualTable: files of a few stripes each, string overlays,
/// updated numbers, deletes.
fn dirty_table(rng: &mut Rng64) -> (DualTableEnv, DualTableStore) {
    let n = 80 + rng.next_below(120);
    dirty_table_of(rng, n, 100, 40)
}

/// A dirty table of `n` rows, `rows_per_file` to a master file and
/// `stripe_rows` to a stripe, with overlays and delete markers.
fn dirty_table_of(
    rng: &mut Rng64,
    n: u64,
    rows_per_file: usize,
    stripe_rows: usize,
) -> (DualTableEnv, DualTableStore) {
    let env = DualTableEnv::in_memory();
    let config = config(rows_per_file, stripe_rows, PlanMode::AlwaysEdit);
    let table = DualTableStore::create(&env, "k", schema(), config).unwrap();
    table.insert_rows(random_rows(rng, 0, n)).unwrap();
    let salt = rng.next_below(4) as i64;
    let hit = move |r: &Row, m: i64| r[0].as_i64().is_some_and(|i| (i + salt).rem_euclid(m) == 0);
    // New strings and old ones, appended to the stripes' dictionaries.
    let renamed: [Assignment<'static>; 1] = [(
        4,
        Box::new(|r: &Row| {
            Ok(match r[4].as_str() {
                Some(s) if s.len() % 2 == 0 => Value::Utf8(format!("{s}x")),
                Some(_) => Value::from("beta"),
                None => Value::from("alpha"),
            })
        }),
    )];
    let ratio = RatioHint::Explicit(0.01);
    table.update(|r| hit(r, 3), &renamed, ratio).unwrap();
    let nulled: [Assignment<'static>; 2] = [
        (1, Box::new(|_: &Row| Ok(Value::Null))),
        (0, Box::new(|r: &Row| Ok(r[0].clone()))),
    ];
    table.update(|r| hit(r, 5), &nulled, ratio).unwrap();
    table.delete(|r| hit(r, 7), ratio).unwrap();
    (env, table)
}

/// A table's layout, `rows_per_file` to a master file and `stripe_rows`
/// to a stripe, and its DML plan.
fn config(rows_per_file: usize, stripe_rows: usize, plan_mode: PlanMode) -> DualTableConfig {
    DualTableConfig {
        writer: WriterOptions {
            stripe_rows,
            ..WriterOptions::default()
        },
        rows_per_file,
        plan_mode,
        ..DualTableConfig::default()
    }
}

/// The table's merged batches, then a transaction's buffered inserts.
fn batches(rng: &mut Rng64, table: &DualTableStore) -> Vec<ColumnBatch> {
    let mut txn = table.begin_transaction().unwrap();
    txn.insert(random_rows(rng, 1000, 30)).unwrap();
    let mut out = Vec::new();
    txn.for_each_batch(&UnionReadOptions::all(), |_, batch| {
        out.push(batch);
        Ok(ControlFlow::Continue(()))
    })
    .unwrap();
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Num,
    Bool,
    Str,
}

fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
    Expr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Function {
        name: name.into(),
        args,
        wildcard: false,
    }
}

fn leaf(rng: &mut Rng64, ty: Ty) -> Expr {
    let literal = |v: Value| Expr::Literal(v);
    if rng.chance(0.08) {
        return literal(Value::Null);
    }
    match ty {
        Ty::Num => match rng.next_below(8) {
            0 | 1 => Expr::Bound(0),
            2 | 3 => Expr::Bound(1),
            4 => Expr::Bound(2),
            5 => literal(Value::Int64(rng.range_i64(-3, 5))),
            6 => literal(Value::Float64(rng.range_i64(-8, 8) as f64 / 4.0)),
            _ => literal(Value::Date(rng.range_i64(18_250, 18_350) as i32)),
        },
        Ty::Bool => match rng.next_below(3) {
            0 | 1 => Expr::Bound(3),
            _ => literal(Value::Bool(rng.chance(0.5))),
        },
        Ty::Str => match rng.next_below(5) {
            0 | 1 => Expr::Bound(4),
            2 => Expr::Bound(5),
            _ => literal(Value::from(*rng.choose(&WORDS))),
        },
    }
}

/// A random bound expression of (mostly) type `ty`; now and then an
/// operand of another type, so that the error paths are compared too.
fn gen(rng: &mut Rng64, ty: Ty, depth: u32) -> Expr {
    let ty = match rng.chance(0.04) {
        true => *rng.choose(&[Ty::Num, Ty::Bool, Ty::Str]),
        false => ty,
    };
    if depth == 0 || rng.chance(0.2) {
        return leaf(rng, ty);
    }
    let d = depth - 1;
    let sub = |rng: &mut Rng64, ty| Box::new(gen(rng, ty, d));
    match ty {
        Ty::Num => match rng.next_below(8) {
            0..=2 => {
                let op = *rng.choose(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]);
                bin(op, *sub(rng, Ty::Num), *sub(rng, Ty::Num))
            }
            3 => Expr::Unary {
                op: UnOp::Neg,
                operand: sub(rng, Ty::Num),
            },
            4 => match rng.next_below(4) {
                0 => call("abs", vec![*sub(rng, Ty::Num)]),
                1 => call("round", vec![*sub(rng, Ty::Num)]),
                2 => call("length", vec![*sub(rng, Ty::Str)]),
                _ => call("year", vec![Expr::Bound(2)]),
            },
            5 => call("coalesce", vec![*sub(rng, Ty::Num), *sub(rng, Ty::Num)]),
            6 => call(
                "if",
                vec![*sub(rng, Ty::Bool), *sub(rng, Ty::Num), *sub(rng, Ty::Num)],
            ),
            _ => case(rng, Ty::Num, d),
        },
        Ty::Bool => match rng.next_below(10) {
            0 | 1 => {
                let op = *rng.choose(&[
                    BinOp::Eq,
                    BinOp::NotEq,
                    BinOp::Lt,
                    BinOp::LtEq,
                    BinOp::Gt,
                    BinOp::GtEq,
                ]);
                let operands = *rng.choose(&[Ty::Num, Ty::Num, Ty::Str, Ty::Bool]);
                bin(op, *sub(rng, operands), *sub(rng, operands))
            }
            2 | 3 => {
                let op = *rng.choose(&[BinOp::And, BinOp::Or]);
                bin(op, *sub(rng, Ty::Bool), *sub(rng, Ty::Bool))
            }
            4 => Expr::Unary {
                op: UnOp::Not,
                operand: sub(rng, Ty::Bool),
            },
            5 => {
                let operand = *rng.choose(&[Ty::Num, Ty::Str]);
                Expr::IsNull {
                    expr: sub(rng, operand),
                    negated: rng.chance(0.5),
                }
            }
            6 => {
                let probe = *rng.choose(&[Ty::Num, Ty::Str]);
                let mut list: Vec<Expr> = (0..1 + rng.next_below(4))
                    .map(|_| match leaf(rng, probe) {
                        Expr::Bound(_) => Expr::Literal(Value::Int64(1)),
                        literal => literal,
                    })
                    .collect();
                if rng.chance(0.2) {
                    list.push(gen(rng, probe, d));
                }
                Expr::InList {
                    expr: sub(rng, probe),
                    list,
                    negated: rng.chance(0.3),
                }
            }
            7 => Expr::Between {
                expr: sub(rng, Ty::Num),
                low: sub(rng, Ty::Num),
                high: sub(rng, Ty::Num),
                negated: rng.chance(0.3),
            },
            8 => Expr::Like {
                expr: sub(rng, Ty::Str),
                pattern: rng.choose(&PATTERNS).to_string(),
                negated: rng.chance(0.3),
            },
            _ => {
                let probe = *rng.choose(&[Ty::Num, Ty::Str]);
                Expr::InSet {
                    expr: sub(rng, probe),
                    set_index: 0,
                    negated: rng.chance(0.3),
                }
            }
        },
        Ty::Str => match rng.next_below(4) {
            0 => {
                let name = *rng.choose(&["lower", "upper"]);
                call(name, vec![*sub(rng, Ty::Str)])
            }
            1 => call("concat", vec![*sub(rng, Ty::Str), *sub(rng, Ty::Num)]),
            2 => call("coalesce", vec![*sub(rng, Ty::Str), *sub(rng, Ty::Str)]),
            _ => case(rng, Ty::Str, d),
        },
    }
}

/// A searched or simple CASE yielding `ty`.
fn case(rng: &mut Rng64, ty: Ty, depth: u32) -> Expr {
    let simple = rng.chance(0.4);
    let operand = simple.then(|| Box::new(gen(rng, Ty::Str, depth)));
    let branches = (0..1 + rng.next_below(2))
        .map(|_| {
            let when = gen(rng, if simple { Ty::Str } else { Ty::Bool }, depth);
            (when, gen(rng, ty, depth))
        })
        .collect();
    Expr::Case {
        operand,
        branches,
        else_result: rng.chance(0.6).then(|| Box::new(gen(rng, ty, depth))),
    }
}

/// Same value: same type and, floats included, the same bits.
fn same(a: &Value, b: &Value) -> bool {
    a.data_type() == b.data_type() && a.total_cmp(b).is_eq()
}

fn same_kind(a: &Error, b: &Error) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// One expression over one batch, against the row interpreter on
/// `batch.row(i)` for each selected row `i`.
fn check(expr: &Expr, batch: &ColumnBatch, ctx: &EvalContext, rng: &mut Rng64) {
    let input = Input::of(batch);
    let never = Deadline::never();
    let kernels = Kernels::new(&input, ctx, &never);
    let binding = Binding::default();
    let all: Vec<u32> = batch.selected().map(|i| i as u32).collect();
    let by_row: HashMap<u32, Result<Value>> = all
        .iter()
        .map(|&i| (i, eval(expr, &batch.row(i as usize), &binding, ctx)))
        .collect();
    let narrowed: Vec<u32> = all.iter().copied().filter(|_| rng.chance(0.5)).collect();
    for sel in [&all, &narrowed] {
        match kernels.eval(expr, sel) {
            Ok(v) => {
                for &i in sel {
                    match &by_row[&i] {
                        Ok(want) => assert!(
                            same(&v.value(i as usize), want),
                            "{expr:?} row {i}: kernel {:?}, row path {want:?}",
                            v.value(i as usize)
                        ),
                        Err(e) => panic!("{expr:?} row {i}: kernel ok, row path raised {e}"),
                    }
                }
            }
            Err(e) => assert!(
                sel.iter()
                    .any(|i| matches!(&by_row[i], Err(r) if same_kind(r, &e))),
                "{expr:?}: kernel raised {e}, no selected row did"
            ),
        }
    }
    for &i in &all {
        match (kernels.eval(expr, &[i]), &by_row[&i]) {
            (Ok(v), Ok(want)) => assert!(
                same(&v.value(i as usize), want),
                "{expr:?} row {i} alone: kernel {:?}, row path {want:?}",
                v.value(i as usize)
            ),
            (Err(a), Err(b)) => assert!(same_kind(&a, b), "{expr:?} row {i}: {a} vs {b}"),
            (got, want) => {
                let got = got.map(|v| v.value(i as usize));
                panic!("{expr:?} row {i} alone: kernel {got:?}, row path {want:?}")
            }
        }
    }
    // As a WHERE clause: the rows at which the row path yields TRUE. A
    // DML selector treats a row that raises as not matching.
    let matching: Vec<u32> = all
        .iter()
        .copied()
        .filter(|i| matches!(&by_row[i], Ok(v) if is_true(v)))
        .collect();
    match kernels.filter(expr, all.clone()) {
        Ok(hits) => assert_eq!(hits, matching, "{expr:?} as WHERE"),
        Err(_) => assert!(by_row.values().any(Result::is_err)),
    }
    let columns: Vec<usize> = (0..COLUMNS.len()).collect();
    let selected = vector::select(expr, ctx, batch, &columns, COLUMNS.len());
    assert_eq!(selected, matching, "{expr:?} as a DML selector");
}

/// Grouped aggregates through SQL against a fold with `eval` over the
/// table's rows, in UNION READ order.
fn check_grouped(rng: &mut Rng64, session: &mut Session, rows: &[Row]) {
    const KEYS: [&str; 9] = [
        "s",
        "b",
        "i % 3",
        "d",
        "t",
        "upper(s)",
        "s = 'beta'",
        "f",
        "CASE WHEN i > 0 THEN s ELSE t END",
    ];
    const ARGS: [&str; 10] = [
        "f",
        "i",
        "f * (1 - f)",
        "i + 1",
        "d",
        "length(t)",
        "s",
        "i / 0",
        "f + i",
        "CASE WHEN b THEN f END",
    ];
    const WHERES: [&str; 7] = [
        "i > 0",
        "s LIKE '%a%'",
        "b",
        "f < 0.5 OR s IS NULL",
        "NOT (i BETWEEN -10 AND 10)",
        "s IN ('alpha', 'ab', NULL)",
        "t LIKE 't1%'",
    ];
    let keys: Vec<&str> = (0..rng.next_below(3)).map(|_| *rng.choose(&KEYS)).collect();
    let mut items: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    for _ in 0..3 {
        let agg = rng.choose(&["sum", "avg", "min", "max", "count"]);
        items.push(format!("{agg}({})", rng.choose(&ARGS)));
    }
    items.push("count(*)".into());
    let mut sql = format!("SELECT {} FROM k", items.join(", "));
    if rng.chance(0.6) {
        sql.push_str(&format!(" WHERE {}", rng.choose(&WHERES)));
    }
    if !keys.is_empty() {
        sql.push_str(&format!(" GROUP BY {}", keys.join(", ")));
    }
    let got = session.execute(&sql);
    let want = fold(&sql, rows);
    match (got, want) {
        (Ok(got), Some(want)) => {
            assert_eq!(got.rows().len(), want.len(), "{sql}");
            for (g, w) in got.rows().iter().zip(&want) {
                let equal = g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b));
                assert!(equal, "{sql}: got {g:?}, fold {w:?}");
            }
        }
        (Err(_), None) => {}
        (got, want) => panic!("{sql}: SQL {got:?}, fold {want:?}"),
    }
}

/// The statements [`degrees_give_identical_results`] runs at degree 1 and
/// 4: float SUM/AVG under GROUP BY, MIN/MAX of strings, and projections
/// without ORDER BY, whose row order is the scan's.
const DEGREE_QUERIES: [&str; 6] = [
    "SELECT s, sum(f), avg(f), sum(i), avg(i), count(*) FROM k GROUP BY s",
    "SELECT b, i % 3, sum(f * (1 - f)), avg(f + i), min(t), max(s) FROM k \
     WHERE f < 0.5 OR s IS NULL GROUP BY b, i % 3",
    "SELECT min(s), max(s), min(t), max(t), sum(f), count(f) FROM k",
    "SELECT upper(s), max(t), sum(CASE WHEN b THEN f END) FROM k GROUP BY upper(s)",
    "SELECT i, f, s, t FROM k WHERE i > 0",
    "SELECT t, f * 2, d FROM k WHERE s LIKE '%a%' OR b",
];

/// Each of [`DEGREE_QUERIES`] at degree 1 and at degree 4, value for value
/// and bit for bit.
fn check_degrees(session: &mut Session) {
    for sql in DEGREE_QUERIES {
        let [one, four] = [1, 4].map(|degree| {
            let r = dt_engine::with_degree(degree, || session.execute(sql));
            r.unwrap().into_rows()
        });
        assert_eq!(one.len(), four.len(), "{sql}");
        for (a, b) in one.iter().zip(&four) {
            let equal = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y));
            assert!(equal, "{sql}: degree 1 {a:?}, degree 4 {b:?}");
        }
    }
}

/// Right-hand sides that fit their column, by column.
fn fitting(rng: &mut Rng64, column: &str) -> &'static str {
    let pick: &[&'static str] = match column {
        "i" => &[
            "i + 1",
            "i * i",
            "-i",
            "i % 7",
            "length(s)",
            "CASE WHEN b THEN i END",
        ],
        "f" => &[
            "f / 3",
            "f + i",
            "f * -150.5",
            "7",
            "CASE WHEN i > 0 THEN f ELSE i END",
        ],
        "b" => &[
            "NOT b",
            "i > 0",
            "s = 'beta'",
            "b AND f < 0",
            "s LIKE '%a%'",
        ],
        "d" => &["d", "i + 18300", "NULL", "CASE WHEN b THEN d END"],
        _ => &[
            "upper(s)",
            "'beta'",
            "t",
            "CASE WHEN b THEN s ELSE 'é%ü' END",
            "NULL",
        ],
    };
    rng.choose::<&str>(pick)
}

/// An UPDATE of `k` whose SET list holds, in random order, a column set
/// twice, a swap, a NULL-producing right-hand side (`1 / 0`), wrapping
/// BIGINT arithmetic and a BIGINT assigned to a DOUBLE, a few more, and
/// now and then one that raises (`i = s + 1`, `upper(i)`) or does not fit
/// its column (`i = f`).
fn set_statement(rng: &mut Rng64) -> String {
    const FAULTS: [&str; 6] = [
        "i = f",
        "f = s",
        "i = s + 1",
        "b = upper(i)",
        "d = f",
        "f = CASE WHEN i > 0 THEN f ELSE 'x' END",
    ];
    let twice = *rng.choose(&["i", "f", "b", "d", "s"]);
    let mut set = vec![
        "s = t, t = s".to_string(),
        format!("{twice} = {}", fitting(rng, twice)),
        format!("{twice} = {}", fitting(rng, twice)),
        format!("{} = 1 / 0", rng.choose(&["i", "f", "d"])),
        "i = i * 3037000500 + 9223372036854775807".to_string(),
        format!("f = {}", rng.choose(&["i * 3", "i", "-9007199254740993"])),
    ];
    for _ in 0..1 + rng.next_below(3) {
        let column = *rng.choose(&["i", "f", "b", "d", "s", "t"]);
        set.push(format!("{column} = {}", fitting(rng, column)));
    }
    if rng.chance(0.3) {
        set.push(rng.choose(&FAULTS).to_string());
    }
    for k in (1..set.len()).rev() {
        set.swap(k, rng.next_below(k as u64 + 1) as usize);
    }
    let mut sql = format!("UPDATE k SET {}", set.join(", "));
    const WHERES: [&str; 6] = [
        "i > 0",
        "s LIKE '%a%'",
        "b",
        "i % 3 = 1",
        "f < 0.5 OR s IS NULL",
        "t LIKE 't1%'",
    ];
    if rng.chance(0.8) {
        sql.push_str(&format!(" WHERE {}", rng.choose(&WHERES)));
    }
    sql
}

/// An UPDATE by the row interpreter over the model's `rows`, in UNION
/// READ order: at each row its WHERE clause holds TRUE at, every SET
/// right-hand side evaluated on the row as read, widened as INSERT widens
/// and checked against its column, in SET order (a column set twice keeps
/// its last value). The first raise or misfit, in that order, fails it.
fn fold_update(sql: &str, rows: &[Row]) -> Result<Vec<Row>> {
    let Statement::Update {
        assignments,
        predicate,
        ..
    } = parse(sql).unwrap()
    else {
        panic!("an UPDATE")
    };
    let schema = schema();
    let binding = Binding::from_schema("k", &schema);
    let bind = |e: &Expr| e.clone().bind(&binding).unwrap();
    let ctx = EvalContext::default();
    let at = |e: &Expr, row: &Row| eval(e, row, &Binding::default(), &ctx);
    let filter = predicate.as_ref().map(bind);
    let set: Vec<(usize, Expr)> = assignments
        .iter()
        .map(|(col, e)| (schema.require(col).unwrap(), bind(e)))
        .collect();
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut new = row.clone();
        if filter
            .as_ref()
            .is_none_or(|w| at(w, row).is_ok_and(|v| is_true(&v)))
        {
            for (col, e) in &set {
                let ty = COLUMNS[*col].1;
                // INSERT's widening, spelt out here for the oracle.
                let v = match (at(e, row)?, ty) {
                    (Value::Int64(x), DataType::Float64) => Value::Float64(x as f64),
                    (Value::Int64(x), DataType::Date) => Value::Date(x as i32),
                    (v, _) => v,
                };
                if !v.conforms_to(ty) {
                    return Err(Error::schema(format!("{v:?} does not fit")));
                }
                new[*col] = v;
            }
        }
        out.push(new);
    }
    Ok(out)
}

/// Rows by value, floats bit for bit.
fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| same(u, v)))
}

/// Three [`set_statement`]s in turn over the dirty multi-file table `seed`
/// builds, under `plan`, autocommit or each inside `BEGIN … COMMIT`, at
/// rewrite degree `degree`: each must leave exactly the rows
/// [`fold_update`] gives on the rows before it, or fail where it fails
/// with the same kind of error and leave them as they were.
fn check_set(seed: u64, plan: PlanMode, in_txn: bool, degree: usize) {
    let mut rng = Rng64::new(seed);
    let n = 300 + rng.next_below(200);
    let (env, _) = dirty_table_of(&mut rng, n, 100, 40);
    let table = DualTableStore::open(&env, "k", schema(), config(100, 40, plan)).unwrap();
    let mut session = Session::with_shared(env, SharedCatalog::new());
    session.register_dualtable("k", table.clone()).unwrap();
    let scan = || -> Vec<Row> {
        table
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    };
    for _ in 0..3 {
        let sql = set_statement(&mut rng);
        let before = scan();
        let want = fold_update(&sql, &before);
        let got = dt_engine::with_degree(degree, || {
            if in_txn {
                session.execute("BEGIN").unwrap();
            }
            let got = session.execute(&sql);
            if in_txn {
                session.execute("COMMIT").unwrap();
            }
            got
        });
        let case = format!("{sql} ({plan:?}, in transaction: {in_txn}, degree {degree})");
        let after = scan();
        match (got, want) {
            (Ok(_), Ok(want)) => assert!(same_rows(&after, &want), "{case}: rows differ"),
            (Err(got), Err(want)) => {
                assert!(same_kind(&got, &want), "{case}: {got} vs the fold's {want}");
                assert!(same_rows(&after, &before), "{case}: a failed UPDATE wrote");
            }
            (got, want) => panic!(
                "{case}: SQL {:?}, fold {:?}",
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }
}

/// Statements run in flight narrow every other session's reads
/// (`dt_engine::read_degree`): the tests that run SQL take turns.
static SESSIONS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One aggregate's running state, as the row path keeps it. A SUM or AVG
/// keeps every number (a BIGINT as the two DOUBLEs [`parts`] gives) and,
/// while every number is a BIGINT, their exact sum.
enum State {
    Count(i64),
    Sum(Vec<f64>, bool, Option<i128>),
    Avg(Vec<f64>, u64, Option<i128>),
    Min(Option<Value>),
    Max(Option<Value>),
}

/// The statement's result by the row interpreter; `None` if a row raises.
fn fold(sql: &str, rows: &[Row]) -> Option<Vec<Row>> {
    let Statement::Select(stmt) = parse(sql).unwrap() else {
        panic!("a SELECT")
    };
    let binding = Binding::from_schema("k", &schema());
    let bind = |e: &Expr| e.clone().bind(&binding).unwrap();
    let ctx = EvalContext::default();
    let at = |e: &Expr, row: &Row| eval(e, row, &Binding::default(), &ctx);
    let filter = stmt.where_clause.as_ref().map(bind);
    let by: Vec<Expr> = stmt.group_by.iter().map(bind).collect();
    let items: Vec<Expr> = stmt
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, .. } => bind(expr),
            _ => unreachable!(),
        })
        .collect();
    let aggs = &items[by.len()..];
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    let mut groups: Vec<(GroupKey, Row, Vec<State>)> = Vec::new();
    for row in rows {
        if let Some(w) = &filter {
            if !is_true(&at(w, row).ok()?) {
                continue;
            }
        }
        let key: Vec<HashableValue> = by
            .iter()
            .map(|k| at(k, row).ok().map(HashableValue))
            .collect::<Option<_>>()?;
        let key = GroupKey(key);
        let g = *index.entry(key.clone()).or_insert_with(|| {
            let states = aggs.iter().map(new_state).collect();
            groups.push((key, row.clone(), states));
            groups.len() - 1
        });
        for (agg, state) in aggs.iter().zip(&mut groups[g].2) {
            let Expr::Function { args, wildcard, .. } = agg else {
                unreachable!()
            };
            let v = match wildcard {
                true => Value::Bool(true),
                false => at(&args[0], row).ok()?,
            };
            if v.is_null() {
                continue;
            }
            match state {
                State::Count(n) => *n += 1,
                State::Sum(numbers, seen, ints) => {
                    numbers.extend(parts(&v)?);
                    *seen = true;
                    *ints = exact(*ints, &v);
                }
                State::Avg(numbers, n, ints) => {
                    numbers.extend(parts(&v)?);
                    *n += 1;
                    *ints = exact(*ints, &v);
                }
                State::Min(cur) => {
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_lt()) {
                        *cur = Some(v);
                    }
                }
                State::Max(cur) => {
                    if cur.as_ref().is_none_or(|c| v.total_cmp(c).is_gt()) {
                        *cur = Some(v);
                    }
                }
            }
        }
    }
    if groups.is_empty() && by.is_empty() {
        let states = aggs.iter().map(new_state).collect();
        groups.push((GroupKey(Vec::new()), Vec::new(), states));
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(groups.len());
    for (_, rep, states) in groups {
        let mut row: Row = by.iter().map(|k| at(k, &rep).unwrap()).collect();
        for state in states {
            row.push(match state {
                State::Count(n) => Value::Int64(n),
                State::Sum(_, false, _) => Value::Null,
                // A BIGINT SUM outside BIGINT raises, as in the executor.
                State::Sum(_, true, Some(ints)) => Value::Int64(ints.try_into().ok()?),
                State::Sum(numbers, true, None) => Value::Float64(fsum(&numbers)),
                State::Avg(_, 0, _) => Value::Null,
                State::Avg(numbers, n, _) => Value::Float64(fsum(&numbers) / n as f64),
                State::Min(v) | State::Max(v) => v.unwrap_or(Value::Null),
            });
        }
        out.push(row);
    }
    Some(out)
}

/// The exact sum `ints` plus `v`, while every number is a BIGINT.
fn exact(ints: Option<i128>, v: &Value) -> Option<i128> {
    match (ints, v) {
        (Some(sum), Value::Int64(n)) => Some(sum + i128::from(*n)),
        _ => None,
    }
}

/// A number as DOUBLEs that sum to it exactly: a BIGINT as its nearest
/// DOUBLE and the (small) rest; `None` for no number.
fn parts(v: &Value) -> Option<Vec<f64>> {
    Some(match v {
        Value::Int64(n) => {
            let hi = *n as f64;
            vec![hi, (i128::from(*n) - hi as i128) as f64]
        }
        v => vec![v.as_f64()?],
    })
}

/// The exact sum of `xs` rounded once to the nearest DOUBLE, ties to even
/// (+0.0 when it is zero): Shewchuk's non-overlapping partials and the
/// final rounding of Python's `math.fsum`. NaN if any number is NaN or
/// both infinities occur, else ±inf if one does or the sum overflows.
/// The partials must not overflow: numbers beyond 2^960 are summed
/// scaled by 2^-64, which needs every other number at least 2^-900.
fn fsum(xs: &[f64]) -> f64 {
    let (nan, pos, neg) = (
        xs.iter().any(|x| x.is_nan()),
        xs.contains(&f64::INFINITY),
        xs.contains(&f64::NEG_INFINITY),
    );
    if nan || pos && neg {
        return f64::NAN;
    } else if pos || neg {
        return if pos {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    if xs.iter().all(|x| x.abs() < 2f64.powi(960)) {
        return partials_sum(xs);
    }
    let scale = 2f64.powi(64);
    assert!(xs.iter().all(|x| *x == 0.0 || x.abs() >= 2f64.powi(-900)));
    let scaled: Vec<f64> = xs.iter().map(|x| x / scale).collect();
    partials_sum(&scaled) * scale
}

fn partials_sum(xs: &[f64]) -> f64 {
    let mut partials: Vec<f64> = Vec::new();
    for &x in xs {
        let mut x = x;
        let mut kept = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        assert!(x.is_finite(), "the partials overflowed");
        partials.truncate(kept);
        partials.push(x);
    }
    // Add the partials from the top down until the sum is inexact; then
    // a half-way case is decided by the sign of the next partial.
    let Some(mut hi) = partials.pop() else {
        return 0.0;
    };
    let mut lo = 0.0;
    while let Some(y) = partials.pop() {
        let x = hi;
        hi = x + y;
        lo = y - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    if let Some(&next) = partials.last() {
        if lo < 0.0 && next < 0.0 || lo > 0.0 && next > 0.0 {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
    }
    hi + 0.0
}

fn new_state(agg: &Expr) -> State {
    let Expr::Function { name, .. } = agg else {
        unreachable!()
    };
    match name.as_str() {
        "count" => State::Count(0),
        "sum" => State::Sum(Vec::new(), false, Some(0)),
        "avg" => State::Avg(Vec::new(), 0, Some(0)),
        "min" => State::Min(None),
        _ => State::Max(None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random expressions over the batches of a random dirty table.
    #[test]
    fn kernels_agree_with_the_row_interpreter(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let (_env, table) = dirty_table(&mut rng);
        let batches = batches(&mut rng, &table);
        let set: HashSet<HashableValue> = [Value::Float64(1.0), Value::from("beta"), Value::Null]
            .into_iter()
            .map(HashableValue)
            .collect();
        let ctx = EvalContext { sets: vec![set] };
        for _ in 0..60 {
            let ty = *rng.choose(&[Ty::Num, Ty::Bool, Ty::Bool, Ty::Str]);
            let expr = gen(&mut rng, ty, 4);
            for batch in &batches {
                check(&expr, batch, &ctx, &mut rng);
            }
        }
    }

    /// GROUP BY over 0–2 keys with SUM/AVG/MIN/MAX/COUNT, bit for bit.
    #[test]
    fn grouped_aggregates_equal_a_fold_with_eval(seed in any::<u64>()) {
        let _turn = SESSIONS.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = Rng64::new(seed);
        let (env, table) = dirty_table(&mut rng);
        let mut session = Session::with_shared(env, SharedCatalog::new());
        session.register_dualtable("k", table.clone()).unwrap();
        let rows: Vec<Row> = table.scan_all().unwrap().into_iter().map(|(_, r)| r).collect();
        for _ in 0..30 {
            check_grouped(&mut rng, &mut session, &rows);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over a multi-file dirty table large enough to fan out, SELECTs
    /// give byte-identical results at degree 1 and 4 — outside a
    /// transaction and inside one with buffered inserts, updates and
    /// deletes.
    #[test]
    fn degrees_give_identical_results(seed in any::<u64>()) {
        let _turn = SESSIONS.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = Rng64::new(seed);
        let n = 4200 + rng.next_below(1800);
        let (env, table) = dirty_table_of(&mut rng, n, 1500, 500);
        let mut session = Session::with_shared(env.clone(), SharedCatalog::new());
        session.register_dualtable("k", table).unwrap();
        check_degrees(&mut session);
        session.execute("BEGIN").unwrap();
        // Buffered inserts: a copy of every fifth row, NaNs and NULLs too.
        session
            .execute("INSERT INTO k SELECT i + 1000, f, d, b, s, t FROM k WHERE i % 5 = 0")
            .unwrap();
        session.execute("UPDATE k SET f = f / 3, s = 'beta' WHERE i % 4 = 1").unwrap();
        session.execute("DELETE FROM k WHERE i % 9 = 2").unwrap();
        check_degrees(&mut session);
        session.execute("ROLLBACK").unwrap();
        // The degree-4 runs fanned out, wherever a second core exists.
        let fanned = env.health.snapshot().scans_parallel;
        prop_assert!(fanned > 0 || dt_engine::cores() < 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Statement-level SET ([`check_set`]) under forced EDIT and forced
    /// OVERWRITE, autocommit and inside a transaction, at degrees 1 and 2.
    #[test]
    fn set_lists_equal_a_fold_with_eval(seed in any::<u64>()) {
        let _turn = SESSIONS.lock().unwrap_or_else(|e| e.into_inner());
        for plan in [PlanMode::AlwaysEdit, PlanMode::AlwaysOverwrite] {
            for in_txn in [false, true] {
                for degree in [1, 2] {
                    check_set(seed, plan, in_txn, degree);
                }
            }
        }
    }
}

/// The numbers of one accumulator check.
#[derive(Clone, Copy, PartialEq)]
enum Family {
    /// Subnormals to 2^900.
    Wide,
    /// 2^-900 (or 0) to `f64::MAX`, as [`fsum`] needs.
    Huge,
    /// Binades `low..=low + span` (biased exponents), as a column of
    /// prices spans a few: around the limit of the fast path of
    /// `Exact::add_rows`.
    Narrow(u64, u64),
}

/// A DOUBLE of `family` for the accumulator checks, now and then ±inf or
/// NaN.
fn random_double(rng: &mut Rng64, family: Family) -> f64 {
    let sign = if rng.chance(0.5) { -1.0 } else { 1.0 };
    let huge = family == Family::Huge;
    let exponents = if huge { 123..2047 } else { 0..1923 };
    sign * match rng.next_below(12) {
        _ if rng.chance(0.02) => *rng.choose(&[f64::INFINITY, f64::NAN]),
        0 => 0.0,
        _ if let Family::Narrow(low, span) = family => {
            let e = (low + rng.next_below(span + 1)).min(2046);
            f64::from_bits(e << 52 | rng.next_u64() >> 12)
        }
        1 => 1e16,
        2 => 0.1,
        3 => rng.range_i64(-400, 400) as f64 / 8.0,
        4 if huge => f64::from_bits(f64::MAX.to_bits() - rng.next_below(3)),
        4 => f64::from_bits(rng.next_below(1 << 52)),
        // Numbers of a few binades, as a column of prices is.
        5 | 6 => 1000.0 + rng.next_below(1 << 20) as f64 / 64.0,
        _ => {
            let e = exponents.start + rng.next_below(exponents.end - exponents.start);
            f64::from_bits(e << 52 | rng.next_u64() >> 12)
        }
    }
}

/// A BIGINT for the accumulator checks, the extremes included.
fn random_int(rng: &mut Rng64) -> i64 {
    match rng.next_below(4) {
        0 => *rng.choose(&[i64::MIN, i64::MAX, i64::MIN + 1, 1 << 53, -(1 << 62)]),
        1 => rng.range_i64(-1000, 1000),
        _ => rng.next_u64() as i64,
    }
}

/// `xs` and `ints` through one accumulator: the DOUBLEs at `column`
/// (ascending indexes into `xs`) as one column, the rest one by one.
fn accumulate(xs: &[f64], column: &[u32], ints: &[i64]) -> Exact {
    let mut sum = Exact::default();
    sum.add_rows(xs, column);
    for (i, &x) in xs.iter().enumerate() {
        if column.binary_search(&(i as u32)).is_err() {
            sum.add(x);
        }
    }
    // As the engine does: BIGINTs summed in an `i128`, added once.
    sum.add_int(ints.iter().map(|&n| i128::from(n)).sum());
    sum
}

/// Random, now and then empty, ascending indexes into `0..n`.
fn random_column(rng: &mut Rng64, n: usize) -> Vec<u32> {
    let p = *rng.choose(&[0.0, 0.5, 1.0]);
    (0..n as u32).filter(|_| rng.chance(p)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The superaccumulator against the partials: one pass, a permuted
    /// pass and two merged halves all give the exact sum's bits, with
    /// subnormals, ±0, numbers near `f64::MAX`, ±inf, NaN and BIGINTs up
    /// to ±2^63 among the inputs.
    #[test]
    fn exact_sums_equal_the_partials_in_any_order(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        for _ in 0..50 {
            let narrow = Family::Narrow(1 + rng.next_below(2046), rng.next_below(50));
            let family = *rng.choose(&[Family::Wide, Family::Huge, narrow]);
            let n = rng.next_below(60);
            let mut xs: Vec<f64> = (0..n).map(|_| random_double(&mut rng, family)).collect();
            let ints: Vec<i64> = (0..rng.next_below(4)).map(|_| random_int(&mut rng)).collect();
            let all: Vec<f64> = xs
                .iter()
                .copied()
                .chain(ints.iter().flat_map(|&n| parts(&Value::Int64(n)).unwrap()))
                .collect();
            let want = fsum(&all).to_bits();
            let column = random_column(&mut rng, xs.len());
            let got = accumulate(&xs, &column, &ints).value();
            if xs.iter().all(|x| x.is_finite()) {
                prop_assert_eq!(exact_column(&xs, &column), 0.0, "{:?}", xs);
            }
            prop_assert_eq!(got.to_bits(), want, "{:?} + {:?}: {} against {}", xs, ints, got, fsum(&all));
            for i in (1..xs.len()).rev() {
                xs.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let column = random_column(&mut rng, xs.len());
            prop_assert_eq!(accumulate(&xs, &column, &ints).value().to_bits(), want, "permuted");
            let cut = rng.next_below(xs.len() as u64 + 1) as usize;
            let (a, b) = xs.split_at(cut);
            let (ca, cb) = (random_column(&mut rng, a.len()), random_column(&mut rng, b.len()));
            let mut merged = accumulate(a, &ca, &ints[..ints.len() / 2]);
            merged.merge(&accumulate(b, &cb, &ints[ints.len() / 2..]));
            prop_assert_eq!(merged.value().to_bits(), want, "merged at {}", cut);
        }
    }
}

/// Directed cases: cancellation, ten 0.1s, the infinities, overflow,
/// ties, subnormals, BIGINT sums past 2^63 and 2^64, and a column at the
/// limit of the split.
#[test]
fn exact_sums_round_once() {
    let sum = |xs: &[f64], ints: &[i64]| {
        let mut s = accumulate(xs, &[], ints);
        let v = s.clone().value();
        s.merge(&Exact::default());
        assert_eq!(s.value().to_bits(), v.to_bits());
        v
    };
    assert_eq!(sum(&[1e16, 1.0, -1e16], &[]), 1.0);
    assert_eq!(sum(&[0.1; 10], &[]), 1.0);
    assert_eq!(sum(&[f64::INFINITY, 1.0], &[]), f64::INFINITY);
    assert!(sum(&[f64::INFINITY, f64::NEG_INFINITY], &[]).is_nan());
    assert_eq!(sum(&[f64::MAX, f64::MAX], &[]), f64::INFINITY);
    assert_eq!(sum(&[-f64::MAX, -f64::MAX, f64::MAX], &[]), -f64::MAX);
    assert_eq!(sum(&[-0.0, -0.0], &[]).to_bits(), 0f64.to_bits());
    assert_eq!(sum(&[5e-324, 5e-324], &[]), 1e-323);
    assert_eq!(
        sum(&[2f64.powi(-1022), -5e-324], &[]),
        2f64.powi(-1022) - 5e-324
    );
    // Ties go to even; anything below the tie breaks it.
    let two53 = 2f64.powi(53);
    assert_eq!(sum(&[two53, 1.0], &[]), two53);
    assert_eq!(sum(&[two53, 1.0, 2f64.powi(-40)], &[]), two53 + 2.0);
    assert_eq!(sum(&[two53, 1.0, -2f64.powi(-40)], &[]), two53);
    assert_eq!(sum(&[two53 + 2.0, 1.0], &[]), two53 + 4.0);
    assert_eq!(sum(&[f64::MAX, 2f64.powi(970)], &[]), f64::INFINITY);
    assert_eq!(sum(&[f64::MAX, 2f64.powi(970), -5e-324], &[]), f64::MAX);
    assert_eq!(sum(&[0.5], &[i64::MAX, i64::MAX, i64::MIN, i64::MIN]), -1.5);
    assert_eq!(sum(&[], &[i64::MAX, 1]), 2f64.powi(63));
    for n in [i128::MAX / 3, -(1 << 100) - 1, 5 * i128::from(i64::MIN)] {
        let mut exact = Exact::default();
        exact.add_int(n);
        assert_eq!(exact.value(), n as f64, "{n}");
    }
    // A column whose rests all lean one way, each just under half the
    // split's unit, at and past the limit of the split: fifteen numbers
    // of 2^k and one just above 1.
    for k in 38..=53 {
        for sign in [1.0, -1.0] {
            let big = sign * f64::from_bits((1023 + k) << 52 | 0b1_1111);
            let mut xs = vec![big; 15];
            xs.push(sign * (1.0 + f64::EPSILON));
            let rows: Vec<u32> = (0..16).collect();
            assert_eq!(exact_column(&xs, &rows), 0.0, "2^{k}");
        }
    }
}

/// A column added by `Exact::add_rows`, then each of its numbers taken
/// away one by one: exactly zero unless the column path rounded.
fn exact_column(xs: &[f64], rows: &[u32]) -> f64 {
    let mut sum = Exact::default();
    sum.add_rows(xs, rows);
    for &i in rows {
        sum.add(-xs[i as usize]);
    }
    sum.value()
}
