//! Expression binding and evaluation.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

use dt_common::{DataType, Error, Result, Row, Schema, Value};

use crate::ast::{BinOp, Expr, UnOp};

/// Maps `[qualifier.]name` references to row positions for one (possibly
/// joined) row layout.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    /// `(table binding name, column name)` per row position.
    cols: Vec<(Option<String>, String)>,
}

impl Binding {
    /// Binding over one table's schema.
    pub fn from_schema(table: &str, schema: &Schema) -> Self {
        Binding {
            cols: schema
                .fields()
                .iter()
                .map(|f| (Some(table.to_string()), f.name.clone()))
                .collect(),
        }
    }

    /// Binding without a table qualifier (intermediate results).
    pub fn anonymous(names: &[String]) -> Self {
        Binding {
            cols: names.iter().map(|n| (None, n.clone())).collect(),
        }
    }

    /// Appends another binding (the right side of a join).
    pub fn join(&self, other: &Binding) -> Binding {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Binding { cols }
    }

    /// The layout of a scan that reads only `positions`, in that order.
    pub fn project(&self, positions: &[usize]) -> Binding {
        Binding {
            cols: positions.iter().map(|&p| self.cols[p].clone()).collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Positions owned by a given table binding name.
    pub fn positions_of_table(&self, table: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, (q, _))| q.as_deref() == Some(table))
            .map(|(i, _)| i)
            .collect()
    }

    /// Every column: its table binding name, if any, and its name.
    pub fn columns(&self) -> Vec<(Option<String>, String)> {
        self.cols.clone()
    }

    /// Output column names (unqualified).
    pub fn names(&self) -> Vec<String> {
        self.cols.iter().map(|(_, n)| n.clone()).collect()
    }

    /// Resolves a column reference.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_lowercase();
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (q, n))| {
                *n == name
                    && match qualifier {
                        Some(want) => q.as_deref() == Some(want),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(Error::Plan(format!(
                "unknown column '{}{name}'",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(Error::Plan(format!("ambiguous column '{name}'"))),
        }
    }
}

impl Expr {
    /// Resolves every column reference against `binding`, once, so that
    /// evaluation is positional: each [`Expr::Column`] becomes an
    /// [`Expr::Bound`]. Fails on the first unknown or ambiguous name —
    /// before any row is read.
    pub fn bind(self, binding: &Binding) -> Result<Expr> {
        match self {
            Expr::Column { qualifier, name } => binding
                .resolve(qualifier.as_deref(), &name)
                .map(Expr::Bound),
            other => other.map_children(&mut |child| child.bind(binding)),
        }
    }

    /// Adds the positions in `binding` of every column the expression
    /// references to `out`. Names that do not resolve are left for
    /// [`Expr::bind`] to report.
    pub fn columns_into(&self, binding: &Binding, out: &mut std::collections::BTreeSet<usize>) {
        if let Expr::Column { qualifier, name } = self {
            out.extend(binding.resolve(qualifier.as_deref(), name));
        }
        for child in self.children() {
            child.columns_into(binding, out);
        }
    }
}

/// What the row interpreter evaluates over: anything that yields the
/// value at a position of the bound row layout — a row, or one row of a
/// column batch in place ([`crate::vector`]).
pub trait RowRef {
    /// The value at `pos`.
    fn value(&self, pos: usize) -> Value;
}

impl RowRef for Row {
    fn value(&self, pos: usize) -> Value {
        self[pos].clone()
    }
}

/// Extra evaluation state: precomputed `IN (SELECT …)` sets.
#[derive(Debug, Default)]
pub struct EvalContext {
    /// Sets referenced by [`Expr::InSet`].
    pub sets: Vec<HashSet<HashableValue>>,
}

/// A [`Value`] wrapper with total `Eq`/`Hash` (NaN-safe), used for hash
/// joins, IN-sets and GROUP BY keys.
#[derive(Debug, Clone)]
pub struct HashableValue(pub Value);

impl PartialEq for HashableValue {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for HashableValue {}

impl Hash for HashableValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => 0u8.hash(state),
            Value::Int64(v) => {
                // Hash ints and whole floats identically so mixed-type
                // equi-joins work.
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float64(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Utf8(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
            Value::Date(d) => {
                2u8.hash(state);
                f64::from(*d).to_bits().hash(state);
            }
        }
    }
}

/// A grouping/sort key with total order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey(pub Vec<HashableValue>);

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            match a.0.total_cmp(&b.0) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// Evaluates `expr` against one row. Bound column references
/// ([`Expr::bind`]) read their position directly; unbound ones are looked
/// up in `binding` by name, per call.
pub fn eval<R: RowRef + ?Sized>(
    expr: &Expr,
    row: &R,
    binding: &Binding,
    ctx: &EvalContext,
) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Bound(pos) => Ok(row.value(*pos)),
        Expr::Column { qualifier, name } => {
            let i = binding.resolve(qualifier.as_deref(), name)?;
            Ok(row.value(i))
        }
        Expr::Unary { op, operand } => {
            let v = eval(operand, row, binding, ctx)?;
            match op {
                UnOp::Not => not(v),
                UnOp::Neg => negate(v),
            }
        }
        Expr::Binary { op, left, right } => match op {
            BinOp::And | BinOp::Or => {
                // Kleene logic short-circuits.
                let l = truth(eval(left, row, binding, ctx)?)?;
                match (op, l) {
                    (BinOp::And, Some(false)) => Ok(Value::Bool(false)),
                    (BinOp::Or, Some(true)) => Ok(Value::Bool(true)),
                    _ => {
                        let r = truth(eval(right, row, binding, ctx)?)?;
                        Ok(kleene(*op, l, r).map_or(Value::Null, Value::Bool))
                    }
                }
            }
            _ => binary(
                *op,
                eval(left, row, binding, ctx)?,
                eval(right, row, binding, ctx)?,
            ),
        },
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, binding, ctx)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let probe = eval(expr, row, binding, ctx)?;
            let candidates = list.iter().map(|c| eval(c, row, binding, ctx));
            in_list(probe, candidates, *negated)
        }
        Expr::InSet {
            expr,
            set_index,
            negated,
        } => in_set(eval(expr, row, binding, ctx)?, ctx, *set_index, *negated),
        Expr::InSubquery { .. } => Err(Error::internal(
            "IN (SELECT …) must be planned before evaluation",
        )),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval(expr, row, binding, ctx)?;
            let lo = eval(low, row, binding, ctx)?;
            let hi = eval(high, row, binding, ctx)?;
            Ok(between(&v, &lo, &hi, *negated))
        }
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            let probe = match operand {
                Some(o) => Some(eval(o, row, binding, ctx)?),
                None => None,
            };
            for (when, then) in branches {
                let hit = match &probe {
                    // Simple CASE: operand = WHEN value (NULL never
                    // matches).
                    Some(p) => {
                        let w = eval(when, row, binding, ctx)?;
                        !p.is_null() && !w.is_null() && p.total_cmp(&w) == Ordering::Equal
                    }
                    // Searched CASE: WHEN is a boolean condition.
                    None => is_true(&eval(when, row, binding, ctx)?),
                };
                if hit {
                    return eval(then, row, binding, ctx);
                }
            }
            match else_result {
                Some(e) => eval(e, row, binding, ctx),
                None => Ok(Value::Null),
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => like(eval(expr, row, binding, ctx)?, pattern, *negated),
        Expr::Function {
            name,
            args,
            wildcard,
        } => {
            if *wildcard {
                return Err(Error::Plan(format!(
                    "{name}(*) is only valid as an aggregate"
                )));
            }
            let values: Vec<Value> = args
                .iter()
                .map(|a| eval(a, row, binding, ctx))
                .collect::<Result<_>>()?;
            eval_scalar_function(name, &values)
        }
    }
}

/// `NOT v`.
pub(crate) fn not(v: Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Bool(b) => Ok(Value::Bool(!b)),
        other => Err(Error::Plan(format!("NOT applied to {other:?}"))),
    }
}

/// `-v`; a BIGINT wraps, as its arithmetic does.
pub(crate) fn negate(v: Value) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Int64(x) => Ok(Value::Int64(x.wrapping_neg())),
        Value::Float64(x) => Ok(Value::Float64(-x)),
        other => Err(Error::Plan(format!("negation of {other:?}"))),
    }
}

/// An AND/OR operand as a Kleene truth value: `None` is NULL.
pub(crate) fn truth(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(b)),
        other => Err(Error::Plan(format!("boolean operator on {other:?}"))),
    }
}

/// `l AND r` / `l OR r` in Kleene logic (`None` is NULL).
pub(crate) fn kleene(op: BinOp, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (op, l, r) {
        (BinOp::And, Some(true), Some(true)) => Some(true),
        (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
        (BinOp::Or, Some(false), Some(false)) => Some(false),
        (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
        _ => None,
    }
}

/// `probe [NOT] IN (candidates)`: candidates are evaluated in order until
/// one matches.
pub(crate) fn in_list(
    probe: Value,
    candidates: impl Iterator<Item = Result<Value>>,
    negated: bool,
) -> Result<Value> {
    if probe.is_null() {
        return Ok(Value::Null);
    }
    let mut saw_null = false;
    for c in candidates {
        let c = c?;
        if c.is_null() {
            saw_null = true;
        } else if probe.total_cmp(&c) == Ordering::Equal || numeric_eq(&probe, &c) {
            return Ok(Value::Bool(!negated));
        }
    }
    if saw_null {
        Ok(Value::Null)
    } else {
        Ok(Value::Bool(negated))
    }
}

/// `probe [NOT] IN <precomputed set>`.
pub(crate) fn in_set(
    probe: Value,
    ctx: &EvalContext,
    set_index: usize,
    negated: bool,
) -> Result<Value> {
    if probe.is_null() {
        return Ok(Value::Null);
    }
    let set = ctx
        .sets
        .get(set_index)
        .ok_or_else(|| Error::internal("missing precomputed IN set"))?;
    let contains = set.contains(&HashableValue(normalize_numeric(probe)));
    Ok(Value::Bool(contains != negated))
}

/// `v [NOT] BETWEEN lo AND hi`.
pub(crate) fn between(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    if v.is_null() || lo.is_null() || hi.is_null() {
        return Value::Null;
    }
    let inside = v.total_cmp(lo) != Ordering::Less && v.total_cmp(hi) != Ordering::Greater;
    Value::Bool(inside != negated)
}

/// `v [NOT] LIKE pattern`.
pub(crate) fn like(v: Value, pattern: &str, negated: bool) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Utf8(s) => Ok(Value::Bool(like_match(&s, pattern) != negated)),
        other => Err(Error::Plan(format!("LIKE applied to {other:?}"))),
    }
}

fn numeric_eq(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    }
}

/// A value written to a column of type `ty` — an INSERT's, an UPDATE's or
/// a MERGE's — as that column takes it: a BIGINT widens to a DOUBLE or a
/// DATE (days since the epoch, cast as `i32`); every other value stays
/// as it is, to be checked against the column.
pub fn coerce(v: Value, ty: DataType) -> Value {
    match (v, ty) {
        (Value::Int64(x), DataType::Float64) => Value::Float64(x as f64),
        (Value::Int64(x), DataType::Date) => Value::Date(x as i32),
        (v, _) => v,
    }
}

/// Normalizes ints to floats so IN-set probes match across numeric types.
pub fn normalize_numeric(v: Value) -> Value {
    match v {
        Value::Int64(x) => Value::Float64(x as f64),
        Value::Date(x) => Value::Float64(f64::from(x)),
        other => other,
    }
}

/// `l op r` for an arithmetic or comparison operator: NULL if either
/// side is.
pub(crate) fn binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arithmetic(op, &l, &r),
        BinOp::Eq => Ok(Value::Bool(compare(&l, &r)? == Ordering::Equal)),
        BinOp::NotEq => Ok(Value::Bool(compare(&l, &r)? != Ordering::Equal)),
        BinOp::Lt => Ok(Value::Bool(compare(&l, &r)? == Ordering::Less)),
        BinOp::LtEq => Ok(Value::Bool(compare(&l, &r)? != Ordering::Greater)),
        BinOp::Gt => Ok(Value::Bool(compare(&l, &r)? == Ordering::Greater)),
        BinOp::GtEq => Ok(Value::Bool(compare(&l, &r)? != Ordering::Less)),
        BinOp::And | BinOp::Or => unreachable!("Kleene logic is evaluated lazily"),
    }
}

fn compare(l: &Value, r: &Value) -> Result<Ordering> {
    match (l, r) {
        (Value::Utf8(a), Value::Utf8(b)) => Ok(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => Ok(a.total_cmp(&b)),
            _ => Err(Error::Plan(format!("cannot compare {l:?} with {r:?}"))),
        },
    }
}

fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    // Integer arithmetic when both sides are integers (except division,
    // which follows Hive and stays integral, erroring on /0).
    if let (Value::Int64(a), Value::Int64(b)) = (l, r) {
        return Ok(match op {
            BinOp::Add => Value::Int64(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int64(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int64(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int64(a.wrapping_div(*b))
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int64(a.wrapping_rem(*b))
                }
            }
            _ => unreachable!(),
        });
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(Error::Plan(format!("arithmetic on {l:?} and {r:?}")));
    };
    Ok(Value::Float64(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Mod => a % b,
        _ => unreachable!(),
    }))
}

pub(crate) fn eval_scalar_function(name: &str, args: &[Value]) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() != n {
            Err(Error::Plan(format!("{name}() expects {n} arguments")))
        } else {
            Ok(())
        }
    };
    match name {
        "if" => {
            arity(3)?;
            match &args[0] {
                Value::Bool(true) => Ok(args[1].clone()),
                Value::Bool(false) | Value::Null => Ok(args[2].clone()),
                other => Err(Error::Plan(format!("IF condition is {other:?}"))),
            }
        }
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "abs" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int64(v) => Value::Int64(v.abs()),
                Value::Float64(v) => Value::Float64(v.abs()),
                other => return Err(Error::Plan(format!("ABS of {other:?}"))),
            })
        }
        "round" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int64(v) => Value::Int64(*v),
                Value::Float64(v) => Value::Float64(v.round()),
                other => return Err(Error::Plan(format!("ROUND of {other:?}"))),
            })
        }
        "lower" | "upper" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Utf8(s) => Value::Utf8(if name == "lower" {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }),
                other => return Err(Error::Plan(format!("{name} of {other:?}"))),
            })
        }
        "length" => {
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Utf8(s) => Value::Int64(s.chars().count() as i64),
                other => return Err(Error::Plan(format!("LENGTH of {other:?}"))),
            })
        }
        "concat" => {
            let mut out = String::new();
            for a in args {
                match a {
                    Value::Null => return Ok(Value::Null),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::Utf8(out))
        }
        "year" => {
            // Days-since-epoch to civil year (proleptic Gregorian).
            arity(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Date(days) => Value::Int64(civil_year(*days)),
                other => return Err(Error::Plan(format!("YEAR of {other:?}"))),
            })
        }
        other => Err(Error::Plan(format!("unknown function '{other}'"))),
    }
}

/// Civil year for a days-since-1970 count (Howard Hinnant's algorithm).
fn civil_year(days: i32) -> i64 {
    let z = i64::from(days) + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    if m <= 2 {
        y + 1
    } else {
        y
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single char), in O(n·m):
/// scans left to right and, on a mismatch, backtracks only to the last
/// `%`, letting it absorb one more character — an earlier `%` never needs
/// to absorb more, since the later one can take whatever it would.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (s, p) = (s.as_bytes(), pattern.as_bytes());
    let (mut si, mut pi) = (0, 0);
    // The last `%` seen (pattern index after it) and the text position it
    // currently absorbs up to.
    let mut star: Option<(usize, usize)> = None;
    while si < s.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                star = Some((pi, si));
                continue;
            }
            Some(b'_') => {
                pi += 1;
                si += utf8_len(s[si]);
                continue;
            }
            Some(&c) if c == s[si] => {
                pi += 1;
                si += 1;
                continue;
            }
            _ => {}
        }
        match &mut star {
            Some((after, absorbed)) => {
                *absorbed += utf8_len(s[*absorbed]);
                (pi, si) = (*after, *absorbed);
            }
            None => return false,
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

/// The byte length of the UTF-8 character that starts with `lead`.
fn utf8_len(lead: u8) -> usize {
    match lead {
        0xF0.. => 4,
        0xE0.. => 3,
        0xC0.. => 2,
        _ => 1,
    }
}

/// Truthiness of a filter result: only `TRUE` keeps the row.
pub fn is_true(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectItem, Statement};
    use crate::parser::parse;
    use dt_common::DataType;

    fn eval_str(sql_expr: &str, row: &Row, binding: &Binding) -> Result<Value> {
        let stmt = parse(&format!("SELECT {sql_expr}")).unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        eval(expr, row, binding, &EvalContext::default())
    }

    fn test_binding() -> Binding {
        Binding::from_schema(
            "t",
            &Schema::from_pairs(&[
                ("a", DataType::Int64),
                ("b", DataType::Utf8),
                ("c", DataType::Float64),
            ]),
        )
    }

    fn test_row() -> Row {
        vec![Value::Int64(10), Value::Utf8("hello".into()), Value::Null]
    }

    #[test]
    fn arithmetic_and_precedence() {
        let b = test_binding();
        let r = test_row();
        assert_eq!(eval_str("a + 2 * 3", &r, &b).unwrap(), Value::Int64(16));
        assert_eq!(eval_str("a / 3", &r, &b).unwrap(), Value::Int64(3));
        assert_eq!(eval_str("a / 2.0", &r, &b).unwrap(), Value::Float64(5.0));
        assert_eq!(eval_str("a % 3", &r, &b).unwrap(), Value::Int64(1));
        assert_eq!(eval_str("-a", &r, &b).unwrap(), Value::Int64(-10));
        assert_eq!(eval_str("a / 0", &r, &b).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let b = test_binding();
        let r = test_row();
        // c is NULL.
        assert_eq!(eval_str("c > 1", &r, &b).unwrap(), Value::Null);
        assert_eq!(eval_str("c > 1 AND a = 10", &r, &b).unwrap(), Value::Null);
        assert_eq!(
            eval_str("c > 1 AND a = 99", &r, &b).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_str("c > 1 OR a = 10", &r, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("NOT (c > 1)", &r, &b).unwrap(), Value::Null);
        assert_eq!(eval_str("c IS NULL", &r, &b).unwrap(), Value::Bool(true));
        assert_eq!(
            eval_str("a IS NOT NULL", &r, &b).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn comparisons_and_between_in_like() {
        let b = test_binding();
        let r = test_row();
        assert_eq!(
            eval_str("a BETWEEN 5 AND 15", &r, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("a NOT BETWEEN 5 AND 15", &r, &b).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_str("a IN (1, 10, 100)", &r, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("a NOT IN (1, 2)", &r, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("a IN (1, NULL)", &r, &b).unwrap(),
            Value::Null,
            "NULL in list makes a miss unknown"
        );
        assert_eq!(
            eval_str("b LIKE 'he%o'", &r, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("b LIKE 'h_llo'", &r, &b).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("b NOT LIKE 'x%'", &r, &b).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn scalar_functions() {
        let b = test_binding();
        let r = test_row();
        assert_eq!(
            eval_str("IF(a > 5, 'big', 'small')", &r, &b).unwrap(),
            Value::from("big")
        );
        assert_eq!(
            eval_str("COALESCE(c, a, 99)", &r, &b).unwrap(),
            Value::Int64(10)
        );
        assert_eq!(eval_str("ABS(0 - a)", &r, &b).unwrap(), Value::Int64(10));
        assert_eq!(eval_str("UPPER(b)", &r, &b).unwrap(), Value::from("HELLO"));
        assert_eq!(eval_str("LENGTH(b)", &r, &b).unwrap(), Value::Int64(5));
        assert_eq!(
            eval_str("CONCAT(b, '-', a)", &r, &b).unwrap(),
            Value::from("hello-10")
        );
        assert!(eval_str("NOSUCHFN(a)", &r, &b).is_err());
    }

    #[test]
    fn qualified_and_ambiguous_columns() {
        let b1 = test_binding();
        let b2 = Binding::from_schema("u", &Schema::from_pairs(&[("a", DataType::Int64)]));
        let joined = b1.join(&b2);
        let row = vec![
            Value::Int64(1),
            Value::from("x"),
            Value::Null,
            Value::Int64(2),
        ];
        assert_eq!(
            eval_str("t.a + u.a", &row, &joined).unwrap(),
            Value::Int64(3)
        );
        assert!(eval_str("a", &row, &joined).is_err(), "ambiguous");
        assert_eq!(eval_str("b", &row, &joined).unwrap(), Value::from("x"));
    }

    #[test]
    fn year_function() {
        let b = test_binding();
        // 2020-01-01 is day 18262.
        let row = vec![Value::Int64(0), Value::Utf8(String::new()), Value::Null];
        let _ = row;
        assert_eq!(civil_year(18_262), 2020);
        assert_eq!(civil_year(0), 1970);
        assert_eq!(civil_year(-1), 1969);
        let _ = b;
    }

    #[test]
    fn like_edge_cases() {
        let cases = [
            ("", "", true),
            ("", "%", true),
            ("", "%%", true),
            ("", "_", false),
            ("a", "", false),
            ("abc", "%", true),
            ("abc", "%%", true),
            ("abc", "%c", true),
            ("abc", "a%", true),
            ("abc", "a%%c", true),
            ("abc", "a", false),
            ("ab", "abc", false),
            ("a%b", "a%b", true),
            ("a", "_", true),
            ("ab", "_", false),
            ("ab", "__", true),
            ("ab", "___", false),
            ("aab", "%ab", true),
            ("abab", "%ab", true),
            ("abac", "%ab", false),
            ("mississippi", "%iss%pi", true),
            ("mississippi", "%iss%px", false),
            ("mississippi", "m%i%s%s%i%p%i", true),
            ("é", "_", true),
            ("é", "__", false),
            ("éa", "_a", true),
            ("aé", "a_", true),
            ("日本語", "日%語", true),
            ("日本語", "_本_", true),
            ("日本語", "%_", true),
            ("日本語", "____", false),
            ("naïve", "na_ve", true),
            ("naïve", "%ï%", true),
        ];
        for (s, pattern, want) in cases {
            assert_eq!(like_match(s, pattern), want, "{s:?} LIKE {pattern:?}");
        }
    }

    /// Twelve `%`s over a 200-character row: a matcher that retries every
    /// split of every `%` never finishes this.
    #[test]
    fn like_is_linear_in_the_number_of_wildcards() {
        let row = "a".repeat(199) + "c";
        let pattern = "%a".repeat(12) + "%b";
        assert!(!like_match(&row, &pattern));
        assert!(like_match(&row, &("%a".repeat(12) + "%c")));
    }

    #[test]
    fn group_key_total_order() {
        let a = GroupKey(vec![HashableValue(Value::Null)]);
        let b = GroupKey(vec![HashableValue(Value::Int64(1))]);
        assert!(a < b);
        assert_eq!(
            GroupKey(vec![HashableValue(Value::Float64(1.0))]),
            GroupKey(vec![HashableValue(Value::Float64(1.0))])
        );
    }
}
