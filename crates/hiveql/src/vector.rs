//! Vectorised evaluation (DESIGN.md §18): a bound expression evaluated over
//! a column batch one node at a time, each node one loop over typed slices
//! at the rows still selected — where the row interpreter
//! ([`crate::expr::eval`]) walks the whole tree once per row.
//!
//! * A node returns a [`Vector`]: i64, f64, dates, booleans, dictionary
//!   codes plus their dictionary, a constant, or plain values, with a null
//!   mask.
//! * Arithmetic and comparisons over numbers loop over slices; AND/OR
//!   follow Kleene logic, evaluating the right side only at the rows the
//!   left side leaves undecided, so no row the row path short-circuits
//!   ever raises.
//! * Every other node — CASE, a scalar function, a comparison of
//!   strings — applies the row path's own operation to each selected row,
//!   so every expression runs here and every value and error is the row
//!   path's.
//! * GROUP BY keys become per-row codes (`group_codes`): dictionary
//!   codes and small integers index densely, other keys are hashed.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;

use dt_common::{DataType, Deadline, Error, Result, Row, Schema, Value};
use dt_orcfile::{Column, ColumnBatch, ColumnData};

use crate::ast::{BinOp, Expr, UnOp};
use crate::expr::{
    self, coerce, eval, is_true, Binding, EvalContext, GroupKey, HashableValue, RowRef,
};
use crate::sum::Exact;

/// Rows the row interpreter evaluates inside a kernel between two
/// [`Deadline`] checks: a batch boundary alone is not prompt enough when
/// per-row evaluation (a subquery set, CASE, LIKE on long strings)
/// dominates a scan.
pub const DEADLINE_CHECK_ROWS: usize = 1024;

/// Key tuples up to this many distinct codes (or the batch's row count,
/// if larger) index a dense table instead of a hash map.
const DENSE_GROUPS: usize = 4096;

/// The columns one batch offers a bound expression: `cols[p]` serves bound
/// position `p`; a position with no column reads as NULL.
pub struct Input<'a> {
    cols: Vec<Option<&'a Column>>,
    rows: usize,
}

impl<'a> Input<'a> {
    /// A batch whose columns are the bound layout, in order.
    pub fn of(batch: &'a ColumnBatch) -> Self {
        Input {
            cols: batch.columns().iter().map(Some).collect(),
            rows: batch.rows(),
        }
    }

    /// A batch whose column `i` is position `positions[i]` of a layout
    /// `width` wide.
    fn mapped(batch: &'a ColumnBatch, positions: &[usize], width: usize) -> Self {
        let mut cols = vec![None; width];
        for (column, &p) in batch.columns().iter().zip(positions) {
            cols[p] = Some(column);
        }
        Input {
            cols,
            rows: batch.rows(),
        }
    }

    /// Row `i` across the layout.
    fn row(&self, i: usize) -> Row {
        (0..self.cols.len()).map(|p| self.value(p, i)).collect()
    }

    fn column(&self, p: usize) -> Option<&'a Column> {
        self.cols.get(p).copied().flatten()
    }

    fn value(&self, p: usize, i: usize) -> Value {
        self.column(p).map_or(Value::Null, |c| c.value(i))
    }
}

/// Row `i` of an input, for the row interpreter.
struct At<'i, 'a>(&'i Input<'a>, usize);

impl RowRef for At<'_, '_> {
    fn value(&self, pos: usize) -> Value {
        self.0.value(pos, self.1)
    }
}

/// One node's values over a batch. Only the rows the node was evaluated at
/// are meaningful; every other slot holds a filler.
pub struct Vector<'a> {
    data: Data<'a>,
    /// `nulls[i]` ⇔ row `i` is NULL; `None` when no row is.
    nulls: Option<Cow<'a, [bool]>>,
}

enum Data<'a> {
    /// One value at every row.
    Const(Value),
    I64(Cow<'a, [i64]>),
    F64(Cow<'a, [f64]>),
    Date(Cow<'a, [i32]>),
    Bool(Cow<'a, [bool]>),
    /// Dictionary plus one code per row.
    Dict(Cow<'a, [String]>, Cow<'a, [u32]>),
    /// Directly stored strings.
    Direct(&'a Column),
    /// Anything else, value by value.
    Any(Vec<Value>),
}

/// One side of a numeric kernel: a slice or one value for every row.
enum Operand<'v, A: Clone> {
    Slice(Cow<'v, [A]>),
    Scalar(A),
}

impl<A: Copy> Operand<'_, A> {
    /// `f(self, other)` at rows `sel`.
    fn zip<T: Copy + Default>(
        &self,
        other: &Self,
        rows: usize,
        sel: &[u32],
        f: impl Fn(A, A) -> T,
    ) -> Vec<T> {
        match (self, other) {
            (Operand::Slice(x), Operand::Slice(y)) => fill(rows, sel, |i| f(x[i], y[i])),
            (Operand::Slice(x), Operand::Scalar(y)) => fill(rows, sel, |i| f(x[i], *y)),
            (Operand::Scalar(x), Operand::Slice(y)) => fill(rows, sel, |i| f(*x, y[i])),
            (Operand::Scalar(x), Operand::Scalar(y)) => fill(rows, sel, |_| f(*x, *y)),
        }
    }
}

impl<'a> Vector<'a> {
    /// `v` at every row.
    pub(crate) fn constant(v: Value) -> Self {
        Vector {
            data: Data::Const(v),
            nulls: None,
        }
    }

    /// A column as stored, borrowed.
    fn column(column: Option<&'a Column>) -> Self {
        let Some(column) = column else {
            return Vector::constant(Value::Null);
        };
        let data = match column.data() {
            ColumnData::Int64(v) => Data::I64(Cow::Borrowed(v)),
            ColumnData::Float64(v) => Data::F64(Cow::Borrowed(v)),
            ColumnData::Date(v) => Data::Date(Cow::Borrowed(v)),
            ColumnData::Bool(v) => Data::Bool(Cow::Borrowed(v)),
            ColumnData::Dict { dict, codes } => {
                Data::Dict(Cow::Borrowed(dict), Cow::Borrowed(codes))
            }
            ColumnData::Direct { .. } => Data::Direct(column),
        };
        Vector {
            data,
            nulls: column.nulls().map(Cow::Borrowed),
        }
    }

    /// `true` iff row `i` is NULL.
    pub(crate) fn is_null(&self, i: usize) -> bool {
        match &self.data {
            Data::Const(v) => v.is_null(),
            Data::Any(v) => v[i].is_null(),
            _ => self.nulls.as_ref().is_some_and(|n| n[i]),
        }
    }

    /// Row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            Data::Const(v) => v.clone(),
            Data::I64(v) => Value::Int64(v[i]),
            Data::F64(v) => Value::Float64(v[i]),
            Data::Date(v) => Value::Date(v[i]),
            Data::Bool(v) => Value::Bool(v[i]),
            Data::Dict(dict, codes) => Value::Utf8(dict[codes[i] as usize].clone()),
            Data::Direct(column) => column.value(i),
            Data::Any(v) => v[i].clone(),
        }
    }

    /// The numbers, widened to f64 as the row path's `compare` and
    /// `arithmetic` widen them; `None` if the vector holds no numbers.
    fn f64s(&self) -> Option<Operand<'_, f64>> {
        Some(match &self.data {
            Data::F64(v) => Operand::Slice(Cow::Borrowed(v)),
            Data::I64(v) => Operand::Slice(v.iter().map(|&x| x as f64).collect()),
            Data::Date(v) => Operand::Slice(v.iter().map(|&x| f64::from(x)).collect()),
            Data::Const(v @ (Value::Int64(_) | Value::Float64(_) | Value::Date(_))) => {
                Operand::Scalar(v.as_f64()?)
            }
            _ => return None,
        })
    }

    /// The BIGINTs, if every row holds one.
    fn i64s(&self) -> Option<Operand<'_, i64>> {
        match &self.data {
            Data::I64(v) => Some(Operand::Slice(Cow::Borrowed(v))),
            Data::Const(Value::Int64(x)) => Some(Operand::Scalar(*x)),
            _ => None,
        }
    }

    /// The null mask of a typed vector.
    pub(crate) fn mask(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Per-row codes at rows `sel` — equal codes only for equal values —
    /// and how many codes there may be.
    fn codes(&self, sel: &[u32]) -> (Vec<u32>, usize) {
        let null = |i: u32| self.is_null(i as usize);
        match &self.data {
            Data::Const(_) => (vec![0; sel.len()], 1),
            Data::Dict(dict, codes) => {
                let n = dict.len() as u32;
                let code = |&i: &u32| if null(i) { n } else { codes[i as usize] };
                (sel.iter().map(code).collect(), dict.len() + 1)
            }
            Data::Bool(v) => {
                let code = |&i: &u32| if null(i) { 2 } else { u32::from(v[i as usize]) };
                (sel.iter().map(code).collect(), 3)
            }
            Data::I64(v) => integer_codes(sel, null, |i| v[i]),
            Data::Date(v) => integer_codes(sel, null, |i| i64::from(v[i])),
            Data::F64(v) => hashed_codes(sel, |i| (!null(i)).then(|| v[i as usize].to_bits())),
            Data::Direct(column) => hashed_codes(sel, |i| column.str_at(i as usize)),
            Data::Any(v) => hashed_codes(sel, |i| HashableValue(v[i as usize].clone())),
        }
    }
}

/// Codes of integer keys: their offset from the smallest when their span
/// is small enough to index densely, else hashed.
fn integer_codes(
    sel: &[u32],
    null: impl Fn(u32) -> bool,
    v: impl Fn(usize) -> i64,
) -> (Vec<u32>, usize) {
    let values = sel.iter().filter(|&&i| !null(i)).map(|&i| v(i as usize));
    let Some((lo, hi)) = values.fold(None, |span, x| match span {
        None => Some((x, x)),
        Some((lo, hi)) => Some((x.min(lo), x.max(hi))),
    }) else {
        return (vec![0; sel.len()], 1);
    };
    let span = i128::from(hi) - i128::from(lo) + 1;
    if span > DENSE_GROUPS as i128 {
        return hashed_codes(sel, |i| (!null(i)).then(|| v(i as usize)));
    }
    let code = |&i: &u32| match null(i) {
        true => span as u32,
        false => (v(i as usize) - lo) as u32,
    };
    (sel.iter().map(code).collect(), span as usize + 1)
}

/// Codes numbered in order of first appearance.
fn hashed_codes<K: Hash + Eq>(sel: &[u32], key: impl Fn(u32) -> K) -> (Vec<u32>, usize) {
    let mut ids = HashMap::new();
    let codes = sel
        .iter()
        .map(|&i| {
            let next = ids.len() as u32;
            *ids.entry(key(i)).or_insert(next)
        })
        .collect();
    (codes, ids.len())
}

/// Group codes of rows `sel` under the key vectors `keys` — equal codes
/// only for equal key tuples — and how many codes there may be. The key
/// columns combine pairwise: densely while the code space stays small,
/// else through a hash of the two codes.
fn group_codes(keys: &[Vector<'_>], sel: &[u32]) -> (Vec<u32>, usize) {
    let mut codes = vec![0u32; sel.len()];
    let mut card = 1usize;
    for key in keys {
        let (next, n) = key.codes(sel);
        if card.saturating_mul(n) <= DENSE_GROUPS.max(sel.len()) {
            for (c, k) in codes.iter_mut().zip(next) {
                *c = *c * n as u32 + k;
            }
            card *= n;
        } else {
            let mut ids = HashMap::new();
            for (c, k) in codes.iter_mut().zip(next) {
                let id = ids.len() as u32;
                *c = *ids.entry((*c, k)).or_insert(id);
            }
            card = ids.len();
        }
    }
    (codes, card)
}

/// A vector of `rows` slots holding `f(i)` at rows `sel`.
fn fill<T: Copy + Default>(rows: usize, sel: &[u32], f: impl Fn(usize) -> T) -> Vec<T> {
    if sel.len() == rows {
        // Every row: one contiguous loop.
        return (0..rows).map(f).collect();
    }
    let mut out = vec![T::default(); rows];
    for &i in sel {
        out[i as usize] = f(i as usize);
    }
    out
}

/// Kleene truth values at rows `sel`, as a boolean vector.
fn from_truths<'a>(truths: Vec<Option<bool>>, sel: &[u32]) -> Vector<'a> {
    let any_null = sel.iter().any(|&i| truths[i as usize].is_none());
    Vector {
        nulls: any_null.then(|| Cow::Owned(truths.iter().map(Option::is_none).collect())),
        data: Data::Bool(Cow::Owned(
            truths.iter().map(|t| t.unwrap_or(false)).collect(),
        )),
    }
}

/// Values at rows `sel`, typed when all that are not NULL share a
/// numeric or boolean type.
fn from_values<'a>(values: Vec<Value>, sel: &[u32]) -> Vector<'a> {
    let mut types = sel.iter().filter_map(|&i| values[i as usize].data_type());
    let Some(ty) = types.next() else {
        return Vector::constant(Value::Null);
    };
    if types.any(|t| t != ty) {
        return Vector {
            data: Data::Any(values),
            nulls: None,
        };
    }
    let nulls = sel
        .iter()
        .any(|&i| values[i as usize].is_null())
        .then(|| Cow::Owned(values.iter().map(Value::is_null).collect()));
    let data = match ty {
        DataType::Int64 => Data::I64(values.iter().map(|v| v.as_i64().unwrap_or(0)).collect()),
        DataType::Float64 => Data::F64(values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect()),
        DataType::Date => Data::Date(
            values
                .iter()
                .map(|v| match v {
                    Value::Date(d) => *d,
                    _ => 0,
                })
                .collect(),
        ),
        DataType::Bool => Data::Bool(
            values
                .iter()
                .map(|v| v.as_bool().unwrap_or(false))
                .collect(),
        ),
        DataType::Utf8 => {
            return Vector {
                data: Data::Any(values),
                nulls: None,
            }
        }
    };
    Vector { data, nulls }
}

/// The rows at `sel` that either mask marks NULL.
fn union<'b>(
    rows: usize,
    sel: &[u32],
    a: Option<&[bool]>,
    b: Option<&[bool]>,
) -> Option<Cow<'b, [bool]>> {
    match (a, b) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(Cow::Owned(m.to_vec())),
        (Some(a), Some(b)) => Some(Cow::Owned(fill(rows, sel, |i| a[i] || b[i]))),
    }
}

/// Evaluates bound expressions over one [`Input`].
pub struct Kernels<'i, 'a> {
    input: &'i Input<'a>,
    ctx: &'i EvalContext,
    deadline: &'i Deadline,
    /// Expressions are bound: the row interpreter resolves no name.
    unbound: Binding,
}

impl<'i, 'a> Kernels<'i, 'a> {
    /// Kernels over `input`, with `ctx`'s IN sets, checking `deadline`
    /// while the row interpreter runs.
    pub fn new(input: &'i Input<'a>, ctx: &'i EvalContext, deadline: &'i Deadline) -> Self {
        Kernels {
            input,
            ctx,
            deadline,
            unbound: Binding::default(),
        }
    }

    /// The rows among `sel` (ascending) at which `expr` is TRUE.
    pub fn filter(&self, expr: &Expr, sel: Vec<u32>) -> Result<Vec<u32>> {
        let v = self.eval(expr, &sel)?;
        let null = v.mask();
        let hit = |&i: &u32| match &v.data {
            Data::Bool(b) => b[i as usize] && !null.is_some_and(|n| n[i as usize]),
            _ => is_true(&v.value(i as usize)),
        };
        Ok(sel.into_iter().filter(hit).collect())
    }

    /// `expr` at rows `sel` (ascending).
    pub fn eval(&self, expr: &Expr, sel: &[u32]) -> Result<Vector<'a>> {
        match expr {
            _ if sel.is_empty() => return Ok(Vector::constant(Value::Null)),
            Expr::Literal(v) => return Ok(Vector::constant(v.clone())),
            Expr::Bound(p) => return Ok(Vector::column(self.input.column(*p))),
            _ => {}
        }
        match expr {
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                left,
                right,
            } => self.logic(*op, left, right, sel),
            Expr::Binary { op, left, right } => {
                let (l, r) = (self.eval(left, sel)?, self.eval(right, sel)?);
                self.binary(*op, &l, &r, sel)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, sel)?;
                self.unary(*op, v, sel)
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, sel)?;
                Ok(Vector {
                    data: Data::Bool(Cow::Owned(fill(self.input.rows, sel, |i| {
                        v.is_null(i) != *negated
                    }))),
                    nulls: None,
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = self.eval(expr, sel)?;
                let (lo, hi) = (self.eval(low, sel)?, self.eval(high, sel)?);
                self.map(sel, |i| {
                    Ok(expr::between(
                        &v.value(i),
                        &lo.value(i),
                        &hi.value(i),
                        *negated,
                    ))
                })
            }
            Expr::InList {
                expr: probe,
                list,
                negated,
            } => {
                let literals: Option<Vec<&Value>> = list
                    .iter()
                    .map(|c| match c {
                        Expr::Literal(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                // Candidates other than literals are evaluated lazily.
                let Some(literals) = literals else {
                    return self.interpret(expr, sel);
                };
                let p = self.eval(probe, sel)?;
                self.map(sel, |i| {
                    let candidates = literals.iter().map(|&v| Ok(v.clone()));
                    expr::in_list(p.value(i), candidates, *negated)
                })
            }
            Expr::InSet {
                expr,
                set_index,
                negated,
            } => {
                let p = self.eval(expr, sel)?;
                self.map(sel, |i| {
                    expr::in_set(p.value(i), self.ctx, *set_index, *negated)
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = self.eval(expr, sel)?;
                self.map(sel, |i| expr::like(v.value(i), pattern, *negated))
            }
            Expr::Function {
                name,
                args,
                wildcard: false,
            } => {
                let args: Vec<Vector<'a>> = args
                    .iter()
                    .map(|a| self.eval(a, sel))
                    .collect::<Result<_>>()?;
                self.map(sel, |i| {
                    let values: Vec<Value> = args.iter().map(|a| a.value(i)).collect();
                    expr::eval_scalar_function(name, &values)
                })
            }
            other => self.interpret(other, sel),
        }
    }

    /// AND / OR: the right side only at the rows the left leaves open.
    fn logic(&self, op: BinOp, left: &Expr, right: &Expr, sel: &[u32]) -> Result<Vector<'a>> {
        let l = self.truths(&self.eval(left, sel)?, sel)?;
        let decided = Some(op == BinOp::Or);
        let open: Vec<u32> = sel
            .iter()
            .copied()
            .filter(|&i| l[i as usize] != decided)
            .collect();
        let r = self.truths(&self.eval(right, &open)?, &open)?;
        let mut out = vec![None; self.input.rows];
        for &i in sel {
            let i = i as usize;
            out[i] = expr::kleene(op, l[i], r[i]);
        }
        Ok(from_truths(out, sel))
    }

    /// `v` at rows `sel` as AND/OR operands.
    fn truths(&self, v: &Vector<'_>, sel: &[u32]) -> Result<Vec<Option<bool>>> {
        let mut out = vec![None; self.input.rows];
        let null = v.mask();
        for &i in sel {
            let i = i as usize;
            out[i] = match &v.data {
                Data::Bool(b) => (!null.is_some_and(|n| n[i])).then_some(b[i]),
                _ => expr::truth(v.value(i))?,
            };
        }
        Ok(out)
    }

    fn unary(&self, op: UnOp, v: Vector<'a>, sel: &[u32]) -> Result<Vector<'a>> {
        let rows = self.input.rows;
        let data = match (op, &v.data) {
            (UnOp::Not, Data::Bool(b)) => Data::Bool(Cow::Owned(fill(rows, sel, |i| !b[i]))),
            (UnOp::Neg, Data::I64(x)) => {
                Data::I64(Cow::Owned(fill(rows, sel, |i| x[i].wrapping_neg())))
            }
            (UnOp::Neg, Data::F64(x)) => Data::F64(Cow::Owned(fill(rows, sel, |i| -x[i]))),
            _ => {
                return self.map(sel, |i| match op {
                    UnOp::Not => expr::not(v.value(i)),
                    UnOp::Neg => expr::negate(v.value(i)),
                })
            }
        };
        Ok(Vector {
            data,
            nulls: v.nulls,
        })
    }

    /// Arithmetic and comparisons: typed loops over numbers, the row
    /// path's operation on anything else.
    fn binary(&self, op: BinOp, l: &Vector<'a>, r: &Vector<'a>, sel: &[u32]) -> Result<Vector<'a>> {
        let rows = self.input.rows;
        let nulls = union(rows, sel, l.mask(), r.mask());
        let arithmetic = matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        );
        if let (Some(a), Some(b), true) = (l.i64s(), r.i64s(), arithmetic) {
            // BIGINT arithmetic wraps; division by zero is NULL.
            let (values, zero) = match op {
                BinOp::Add => (a.zip(&b, rows, sel, i64::wrapping_add), None),
                BinOp::Sub => (a.zip(&b, rows, sel, i64::wrapping_sub), None),
                BinOp::Mul => (a.zip(&b, rows, sel, i64::wrapping_mul), None),
                _ => {
                    let q = match op {
                        BinOp::Div => {
                            a.zip(&b, rows, sel, |x, y| (y != 0).then(|| x.wrapping_div(y)))
                        }
                        _ => a.zip(&b, rows, sel, |x, y| (y != 0).then(|| x.wrapping_rem(y))),
                    };
                    let zero = fill(rows, sel, |i| q[i].is_none());
                    (fill(rows, sel, |i| q[i].unwrap_or(0)), Some(zero))
                }
            };
            return Ok(Vector {
                data: Data::I64(Cow::Owned(values)),
                nulls: match zero {
                    Some(zero) => union(rows, sel, nulls.as_deref(), Some(&zero)),
                    None => nulls,
                },
            });
        }
        let (Some(a), Some(b)) = (l.f64s(), r.f64s()) else {
            return self.map(sel, |i| expr::binary(op, l.value(i), r.value(i)));
        };
        macro_rules! compare {
            ($holds:ident) => {
                Data::Bool(Cow::Owned(
                    a.zip(&b, rows, sel, |x, y| x.total_cmp(&y).$holds()),
                ))
            };
        }
        let float = |values| Data::F64(Cow::Owned(values));
        let data = match op {
            BinOp::Eq => compare!(is_eq),
            BinOp::NotEq => compare!(is_ne),
            BinOp::Lt => compare!(is_lt),
            BinOp::LtEq => compare!(is_le),
            BinOp::Gt => compare!(is_gt),
            BinOp::GtEq => compare!(is_ge),
            BinOp::Add => float(a.zip(&b, rows, sel, |x, y| x + y)),
            BinOp::Sub => float(a.zip(&b, rows, sel, |x, y| x - y)),
            BinOp::Mul => float(a.zip(&b, rows, sel, |x, y| x * y)),
            BinOp::Div => float(a.zip(&b, rows, sel, |x, y| x / y)),
            BinOp::Mod => float(a.zip(&b, rows, sel, |x, y| x % y)),
            BinOp::And | BinOp::Or => unreachable!("Kleene logic has its own kernel"),
        };
        Ok(Vector { data, nulls })
    }

    /// `f(i)` at each row of `sel` — the row path's own operation on the
    /// node's operand values — checking the deadline as it goes.
    fn map(&self, sel: &[u32], mut f: impl FnMut(usize) -> Result<Value>) -> Result<Vector<'a>> {
        let mut values = vec![Value::Null; self.input.rows];
        for (n, &i) in sel.iter().enumerate() {
            if (n + 1) % DEADLINE_CHECK_ROWS == 0 {
                self.deadline.check()?;
            }
            values[i as usize] = f(i as usize)?;
        }
        Ok(from_values(values, sel))
    }

    /// A node with no kernel: its whole subtree through the row
    /// interpreter, at rows `sel` only.
    fn interpret(&self, expr: &Expr, sel: &[u32]) -> Result<Vector<'a>> {
        self.map(sel, |i| {
            eval(expr, &At(self.input, i), &self.unbound, self.ctx)
        })
    }
}

/// GROUP BY state: the groups so far, with their index by key.
pub(crate) struct Groups {
    index: HashMap<GroupKey, usize>,
    all: Partials,
    /// Each spec's state before its first row.
    fresh: Vec<AggState>,
    /// No GROUP BY: the statement has one group even over no row.
    global: bool,
}

/// Groups over some rows, in order of their first row: each one's key
/// and first row, and per aggregate spec its state over those rows.
#[derive(Default)]
pub(crate) struct Partials {
    groups: Vec<(GroupKey, Row)>,
    /// Group `g`'s states are `states[g * width..][..width]`, one per spec.
    states: Vec<AggState>,
}

impl Groups {
    /// No group yet, for the aggregate calls `specs`; `global` ⇔ the
    /// statement has no GROUP BY.
    pub(crate) fn new(specs: &[Expr], global: bool) -> Self {
        Groups {
            index: HashMap::new(),
            all: Partials::default(),
            fresh: specs.iter().map(AggState::for_spec).collect(),
            global,
        }
    }

    /// Rows `sel` of one batch as partial states: each row's group found
    /// through its key's code, then each aggregate's argument evaluated
    /// once for the batch and reduced group by group, column by column.
    pub(crate) fn prepare(
        k: &Kernels,
        by: &[Expr],
        specs: &[Expr],
        sel: &[u32],
    ) -> Result<Partials> {
        let keys: Vec<Vector> = by.iter().map(|g| k.eval(g, sel)).collect::<Result<_>>()?;
        let (codes, card) = group_codes(&keys, sel);
        let mut local = vec![u32::MAX; card];
        // Two codes may share a key (a dictionary may hold a value twice):
        // the batch's groups are its distinct keys.
        let mut by_key = HashMap::new();
        let mut groups = Vec::new();
        let mut locals = Vec::with_capacity(sel.len());
        for (&i, &code) in sel.iter().zip(&codes) {
            let slot = &mut local[code as usize];
            if *slot == u32::MAX {
                let i = i as usize;
                let key = GroupKey(keys.iter().map(|v| HashableValue(v.value(i))).collect());
                *slot = *by_key.entry(key.clone()).or_insert_with(|| {
                    groups.push((key, k.input.row(i)));
                    groups.len() as u32 - 1
                });
            }
            locals.push(*slot);
        }
        // Each group's rows, in row order: `rows[starts[g]..starts[g + 1]]`.
        let (starts, rows) = match groups.len() {
            1 => (vec![0, sel.len()], Cow::Borrowed(sel)),
            n => {
                let mut starts = vec![0; n + 1];
                for &l in &locals {
                    starts[l as usize + 1] += 1;
                }
                for g in 1..=n {
                    starts[g] += starts[g - 1];
                }
                let mut next = starts.clone();
                let mut rows = vec![0; sel.len()];
                for (&i, &l) in sel.iter().zip(&locals) {
                    rows[next[l as usize]] = i;
                    next[l as usize] += 1;
                }
                (starts, Cow::Owned(rows))
            }
        };
        let width = specs.len();
        let fresh = specs.iter().map(AggState::for_spec);
        let mut states: Vec<AggState> = groups.iter().flat_map(|_| fresh.clone()).collect();
        for (s, spec) in specs.iter().enumerate() {
            let Expr::Function {
                name,
                args: arg,
                wildcard,
            } = spec
            else {
                unreachable!("aggregate specs are function calls");
            };
            let v = match wildcard {
                true => Vector::constant(Value::Bool(true)), // COUNT(*): every row counts.
                false => k.eval(&arg[0], sel)?,
            };
            for (g, group) in states.chunks_exact_mut(width).enumerate() {
                group[s].add_rows(name, &v, &rows[starts[g]..starts[g + 1]])?;
            }
        }
        Ok(Partials { groups, states })
    }

    /// The one partial of an unfiltered, ungrouped `COUNT(*)` over `n`
    /// rows, for each of `specs` aggregate specs.
    pub(crate) fn counted(n: u64, specs: usize) -> Partials {
        Partials {
            groups: vec![(GroupKey(Vec::new()), Vec::new())],
            states: vec![AggState::Count(n); specs],
        }
    }

    /// Merges one batch's partials, in scan order: a group's first partial
    /// creates it, so its representative row is its first row.
    pub(crate) fn merge(&mut self, partials: Partials) {
        let width = self.fresh.len();
        let mut states = partials.states.into_iter();
        for (key, first) in partials.groups {
            let batch = states.by_ref().take(width);
            match self.index.get(&key) {
                Some(&g) => {
                    let group = &mut self.all.states[g * width..][..width];
                    for (state, partial) in group.iter_mut().zip(batch) {
                        state.merge(partial);
                    }
                }
                None => {
                    self.index.insert(key.clone(), self.all.groups.len());
                    self.all.groups.push((key, first));
                    self.all.states.extend(batch);
                }
            }
        }
    }

    /// Each group's representative row and aggregate values (one per
    /// spec), ordered by key. A global aggregate over no row has one empty
    /// group.
    pub(crate) fn finish(self) -> Result<Vec<(Row, Vec<Value>)>> {
        let Partials {
            mut groups,
            mut states,
        } = self.all;
        let width = self.fresh.len();
        if groups.is_empty() && self.global {
            groups.push((GroupKey(Vec::new()), Vec::new()));
            states = self.fresh;
        }
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by(|&a, &b| groups[a].0.cmp(&groups[b].0));
        order
            .into_iter()
            .map(|g| {
                let values = states[g * width..][..width].iter().map(AggState::finish);
                Ok((
                    std::mem::take(&mut groups[g].1),
                    values.collect::<Result<_>>()?,
                ))
            })
            .collect()
    }
}

/// Partial state of one aggregate call.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(u64),
    Sum(Sum),
    Min(Option<Value>),
    Max(Option<Value>),
}

/// SUM (`avg` false) and AVG: how many numbers, the exact sum of the
/// BIGINTs among them and that of the rest — `None` while every number
/// is a BIGINT.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sum {
    avg: bool,
    count: u64,
    ints: i128,
    floats: Option<Exact>,
}

impl AggState {
    fn for_spec(spec: &Expr) -> AggState {
        let Expr::Function { name, .. } = spec else {
            unreachable!("aggregate specs are function calls");
        };
        match name.as_str() {
            "count" => AggState::Count(0),
            "sum" | "avg" => AggState::Sum(Sum {
                avg: name == "avg",
                ..Sum::default()
            }),
            "min" => AggState::Min(None),
            "max" => AggState::Max(None),
            other => unreachable!("not an aggregate: {other}"),
        }
    }

    /// Adds `name`'s argument `v` at `rows`, skipping NULLs. Something
    /// SUM or AVG cannot add fails the call at its first such row.
    fn add_rows(&mut self, name: &str, v: &Vector, rows: &[u32]) -> Result<()> {
        let live: Cow<[u32]> = match (&v.data, &v.nulls) {
            (Data::Const(c), _) => Cow::Borrowed(if c.is_null() { &[] } else { rows }),
            (Data::Any(_), _) | (_, Some(_)) => {
                let live = rows.iter().filter(|&&i| !v.is_null(i as usize));
                Cow::Owned(live.copied().collect())
            }
            _ => Cow::Borrowed(rows),
        };
        let sum = match self {
            AggState::Count(n) => {
                *n += live.len() as u64;
                return Ok(());
            }
            AggState::Min(_) | AggState::Max(_) => {
                for &i in live.iter() {
                    self.add_value(v.value(i as usize));
                }
                return Ok(());
            }
            AggState::Sum(sum) => sum,
        };
        sum.count += live.len() as u64;
        match &v.data {
            Data::I64(x) => {
                sum.ints += live
                    .iter()
                    .map(|&i| i128::from(x[i as usize]))
                    .sum::<i128>()
            }
            Data::F64(x) => sum.floats.get_or_insert_default().add_rows(x, &live),
            _ => {
                for &i in live.iter() {
                    match v.value(i as usize) {
                        Value::Int64(n) => sum.ints += i128::from(n),
                        x => {
                            let what = || Error::Plan(format!("{} of {x:?}", name.to_uppercase()));
                            sum.floats
                                .get_or_insert_default()
                                .add(x.as_f64().ok_or_else(what)?);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Adds a value, not NULL, to a MIN or MAX state: it replaces the
    /// current one only if strictly better, so the first of equals stays.
    fn add_value(&mut self, v: Value) {
        let min = matches!(self, AggState::Min(_));
        let (AggState::Min(cur) | AggState::Max(cur)) = self else {
            unreachable!("only MIN and MAX add values");
        };
        let better = |c: &Value| match min {
            true => v.total_cmp(c).is_lt(),
            false => v.total_cmp(c).is_gt(),
        };
        if cur.as_ref().is_none_or(better) {
            *cur = Some(v);
        }
    }

    /// Merges the state of the same call over later rows.
    fn merge(&mut self, later: AggState) {
        match (self, later) {
            (AggState::Count(n), AggState::Count(more)) => *n += more,
            (AggState::Sum(sum), AggState::Sum(more)) => {
                sum.count += more.count;
                sum.ints += more.ints;
                match (&mut sum.floats, more.floats) {
                    (Some(floats), Some(more)) => floats.merge(&more),
                    (floats, more) => *floats = floats.take().or(more),
                }
            }
            (best, AggState::Min(Some(v)) | AggState::Max(Some(v))) => best.add_value(v),
            _ => {}
        }
    }

    /// The aggregate's value. A SUM of BIGINTs is a BIGINT; any other
    /// sum is the exact sum rounded once to a DOUBLE, and an AVG divides
    /// that by the count.
    fn finish(&self) -> Result<Value> {
        let sum = match self {
            AggState::Count(n) => return Ok(Value::Int64(*n as i64)),
            AggState::Min(v) | AggState::Max(v) => return Ok(v.clone().unwrap_or(Value::Null)),
            AggState::Sum(sum) => sum,
        };
        let total = match (&sum.floats, sum.count, sum.avg) {
            (_, 0, _) => return Ok(Value::Null),
            (None, _, false) => {
                let overflow = |_| Error::Plan("SUM overflows BIGINT".into());
                return Ok(Value::Int64(i64::try_from(sum.ints).map_err(overflow)?));
            }
            (None, _, true) => sum.ints as f64,
            (Some(floats), _, _) => {
                let mut exact = floats.clone();
                exact.add_int(sum.ints);
                exact.value()
            }
        };
        let n = if sum.avg { sum.count as f64 } else { 1.0 };
        Ok(Value::Float64(total / n))
    }
}

/// DML's compiled WHERE clause (see [`dualtable::RowSelector`]): the rows
/// of `batch` — whose column `i` is table column `columns[i]` of `width` —
/// at which the bound `predicate` is TRUE. A row at which it raises
/// matches none, as in the row path.
pub fn select(
    predicate: &Expr,
    ctx: &EvalContext,
    batch: &ColumnBatch,
    columns: &[usize],
    width: usize,
) -> Vec<u32> {
    let input = Input::mapped(batch, columns, width);
    let never = Deadline::never();
    let kernels = Kernels::new(&input, ctx, &never);
    let sel: Vec<u32> = batch.selected().map(|i| i as u32).collect();
    if let Ok(hits) = kernels.filter(predicate, sel.clone()) {
        return hits;
    }
    // Some row raised: decide row by row.
    let hit = |&i: &u32| {
        let v = eval(predicate, &At(&input, i as usize), &kernels.unbound, ctx);
        v.is_ok_and(|v| is_true(&v))
    };
    sel.into_iter().filter(hit).collect()
}

/// DML's compiled SET list (see [`dualtable::RowSelector::assign`]): each
/// bound right-hand side of `set` evaluated once over the rows `rows` of
/// `batch` (laid out as for [`select`]), as a column of its target's type
/// in `schema`, widened as [`coerce`] widens. `None` if a kernel raises or
/// a value does not fit its column: the caller then decides the batch row
/// by row, so every value and every error is the row path's.
pub fn assign(
    set: &[(usize, Expr)],
    schema: &Schema,
    ctx: &EvalContext,
    batch: &ColumnBatch,
    columns: &[usize],
    rows: &[u32],
) -> Option<Vec<(usize, Column)>> {
    let input = Input::mapped(batch, columns, schema.len());
    let never = Deadline::never();
    let kernels = Kernels::new(&input, ctx, &never);
    set.iter()
        .map(|(col, e)| {
            let v = kernels.eval(e, rows).ok()?;
            Some((*col, v.gather(rows, schema.fields().get(*col)?.data_type)?))
        })
        .collect()
}

impl Vector<'_> {
    /// The values at rows `sel`, in order, as a column of type `ty`, each
    /// widened as [`coerce`] widens; `None` if one does not fit.
    fn gather(&self, sel: &[u32], ty: DataType) -> Option<Column> {
        fn take<T: Copy>(v: &[T], sel: &[u32]) -> Vec<T> {
            sel.iter().map(|&i| v[i as usize]).collect()
        }
        let data = match (&self.data, ty) {
            (Data::I64(v), DataType::Int64) => ColumnData::Int64(take(v, sel)),
            (Data::F64(v), DataType::Float64) => ColumnData::Float64(take(v, sel)),
            (Data::Date(v), DataType::Date) => ColumnData::Date(take(v, sel)),
            (Data::Bool(v), DataType::Bool) => ColumnData::Bool(take(v, sel)),
            (Data::Const(v), _) => return filled(coerce(v.clone(), ty), ty, sel.len()),
            _ => {
                let mut column = Column::empty(ty);
                for &i in sel {
                    let v = coerce(self.value(i as usize), ty);
                    if !v.conforms_to(ty) {
                        return None;
                    }
                    column.push(&v).ok()?;
                }
                return Some(column);
            }
        };
        let nulls = self.mask().map(|n| take(n, sel));
        Some(Column::from_parts(
            data,
            nulls.filter(|n| n.contains(&true)),
        ))
    }
}

/// A column of `n` rows of type `ty`, each `v`; `None` if `v` does not
/// fit. A string is one dictionary entry, however many rows take it.
fn filled(v: Value, ty: DataType, n: usize) -> Option<Column> {
    let data = match (v, ty) {
        (Value::Int64(x), DataType::Int64) => ColumnData::Int64(vec![x; n]),
        (Value::Float64(x), DataType::Float64) => ColumnData::Float64(vec![x; n]),
        (Value::Bool(x), DataType::Bool) => ColumnData::Bool(vec![x; n]),
        (Value::Date(x), DataType::Date) => ColumnData::Date(vec![x; n]),
        (Value::Utf8(s), DataType::Utf8) => ColumnData::Dict {
            dict: vec![s],
            codes: vec![0; n],
        },
        (Value::Null, _) => {
            let mut column = Column::empty(ty);
            (0..n).try_for_each(|_| column.push(&Value::Null)).ok()?;
            return Some(column);
        }
        _ => return None,
    };
    Some(Column::from_parts(data, None))
}
