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

use dt_common::{DataType, Deadline, Error, Result, Row, Value};
use dt_orcfile::{Column, ColumnBatch, ColumnData};

use crate::ast::{BinOp, Expr, UnOp};
use crate::expr::{self, eval, is_true, Binding, EvalContext, GroupKey, HashableValue, RowRef};

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

    /// Row `i`, not NULL, as SUM and AVG add it: its value widened to f64
    /// and whether it is a BIGINT; `None` for a value that is no number.
    pub(crate) fn number(&self, i: usize) -> Option<(f64, bool)> {
        match &self.data {
            Data::I64(v) => Some((v[i] as f64, true)),
            Data::F64(v) => Some((v[i], false)),
            Data::Date(v) => Some((f64::from(v[i]), false)),
            Data::Const(_) | Data::Any(_) => {
                let v = self.value(i);
                v.as_f64().map(|x| (x, matches!(v, Value::Int64(_))))
            }
            Data::Bool(_) | Data::Dict(..) | Data::Direct(_) => None,
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

    /// A column of numbers as SUM and AVG add them — widened to f64, and
    /// whether they are BIGINTs — or `None` for anything else.
    pub(crate) fn numbers(&self) -> Option<(Cow<'_, [f64]>, bool)> {
        match self.f64s()? {
            Operand::Slice(x) => Some((x, matches!(self.data, Data::I64(_)))),
            Operand::Scalar(_) => None,
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

/// GROUP BY state: the groups in order of their first row — key and
/// representative row — their index by key, and per aggregate spec one
/// state per group.
pub(crate) struct Groups {
    index: HashMap<GroupKey, usize>,
    groups: Vec<(GroupKey, Row)>,
    states: Vec<Vec<AggState>>,
    /// No GROUP BY: the statement has one group even over no row.
    global: bool,
}

impl Groups {
    /// No group yet, for `aggregates` aggregate specs; `global` ⇔ the
    /// statement has no GROUP BY.
    pub(crate) fn new(aggregates: usize, global: bool) -> Self {
        Groups {
            index: HashMap::new(),
            groups: Vec::new(),
            states: (0..aggregates).map(|_| Vec::new()).collect(),
            global,
        }
    }

    /// Adds rows `sel` of one batch: each row's group found through its
    /// key's code — a group's first row creates it, as its representative
    /// — then each aggregate's argument evaluated once for the batch and
    /// added to the groups' states in row order.
    pub(crate) fn push(
        &mut self,
        k: &Kernels,
        by: &[Expr],
        specs: &[Expr],
        sel: &[u32],
    ) -> Result<()> {
        let keys: Vec<Vector> = by.iter().map(|g| k.eval(g, sel)).collect::<Result<_>>()?;
        let (codes, card) = group_codes(&keys, sel);
        let mut slots = vec![usize::MAX; card];
        let mut ids = Vec::with_capacity(sel.len());
        for (&i, &code) in sel.iter().zip(&codes) {
            let slot = &mut slots[code as usize];
            if *slot == usize::MAX {
                let i = i as usize;
                let key = GroupKey(keys.iter().map(|v| HashableValue(v.value(i))).collect());
                *slot = *self.index.entry(key.clone()).or_insert_with(|| {
                    for (states, spec) in self.states.iter_mut().zip(specs) {
                        states.push(AggState::for_spec(spec));
                    }
                    self.groups.push((key, k.input.row(i)));
                    self.groups.len() - 1
                });
            }
            ids.push(*slot);
        }
        for (states, spec) in self.states.iter_mut().zip(specs) {
            let Expr::Function { args, wildcard, .. } = spec else {
                unreachable!("aggregate specs are function calls");
            };
            let arg = match wildcard {
                true => Vector::constant(Value::Bool(true)), // COUNT(*): every row counts.
                false => k.eval(&args[0], sel)?,
            };
            AggState::add_rows(states, &arg, sel, &ids)?;
        }
        Ok(())
    }

    /// Each group's representative row and aggregate values (one per
    /// spec), ordered by key. A global aggregate over no row has one empty
    /// group, holding `counted` rows when batch cardinalities answered a
    /// counts-only statement.
    pub(crate) fn finish(
        mut self,
        specs: &[Expr],
        counted: Option<u64>,
    ) -> Result<Vec<(Row, Vec<Value>)>> {
        if self.groups.is_empty() && self.global {
            for (states, spec) in self.states.iter_mut().zip(specs) {
                states.push(match counted {
                    Some(n) => AggState::Count(n),
                    None => AggState::for_spec(spec),
                });
            }
            self.groups.push((GroupKey(Vec::new()), Vec::new()));
        }
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by(|&a, &b| self.groups[a].0.cmp(&self.groups[b].0));
        order
            .into_iter()
            .map(|g| {
                let rep = std::mem::take(&mut self.groups[g].1);
                let values = self.states.iter().map(|states| states[g].finish());
                Ok((rep, values.collect::<Result<_>>()?))
            })
            .collect()
    }
}

/// Partial state of one aggregate call.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    Sum {
        sum: f64,
        seen: bool,
        integral: bool,
    },
    Avg {
        sum: f64,
        count: u64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn for_spec(spec: &Expr) -> AggState {
        let Expr::Function { name, .. } = spec else {
            unreachable!("aggregate specs are function calls");
        };
        match name.as_str() {
            "count" => AggState::Count(0),
            "sum" => AggState::Sum {
                sum: 0.0,
                seen: false,
                integral: true,
            },
            "avg" => AggState::Avg { sum: 0.0, count: 0 },
            "min" => AggState::Min(None),
            "max" => AggState::Max(None),
            other => unreachable!("not an aggregate: {other}"),
        }
    }

    /// Adds the aggregate's argument `arg` at rows `sel` to the states of
    /// their groups `ids`, in row order: SUM and AVG over a column of
    /// numbers as one loop over its f64 slice, everything else through
    /// [`AggState::add`].
    fn add_rows(states: &mut [AggState], arg: &Vector, sel: &[u32], ids: &[usize]) -> Result<()> {
        let mut rows = sel.iter().zip(ids).map(|(&i, &g)| (i as usize, g));
        let summing = matches!(
            states.first(),
            Some(AggState::Sum { .. } | AggState::Avg { .. })
        );
        let Some((x, integral)) = arg.numbers().filter(|_| summing) else {
            return rows.try_for_each(|(i, g)| states[g].add(arg, i));
        };
        let null = arg.mask();
        for (i, g) in rows.filter(|&(i, _)| !null.is_some_and(|n| n[i])) {
            states[g].add_number(x[i], integral);
        }
        Ok(())
    }

    /// Adds row `i` of `v`, the aggregate's argument, unless it is NULL.
    fn add(&mut self, v: &Vector, i: usize) -> Result<()> {
        if v.is_null(i) {
            return Ok(());
        }
        let min = matches!(self, AggState::Min(_));
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Min(cur) | AggState::Max(cur) => {
                let v = v.value(i);
                let better = |c: &Value| match min {
                    true => v.total_cmp(c).is_lt(),
                    false => v.total_cmp(c).is_gt(),
                };
                if cur.as_ref().is_none_or(better) {
                    *cur = Some(v);
                }
            }
            AggState::Sum { .. } | AggState::Avg { .. } => {
                let name = if matches!(self, AggState::Sum { .. }) {
                    "SUM"
                } else {
                    "AVG"
                };
                let (x, integral) = v
                    .number(i)
                    .ok_or_else(|| Error::Plan(format!("{name} of {:?}", v.value(i))))?;
                self.add_number(x, integral);
            }
        }
        Ok(())
    }

    /// Adds a number to a SUM or AVG state; `integral` ⇔ it is a BIGINT.
    fn add_number(&mut self, x: f64, integral: bool) {
        match self {
            AggState::Sum {
                sum,
                seen,
                integral: all_integral,
            } => {
                *sum += x;
                *seen = true;
                *all_integral &= integral;
            }
            AggState::Avg { sum, count } => {
                *sum += x;
                *count += 1;
            }
            _ => unreachable!("only SUM and AVG add numbers"),
        }
    }

    /// The aggregate's value.
    fn finish(&self) -> Result<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int64(*n as i64),
            AggState::Sum {
                sum,
                seen,
                integral,
            } => {
                if !seen {
                    Value::Null
                } else if *integral {
                    Value::Int64(*sum as i64)
                } else {
                    Value::Float64(*sum)
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        })
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
