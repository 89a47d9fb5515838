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
    /// and, if it is a BIGINT, that; `None` for a value that is no number.
    pub(crate) fn number(&self, i: usize) -> Option<(f64, Option<i64>)> {
        match &self.data {
            Data::I64(v) => Some((v[i] as f64, Some(v[i]))),
            Data::F64(v) => Some((v[i], None)),
            Data::Date(v) => Some((f64::from(v[i]), None)),
            Data::Const(_) | Data::Any(_) => {
                let v = self.value(i);
                let int = match v {
                    Value::Int64(n) => Some(n),
                    _ => None,
                };
                v.as_f64().map(|x| (x, int))
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

    /// A column of numbers as SUM and AVG add them, widened to f64, or
    /// `None` for anything else.
    pub(crate) fn numbers(&self) -> Option<Cow<'_, [f64]>> {
        match self.f64s()? {
            Operand::Slice(x) => Some(x),
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
    /// Each spec's state before its first row.
    fresh: Vec<AggState>,
    /// No GROUP BY: the statement has one group even over no row.
    global: bool,
}

/// One batch's rows ready for [`Groups::absorb`], owned: each row's group
/// within the batch, each such group's key and first row, and each
/// aggregate's argument. Everything a row costs but the float adds, which
/// must stay in row order, so it can be built on any thread.
pub(crate) struct GroupedRows {
    /// Per row, its group within the batch, numbered by first row.
    locals: Vec<u32>,
    /// Per group within the batch, its key and its first row.
    firsts: Vec<(GroupKey, Row)>,
    /// Per aggregate spec, its argument.
    args: Vec<Arg>,
    /// The SUM and AVG arguments' numbers, row-major: row `n`'s number
    /// for the `j`-th of them is `numbers[n * width + j]`; `+0.0` where
    /// it is NULL, which leaves a running sum as it is (a sum that starts
    /// at `+0.0` never reaches `-0.0`).
    numbers: Vec<f64>,
}

/// One aggregate's argument over a batch. What is exact in any order —
/// counts, BIGINT sums, MIN and MAX — is already reduced per group within
/// the batch.
enum Arg {
    /// COUNT: per group, the rows whose argument is not NULL.
    Count(Vec<u64>),
    /// SUM, AVG: per group, how many numbers are not NULL and, while all
    /// of those are BIGINTs, their exact sum. The numbers, widened to f64,
    /// are a column of [`GroupedRows::numbers`].
    Numbers(Vec<(u64, Option<i128>)>),
    /// MIN, MAX: per group, the batch's best value, the first of equals.
    Best(Vec<AggState>),
}

impl Arg {
    /// COUNT's argument `v` at rows `sel` of the batch, whose groups
    /// within the batch are `locals`, of `sizes` rows.
    fn count(v: &Vector, sel: &[u32], locals: &[u32], sizes: &[u64]) -> Arg {
        let no_null = match &v.data {
            Data::Const(c) => !c.is_null(),
            Data::Any(_) => false,
            _ => v.nulls.is_none(),
        };
        if no_null {
            return Arg::Count(sizes.to_vec());
        }
        let mut counts = vec![0; sizes.len()];
        for (_, &l) in sel
            .iter()
            .zip(locals)
            .filter(|(&i, _)| !v.is_null(i as usize))
        {
            counts[l as usize] += 1;
        }
        Arg::Count(counts)
    }

    /// MIN's or MAX's (`spec`'s) argument `v` at rows `sel` (see
    /// [`Arg::count`]).
    fn best(spec: &Expr, v: &Vector, sel: &[u32], locals: &[u32], groups: usize) -> Arg {
        let mut best = vec![AggState::for_spec(spec); groups];
        for (&i, &l) in sel
            .iter()
            .zip(locals)
            .filter(|(&i, _)| !v.is_null(i as usize))
        {
            best[l as usize].add_value(v.value(i as usize));
        }
        Arg::Best(best)
    }

    /// SUM's or AVG's (`name`'s) argument `v` at rows `sel`, whose groups
    /// within the batch are `locals`, of `sizes` rows: each row's number
    /// goes to its slot of `column`. Something that is no number fails
    /// the call at its first such row.
    fn numbers<'c>(
        name: &str,
        v: &Vector,
        (sel, locals): (&[u32], &[u32]),
        sizes: &[u64],
        column: impl Iterator<Item = &'c mut f64>,
    ) -> Result<Arg> {
        let rows = sel.iter().map(|&i| i as usize).zip(column);
        let typed = v.numbers();
        let ints = match v.i64s() {
            Some(Operand::Slice(ints)) => Some(ints),
            _ => None,
        };
        if let (Some(x), None) = (&typed, v.mask()) {
            for (i, slot) in rows {
                *slot = x[i];
            }
            let mut tallies: Vec<_> = sizes
                .iter()
                .map(|&n| (n, ints.is_some().then_some(0)))
                .collect();
            if let Some(ints) = ints {
                for (&i, &l) in sel.iter().zip(locals) {
                    if let Some(sum) = &mut tallies[l as usize].1 {
                        *sum += i128::from(ints[i as usize]);
                    }
                }
            }
            return Ok(Arg::Numbers(tallies));
        }
        let mut tallies = vec![(0, Some(0)); sizes.len()];
        for ((i, slot), &l) in rows.zip(locals).filter(|((i, _), _)| !v.is_null(*i)) {
            let (x, int) = match (&typed, &ints) {
                (Some(x), ints) => (x[i], ints.as_ref().map(|ints| ints[i])),
                (None, _) => v.number(i).ok_or_else(|| {
                    Error::Plan(format!("{} of {:?}", name.to_uppercase(), v.value(i)))
                })?,
            };
            *slot = x;
            let (count, sum) = &mut tallies[l as usize];
            *count += 1;
            *sum = sum.zip(int).map(|(sum, n)| sum + i128::from(n));
        }
        Ok(Arg::Numbers(tallies))
    }
}

impl Groups {
    /// No group yet, for the aggregate calls `specs`; `global` ⇔ the
    /// statement has no GROUP BY.
    pub(crate) fn new(specs: &[Expr], global: bool) -> Self {
        Groups {
            index: HashMap::new(),
            groups: Vec::new(),
            states: specs.iter().map(|_| Vec::new()).collect(),
            fresh: specs.iter().map(AggState::for_spec).collect(),
            global,
        }
    }

    /// Rows `sel` of one batch ready to add: each row's group found
    /// through its key's code, each group's key and first row taken, then
    /// each aggregate's argument evaluated once for the batch.
    pub(crate) fn prepare(
        k: &Kernels,
        by: &[Expr],
        specs: &[Expr],
        sel: &[u32],
    ) -> Result<GroupedRows> {
        let keys: Vec<Vector> = by.iter().map(|g| k.eval(g, sel)).collect::<Result<_>>()?;
        let (codes, card) = group_codes(&keys, sel);
        let mut local = vec![u32::MAX; card];
        // Two codes may share a key (a dictionary may hold a value twice):
        // the batch's groups are its distinct keys.
        let mut by_key = HashMap::new();
        let mut firsts = Vec::new();
        let mut locals = Vec::with_capacity(sel.len());
        for (&i, &code) in sel.iter().zip(&codes) {
            let slot = &mut local[code as usize];
            if *slot == u32::MAX {
                let i = i as usize;
                let key = GroupKey(keys.iter().map(|v| HashableValue(v.value(i))).collect());
                *slot = *by_key.entry(key.clone()).or_insert_with(|| {
                    firsts.push((key, k.input.row(i)));
                    firsts.len() as u32 - 1
                });
            }
            locals.push(*slot);
        }
        let mut sizes = vec![0; firsts.len()];
        for &l in &locals {
            sizes[l as usize] += 1;
        }
        let summing = |spec: &&Expr| match spec {
            Expr::Function { name, .. } => name == "sum" || name == "avg",
            _ => false,
        };
        let width = specs.iter().filter(summing).count();
        let mut numbers = vec![0.0; sel.len() * width];
        let mut columns = 0..width;
        let mut args = Vec::with_capacity(specs.len());
        for spec in specs {
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
            let groups = firsts.len();
            args.push(match name.as_str() {
                "count" => Arg::count(&v, sel, &locals, &sizes),
                "sum" | "avg" => {
                    let j = columns.next().expect("a column per SUM and AVG");
                    let column = numbers.iter_mut().skip(j).step_by(width);
                    Arg::numbers(name, &v, (sel, &locals), &sizes, column)?
                }
                _ => Arg::best(spec, &v, sel, &locals, groups),
            });
        }
        Ok(GroupedRows {
            locals,
            firsts,
            args,
            numbers,
        })
    }

    /// Adds one batch's rows: a group's first row creates it, as its
    /// representative; then each aggregate's argument goes into the
    /// groups' states. SUM and AVG add their numbers in row order, all of
    /// a row's at once, so that only the dependent adds stay serial.
    pub(crate) fn absorb(&mut self, rows: GroupedRows) {
        let ids: Vec<usize> = rows
            .firsts
            .into_iter()
            .map(|(key, rep)| {
                *self.index.entry(key.clone()).or_insert_with(|| {
                    for (states, fresh) in self.states.iter_mut().zip(&self.fresh) {
                        states.push(fresh.clone());
                    }
                    self.groups.push((key, rep));
                    self.groups.len() - 1
                })
            })
            .collect();
        let mut summed = Vec::new();
        for (states, arg) in self.states.iter_mut().zip(rows.args) {
            let each = ids.iter().copied();
            match arg {
                Arg::Count(counts) => {
                    for (g, n) in each.zip(counts) {
                        let AggState::Count(count) = &mut states[g] else {
                            unreachable!("only COUNT counts rows");
                        };
                        *count += n;
                    }
                }
                Arg::Best(best) => {
                    for (g, best) in each.zip(best) {
                        if let AggState::Min(Some(v)) | AggState::Max(Some(v)) = best {
                            states[g].add_value(v);
                        }
                    }
                }
                Arg::Numbers(tallies) => summed.push((states, tallies)),
            }
        }
        let width = summed.len();
        if width == 0 {
            return;
        }
        // Group-major running sums, `sums[l * width + j]`.
        let mut sums = vec![0.0; ids.len() * width];
        for (j, (states, _)) in summed.iter().enumerate() {
            for (l, &g) in ids.iter().enumerate() {
                sums[l * width + j] = states[g].sum();
            }
        }
        let locals = rows.locals.iter().map(|&l| l as usize);
        if width == 1 {
            // One sum: rows of a group often come in runs, so the running
            // sum stays in a register until the group changes.
            let mut run = (0, sums.first().copied().unwrap_or(0.0));
            for (x, l) in rows.numbers.iter().zip(locals) {
                if l != run.0 {
                    sums[run.0] = run.1;
                    run = (l, sums[l]);
                }
                run.1 += x;
            }
            if let Some(sum) = sums.get_mut(run.0) {
                *sum = run.1;
            }
        } else {
            for (xs, l) in rows.numbers.chunks_exact(width).zip(locals) {
                let acc = &mut sums[l * width..][..width];
                for (sum, x) in acc.iter_mut().zip(xs) {
                    *sum += x;
                }
            }
        }
        for (j, (states, tallies)) in summed.into_iter().enumerate() {
            for (l, (&g, tally)) in ids.iter().zip(tallies).enumerate() {
                states[g].add_sum(sums[l * width + j], tally);
            }
        }
    }

    /// Each group's representative row and aggregate values (one per
    /// spec), ordered by key. A global aggregate over no row has one empty
    /// group, holding `counted` rows when batch cardinalities answered a
    /// counts-only statement.
    pub(crate) fn finish(mut self, counted: Option<u64>) -> Result<Vec<(Row, Vec<Value>)>> {
        if self.groups.is_empty() && self.global {
            for (states, fresh) in self.states.iter_mut().zip(&self.fresh) {
                states.push(match counted {
                    Some(n) => AggState::Count(n),
                    None => fresh.clone(),
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
    /// `ints` is the exact sum while every number added is a BIGINT.
    Sum {
        sum: f64,
        seen: bool,
        ints: Option<i128>,
    },
    Avg {
        sum: f64,
        count: u64,
        ints: Option<i128>,
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
                ints: Some(0),
            },
            "avg" => AggState::Avg {
                sum: 0.0,
                count: 0,
                ints: Some(0),
            },
            "min" => AggState::Min(None),
            "max" => AggState::Max(None),
            other => unreachable!("not an aggregate: {other}"),
        }
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

    /// A SUM's or AVG's running sum.
    fn sum(&self) -> f64 {
        match self {
            AggState::Sum { sum, .. } | AggState::Avg { sum, .. } => *sum,
            _ => 0.0,
        }
    }

    /// Sets a SUM's or AVG's running sum to `sum`, which added `count`
    /// more numbers, of exact sum `added` if all are BIGINTs.
    fn add_sum(&mut self, sum: f64, (count, added): (u64, Option<i128>)) {
        let exact = |ints: Option<i128>| ints.zip(added).map(|(a, b)| a + b);
        match self {
            AggState::Sum { sum: s, seen, ints } => {
                *s = sum;
                *seen |= count > 0;
                *ints = exact(*ints);
            }
            AggState::Avg {
                sum: s,
                count: n,
                ints,
            } => {
                *s = sum;
                *n += count;
                *ints = exact(*ints);
            }
            _ => unreachable!("only SUM and AVG add numbers"),
        }
    }

    /// The aggregate's value.
    fn finish(&self) -> Result<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int64(*n as i64),
            AggState::Sum { seen: false, .. } => Value::Null,
            AggState::Sum {
                ints: Some(ints), ..
            } => Value::Int64(
                i64::try_from(*ints).map_err(|_| Error::Plan("SUM overflows BIGINT".into()))?,
            ),
            AggState::Sum { sum, .. } => Value::Float64(*sum),
            AggState::Avg { count: 0, .. } => Value::Null,
            AggState::Avg {
                ints: Some(ints),
                count,
                ..
            } => Value::Float64(*ints as f64 / *count as f64),
            AggState::Avg { sum, count, .. } => Value::Float64(sum / *count as f64),
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
