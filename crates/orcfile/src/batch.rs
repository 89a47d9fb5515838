//! The column batch: one stripe's worth of the requested columns, typed.
//!
//! This is the unit every consumer of an ORC file works on — the reader
//! yields one per surviving stripe, UNION READ patches overlays into it
//! and narrows it with a selection vector, the SQL executor evaluates
//! over it. Row-at-a-time views ([`ColumnBatch::row`],
//! [`crate::OrcReader::rows`]) are adapters on top.

use std::collections::HashMap;

use dt_common::{DataType, Error, Result, Row, Schema, Value};

/// One column's values for every row of a batch, by storage type.
/// Positions holding NULL carry a filler (zero, `false`, the empty
/// string); [`Column::is_null`] is the authority.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// `BIGINT`.
    Int64(Vec<i64>),
    /// `DOUBLE`.
    Float64(Vec<f64>),
    /// `BOOLEAN`.
    Bool(Vec<bool>),
    /// `DATE` (days since the epoch).
    Date(Vec<i32>),
    /// Dictionary-coded strings, left coded: `codes[i]` indexes `dict`.
    Dict {
        /// The stripe's sorted dictionary (overlay values are appended).
        dict: Vec<String>,
        /// One dictionary index per row.
        codes: Vec<u32>,
    },
    /// Directly stored strings: `spans[i]` is the `(offset, length)` of
    /// row `i` within `bytes`.
    Direct {
        /// Every value, concatenated.
        bytes: String,
        /// One `(offset, length)` per row.
        spans: Vec<(u32, u32)>,
    },
}

/// A typed column vector plus its null mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// `nulls[i]` ⇔ row `i` is NULL; `None` when no row is.
    nulls: Option<Vec<bool>>,
}

impl Column {
    /// Expands `dense` (the non-null values in row order) to one slot per
    /// row of `nulls`, filling NULL rows with `T::default()`.
    pub(crate) fn expand<T: Default>(nulls: Option<&[bool]>, dense: Vec<T>) -> Result<Vec<T>> {
        let Some(nulls) = nulls else {
            return Ok(dense);
        };
        let mut dense = dense.into_iter();
        let out: Vec<T> = nulls
            .iter()
            .map(|&null| {
                if null {
                    Some(T::default())
                } else {
                    dense.next()
                }
            })
            .collect::<Option<_>>()
            .ok_or_else(|| Error::corrupt("value stream shorter than presence map"))?;
        Ok(out)
    }

    /// A column from positional `data` and its null mask (`None` when no
    /// row is NULL; otherwise one flag per row).
    pub fn from_parts(data: ColumnData, nulls: Option<Vec<bool>>) -> Self {
        let column = Column { data, nulls };
        debug_assert!(column
            .nulls
            .as_ref()
            .is_none_or(|n| n.len() == column.len()));
        column
    }

    /// An empty column of `data_type`, to be filled by [`Column::push`]
    /// and [`Column::extend`]. Strings are stored direct.
    pub fn empty(data_type: DataType) -> Self {
        let data = match data_type {
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Utf8 => ColumnData::Direct {
                bytes: String::new(),
                spans: Vec::new(),
            },
        };
        Column { data, nulls: None }
    }

    /// Empties the column, keeping its type and its allocations.
    pub(crate) fn clear(&mut self) {
        match &mut self.data {
            ColumnData::Int64(v) => v.clear(),
            ColumnData::Float64(v) => v.clear(),
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Date(v) => v.clear(),
            ColumnData::Dict { dict, codes } => {
                dict.clear();
                codes.clear();
            }
            ColumnData::Direct { bytes, spans } => {
                bytes.clear();
                spans.clear();
            }
        }
        self.nulls = None;
    }

    /// Copies `s` to the end of `bytes` and returns its span.
    fn append_str(bytes: &mut String, s: &str) -> Result<(u32, u32)> {
        let span = u32::try_from(bytes.len())
            .ok()
            .zip(u32::try_from(s.len()).ok())
            .filter(|(off, len)| off.checked_add(*len).is_some())
            .ok_or_else(|| Error::internal("string column outgrew its offset space"))?;
        bytes.push_str(s);
        Ok(span)
    }

    /// Appends one row. The value must be NULL or of the column's type.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        match (&mut self.data, value) {
            (ColumnData::Int64(v), Value::Int64(x)) => v.push(*x),
            (ColumnData::Float64(v), Value::Float64(x)) => v.push(*x),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(*x),
            (ColumnData::Date(v), Value::Date(x)) => v.push(*x),
            (ColumnData::Direct { bytes, spans }, Value::Utf8(s)) => {
                spans.push(Self::append_str(bytes, s)?)
            }
            (ColumnData::Int64(v), Value::Null) => v.push(0),
            (ColumnData::Float64(v), Value::Null) => v.push(0.0),
            (ColumnData::Bool(v), Value::Null) => v.push(false),
            (ColumnData::Date(v), Value::Null) => v.push(0),
            (ColumnData::Direct { spans, .. }, Value::Null) => spans.push((0, 0)),
            (data, other) => return Err(mismatch(data, &format!("{other:?}"))),
        }
        if value.is_null() || self.nulls.is_some() {
            let before = self.len() - 1;
            let nulls = self.nulls.get_or_insert_with(|| vec![false; before]);
            nulls.push(value.is_null());
        }
        Ok(())
    }

    /// Appends rows `rows` of `src`, which must hold the same type
    /// (strings in either form).
    pub(crate) fn extend(
        &mut self,
        src: &Column,
        rows: impl Iterator<Item = usize> + Clone,
    ) -> Result<()> {
        let before = self.len();
        match (&mut self.data, &src.data) {
            (ColumnData::Int64(v), ColumnData::Int64(s)) => v.extend(rows.clone().map(|i| s[i])),
            (ColumnData::Float64(v), ColumnData::Float64(s)) => {
                v.extend(rows.clone().map(|i| s[i]))
            }
            (ColumnData::Bool(v), ColumnData::Bool(s)) => v.extend(rows.clone().map(|i| s[i])),
            (ColumnData::Date(v), ColumnData::Date(s)) => v.extend(rows.clone().map(|i| s[i])),
            (
                ColumnData::Direct { bytes, spans },
                ColumnData::Dict { .. } | ColumnData::Direct { .. },
            ) => {
                for i in rows.clone() {
                    spans.push(Self::append_str(bytes, src.str_at(i).unwrap_or(""))?);
                }
            }
            (data, _) => return Err(mismatch(data, "a column of another type")),
        }
        if src.nulls.is_some() || self.nulls.is_some() {
            let nulls = self.nulls.get_or_insert_with(|| vec![false; before]);
            nulls.extend(rows.map(|i| src.is_null(i)));
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Direct { spans, .. } => spans.len(),
        }
    }

    /// `true` iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed vector (NULL rows hold fillers — see [`Column::is_null`]).
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The column's type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// `true` iff row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n[i])
    }

    /// The null mask; `None` when no row is NULL.
    pub fn nulls(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// The string at row `i` of a string column (`None` for NULL or a
    /// non-string column) — no allocation.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        if self.is_null(i) {
            return None;
        }
        match &self.data {
            ColumnData::Dict { dict, codes } => Some(&dict[codes[i] as usize]),
            ColumnData::Direct { bytes, spans } => {
                let (off, len) = spans[i];
                Some(&bytes[off as usize..(off + len) as usize])
            }
            _ => None,
        }
    }

    /// Row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Dict { .. } | ColumnData::Direct { .. } => {
                Value::Utf8(self.str_at(i).expect("non-null string row").to_string())
            }
        }
    }

    /// Overwrites row `i` — how UNION READ patches an update overlay in.
    /// The value must be NULL or of the column's type (every writer of
    /// overlays checks this, so a mismatch is corruption).
    pub fn set(&mut self, i: usize, value: Value) -> Result<()> {
        let is_null = value.is_null();
        match (&mut self.data, value) {
            (_, Value::Null) => {}
            (ColumnData::Int64(v), Value::Int64(x)) => v[i] = x,
            (ColumnData::Float64(v), Value::Float64(x)) => v[i] = x,
            (ColumnData::Bool(v), Value::Bool(x)) => v[i] = x,
            (ColumnData::Date(v), Value::Date(x)) => v[i] = x,
            (ColumnData::Dict { dict, codes }, Value::Utf8(s)) => {
                codes[i] = u32::try_from(dict.len())
                    .map_err(|_| Error::internal("dictionary outgrew its code space"))?;
                dict.push(s);
            }
            (ColumnData::Direct { bytes, spans }, Value::Utf8(s)) => {
                spans[i] = Self::append_str(bytes, &s)?;
            }
            (_, other) => {
                return Err(Error::corrupt(format!(
                    "overlay value {other:?} does not fit its column"
                )))
            }
        }
        match &mut self.nulls {
            Some(nulls) => nulls[i] = is_null,
            None if is_null => {
                let mut nulls = vec![false; self.len()];
                nulls[i] = true;
                self.nulls = Some(nulls);
            }
            None => {}
        }
        Ok(())
    }

    /// Overwrites row `rows[k]` with row `k` of `values`, for every `k` —
    /// how an OVERWRITE-plan UPDATE writes its new values in place, one
    /// typed loop per column. `values` must be of the column's type
    /// (strings in either form). A dictionary column gains each distinct
    /// string of `values` once, however many rows take it.
    pub fn scatter(&mut self, rows: &[u32], values: &Column) -> Result<()> {
        if values.len() != rows.len() {
            return Err(Error::internal("scatter needs one value per row"));
        }
        fn put<T: Copy>(v: &mut [T], rows: &[u32], src: &[T]) {
            for (&i, &x) in rows.iter().zip(src) {
                v[i as usize] = x;
            }
        }
        let at = |k: usize| values.str_at(k);
        match (&mut self.data, &values.data) {
            (ColumnData::Int64(v), ColumnData::Int64(s)) => put(v, rows, s),
            (ColumnData::Float64(v), ColumnData::Float64(s)) => put(v, rows, s),
            (ColumnData::Bool(v), ColumnData::Bool(s)) => put(v, rows, s),
            (ColumnData::Date(v), ColumnData::Date(s)) => put(v, rows, s),
            (
                ColumnData::Dict { dict, codes },
                ColumnData::Dict { .. } | ColumnData::Direct { .. },
            ) => {
                let mut added: HashMap<&str, u32> = HashMap::new();
                for (k, &i) in rows.iter().enumerate() {
                    let Some(s) = at(k) else { continue };
                    codes[i as usize] = match added.get(s) {
                        Some(&code) => code,
                        None => {
                            let code = u32::try_from(dict.len()).map_err(|_| {
                                Error::internal("dictionary outgrew its code space")
                            })?;
                            dict.push(s.to_string());
                            added.insert(s, code);
                            code
                        }
                    };
                }
            }
            (
                ColumnData::Direct { bytes, spans },
                ColumnData::Dict { .. } | ColumnData::Direct { .. },
            ) => {
                for (k, &i) in rows.iter().enumerate() {
                    if let Some(s) = at(k) {
                        spans[i as usize] = Self::append_str(bytes, s)?;
                    }
                }
            }
            (data, _) => return Err(mismatch(data, "a column of another type")),
        }
        if self.nulls.is_some() || values.nulls.is_some() {
            let len = self.len();
            let nulls = self.nulls.get_or_insert_with(|| vec![false; len]);
            for (k, &i) in rows.iter().enumerate() {
                nulls[i as usize] = values.is_null(k);
            }
        }
        Ok(())
    }
}

/// One stripe's rows, restricted to the requested columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBatch {
    row_start: u64,
    rows: usize,
    columns: Vec<Column>,
    /// Ascending indexes of the rows that survive; `None` = all of them.
    selection: Option<Vec<u32>>,
}

impl ColumnBatch {
    pub(crate) fn new(row_start: u64, rows: usize, columns: Vec<Column>) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        ColumnBatch {
            row_start,
            rows,
            columns,
            selection: None,
        }
    }

    /// A batch of in-memory rows that no file holds (a transaction's
    /// buffered inserts): columns `projection` of `rows`, which are full
    /// rows of `schema`. Strings are stored direct.
    pub fn from_rows(schema: &Schema, projection: &[usize], rows: &[Row]) -> Result<Self> {
        let columns = projection
            .iter()
            .map(|&c| {
                let mut column = Column::empty(schema.field(c).data_type);
                rows.iter().try_for_each(|row| column.push(&row[c]))?;
                Ok(column)
            })
            .collect::<Result<_>>()?;
        Ok(ColumnBatch::new(0, rows.len(), columns))
    }

    /// This batch with the columns of `other` (equally long) added, all
    /// sorted by the ordinal `ordinals` gives them — this batch's columns
    /// first, then `other`'s. Keeps this batch's selection.
    pub(crate) fn widened<'a>(
        mut self,
        ordinals: impl Iterator<Item = &'a usize>,
        other: ColumnBatch,
    ) -> ColumnBatch {
        self.columns.extend(other.columns);
        let mut columns: Vec<_> = ordinals.zip(self.columns).collect();
        columns.sort_by_key(|(ordinal, _)| **ordinal);
        self.columns = columns.into_iter().map(|(_, column)| column).collect();
        self
    }

    /// Row number, within the file, of the batch's first row.
    pub fn row_start(&self) -> u64 {
        self.row_start
    }

    /// Rows decoded, selected or not.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The columns, in projection order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Mutable access to one column, for patching overlays in.
    pub fn column_mut(&mut self, pos: usize) -> &mut Column {
        &mut self.columns[pos]
    }

    /// Narrows the batch to `selection` (ascending row indexes).
    pub fn select(&mut self, selection: Vec<u32>) {
        debug_assert!(selection.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(selection.last().is_none_or(|&i| (i as usize) < self.rows));
        self.selection = Some(selection);
    }

    /// The selection vector; `None` when every row survives.
    pub(crate) fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref()
    }

    /// Number of surviving rows.
    pub fn selected_len(&self) -> usize {
        self.selection.as_ref().map_or(self.rows, Vec::len)
    }

    /// Indexes of the surviving rows, ascending.
    pub fn selected(&self) -> impl Iterator<Item = usize> + '_ {
        let all = if self.selection.is_none() {
            0..self.rows
        } else {
            0..0
        };
        all.chain(self.selection.iter().flatten().map(|&i| i as usize))
    }

    /// Row `i` across the batch's columns.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// The surviving rows, unpacked.
    pub fn selected_rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.selected().map(|i| self.row(i))
    }
}

impl ColumnData {
    /// The type of the values it holds.
    fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Dict { .. } | ColumnData::Direct { .. } => DataType::Utf8,
        }
    }
}

/// The error of a value that does not fit the column it is written to.
fn mismatch(data: &ColumnData, got: &str) -> Error {
    Error::schema(format!("expected {}, got {got}", data.data_type()))
}
