//! Column stream encoding/decoding within one stripe.
//!
//! Every column is one independent stream:
//!
//! ```text
//! [presence bitmap][type-specific payload]
//! ```
//!
//! * integers/dates: RLE varints of the non-null values;
//! * doubles: a mode byte selecting *decimal* — a scale `s` and the RLE
//!   varints of `v·10^s`, for a stripe whose every value is such an
//!   integer over `10^s` bit for bit, with the smallest such `s ≤ 4` — or
//!   *direct* raw little-endian bytes (`-0.0`, NaN, ±inf, and any value
//!   with no short decimal form keep a stripe direct);
//! * booleans: bit-packed;
//! * strings: a mode byte selecting *direct* (lengths + concatenated bytes)
//!   or *dictionary* (sorted dictionary + RLE indexes) encoding, chosen by
//!   the observed distinct ratio.
//!
//! The whole stream is block-compressed by the writer, which stores it raw
//! when compression does not pay; encodings first, so that it need not.

use std::borrow::Cow;
use std::cmp::Ordering;

use dt_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use dt_common::{DataType, Error, Result, Value};

use crate::batch::{Column, ColumnData};
use crate::compress::decompress_block;
use crate::rle;
use crate::stats::ColumnStats;

const STR_DIRECT: u8 = 0;
const STR_DICT: u8 = 1;

const DBL_DIRECT: u8 = 0;
const DBL_DECIMAL: u8 = 1;

/// `10^s` for each decimal scale a DOUBLE stream may use.
const POW10: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];
/// Scaled integers stay below `2^53`, where every integer is a double.
const EXACT_INTS: u64 = 1 << 53;

/// Encodes one typed column into a stream and computes its statistics —
/// the one encoder: a stripe a rewrite re-encodes and a stripe built from
/// rows (which the writer first gathers into typed columns) both end here.
pub(crate) fn encode_column(
    data_type: DataType,
    column: &Column,
) -> Result<(Vec<u8>, ColumnStats)> {
    let rows = column.len();
    let nulls = column.nulls();
    let mut out = Vec::with_capacity(rows * 4);
    rle::encode_presence(nulls, rows, &mut out);
    let range = match (data_type, column.data()) {
        (DataType::Int64, ColumnData::Int64(v)) => {
            let ints = dense(v, nulls);
            rle::encode_i64s(&ints, &mut out);
            range_of(&ints, i64::cmp, Value::Int64)
        }
        (DataType::Date, ColumnData::Date(v)) => {
            let days = dense(v, nulls);
            let ints: Vec<i64> = days.iter().map(|&d| i64::from(d)).collect();
            rle::encode_i64s(&ints, &mut out);
            range_of(&days, i32::cmp, Value::Date)
        }
        (DataType::Float64, ColumnData::Float64(v)) => {
            let floats = dense(v, nulls);
            match decimal(&floats) {
                Some((scale, ints)) => {
                    out.extend([DBL_DECIMAL, scale]);
                    rle::encode_i64s(&ints, &mut out);
                }
                None => {
                    out.push(DBL_DIRECT);
                    floats.iter().for_each(|f| out.extend(f.to_le_bytes()));
                }
            }
            range_of(&floats, f64::total_cmp, Value::Float64)
        }
        (DataType::Bool, ColumnData::Bool(v)) => {
            let bools = dense(v, nulls);
            rle::encode_bools(&bools, &mut out);
            range_of(&bools, bool::cmp, Value::Bool)
        }
        (DataType::Utf8, ColumnData::Dict { .. } | ColumnData::Direct { .. }) => {
            let dict = encode_strings(column, &mut out);
            let range = dict.first().zip(dict.last());
            range.map(|(min, max)| (Value::from(*min), Value::from(*max)))
        }
        (expected, _) => {
            return Err(Error::schema(format!(
                "expected {expected}, got a column of another type"
            )))
        }
    };
    let null_count = nulls.map_or(0, |n| n.iter().filter(|null| **null).count()) as u64;
    let (min, max) = range.unzip();
    let stats = ColumnStats {
        count: rows as u64,
        null_count,
        min,
        max,
    };
    Ok((out, stats))
}

/// The non-null values of a positional vector, in row order.
fn dense<'a, T: Copy>(values: &'a [T], nulls: Option<&[bool]>) -> Cow<'a, [T]> {
    match nulls {
        None => Cow::Borrowed(values),
        Some(nulls) => values
            .iter()
            .zip(nulls)
            .filter(|(_, null)| !**null)
            .map(|(v, _)| *v)
            .collect(),
    }
}

/// The smallest scale `s` at which every value is `n / 10^s` bit for bit,
/// for an integer `|n| < 2^53`, and those integers — `None` if no scale
/// fits. The test is on the bits: `-0.0` (read back as `0.0`), NaN and
/// ±inf (no such `n`) and values with no short decimal form fail it.
fn decimal(values: &[f64]) -> Option<(u8, Vec<i64>)> {
    let mut ints = Vec::with_capacity(values.len());
    (0u8..).zip(POW10).find_map(|(scale, pow)| {
        ints.clear();
        for &v in values {
            let n = (v * pow).round() as i64;
            if n.unsigned_abs() >= EXACT_INTS || (n as f64 / pow).to_bits() != v.to_bits() {
                return None;
            }
            ints.push(n);
        }
        Some((scale, std::mem::take(&mut ints)))
    })
}

/// `(min, max)` of the non-null values under the order [`Value::total_cmp`]
/// gives their type.
fn range_of<T: Copy>(
    dense: &[T],
    cmp: impl Fn(&T, &T) -> Ordering + Copy,
    wrap: impl Fn(T) -> Value,
) -> Option<(Value, Value)> {
    let min = dense.iter().copied().min_by(cmp)?;
    let max = dense.iter().copied().max_by(cmp)?;
    Some((wrap(min), wrap(max)))
}

/// Encodes the non-null strings of `column` — dictionary-coded when at
/// most half of them are distinct — and returns their sorted distinct
/// values. A dictionary column arrives with whatever [`Column::set`]
/// appended to its dictionary (duplicates, out of order, entries no row
/// uses any more); the written dictionary is sorted and deduplicated
/// again, from the entries still in use.
fn encode_strings<'a>(column: &'a Column, out: &mut Vec<u8>) -> Vec<&'a str> {
    let strings: Vec<&str> = (0..column.len()).filter_map(|i| column.str_at(i)).collect();
    let mut sorted: Vec<&str> = match column.data() {
        ColumnData::Dict { dict, codes } => {
            let mut used = vec![false; dict.len()];
            for (i, &code) in codes.iter().enumerate() {
                used[code as usize] |= !column.is_null(i);
            }
            let entries = dict.iter().zip(used);
            entries
                .filter(|(_, u)| *u)
                .map(|(s, _)| s.as_str())
                .collect()
        }
        _ => strings.clone(),
    };
    sorted.sort_unstable();
    sorted.dedup();
    if !strings.is_empty() && sorted.len() * 2 <= strings.len() {
        out.push(STR_DICT);
        put_uvarint(out, sorted.len() as u64);
        for s in &sorted {
            put_bytes(out, s.as_bytes());
        }
        let indexes: Vec<i64> = strings
            .iter()
            .map(|s| sorted.binary_search(s).expect("dict must contain value") as i64)
            .collect();
        rle::encode_i64s(&indexes, out);
    } else {
        out.push(STR_DIRECT);
        let lengths: Vec<i64> = strings.iter().map(|s| s.len() as i64).collect();
        rle::encode_i64s(&lengths, out);
        for s in &strings {
            out.extend_from_slice(s.as_bytes());
        }
    }
    sorted
}

/// Decodes one column stream as a file stores it — block-compressed, as
/// [`crate::OrcReader::raw_streams`] returns it — into a typed [`Column`]
/// of `row_count` rows. Any byte string gives a column or an error, never
/// a panic.
pub fn decode_stream(data_type: DataType, stored: &[u8], row_count: usize) -> Result<Column> {
    decode_column(data_type, &decompress_block(stored)?, row_count)
}

/// Decodes one column stream into a typed [`Column`] of `row_count` rows.
/// Values decode straight into the column's vector; only a column with
/// NULLs is then spread out to one slot per row.
pub(crate) fn decode_column(data_type: DataType, buf: &[u8], row_count: usize) -> Result<Column> {
    let mut pos = 0usize;
    let (rows, null_mask) = rle::decode_nulls(buf, &mut pos)?;
    if rows != row_count {
        return Err(Error::corrupt(format!(
            "presence bitmap has {rows} entries, stripe has {row_count} rows"
        )));
    }
    let nulls = null_mask.as_deref();
    let non_null = nulls.map_or(rows, |n| n.iter().filter(|null| !**null).count());
    let data = match data_type {
        DataType::Int64 => ColumnData::Int64(Column::expand(
            nulls,
            rle::decode_i64s(buf, &mut pos, non_null)?,
        )?),
        DataType::Date => {
            let mut days = Vec::new();
            rle::decode_i64s_into(buf, &mut pos, non_null, &mut days, |v| {
                i32::try_from(v).map_err(|_| Error::corrupt("date out of range"))
            })?;
            ColumnData::Date(Column::expand(nulls, days)?)
        }
        DataType::Float64 => ColumnData::Float64(Column::expand(
            nulls,
            decode_doubles(buf, &mut pos, non_null)?,
        )?),
        DataType::Bool => {
            let bools = rle::decode_bools(buf, &mut pos)?;
            if bools.len() != non_null {
                return Err(Error::corrupt("bool stream length mismatch"));
            }
            ColumnData::Bool(Column::expand(nulls, bools)?)
        }
        DataType::Utf8 => decode_strings(buf, &mut pos, nulls, non_null)?,
    };
    Ok(Column::from_parts(data, null_mask))
}

/// The byte after `pos`, advancing past it.
fn mode_byte(buf: &[u8], pos: &mut usize, what: &str) -> Result<u8> {
    let byte = *buf
        .get(*pos)
        .ok_or_else(|| Error::corrupt(format!("truncated {what}")))?;
    *pos += 1;
    Ok(byte)
}

fn decode_doubles(buf: &[u8], pos: &mut usize, non_null: usize) -> Result<Vec<f64>> {
    match mode_byte(buf, pos, "double mode")? {
        DBL_DECIMAL => {
            let scale = mode_byte(buf, pos, "double scale")?;
            let pow = *POW10
                .get(usize::from(scale))
                .ok_or_else(|| Error::corrupt(format!("double scale {scale} out of range")))?;
            let mut values = Vec::new();
            rle::decode_i64s_into(buf, pos, non_null, &mut values, |n| Ok(n as f64))?;
            // Exact for |n| < 2^53; a separate pass so that it vectorises.
            if scale > 0 {
                values.iter_mut().for_each(|v| *v /= pow);
            }
            Ok(values)
        }
        DBL_DIRECT => {
            let raw = non_null
                .checked_mul(8)
                .and_then(|need| buf.get(*pos..pos.checked_add(need)?))
                .ok_or_else(|| Error::corrupt("truncated float64 stream"))?;
            *pos += raw.len();
            Ok(raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect())
        }
        other => Err(Error::corrupt(format!("unknown double mode {other}"))),
    }
}

fn decode_strings(
    buf: &[u8],
    pos: &mut usize,
    nulls: Option<&[bool]>,
    non_null: usize,
) -> Result<ColumnData> {
    match mode_byte(buf, pos, "string mode")? {
        STR_DICT => {
            let dict_len = get_uvarint(buf, pos)? as usize;
            let mut dict = Vec::with_capacity(dict_len.min(buf.len()));
            for _ in 0..dict_len {
                let bytes = get_bytes(buf, pos)?;
                dict.push(
                    std::str::from_utf8(bytes)
                        .map_err(|_| Error::corrupt("invalid UTF-8 in dictionary"))?
                        .to_string(),
                );
            }
            let mut codes = Vec::new();
            rle::decode_i64s_into(buf, pos, non_null, &mut codes, |i| {
                u32::try_from(i)
                    .ok()
                    .filter(|&c| (c as usize) < dict.len())
                    .ok_or_else(|| Error::corrupt("dictionary index out of range"))
            })?;
            Ok(ColumnData::Dict {
                dict,
                codes: Column::expand(nulls, codes)?,
            })
        }
        STR_DIRECT => {
            let mut spans = Vec::new();
            let mut end = 0u32;
            rle::decode_i64s_into(buf, pos, non_null, &mut spans, |len| {
                let len =
                    u32::try_from(len).map_err(|_| Error::corrupt("string length out of range"))?;
                let span = (end, len);
                end = end
                    .checked_add(len)
                    .ok_or_else(|| Error::corrupt("string data too long"))?;
                Ok(span)
            })?;
            let bytes = buf
                .get(*pos..*pos + end as usize)
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or_else(|| Error::corrupt("truncated or invalid UTF-8 string data"))?;
            if spans
                .iter()
                .any(|&(off, _)| !bytes.is_char_boundary(off as usize))
            {
                return Err(Error::corrupt("string boundary splits a UTF-8 character"));
            }
            *pos += end as usize;
            Ok(ColumnData::Direct {
                bytes: bytes.to_string(),
                spans: Column::expand(nulls, spans)?,
            })
        }
        other => Err(Error::corrupt(format!("unknown string mode {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(ty: DataType, values: &[Value]) -> Column {
        let mut column = Column::empty(ty);
        values.iter().for_each(|v| column.push(v).unwrap());
        column
    }

    fn encoded(ty: DataType, values: &[Value]) -> Vec<u8> {
        encode_column(ty, &column(ty, values)).unwrap().0
    }

    fn roundtrip(ty: DataType, values: Vec<Value>) {
        let (enc, stats) = encode_column(ty, &column(ty, &values)).unwrap();
        assert_eq!(decoded(ty, &enc, values.len()), values);
        let mut expected = ColumnStats::new();
        values.iter().for_each(|v| expected.update(v));
        assert_eq!(stats, expected);
    }

    fn decoded(ty: DataType, enc: &[u8], n: usize) -> Vec<Value> {
        let col = decode_column(ty, enc, n).unwrap();
        (0..n).map(|i| col.value(i)).collect()
    }

    #[test]
    fn int_column_with_nulls() {
        roundtrip(
            DataType::Int64,
            vec![
                Value::Int64(1),
                Value::Null,
                Value::Int64(-5),
                Value::Int64(1_000_000),
            ],
        );
    }

    #[test]
    fn date_column() {
        roundtrip(
            DataType::Date,
            vec![Value::Date(19_000), Value::Date(19_001), Value::Null],
        );
    }

    #[test]
    fn float_column() {
        roundtrip(
            DataType::Float64,
            vec![Value::Float64(1.5), Value::Null, Value::Float64(-0.0)],
        );
    }

    /// The double mode a stream of non-null `values` is written in, and
    /// the values it reads back, bit for bit.
    fn doubles(values: &[f64]) -> (u8, Vec<u64>) {
        let values: Vec<Value> = values.iter().map(|&v| Value::Float64(v)).collect();
        let enc = encoded(DataType::Float64, &values);
        let mut pos = 0;
        rle::decode_nulls(&enc, &mut pos).unwrap();
        let back = decoded(DataType::Float64, &enc, values.len());
        let bits = back.iter().map(|v| v.as_f64().unwrap().to_bits());
        (enc[pos], bits.collect())
    }

    #[test]
    fn decimal_doubles_take_the_smallest_scale_that_round_trips() {
        assert_eq!(decimal(&[1.0, 0.05, 0.10]), Some((2, vec![100, 5, 10])));
        assert_eq!(decimal(&[1.0, 0.10]), Some((1, vec![10, 1])));
        assert_eq!(decimal(&[3.0, -7.0]), Some((0, vec![3, -7])));
        assert_eq!(decimal(&[1.2345]), Some((4, vec![12345])));
        assert_eq!(decimal(&[]), Some((0, vec![])));
        let mixed = [1.0, 0.05, 0.10, 4567.65, -12.5];
        assert_eq!(doubles(&mixed).0, DBL_DECIMAL);
        let bits: Vec<u64> = mixed.iter().map(|v| v.to_bits()).collect();
        assert_eq!(doubles(&mixed).1, bits);
    }

    #[test]
    fn doubles_without_a_short_decimal_form_stay_direct() {
        for v in [
            -0.0,
            0.1 + 0.2,
            1e300,
            9007199254740993.0,
            1.23456,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(decimal(&[v]), None, "{v}");
            // One such value keeps its whole stripe direct, bit for bit.
            let stripe = [0.5, v, 2.0];
            let (mode, back) = doubles(&stripe);
            assert_eq!(mode, DBL_DIRECT, "{v}");
            let bits: Vec<u64> = stripe.iter().map(|v| v.to_bits()).collect();
            assert_eq!(back, bits);
        }
        // 2^53 − 1 is still a scaled integer; 2^53 is not.
        assert_eq!(decimal(&[9007199254740991.0]).unwrap().0, 0);
        assert_eq!(decimal(&[9007199254740992.0]), None);
    }

    #[test]
    fn corrupt_double_streams_are_rejected() {
        let values = [Value::Float64(0.25), Value::Float64(1.5)];
        let enc = encoded(DataType::Float64, &values);
        let mut pos = 0;
        rle::decode_nulls(&enc, &mut pos).unwrap();
        assert_eq!(enc[pos..pos + 2], [DBL_DECIMAL, 2]);
        for (at, byte) in [(pos, 7), (pos + 1, 5)] {
            let mut bad = enc.clone();
            bad[at] = byte; // an unknown mode, a scale past 10^4
            assert!(decode_column(DataType::Float64, &bad, 2).is_err());
        }
        assert!(decode_column(DataType::Float64, &enc[..enc.len() - 1], 2).is_err());
    }

    #[test]
    fn bool_column() {
        roundtrip(
            DataType::Bool,
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
        );
    }

    #[test]
    fn string_direct_low_repetition() {
        let values: Vec<Value> = (0..50)
            .map(|i| Value::Utf8(format!("unique-{i}")))
            .collect();
        roundtrip(DataType::Utf8, values);
    }

    #[test]
    fn string_dictionary_high_repetition() {
        let values: Vec<Value> = (0..100)
            .map(|i| Value::Utf8(format!("val-{}", i % 3)))
            .collect();
        let enc = encoded(DataType::Utf8, &values);
        assert_eq!(decoded(DataType::Utf8, &enc, values.len()), values);
        // A direct encoding of the same data is longer.
        let unique: Vec<Value> = (0..100).map(|i| Value::Utf8(format!("val-{i}"))).collect();
        let enc_unique = encoded(DataType::Utf8, &unique);
        assert!(enc.len() < enc_unique.len());
    }

    #[test]
    fn empty_and_all_null_columns() {
        for ty in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Date,
            DataType::Utf8,
        ] {
            roundtrip(ty, vec![]);
            roundtrip(ty, vec![Value::Null, Value::Null]);
        }
    }

    /// A dictionary column as UNION READ hands it to a rewrite: decoded
    /// from a dictionary stream, then patched by `Column::set`, which
    /// appends to the dictionary — duplicates, out of order — and strands
    /// the entries of overwritten rows.
    #[test]
    fn patched_dictionary_column_is_written_sorted_and_deduplicated() {
        let mut values: Vec<Value> = (0..40).map(|i| Value::from(["b", "d"][i % 2])).collect();
        values[7] = Value::Null;
        let enc = encoded(DataType::Utf8, &values);
        let mut patched = decode_column(DataType::Utf8, &enc, values.len()).unwrap();
        assert!(matches!(patched.data(), ColumnData::Dict { .. }));
        for (i, s) in [(0, "c"), (1, "a"), (2, "c"), (3, "d"), (7, "a")] {
            patched.set(i, Value::from(s)).unwrap();
            values[i] = Value::from(s);
        }
        patched.set(9, Value::Null).unwrap();
        values[9] = Value::Null;
        let (enc, stats) = encode_column(DataType::Utf8, &patched).unwrap();
        // Byte for byte what the same values written from scratch give.
        assert_eq!(enc, encoded(DataType::Utf8, &values));
        assert_eq!(decoded(DataType::Utf8, &enc, values.len()), values);
        assert_eq!((stats.null_count, stats.min), (1, Some(Value::from("a"))));
        let back = decode_column(DataType::Utf8, &enc, values.len()).unwrap();
        let ColumnData::Dict { dict, .. } = back.data() else {
            panic!("4 distinct values in 39 stay dictionary-coded");
        };
        assert_eq!(dict, &["a", "b", "c", "d"]);

        // Overlays that make more than half the values distinct flip the
        // choice to direct, as a from-scratch write of them would.
        for (i, value) in values.iter_mut().enumerate().take(30) {
            *value = Value::Utf8(format!("u{i}"));
            patched.set(i, value.clone()).unwrap();
        }
        let (enc, _) = encode_column(DataType::Utf8, &patched).unwrap();
        assert_eq!(enc, encoded(DataType::Utf8, &values));
        let back = decode_column(DataType::Utf8, &enc, values.len()).unwrap();
        assert!(matches!(back.data(), ColumnData::Direct { .. }));
        // An entry no row uses any more is not written.
        patched = decode_column(DataType::Utf8, &enc, values.len()).unwrap();
        assert!((0..values.len()).all(|i| patched.str_at(i) != Some("c")));
    }

    /// `Column::scatter` equals `Column::set` row by row — for every type,
    /// NULLs in and out, strings into either form — and a dictionary
    /// column gains each distinct scattered string once.
    #[test]
    fn scatter_equals_set_row_by_row() {
        let n = 24;
        let value = |ty, i: usize| match (ty, i % 5) {
            (_, 4) => Value::Null,
            (DataType::Int64, _) => Value::Int64(i as i64 * 7 - 50),
            (DataType::Float64, _) => Value::Float64(i as f64 / 3.0),
            (DataType::Bool, _) => Value::Bool(i.is_multiple_of(3)),
            (DataType::Date, _) => Value::Date(18_000 + i as i32),
            (_, _) => Value::from(["p", "q", "r"][i % 3]),
        };
        let rows: Vec<u32> = vec![1, 2, 3, 8, 9, 14, 20, 23];
        for ty in [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Date,
            DataType::Utf8,
        ] {
            let old: Vec<Value> = (0..n).map(|i| value(ty, i + 3)).collect();
            let new: Vec<Value> = (0..rows.len()).map(|k| value(ty, 2 * k)).collect();
            let direct = column(ty, &old);
            let stored = decode_column(ty, &encoded(ty, &old), n).unwrap();
            for target in [direct, stored] {
                let mut by_set = target.clone();
                for (&i, v) in rows.iter().zip(&new) {
                    by_set.set(i as usize, v.clone()).unwrap();
                }
                let mut scattered = target.clone();
                let values = column(ty, &new);
                scattered.scatter(&rows, &values).unwrap();
                let all = |c: &Column| (0..n).map(|i| c.value(i)).collect::<Vec<_>>();
                assert_eq!(all(&scattered), all(&by_set), "{ty}");
                let enc = |c: &Column| encode_column(ty, c).unwrap().0;
                assert_eq!(enc(&scattered), enc(&by_set), "{ty}");
                if let ColumnData::Dict { dict, .. } = scattered.data() {
                    let ColumnData::Dict { dict: before, .. } = target.data() else {
                        unreachable!("a scatter keeps the column's form")
                    };
                    assert_eq!(dict.len(), before.len() + 3, "p, q and r, once each");
                }
            }
        }
        let mut ints = column(DataType::Int64, &[Value::Int64(1)]);
        let floats = column(DataType::Float64, &[Value::Float64(1.0)]);
        assert!(ints.scatter(&[0], &floats).is_err());
        assert!(ints
            .scatter(&[0, 0], &column(DataType::Int64, &[]))
            .is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(Column::empty(DataType::Int64)
            .push(&Value::from("oops"))
            .is_err());
        assert!(Column::empty(DataType::Utf8)
            .push(&Value::Int64(5))
            .is_err());
        let ints = column(DataType::Int64, &[Value::Int64(5)]);
        assert!(encode_column(DataType::Float64, &ints).is_err());
        assert!(encode_column(DataType::Date, &ints).is_err());
    }

    #[test]
    fn wrong_row_count_rejected() {
        let enc = encoded(DataType::Int64, &[Value::Int64(1)]);
        assert!(decode_column(DataType::Int64, &enc, 2).is_err());
    }
}
