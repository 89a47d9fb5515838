//! Column stream encoding/decoding within one stripe.
//!
//! Every column is one independent stream:
//!
//! ```text
//! [presence bitmap][type-specific payload]
//! ```
//!
//! * integers/dates: RLE varints of the non-null values;
//! * doubles: raw little-endian bytes;
//! * booleans: bit-packed;
//! * strings: a mode byte selecting *direct* (lengths + concatenated bytes)
//!   or *dictionary* (sorted dictionary + RLE indexes) encoding, chosen by
//!   the observed distinct ratio.
//!
//! The whole stream is block-compressed by the writer.

use dt_common::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use dt_common::{DataType, Error, Result, Value};

use crate::batch::{dict_codes, Column, ColumnData};
use crate::rle;

const STR_DIRECT: u8 = 0;
const STR_DICT: u8 = 1;

/// Encodes one column's values into a stream.
pub(crate) fn encode_column(data_type: DataType, values: &[Value]) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(values.len() * 4);
    let presence: Vec<bool> = values.iter().map(|v| !v.is_null()).collect();
    rle::encode_bools(&presence, &mut out);
    match data_type {
        DataType::Int64 | DataType::Date => {
            let ints: Vec<i64> = values
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| v.as_i64().ok_or_else(|| type_err(data_type, v)))
                .collect::<Result<_>>()?;
            rle::encode_i64s(&ints, &mut out);
        }
        DataType::Float64 => {
            for v in values.iter().filter(|v| !v.is_null()) {
                match v {
                    Value::Float64(f) => out.extend_from_slice(&f.to_le_bytes()),
                    other => return Err(type_err(data_type, other)),
                }
            }
        }
        DataType::Bool => {
            let bools: Vec<bool> = values
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| v.as_bool().ok_or_else(|| type_err(data_type, v)))
                .collect::<Result<_>>()?;
            rle::encode_bools(&bools, &mut out);
        }
        DataType::Utf8 => encode_strings(values, &mut out)?,
    }
    Ok(out)
}

fn type_err(expected: DataType, got: &Value) -> Error {
    Error::schema(format!("expected {expected}, got {got:?}"))
}

fn encode_strings(values: &[Value], out: &mut Vec<u8>) -> Result<()> {
    let strings: Vec<&str> = values
        .iter()
        .filter(|v| !v.is_null())
        .map(|v| v.as_str().ok_or_else(|| type_err(DataType::Utf8, v)))
        .collect::<Result<_>>()?;
    // Count distincts to choose the encoding.
    let mut sorted: Vec<&str> = strings.clone();
    sorted.sort_unstable();
    sorted.dedup();
    let use_dict = !strings.is_empty() && sorted.len() * 2 <= strings.len();
    if use_dict {
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
    Ok(())
}

/// Decodes one column stream into a typed [`Column`] of `row_count` rows.
pub(crate) fn decode_column(data_type: DataType, buf: &[u8], row_count: usize) -> Result<Column> {
    let mut pos = 0usize;
    let presence = rle::decode_bools(buf, &mut pos)?;
    if presence.len() != row_count {
        return Err(Error::corrupt(format!(
            "presence bitmap has {} entries, stripe has {row_count} rows",
            presence.len()
        )));
    }
    let non_null = presence.iter().filter(|p| **p).count();
    let data = match data_type {
        DataType::Int64 => ColumnData::Int64(Column::expand(
            &presence,
            rle::decode_i64s(buf, &mut pos, non_null)?,
        )?),
        DataType::Date => {
            let days = rle::decode_i64s(buf, &mut pos, non_null)?
                .into_iter()
                .map(|v| i32::try_from(v).map_err(|_| Error::corrupt("date out of range")))
                .collect::<Result<Vec<i32>>>()?;
            ColumnData::Date(Column::expand(&presence, days)?)
        }
        DataType::Float64 => {
            let raw = non_null
                .checked_mul(8)
                .and_then(|need| buf.get(pos..pos.checked_add(need)?))
                .ok_or_else(|| Error::corrupt("truncated float64 stream"))?;
            let vals = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            ColumnData::Float64(Column::expand(&presence, vals)?)
        }
        DataType::Bool => {
            let bools = rle::decode_bools(buf, &mut pos)?;
            if bools.len() != non_null {
                return Err(Error::corrupt("bool stream length mismatch"));
            }
            ColumnData::Bool(Column::expand(&presence, bools)?)
        }
        DataType::Utf8 => decode_strings(buf, &mut pos, &presence, non_null)?,
    };
    Ok(Column::new(data, presence))
}

fn decode_strings(
    buf: &[u8],
    pos: &mut usize,
    presence: &[bool],
    non_null: usize,
) -> Result<ColumnData> {
    let mode = *buf
        .get(*pos)
        .ok_or_else(|| Error::corrupt("truncated string mode"))?;
    *pos += 1;
    match mode {
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
            let codes = dict_codes(rle::decode_i64s(buf, pos, non_null)?, dict.len())?;
            Ok(ColumnData::Dict {
                dict,
                codes: Column::expand(presence, codes)?,
            })
        }
        STR_DIRECT => {
            let lengths = rle::decode_i64s(buf, pos, non_null)?;
            let mut spans = Vec::with_capacity(non_null);
            let mut end = 0u32;
            for len in lengths {
                let len =
                    u32::try_from(len).map_err(|_| Error::corrupt("string length out of range"))?;
                spans.push((end, len));
                end = end
                    .checked_add(len)
                    .ok_or_else(|| Error::corrupt("string data too long"))?;
            }
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
                spans: Column::expand(presence, spans)?,
            })
        }
        other => Err(Error::corrupt(format!("unknown string mode {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ty: DataType, values: Vec<Value>) {
        let enc = encode_column(ty, &values).unwrap();
        assert_eq!(decoded(ty, &enc, values.len()), values);
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
        let enc = encode_column(DataType::Utf8, &values).unwrap();
        assert_eq!(enc[enc.len().min(1)..][..0].len(), 0); // no-op, readability
                                                           // Dictionary mode should be chosen (mode byte after presence map).
        assert_eq!(decoded(DataType::Utf8, &enc, values.len()), values);
        // A direct encoding of the same data is longer.
        let unique: Vec<Value> = (0..100).map(|i| Value::Utf8(format!("val-{i}"))).collect();
        let enc_unique = encode_column(DataType::Utf8, &unique).unwrap();
        assert!(enc.len() < enc_unique.len());
    }

    #[test]
    fn empty_and_all_null_columns() {
        roundtrip(DataType::Int64, vec![]);
        roundtrip(DataType::Utf8, vec![Value::Null, Value::Null]);
        roundtrip(DataType::Float64, vec![Value::Null]);
    }

    #[test]
    fn type_mismatch_rejected() {
        assert!(encode_column(DataType::Int64, &[Value::from("oops")]).is_err());
        assert!(encode_column(DataType::Utf8, &[Value::Int64(5)]).is_err());
        assert!(encode_column(DataType::Float64, &[Value::Int64(5)]).is_err());
    }

    #[test]
    fn wrong_row_count_rejected() {
        let enc = encode_column(DataType::Int64, &[Value::Int64(1)]).unwrap();
        assert!(decode_column(DataType::Int64, &enc, 2).is_err());
    }
}
