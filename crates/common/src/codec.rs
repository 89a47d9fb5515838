//! Byte-level encoding primitives shared by the on-disk formats.
//!
//! * LEB128 varints for unsigned integers,
//! * zig-zag + varint for signed integers,
//! * length-prefixed byte strings,
//! * a [`Value`] cell codec used by the KV store and the Attached Table.

use crate::error::{Error, Result};
use crate::types::Value;

/// Appends `v` as a LEB128 varint.
#[inline]
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `buf[*pos..]`, advancing `pos`.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| Error::corrupt("truncated varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(Error::corrupt("varint overflows u64"));
        }
        result |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::corrupt("varint too long"));
        }
    }
}

/// Zig-zag encodes a signed integer so small magnitudes stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a signed varint (zig-zag + LEB128).
#[inline]
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, zigzag(v));
}

/// Reads a signed varint.
#[inline]
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(get_uvarint(buf, pos)?))
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_uvarint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string as a borrowed slice.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8]> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| Error::corrupt("byte-string length overflow"))?;
    if end > buf.len() {
        return Err(Error::corrupt("truncated byte string"));
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

// Cell codec tags. A tag byte keeps the codec self-describing so the KV
// store can hold heterogeneous cells.
const TAG_NULL: u8 = 0;
const TAG_INT64: u8 = 1;
const TAG_FLOAT64: u8 = 2;
const TAG_UTF8: u8 = 3;
const TAG_BOOL_FALSE: u8 = 4;
const TAG_BOOL_TRUE: u8 = 5;
const TAG_DATE: u8 = 6;

/// Appends a self-describing encoding of `v`.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Int64(x) => {
            buf.push(TAG_INT64);
            put_ivarint(buf, *x);
        }
        Value::Float64(x) => {
            buf.push(TAG_FLOAT64);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Utf8(s) => {
            buf.push(TAG_UTF8);
            put_bytes(buf, s.as_bytes());
        }
        Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        Value::Date(x) => {
            buf.push(TAG_DATE);
            put_ivarint(buf, i64::from(*x));
        }
    }
}

/// Reads a value written by [`put_value`].
pub fn get_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| Error::corrupt("truncated value tag"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT64 => Ok(Value::Int64(get_ivarint(buf, pos)?)),
        TAG_FLOAT64 => {
            let end = *pos + 8;
            if end > buf.len() {
                return Err(Error::corrupt("truncated float64"));
            }
            let mut arr = [0u8; 8];
            arr.copy_from_slice(&buf[*pos..end]);
            *pos = end;
            Ok(Value::Float64(f64::from_le_bytes(arr)))
        }
        TAG_UTF8 => {
            let bytes = get_bytes(buf, pos)?;
            let s =
                std::str::from_utf8(bytes).map_err(|_| Error::corrupt("invalid UTF-8 in value"))?;
            Ok(Value::Utf8(s.to_string()))
        }
        TAG_BOOL_FALSE => Ok(Value::Bool(false)),
        TAG_BOOL_TRUE => Ok(Value::Bool(true)),
        TAG_DATE => {
            let days = get_ivarint(buf, pos)?;
            let days = i32::try_from(days).map_err(|_| Error::corrupt("date out of range"))?;
            Ok(Value::Date(days))
        }
        other => Err(Error::corrupt(format!("unknown value tag {other}"))),
    }
}

/// Encodes a value into a fresh buffer.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    put_value(&mut buf, v);
    buf
}

/// Decodes a single value occupying the whole buffer.
pub fn decode_value(buf: &[u8]) -> Result<Value> {
    let mut pos = 0;
    let v = get_value(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(Error::corrupt("trailing bytes after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ivarint_roundtrip_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn truncated_varint_is_error() {
        let buf = vec![0x80u8, 0x80];
        let mut pos = 0;
        assert!(get_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let values = [
            Value::Null,
            Value::Int64(-42),
            Value::Float64(3.5),
            Value::Float64(f64::NAN),
            Value::Utf8("héllo".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Date(19_000),
        ];
        for v in &values {
            let enc = encode_value(v);
            let dec = decode_value(&enc).unwrap();
            match (v, &dec) {
                (Value::Float64(a), Value::Float64(b)) if a.is_nan() => assert!(b.is_nan()),
                _ => assert_eq!(*v, dec),
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut enc = encode_value(&Value::Int64(5));
        enc.push(0xFF);
        assert!(decode_value(&enc).is_err());
    }

    #[test]
    fn bytes_roundtrip_and_truncation() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"abc");
        let mut pos = 0;
        assert_eq!(get_bytes(&buf, &mut pos).unwrap(), b"abc");
        // Truncate payload.
        let mut pos = 0;
        assert!(get_bytes(&buf[..2], &mut pos).is_err());
    }
}
