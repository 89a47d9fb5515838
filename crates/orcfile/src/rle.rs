//! Light-weight encodings for column streams: integer run-length encoding
//! (modelled after ORC RLE v1) and bit-packing for booleans/presence maps.

use dt_common::codec::{get_ivarint, get_uvarint, put_ivarint, put_uvarint, unzigzag};
use dt_common::{Error, Result};

/// Encodes a sequence of `i64` with ORC-v1-style RLE:
///
/// * **run**: control byte `0..=127` = run length − 3 (3..=130 values),
///   followed by an `i8` delta and the varint base value;
/// * **literals**: control byte `0x80 | (count − 1)` (1..=128 values),
///   followed by that many signed varints.
pub fn encode_i64s(values: &[i64], out: &mut Vec<u8>) {
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i < values.len() {
        // Try to detect a run of >= 3 values with a constant small delta.
        let run_len = run_length_at(values, i);
        if run_len >= 3 {
            flush_literals(&values[lit_start..i], out);
            let delta = if run_len > 1 {
                (values[i + 1] - values[i]) as i8
            } else {
                0
            };
            let capped = run_len.min(130);
            out.push((capped - 3) as u8);
            out.push(delta as u8);
            put_ivarint(out, values[i]);
            i += capped;
            lit_start = i;
        } else {
            i += 1;
            if i - lit_start == 128 {
                flush_literals(&values[lit_start..i], out);
                lit_start = i;
            }
        }
    }
    flush_literals(&values[lit_start..], out);
}

/// Length of the constant-delta run starting at `i` (delta must fit i8).
fn run_length_at(values: &[i64], i: usize) -> usize {
    if i + 2 >= values.len() {
        return 0;
    }
    let delta = match values[i + 1].checked_sub(values[i]) {
        Some(d) if i8::try_from(d).is_ok() => d,
        _ => return 0,
    };
    if values[i + 2].checked_sub(values[i + 1]) != Some(delta) {
        return 0;
    }
    let mut len = 3;
    while i + len < values.len() && values[i + len].checked_sub(values[i + len - 1]) == Some(delta)
    {
        len += 1;
    }
    len
}

fn flush_literals(lits: &[i64], out: &mut Vec<u8>) {
    for chunk in lits.chunks(128) {
        if chunk.is_empty() {
            continue;
        }
        out.push(0x80 | (chunk.len() - 1) as u8);
        for v in chunk {
            put_ivarint(out, *v);
        }
    }
}

/// Decodes exactly `count` values written by [`encode_i64s`].
pub fn decode_i64s(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<i64>> {
    let mut out = Vec::with_capacity(count);
    decode_i64s_into(buf, pos, count, &mut out, Ok)?;
    Ok(out)
}

/// Decodes exactly `count` values written by [`encode_i64s`], appending
/// `map` of each to `out` — how a column decodes straight into its typed
/// vector. `map` rejects a value its type cannot hold.
pub(crate) fn decode_i64s_into<T>(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    out: &mut Vec<T>,
    mut map: impl FnMut(i64) -> Result<T>,
) -> Result<()> {
    out.reserve(count);
    let mut left = count;
    while left > 0 {
        let control = *buf
            .get(*pos)
            .ok_or_else(|| Error::corrupt("truncated RLE control byte"))?;
        *pos += 1;
        let n = if control & 0x80 != 0 {
            (control & 0x7F) as usize + 1
        } else {
            control as usize + 3
        };
        if n > left {
            return Err(Error::corrupt("RLE produced more values than expected"));
        }
        left -= n;
        if control & 0x80 != 0 {
            let mut at = *pos;
            for _ in 0..n {
                let (v, next) = literal(buf, at)?;
                out.push(map(v)?);
                at = next;
            }
            *pos = at;
        } else {
            let delta = i64::from(
                *buf.get(*pos)
                    .ok_or_else(|| Error::corrupt("truncated RLE delta"))? as i8,
            );
            *pos += 1;
            let base = get_ivarint(buf, pos)?;
            // A run is monotone: if its last value fits, every one does.
            base.checked_add(delta * (n as i64 - 1))
                .ok_or_else(|| Error::corrupt("RLE run overflow"))?;
            let mut v = base;
            for _ in 0..n {
                out.push(map(v)?);
                v = v.wrapping_add(delta);
            }
        }
    }
    Ok(())
}

/// One literal at `pos`, and the position after it: a one-byte varint
/// inline, a longer one of up to eight bytes from one little-endian word
/// without a branch per byte (literals of mixed lengths would mispredict
/// one); the last bytes of a stream and longer varints out of line.
/// Positions go by value so that they stay in registers.
#[inline(always)]
fn literal(buf: &[u8], pos: usize) -> Result<(i64, usize)> {
    let Some(word) = buf.get(pos..pos + 8) else {
        return long_literal(buf, pos);
    };
    let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
    if word & 0x80 == 0 {
        return Ok((unzigzag(word & 0x7F), pos + 1));
    }
    let ends = !word & 0x8080_8080_8080_8080;
    if ends == 0 {
        return long_literal(buf, pos);
    }
    let len = ends.trailing_zeros() / 8 + 1;
    let word = word & (u64::MAX >> (64 - 8 * len));
    let v = (0..8).fold(0, |v, k| v | (word >> k) & (0x7F << (7 * k)));
    Ok((unzigzag(v), pos + len as usize))
}

#[cold]
#[inline(never)]
fn long_literal(buf: &[u8], mut pos: usize) -> Result<(i64, usize)> {
    Ok((get_ivarint(buf, &mut pos)?, pos))
}

/// Bit-packs booleans MSB-first, prefixed with the value count.
pub fn encode_bools(values: &[bool], out: &mut Vec<u8>) {
    encode_bits(values.iter().copied(), out);
}

/// The presence bitmap of a column: [`encode_bools`] of "not NULL" per
/// row, `nulls` as [`decode_nulls`] returns it.
pub(crate) fn encode_presence(nulls: Option<&[bool]>, rows: usize, out: &mut Vec<u8>) {
    match nulls {
        Some(nulls) => encode_bits(nulls.iter().map(|null| !null), out),
        None => encode_bits(std::iter::repeat_n(true, rows), out),
    }
}

fn encode_bits(values: impl ExactSizeIterator<Item = bool>, out: &mut Vec<u8>) {
    let count = values.len();
    put_uvarint(out, count as u64);
    let mut byte = 0u8;
    for (i, b) in values.enumerate() {
        if b {
            byte |= 0x80 >> (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !count.is_multiple_of(8) {
        out.push(byte);
    }
}

/// The count and packed bytes of a [`encode_bools`] stream.
fn bits<'a>(buf: &'a [u8], pos: &mut usize) -> Result<(usize, &'a [u8])> {
    let count = get_uvarint(buf, pos)? as usize;
    let bytes = count
        .div_ceil(8)
        .checked_add(*pos)
        .and_then(|end| buf.get(*pos..end))
        .ok_or_else(|| Error::corrupt("truncated bool stream"))?;
    *pos += bytes.len();
    Ok((count, bytes))
}

/// Decodes booleans written by [`encode_bools`].
pub fn decode_bools(buf: &[u8], pos: &mut usize) -> Result<Vec<bool>> {
    let (count, bytes) = bits(buf, pos)?;
    Ok((0..count)
        .map(|i| bytes[i / 8] & (0x80 >> (i % 8)) != 0)
        .collect())
}

/// Decodes a presence bitmap written by [`encode_presence`]: the row
/// count and the null mask, `None` when no row is NULL — found by
/// comparing whole bytes, with no pass over the bits.
pub(crate) fn decode_nulls(buf: &[u8], pos: &mut usize) -> Result<(usize, Option<Vec<bool>>)> {
    let (count, bytes) = bits(buf, pos)?;
    let (full, tail) = bytes.split_at(count / 8);
    let tail_mask = !(0xFFu8 >> (count % 8));
    let all_present =
        full.iter().all(|&b| b == 0xFF) && tail.first().is_none_or(|&b| b & tail_mask == tail_mask);
    let nulls = (!all_present).then(|| {
        (0..count)
            .map(|i| bytes[i / 8] & (0x80 >> (i % 8)) == 0)
            .collect()
    });
    Ok((count, nulls))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_ints(values: &[i64]) {
        let mut buf = Vec::new();
        encode_i64s(values, &mut buf);
        let mut pos = 0;
        let got = decode_i64s(&buf, &mut pos, values.len()).unwrap();
        assert_eq!(got, values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn constant_run_compresses_well() {
        let values = vec![42i64; 1000];
        let mut buf = Vec::new();
        encode_i64s(&values, &mut buf);
        assert!(buf.len() < 40, "encoded {} bytes", buf.len());
        roundtrip_ints(&values);
    }

    #[test]
    fn ascending_run_compresses_well() {
        let values: Vec<i64> = (0..1000).collect();
        let mut buf = Vec::new();
        encode_i64s(&values, &mut buf);
        assert!(buf.len() < 40, "encoded {} bytes", buf.len());
        roundtrip_ints(&values);
    }

    #[test]
    fn literals_and_extremes() {
        roundtrip_ints(&[]);
        roundtrip_ints(&[i64::MIN, i64::MAX, 0, -1, 1]);
        roundtrip_ints(&[5]);
        roundtrip_ints(&[1, 2]); // too short for a run
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut values = Vec::new();
        values.extend([9, -3, 77]);
        values.extend(std::iter::repeat_n(5i64, 50));
        values.extend([1000, -1000]);
        values.extend((0..200).map(|i| i * 2));
        roundtrip_ints(&values);
    }

    #[test]
    fn overflow_delta_falls_back_to_literals() {
        // Deltas outside i8 can't use run encoding; must still roundtrip.
        let values: Vec<i64> = (0..10).map(|i| i * 1000).collect();
        roundtrip_ints(&values);
        // Wrap-around pairs.
        roundtrip_ints(&[i64::MAX - 1, i64::MAX, i64::MIN, i64::MIN + 1]);
    }

    #[test]
    fn long_runs_split_at_130() {
        let values = vec![7i64; 500];
        roundtrip_ints(&values);
    }

    #[test]
    fn bool_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000] {
            let values: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            encode_bools(&values, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_bools(&buf, &mut pos).unwrap(), values);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn literals_of_every_varint_length() {
        // 1 to 10 bytes each, in one literal group and at the stream's end
        // (where fewer than eight bytes are left to read a word from).
        let mut values: Vec<i64> = (0..64).map(|bit| ((1u64 << bit) - 1) as i64).collect();
        values.extend(values.clone().iter().map(|v| v.wrapping_neg()));
        values.extend([i64::MIN, 64, -65, 8191, -8192]);
        roundtrip_ints(&values);
        for v in &values {
            roundtrip_ints(&[*v]);
        }
        // A literal group claiming more values than remain is refused.
        let mut buf = Vec::new();
        encode_i64s(&[5, -900, 77], &mut buf);
        let mut pos = 0;
        assert!(decode_i64s(&buf, &mut pos, 2).is_err());
    }

    #[test]
    fn presence_maps_decode_to_null_masks() {
        for n in [0usize, 1, 7, 8, 9, 64, 1000] {
            let mut buf = Vec::new();
            encode_presence(None, n, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_nulls(&buf, &mut pos).unwrap(), (n, None));
            assert_eq!(pos, buf.len());
            // Byte for byte the bool stream of "present" per row.
            let mut bools = Vec::new();
            encode_bools(&vec![true; n], &mut bools);
            assert_eq!(buf, bools);
            if n == 0 {
                continue;
            }
            for null_at in [0, n / 2, n - 1] {
                let nulls: Vec<bool> = (0..n).map(|i| i == null_at).collect();
                let mut buf = Vec::new();
                encode_presence(Some(&nulls), n, &mut buf);
                let mut pos = 0;
                assert_eq!(decode_nulls(&buf, &mut pos).unwrap(), (n, Some(nulls)));
            }
        }
    }

    #[test]
    fn truncated_streams_error() {
        let mut buf = Vec::new();
        encode_i64s(&[1, 2, 3, 4, 5], &mut buf);
        let mut pos = 0;
        assert!(decode_i64s(&buf[..buf.len() - 1], &mut pos, 5).is_err());

        let mut buf = Vec::new();
        encode_bools(&[true; 20], &mut buf);
        let mut pos = 0;
        assert!(decode_bools(&buf[..1], &mut pos).is_err());
    }
}
