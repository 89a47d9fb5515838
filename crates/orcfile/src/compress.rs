//! Block compression for column streams.
//!
//! A byte-oriented LZ77 variant in the spirit of Snappy/LZ4 (ORC compresses
//! streams with zlib or Snappy): greedy hash-chain matching, sequences of
//! `(literal run, back-reference)`. Each compressed block is framed as
//! `[raw_len varint][mode byte][payload]`. Compression pays only when it
//! saves at least a tenth of the block (ORC's rule too: encode first,
//! compress only what then still shrinks); otherwise the raw bytes are
//! stored (`mode = 0`) and reading them costs one copy.

use std::borrow::Cow;

use dt_common::codec::{get_uvarint, put_uvarint};
use dt_common::{Error, Result};

/// Compression codec selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Store raw bytes.
    None,
    /// LZ77-style compression (default).
    #[default]
    Lz,
}

const MODE_RAW: u8 = 0;
const MODE_LZ: u8 = 1;

/// LZ is kept only when its output is at most this many tenths of the
/// input: a block that shrinks by less is stored raw.
const LZ_KEEP_TENTHS: usize = 9;

/// Output reserved per input byte before decompressing: a corrupt length
/// header must not reserve more than the block can plausibly expand to
/// (a longer output still grows as it is written).
const RESERVE_PER_INPUT_BYTE: usize = 64;

/// Bytes the decoder's output runs past what it has decoded, so that a
/// short copy can move a fixed width.
const SLACK: usize = 16;

/// The shortest match worth a sequence. A sequence costs at least four
/// bytes (two varints and the offset) and a decode step, so a match of
/// four saves nothing and one of five a byte; from six on it pays.
const MIN_MATCH: usize = 6;
/// The most bits of the match finder's hash table: 16k slots.
const HASH_BITS: u32 = 14;
const MAX_OFFSET: usize = 0xFFFF;

/// The bits of the hash table for a block of `len` bytes: about a slot per
/// byte, at most [`HASH_BITS`], so a short stream fills a short table
/// instead of a 16k-slot one.
fn hash_bits(len: usize) -> u32 {
    (usize::BITS - len.leading_zeros()).clamp(4, HASH_BITS)
}

fn hash4(data: &[u8], i: usize, bits: u32) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - bits)) as usize
}

/// LZ payload grammar, repeated until input is exhausted:
/// `[lit_len varint][lit bytes][match_len varint][offset u16 LE]`.
/// A `match_len` of 0 terminates (trailing literals only).
fn lz_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let bits = hash_bits(data.len());
    let mut table = vec![u32::MAX; 1 << bits];
    // Positions are `u32`s: past 4 GiB the rest is one literal run.
    let searched = data.len().min(u32::MAX as usize);
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= searched {
        let h = hash4(data, i, bits);
        let cand = table[h] as usize;
        table[h] = i as u32;
        if cand != u32::MAX as usize
            && i - cand <= MAX_OFFSET
            && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH]
        {
            // Extend the match.
            let mut len = MIN_MATCH;
            while i + len < data.len() && data[cand + len] == data[i + len] {
                len += 1;
            }
            // Emit literals then the match.
            put_uvarint(&mut out, (i - lit_start) as u64);
            out.extend_from_slice(&data[lit_start..i]);
            put_uvarint(&mut out, len as u64);
            out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            // Seed the table sparsely inside the match.
            let end = i + len;
            while i < end.min(data.len().saturating_sub(MIN_MATCH)) {
                table[hash4(data, i, bits)] = i as u32;
                i += 2;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // Trailing literals with terminating zero-length match.
    put_uvarint(&mut out, (data.len() - lit_start) as u64);
    out.extend_from_slice(&data[lit_start..]);
    put_uvarint(&mut out, 0);
    out
}

/// A varint length, read inline when it fits one byte (the common case
/// for literal runs and match lengths).
fn get_len(input: &[u8], pos: &mut usize) -> Result<usize> {
    match input.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(usize::from(byte))
        }
        _ => Ok(get_uvarint(input, pos)? as usize),
    }
}

/// Decodes the sequences of [`lz_compress`], each bounds-checked once
/// against the input and against the `raw_len` the frame promises. A
/// short literal run or match moves a fixed [`SLACK`] bytes — a copy the
/// compiler unrolls — and the next sequence overwrites what it wrote past
/// its end; longer ones are one slice copy each.
fn lz_decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let reserve = raw_len.min(input.len().saturating_mul(RESERVE_PER_INPUT_BYTE));
    let mut out = vec![0u8; reserve + SLACK];
    let mut done = 0usize;
    let mut pos = 0usize;
    loop {
        let lit_len = get_len(input, &mut pos)?;
        let literals = pos
            .checked_add(lit_len)
            .and_then(|end| input.get(pos..end))
            .filter(|_| lit_len <= raw_len - done)
            .ok_or_else(|| Error::corrupt("LZ literal run overruns input"))?;
        make_room(&mut out, done + lit_len, raw_len);
        match input.get(pos..pos + SLACK) {
            Some(wide) if lit_len <= SLACK => out[done..done + SLACK].copy_from_slice(wide),
            _ => out[done..done + lit_len].copy_from_slice(literals),
        }
        done += lit_len;
        pos += lit_len;

        let match_len = get_len(input, &mut pos)?;
        if match_len == 0 {
            break;
        }
        let offset = input
            .get(pos..pos + 2)
            .map(|b| usize::from(u16::from_le_bytes([b[0], b[1]])))
            .ok_or_else(|| Error::corrupt("LZ match offset truncated"))?;
        pos += 2;
        if offset == 0 || offset > done {
            return Err(Error::corrupt("LZ match offset out of range"));
        }
        if match_len > raw_len - done {
            return Err(Error::corrupt("LZ match overruns the block"));
        }
        make_room(&mut out, done + match_len, raw_len);
        let start = done - offset;
        if match_len <= offset.min(SLACK) {
            let wide: [u8; SLACK] = out[start..start + SLACK].try_into().expect("slack");
            out[done..done + SLACK].copy_from_slice(&wide);
        } else {
            // An overlapping (RLE-style) match repeats its first `offset`
            // bytes: copy what is already there, doubling each time.
            let mut copied = 0;
            while copied < match_len {
                let n = (match_len - copied).min(done + copied - start);
                out.copy_within(start..start + n, done + copied);
                copied += n;
            }
        }
        done += match_len;
    }
    if done != raw_len {
        return Err(Error::corrupt(format!(
            "LZ decompressed {done} bytes, expected {raw_len}"
        )));
    }
    out.truncate(raw_len);
    Ok(out)
}

/// Grows `out` to hold `need ≤ raw_len` decoded bytes plus the slack.
fn make_room(out: &mut Vec<u8>, need: usize, raw_len: usize) {
    if out.len() < need + SLACK {
        out.resize(need.max(out.len() * 2).min(raw_len) + SLACK, 0);
    }
}

/// Compresses `data` into a framed block.
pub fn compress_block(codec: Codec, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    put_uvarint(&mut out, data.len() as u64);
    match codec {
        Codec::None => {
            out.push(MODE_RAW);
            out.extend_from_slice(data);
        }
        Codec::Lz => {
            let lz = lz_compress(data);
            if lz.len() * 10 <= data.len() * LZ_KEEP_TENTHS {
                out.push(MODE_LZ);
                out.extend_from_slice(&lz);
            } else {
                out.push(MODE_RAW);
                out.extend_from_slice(data);
            }
        }
    }
    out
}

/// Decompresses a block written by [`compress_block`]; a raw block is
/// borrowed, not copied.
pub fn decompress_block(data: &[u8]) -> Result<Cow<'_, [u8]>> {
    let mut pos = 0usize;
    let raw_len = get_uvarint(data, &mut pos)? as usize;
    let mode = *data
        .get(pos)
        .ok_or_else(|| Error::corrupt("truncated compression mode"))?;
    pos += 1;
    let payload = &data[pos..];
    match mode {
        MODE_RAW => {
            if payload.len() != raw_len {
                return Err(Error::corrupt("raw block length mismatch"));
            }
            Ok(Cow::Borrowed(payload))
        }
        MODE_LZ => lz_decompress(payload, raw_len).map(Cow::Owned),
        other => Err(Error::corrupt(format!("unknown compression mode {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: Codec, data: &[u8]) {
        let c = compress_block(codec, data);
        let d = decompress_block(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_small() {
        roundtrip(Codec::Lz, b"");
        roundtrip(Codec::Lz, b"a");
        roundtrip(Codec::None, b"abc");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = b"abcdefgh".repeat(1000);
        let c = compress_block(Codec::Lz, &data);
        assert!(
            c.len() < data.len() / 4,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress_block(&c).unwrap(), data);
    }

    #[test]
    fn rle_style_overlap() {
        let data = vec![7u8; 10_000];
        roundtrip(Codec::Lz, &data);
    }

    #[test]
    fn incompressible_data_stored_raw() {
        // Pseudo-random bytes.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress_block(Codec::Lz, &data);
        assert!(c.len() <= data.len() + 16);
        assert_eq!(decompress_block(&c).unwrap(), data);
    }

    /// `n` xorshift bytes whose last `copied` repeat their first ones.
    fn partly_repeated(n: usize, copied: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9u32;
        let mut data: Vec<u8> = (0..n - copied)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        data.extend_from_within(..copied);
        data
    }

    #[test]
    fn lz_is_kept_only_when_it_saves_a_tenth() {
        let mode = |block: &[u8]| {
            let mut pos = 0;
            get_uvarint(block, &mut pos).unwrap();
            block[pos]
        };
        // LZ shrinks this block by about 5 %: stored raw, read borrowed.
        let data = partly_repeated(2000, 100);
        let lz = lz_compress(&data).len();
        assert!(lz < data.len() && lz * 10 > data.len() * 9, "lz {lz}");
        let c = compress_block(Codec::Lz, &data);
        assert_eq!(mode(&c), MODE_RAW);
        assert!(matches!(decompress_block(&c).unwrap(), Cow::Borrowed(_)));
        assert_eq!(decompress_block(&c).unwrap(), data);
        // By about 20 %: compressed.
        let data = partly_repeated(2000, 400);
        let c = compress_block(Codec::Lz, &data);
        assert_eq!(mode(&c), MODE_LZ);
        assert_eq!(decompress_block(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_blocks_rejected() {
        let c = compress_block(Codec::Lz, &b"hello world hello world hello"[..]);
        assert!(decompress_block(&c[..c.len() - 2]).is_err());
        let mut bad = c.clone();
        bad[0] ^= 0x7F; // mangle raw_len
        assert!(decompress_block(&bad).is_err());
        // A match or literal run longer than the block the frame promises.
        for payload in [
            &[1u8, b'a', 0x80, 0x80, 0x01, 1, 0][..],
            &[0x90, 0x4E, b'a'],
        ] {
            let mut bad = vec![4, MODE_LZ];
            bad.extend_from_slice(payload);
            assert!(decompress_block(&bad).is_err());
        }
    }

    #[test]
    fn long_matches_cross_block_structures() {
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(format!("row-{}-{}", i % 7, i % 3).as_bytes());
        }
        roundtrip(Codec::Lz, &data);
    }
}
