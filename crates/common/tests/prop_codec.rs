//! Property-based tests for the byte codecs in `dt-common`.

use dt_common::codec::*;
use dt_common::crc32::{crc32, Crc32};
use dt_common::types::Value;
use dt_common::RecordId;
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int64),
        any::<f64>().prop_map(Value::Float64),
        ".{0,64}".prop_map(Value::Utf8),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Date),
    ]
}

proptest! {
    #[test]
    fn uvarint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn ivarint_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        put_ivarint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
    }

    #[test]
    fn zigzag_is_bijective(v in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    #[test]
    fn value_roundtrip(v in arb_value()) {
        let enc = encode_value(&v);
        let dec = decode_value(&enc).unwrap();
        match (&v, &dec) {
            (Value::Float64(a), Value::Float64(b)) => {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            _ => prop_assert_eq!(&v, &dec),
        }
    }

    #[test]
    fn value_sequence_roundtrip(vs in proptest::collection::vec(arb_value(), 0..32)) {
        let mut buf = Vec::new();
        for v in &vs {
            put_value(&mut buf, v);
        }
        let mut pos = 0;
        for v in &vs {
            let dec = get_value(&buf, &mut pos).unwrap();
            match (v, &dec) {
                (Value::Float64(a), Value::Float64(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                _ => prop_assert_eq!(v, &dec),
            }
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn record_id_key_order_agrees_with_numeric_order(a in any::<u64>(), b in any::<u64>()) {
        let ka = RecordId::from_u64(a).to_key();
        let kb = RecordId::from_u64(b).to_key();
        prop_assert_eq!(a.cmp(&b), ka.cmp(&kb));
    }

    #[test]
    fn crc_differs_on_mutation(data in proptest::collection::vec(any::<u8>(), 1..256), idx in any::<prop::sample::Index>()) {
        let mut mutated = data.clone();
        let i = idx.index(mutated.len());
        mutated[i] ^= 0x5A;
        prop_assert_ne!(crc32(&data), crc32(&mutated));
    }

    /// `Crc32::update` over random cuts of random bytes at a random
    /// alignment equals the bytewise reference over the whole.
    #[test]
    fn crc_update_over_any_cuts_equals_the_reference(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Crc32::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            h.update(&data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(h.finish(), reference_crc32(&data));
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Must return Ok or Err, never panic or loop.
        let _ = decode_value(&data);
    }
}

/// The CRC-32 register advanced over `data` one bit at a time, with no
/// table: the reference the table-driven code must equal.
fn reference_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc
}

fn reference_crc32(data: &[u8]) -> u32 {
    !reference_update(0xFFFF_FFFF, data)
}

/// Bytes from a fixed xorshift stream, so every length sees varied data.
fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// Every length from 0 to 4,096 bytes at every start alignment of an
/// 8-byte word: the slicing-by-8 CRC equals the bitwise reference.
#[test]
fn crc_equals_the_reference_at_every_length_and_alignment() {
    let data = noise(4096 + 8);
    for align in 0..8 {
        let mut reg = 0xFFFF_FFFF;
        for len in 0..=4096 {
            if len > 0 {
                reg = reference_update(reg, &data[align + len - 1..align + len]);
            }
            assert_eq!(
                crc32(&data[align..align + len]),
                !reg,
                "align {align} len {len}"
            );
        }
    }
}

/// Every split of a buffer into two `Crc32::update` calls, and every
/// split into three of a shorter one, at every alignment, agrees with
/// the one-shot value.
#[test]
fn crc_update_agrees_at_every_split() {
    let data = noise(1024 + 8);
    for align in 0..8 {
        let buf = &data[align..align + 1024];
        let whole = reference_crc32(buf);
        assert_eq!(crc32(buf), whole);
        for cut in 0..=buf.len() {
            let mut h = Crc32::new();
            h.update(&buf[..cut]);
            h.update(&buf[cut..]);
            assert_eq!(h.finish(), whole, "align {align} cut {cut}");
        }
        let short = &buf[..64];
        let whole = reference_crc32(short);
        for a in 0..=short.len() {
            for b in a..=short.len() {
                let mut h = Crc32::new();
                h.update(&short[..a]);
                h.update(&short[a..b]);
                h.update(&short[b..]);
                assert_eq!(h.finish(), whole, "align {align} cuts {a}, {b}");
            }
        }
    }
}
