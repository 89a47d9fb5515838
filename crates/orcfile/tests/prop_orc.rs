//! Property tests: ORC write→read identity for random schemas and rows,
//! DOUBLEs of every shape read back bit for bit, compression roundtrips,
//! mangled streams failing cleanly, and predicate push-down never losing
//! rows.

use dt_common::{DataType, Schema, Value};
use dt_dfs::{Dfs, DfsConfig};
use dt_orcfile::{
    compress, decode_stream, Codec, ColumnPredicate, OrcReader, OrcWriter, PredicateOp,
    WriterOptions,
};
use proptest::prelude::*;

fn arb_type() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Int64),
        Just(DataType::Float64),
        Just(DataType::Utf8),
        Just(DataType::Bool),
        Just(DataType::Date),
    ]
}

fn arb_value(ty: DataType) -> BoxedStrategy<Value> {
    let non_null: BoxedStrategy<Value> = match ty {
        DataType::Int64 => any::<i64>().prop_map(Value::Int64).boxed(),
        DataType::Float64 => arb_double().prop_map(Value::Float64).boxed(),
        DataType::Utf8 => "[a-z]{0,12}".prop_map(Value::Utf8).boxed(),
        DataType::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        DataType::Date => any::<i32>().prop_map(Value::Date).boxed(),
    };
    prop_oneof![1 => Just(Value::Null), 4 => non_null].boxed()
}

fn arb_table() -> impl Strategy<Value = (Vec<DataType>, Vec<Vec<Value>>)> {
    proptest::collection::vec(arb_type(), 1..6).prop_flat_map(|types| {
        let row = types.iter().map(|t| arb_value(*t)).collect::<Vec<_>>();
        proptest::collection::vec(row, 0..80).prop_map(move |rows| (types.clone(), rows))
    })
}

const NO_SCALE_FITS: [f64; 7] = [
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    9_007_199_254_740_991.0,
    9_007_199_254_740_993.0,
    -9_007_199_254_740_991.0,
];

/// DOUBLEs of every shape the encoder tells apart: `n / 10^s` for scales
/// up to 6 (decimal up to 4, direct past it), the values no scale fits
/// (`-0.0`, NaN, ±inf, `2^53 ± 1`) and arbitrary bit patterns, NaN
/// payloads included — mixed within a stripe or not, as the stripe length
/// falls.
fn arb_double() -> impl Strategy<Value = f64> {
    let scaled = |n: i64, s: i32| n as f64 / 10f64.powi(s);
    prop_oneof![
        3 => (-100_000i64..100_000, 0..=6i32).prop_map(move |(n, s)| scaled(n, s)),
        1 => (-(1i64 << 53)..1 << 53, 0..=6i32).prop_map(move |(n, s)| scaled(n, s)),
        1 => any::<prop::sample::Index>().prop_map(|i| NO_SCALE_FITS[i.index(NO_SCALE_FITS.len())]),
        1 => any::<u64>().prop_map(f64::from_bits),
    ]
}

fn eq_rows(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float64(p), Value::Float64(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn orc_write_read_identity((types, rows) in arb_table(), stripe_rows in 1usize..40) {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let fields: Vec<(String, DataType)> = types
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("c{i}"), *t))
            .collect();
        let pairs: Vec<(&str, DataType)> =
            fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let schema = Schema::from_pairs(&pairs);
        let mut w = OrcWriter::create(&dfs, "/t", schema, WriterOptions {
            stripe_rows,
            codec: Codec::Lz,
        }).unwrap();
        for row in &rows {
            w.write_row(row.clone()).unwrap();
        }
        w.finish().unwrap();

        let r = OrcReader::open(&dfs, "/t").unwrap();
        prop_assert_eq!(r.num_rows(), rows.len() as u64);
        let got = r.read_all().unwrap();
        prop_assert_eq!(got.len(), rows.len());
        for (i, (rownum, row)) in got.iter().enumerate() {
            prop_assert_eq!(*rownum, i as u64);
            prop_assert!(eq_rows(row, &rows[i]), "row {} mismatch: {:?} vs {:?}", i, row, rows[i]);
        }
    }

    #[test]
    fn doubles_read_back_bit_for_bit(
        values in proptest::collection::vec(prop_oneof![1 => Just(None), 8 => arb_double().prop_map(Some)], 0..120),
        stripe_rows in 1usize..48,
    ) {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let schema = Schema::from_pairs(&[("v", DataType::Float64)]);
        let mut w = OrcWriter::create(&dfs, "/d", schema, WriterOptions {
            stripe_rows,
            codec: Codec::Lz,
        }).unwrap();
        let rows: Vec<Vec<Value>> = values
            .iter()
            .map(|v| vec![v.map_or(Value::Null, Value::Float64)])
            .collect();
        w.write_rows(rows.clone()).unwrap();
        w.finish().unwrap();
        let got = OrcReader::open(&dfs, "/d").unwrap().read_all().unwrap();
        prop_assert_eq!(got.len(), rows.len());
        for ((_, row), want) in got.iter().zip(&rows) {
            prop_assert!(eq_rows(row, want), "{:?} read back as {:?}", want, row);
        }
    }

    #[test]
    fn compression_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress::compress_block(Codec::Lz, &data);
        prop_assert_eq!(compress::decompress_block(&c).unwrap(), data);
    }

    #[test]
    fn pushdown_loses_no_matching_rows(
        ids in proptest::collection::vec(-1000i64..1000, 1..200),
        threshold in -1000i64..1000,
        stripe_rows in 1usize..32,
    ) {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let mut w = OrcWriter::create(&dfs, "/t", schema, WriterOptions {
            stripe_rows,
            codec: Codec::None,
        }).unwrap();
        for id in &ids {
            w.write_row(vec![Value::Int64(*id)]).unwrap();
        }
        w.finish().unwrap();

        let r = OrcReader::open(&dfs, "/t").unwrap();
        let preds = vec![ColumnPredicate::new(0, PredicateOp::Ge, Value::Int64(threshold))];
        let surviving: Vec<(u64, i64)> = r
            .rows(None, Some(&preds))
            .unwrap()
            .map(|x| x.unwrap())
            .map(|(n, row)| (n, row[0].as_i64().unwrap()))
            .collect();
        // Every row that truly matches must appear with its correct row
        // number (stripe skipping is allowed to keep extra rows, never to
        // drop matching ones).
        for (i, id) in ids.iter().enumerate() {
            if *id >= threshold {
                prop_assert!(
                    surviving.iter().any(|(n, v)| *n == i as u64 && v == id),
                    "row {} (id {}) lost by pushdown", i, id
                );
            }
        }
    }
}

proptest! {
    // Cheap cases, and the stream mangled is one of several columns and
    // types: more of them than the identity properties take.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stored stream truncated at any length, with any one byte flipped,
    /// or framed around a truncated payload decodes to a column or an
    /// error, never a panic; so does a file with one flipped data byte.
    #[test]
    fn mangled_streams_fail_cleanly(
        (types, rows) in arb_table(),
        stripe_rows in 1usize..40,
        lz in any::<bool>(),
        pick in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let dfs = Dfs::in_memory(DfsConfig::default());
        let fields: Vec<(String, DataType)> = types
            .iter()
            .enumerate()
            .map(|(i, t)| (format!("c{i}"), *t))
            .collect();
        let pairs: Vec<(&str, DataType)> =
            fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let codec = if lz { Codec::Lz } else { Codec::None };
        let mut w = OrcWriter::create(&dfs, "/t", Schema::from_pairs(&pairs), WriterOptions {
            stripe_rows,
            codec,
        }).unwrap();
        // At least one row, so that there is a stream to mangle.
        w.write_rows(rows).unwrap();
        w.write_row(vec![Value::Null; types.len()]).unwrap();
        w.finish().unwrap();
        let r = OrcReader::open(&dfs, "/t").unwrap();
        let streams: Vec<(usize, usize)> = (0..r.stripe_count())
            .flat_map(|s| (0..types.len()).map(move |c| (s, c)))
            .collect();
        let (stripe, column) = streams[pick.index(streams.len())];
        let ty = types[column];
        let count = r.stripe_stats(stripe).unwrap()[column].count as usize;
        let stored = r.raw_streams(stripe, &[column]).unwrap().remove(0);
        prop_assert!(decode_stream(ty, &stored, count).is_ok());
        let payload = compress::decompress_block(&stored).unwrap();
        for at in 0..stored.len() {
            let _ = decode_stream(ty, &stored[..at], count);
            let mut bad = stored.clone();
            bad[at] ^= flip;
            let _ = decode_stream(ty, &bad, count);
        }
        for at in 0..payload.len() {
            let _ = decode_stream(ty, &compress::compress_block(codec, &payload[..at]), count);
        }

        let mut file = dfs.read_to_vec("/t").unwrap();
        let footer = u32::from_le_bytes(file[file.len() - 12..file.len() - 8].try_into().unwrap());
        let data = file.len() - 12 - footer as usize;
        file[pick.index(data)] ^= flip;
        dfs.write_file("/bad", &file).unwrap();
        if let Ok(bad) = OrcReader::open(&dfs, "/bad") {
            let _ = bad.read_all();
        }
    }
}
