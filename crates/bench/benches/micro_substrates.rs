//! Criterion micro-benchmarks for the substrate crates: ORC encode/decode,
//! KV put/get/scan, DFS streaming, compression, RLE, and the UNION READ
//! merge.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dt_common::{DataType, Schema, Value};
use dt_dfs::{Dfs, DfsConfig};
use dt_kvstore::{KvCluster, KvConfig};
use dt_orcfile::{compress, rle, Codec, OrcReader, OrcWriter, WriterOptions};
use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint};
use std::hint::black_box;

const ROWS: usize = 8_192;

fn sample_schema() -> Schema {
    Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("name", DataType::Utf8),
        ("v", DataType::Float64),
    ])
}

fn sample_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Int64(i as i64),
                Value::Utf8(format!("name-{}", i % 97)),
                Value::Float64(i as f64 * 0.5),
            ]
        })
        .collect()
}

fn bench_dfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("dfs");
    let payload = vec![0xABu8; 1 << 20];
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("stream_write_1mb", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let dfs = Dfs::in_memory(DfsConfig::small_chunks(64 << 10));
            i += 1;
            dfs.write_file(&format!("/f{i}"), &payload).unwrap();
        });
    });
    g.bench_function("stream_read_1mb", |b| {
        let dfs = Dfs::in_memory(DfsConfig::small_chunks(64 << 10));
        dfs.write_file("/f", &payload).unwrap();
        b.iter(|| black_box(dfs.read_to_vec("/f").unwrap()));
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress");
    let data: Vec<u8> = (0..1 << 18).map(|i| ((i / 16) % 251) as u8).collect();
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("lz_compress_256k", |b| {
        b.iter(|| black_box(compress::compress_block(Codec::Lz, &data)));
    });
    let compressed = compress::compress_block(Codec::Lz, &data);
    g.bench_function("lz_decompress_256k", |b| {
        b.iter(|| black_box(compress::decompress_block(&compressed).unwrap()));
    });
    g.finish();
}

fn bench_rle(c: &mut Criterion) {
    let mut g = c.benchmark_group("rle");
    let values: Vec<i64> = (0..65_536).map(|i| i / 8).collect();
    g.throughput(Throughput::Elements(values.len() as u64));
    g.bench_function("encode_i64_64k", |b| {
        b.iter(|| {
            let mut buf = Vec::new();
            rle::encode_i64s(&values, &mut buf);
            black_box(buf)
        });
    });
    let mut buf = Vec::new();
    rle::encode_i64s(&values, &mut buf);
    g.bench_function("decode_i64_64k", |b| {
        b.iter(|| {
            let mut pos = 0;
            black_box(rle::decode_i64s(&buf, &mut pos, values.len()).unwrap())
        });
    });
    g.finish();
}

fn bench_orc(c: &mut Criterion) {
    let mut g = c.benchmark_group("orc");
    let rows = sample_rows(ROWS);
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("write_8k_rows", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let dfs = Dfs::in_memory(DfsConfig::default());
            i += 1;
            let mut w = OrcWriter::create(
                &dfs,
                &format!("/t{i}"),
                sample_schema(),
                WriterOptions::default(),
            )
            .unwrap();
            w.write_rows(rows.clone()).unwrap();
            w.finish().unwrap();
        });
    });
    let dfs = Dfs::in_memory(DfsConfig::default());
    let mut w = OrcWriter::create(&dfs, "/t", sample_schema(), WriterOptions::default()).unwrap();
    w.write_rows(rows).unwrap();
    w.finish().unwrap();
    g.bench_function("read_8k_rows", |b| {
        b.iter(|| {
            let r = OrcReader::open(&dfs, "/t").unwrap();
            black_box(r.read_all().unwrap())
        });
    });
    g.finish();
}

fn bench_kv(c: &mut Criterion) {
    let mut g = c.benchmark_group("kvstore");
    g.throughput(Throughput::Elements(1));
    let cluster = KvCluster::in_memory(KvConfig::default());
    let store = cluster.create_table("bench").unwrap();
    for i in 0..10_000u64 {
        store.put(&i.to_be_bytes(), b"q", &[1u8; 16]).unwrap();
    }
    store.flush().unwrap();
    g.bench_function("put", |b| {
        let mut i = 10_000u64;
        b.iter(|| {
            i += 1;
            store.put(&i.to_be_bytes(), b"q", &[1u8; 16]).unwrap();
        });
    });
    g.bench_function("get_hit", |b| {
        b.iter(|| black_box(store.get(&5_000u64.to_be_bytes(), b"q").unwrap()));
    });
    g.bench_function("get_miss_bloom", |b| {
        b.iter(|| black_box(store.get(&999_999u64.to_be_bytes(), b"q").unwrap()));
    });
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("scan_10k_rows", |b| {
        b.iter(|| {
            black_box(
                store
                    .scan(None, Some(&10_000u64.to_be_bytes()[..]))
                    .unwrap()
                    .collect_rows()
                    .unwrap(),
            )
        });
    });
    g.finish();
}

fn bench_union_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("union_read");
    g.throughput(Throughput::Elements(ROWS as u64));
    let env = DualTableEnv::in_memory();
    let config = DualTableConfig {
        rows_per_file: ROWS / 4,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    };
    let table = DualTableStore::create(&env, "u", sample_schema(), config).unwrap();
    table.insert_rows(sample_rows(ROWS)).unwrap();
    g.bench_function("scan_clean_8k", |b| {
        b.iter(|| black_box(table.scan_all().unwrap()));
    });
    table
        .update(
            |r| r[0].as_i64().unwrap() % 10 == 0,
            &[(2, Box::new(|_| Ok(Value::Float64(0.0))))],
            RatioHint::Explicit(0.1),
        )
        .unwrap();
    g.bench_function("scan_10pct_updated_8k", |b| {
        b.iter(|| black_box(table.scan_all().unwrap()));
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dfs, bench_compress, bench_rle, bench_orc, bench_kv, bench_union_read
);
criterion_main!(benches);
