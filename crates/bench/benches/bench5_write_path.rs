//! BENCH 5: the parallel write path (DESIGN.md §12).
//!
//! Three experiments, all over a synthetic block-placement latency that
//! models the datanode round-trip a real HDFS pipeline pays per block
//! (so overlap is observable even on small hosts):
//!
//! * OVERWRITE — an UPDATE forced down the OVERWRITE plan, at 1/2/4/8
//!   rewrite workers.
//! * COMPACT — merging an EDIT-dirtied table back to a clean master
//!   generation, at the same thread counts.
//! * DML burst — concurrent attached-tier `put_batch` callers against a
//!   WAL whose fsync dwells, with the group-commit window at 1 (legacy,
//!   one fsync per batch) vs 8 (leader coalesces the queue).
//!
//! Emits `BENCH_5.json` at the workspace root and enforces the nightly
//! floors: 4-worker OVERWRITE at least 1.2x the sequential run, and the
//! grouped DML burst actually saving fsyncs.

use std::sync::Arc;
use std::time::Duration;

use dt_bench::report::{header, print_rows, print_series};
use dt_bench::{fmt_secs, scaled, time};
use dt_common::{DataType, LogicalClock, Result, Schema, Value};
use dt_dfs::{Dfs, DfsConfig};
use dt_kvstore::{Env, KvCluster, KvConfig, MemEnv, Store};
use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint};

/// Rewrite worker counts swept by the OVERWRITE and COMPACT experiments.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Synthetic per-block placement latency (microseconds).
const PUT_LATENCY_MICROS: u64 = 1_500;
/// Synthetic WAL fsync latency for the DML burst (microseconds).
const FSYNC_LATENCY_MICROS: u64 = 800;
/// Concurrent DML clients in the burst.
const BURST_CLIENTS: u32 = 4;
/// Batches each burst client writes.
const BURST_BATCHES: u32 = 40;

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn build_env() -> DualTableEnv {
    let dfs_cfg = DfsConfig {
        replication: 1,
        put_latency_micros: PUT_LATENCY_MICROS,
        ..DfsConfig::default()
    };
    DualTableEnv::new(
        Dfs::in_memory(dfs_cfg),
        KvCluster::in_memory(KvConfig::default()),
    )
    .expect("in-memory env")
}

fn build_table(
    env: &DualTableEnv,
    rows: usize,
    threads: usize,
    plan_mode: PlanMode,
) -> DualTableStore {
    let config = DualTableConfig {
        rows_per_file: (rows / 48).max(1),
        write_threads: threads,
        plan_mode,
        ..DualTableConfig::default()
    };
    let t = DualTableStore::create(env, "bench5", schema(), config).expect("create table");
    t.insert_rows((0..rows as i64).map(|i| vec![Value::Int64(i), Value::Int64(i * 2)]))
        .expect("load table");
    t
}

/// UPDATE through the OVERWRITE plan: a full master rewrite fanned out
/// across `threads` workers.
fn run_overwrite(rows: usize, threads: usize) -> f64 {
    let env = build_env();
    let t = build_table(&env, rows, threads, PlanMode::AlwaysOverwrite);
    let (secs, outcome) = time(|| {
        t.update(
            |r| r[0].as_i64().unwrap() % 2 == 0,
            &[(1, Box::new(|_| Value::Int64(-1)))],
            RatioHint::Explicit(0.5),
        )
        .expect("overwrite update")
    });
    assert_eq!(outcome.rows_matched as usize, rows / 2);
    secs
}

/// COMPACT of an EDIT-dirtied table: same fan-out, plus the attached-tier
/// merge on the read side.
fn run_compact(rows: usize, threads: usize) -> f64 {
    let env = build_env();
    let t = build_table(&env, rows, threads, PlanMode::AlwaysEdit);
    t.update(
        |r| r[0].as_i64().unwrap() % 16 == 0,
        &[(1, Box::new(|_| Value::Int64(-1)))],
        RatioHint::Explicit(0.0625),
    )
    .expect("edit update");
    let (secs, _) = time(|| t.compact().expect("compact"));
    assert_eq!(t.stats().expect("stats").attached_entries, 0);
    secs
}

/// A WAL env whose appends dwell like a real fsync, so concurrent putters
/// queue behind the in-flight group and the leader can coalesce them.
struct SlowWalEnv {
    inner: MemEnv,
    delay: Duration,
}

impl Env for SlowWalEnv {
    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        std::thread::sleep(self.delay);
        self.inner.append(name, data)
    }
    fn write_file(&self, name: &str, data: &[u8]) -> Result<()> {
        self.inner.write_file(name, data)
    }
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.read_at(name, offset, buf)
    }
    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        self.inner.read_file(name)
    }
    fn len(&self, name: &str) -> Result<u64> {
        self.inner.len(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

struct BurstResult {
    seconds: f64,
    group_commits: u64,
    wal_fsyncs_saved: u64,
}

/// `BURST_CLIENTS` threads each writing `BURST_BATCHES` disjoint-key
/// batches through a dwelling WAL.
fn run_dml_burst(window: usize) -> BurstResult {
    let env: Arc<dyn Env> = Arc::new(SlowWalEnv {
        inner: MemEnv::new(),
        delay: Duration::from_micros(FSYNC_LATENCY_MICROS),
    });
    let config = KvConfig {
        auto_maintenance: false,
        group_commit_window_ops: window,
        ..KvConfig::default()
    };
    let stats = Arc::<dt_kvstore::KvCounters>::default();
    let store = Store::open(env, config, LogicalClock::new(), stats.clone()).expect("open store");
    let (seconds, _) = time(|| {
        std::thread::scope(|s| {
            for t in 0..BURST_CLIENTS {
                let store = store.clone();
                s.spawn(move || {
                    for b in 0..BURST_BATCHES {
                        let key = (u64::from(t) << 32 | u64::from(b)).to_be_bytes().to_vec();
                        store
                            .put_batch(vec![(key, b"v".to_vec(), b.to_be_bytes().to_vec())])
                            .expect("put_batch");
                    }
                });
            }
        })
    });
    let snap = stats.snapshot();
    BurstResult {
        seconds,
        group_commits: snap.group_commits,
        wal_fsyncs_saved: snap.wal_fsyncs_saved,
    }
}

fn main() {
    let rows = scaled(4_800);

    let overwrite: Vec<f64> = THREADS.iter().map(|&t| run_overwrite(rows, t)).collect();
    let compact: Vec<f64> = THREADS.iter().map(|&t| run_compact(rows, t)).collect();
    let burst_1 = run_dml_burst(1);
    let burst_8 = run_dml_burst(8);

    header(
        "BENCH 5",
        "parallel write path: rewrite fan-out + WAL group commit",
    );
    let xs: Vec<String> = THREADS.iter().map(|t| format!("{t} thr")).collect();
    print_series(
        "statement",
        &xs,
        &[
            ("OVERWRITE", overwrite.clone()),
            ("COMPACT", compact.clone()),
        ],
    );
    let speedup = |series: &[f64], i: usize| series[0] / series[i].max(1e-9);
    let detail: Vec<Vec<String>> = [("OVERWRITE", &overwrite), ("COMPACT", &compact)]
        .into_iter()
        .flat_map(|(name, series)| {
            THREADS.iter().enumerate().map(move |(i, t)| {
                vec![
                    name.to_string(),
                    t.to_string(),
                    fmt_secs(series[i]),
                    format!("{:.2}x", speedup(series, i)),
                ]
            })
        })
        .collect();
    print_rows(&["statement", "threads", "seconds", "speedup"], &detail);
    print_rows(
        &["dml burst", "seconds", "group commits", "fsyncs saved"],
        &[
            vec![
                "window 1".into(),
                fmt_secs(burst_1.seconds),
                burst_1.group_commits.to_string(),
                burst_1.wal_fsyncs_saved.to_string(),
            ],
            vec![
                "window 8".into(),
                fmt_secs(burst_8.seconds),
                burst_8.group_commits.to_string(),
                burst_8.wal_fsyncs_saved.to_string(),
            ],
        ],
    );

    let overwrite_4x = speedup(&overwrite, 2);
    let compact_4x = speedup(&compact, 2);
    assert!(
        overwrite_4x >= 1.2,
        "4-worker OVERWRITE speedup {overwrite_4x:.2}x fell below the 1.2x floor"
    );
    assert!(
        compact_4x >= 1.2,
        "4-worker COMPACT speedup {compact_4x:.2}x fell below the 1.2x floor"
    );
    assert!(
        burst_8.wal_fsyncs_saved > 0,
        "grouped DML burst saved no fsyncs"
    );
    assert_eq!(burst_1.group_commits, 0, "window 1 must never coalesce");

    let json_sweep = |series: &[f64]| {
        let points: Vec<String> = THREADS
            .iter()
            .enumerate()
            .map(|(i, t)| format!("    \"threads_{t}\": {:.6}", series[i]))
            .collect();
        format!(
            "{{\n{},\n    \"speedup_4x\": {:.4}\n  }}",
            points.join(",\n"),
            speedup(series, 2)
        )
    };
    let json_burst = |b: &BurstResult| {
        format!(
            "{{\n    \"seconds\": {:.6},\n    \"group_commits\": {},\n    \"wal_fsyncs_saved\": {}\n  }}",
            b.seconds, b.group_commits, b.wal_fsyncs_saved
        )
    };
    let out = format!(
        "{{\n  \"bench\": \"BENCH_5\",\n  \"title\": \"Parallel write path: rewrite fan-out + WAL group commit\",\n  \"rows\": {rows},\n  \"put_latency_micros\": {PUT_LATENCY_MICROS},\n  \"wal_fsync_latency_micros\": {FSYNC_LATENCY_MICROS},\n  \"overwrite\": {},\n  \"compact\": {},\n  \"dml_burst_window_1\": {},\n  \"dml_burst_window_8\": {}\n}}\n",
        json_sweep(&overwrite),
        json_sweep(&compact),
        json_burst(&burst_1),
        json_burst(&burst_8),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("-- wrote {path}"),
        Err(e) => eprintln!("-- failed to write BENCH_5.json: {e}"),
    }
}
