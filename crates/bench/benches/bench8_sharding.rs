//! BENCH 8: range-sharded tables — scatter-gather scaling and the
//! update-ratio grid, sharded vs unsharded (DESIGN.md §16).
//!
//! Two experiments, written to `BENCH_8.json`:
//!
//! 1. **Scatter-gather SELECT scaling (1/2/4/8 shards).** Rows are
//!    inserted in *shuffled* key order, so no master file's min/max
//!    stats can prune a range predicate — every file spans the whole
//!    keyspace. A range SELECT covering one-eighth of the keyspace then
//!    has exactly one lever: shard-range pruning. The 8-shard table
//!    prunes 7 of 8 shards before any I/O; the single-shard table scans
//!    everything. Claim (the CI floor, `BENCH8_SPEEDUP_FLOOR` overrides):
//!    8-shard range-SELECT throughput >= 2.5x the single-shard table's.
//!    On boxes with >= 4 cores the unpredicated full scan must also
//!    speed up (parallel gather); that floor is skipped on smaller
//!    machines where scatter parallelism has nothing to run on.
//!
//! 2. **Update-ratio grid (the paper's Fig. 5/6 axis) at 8x the grid
//!    row count, unsharded vs 4 and 8 shards.** The UPDATE's key range
//!    covers `ratio` of the keyspace; sharded tables prune non-matching
//!    shards, and each surviving shard runs its own EDIT/OVERWRITE cost
//!    model. Alongside wall time we record `rows_scanned` — at low
//!    ratios the sharded run must scan strictly fewer rows than the
//!    unsharded one (asserted; it is deterministic, unlike timing).
//!
//! `BENCH8_SMOKE=1` runs a reduced grid (CI gate); nightly runs full.

use std::time::{Duration, Instant};

use dt_bench::report::{header, print_rows};
use dt_bench::scaled;
use dt_common::{DataType, Deadline, Row, Schema, Value};
use dt_orcfile::{ColumnPredicate, PredicateOp};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, ShardSpec, ShardedTable,
    UnionReadOptions,
};

const ROWS_PER_FILE: usize = 256;

fn smoke() -> bool {
    std::env::var("BENCH8_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn table_cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: ROWS_PER_FILE,
        plan_mode: PlanMode::CostBased,
        ..DualTableConfig::default()
    }
}

/// Deterministically shuffled keys `0..n`: Fisher-Yates driven by an
/// xorshift stream. Shuffled insert order is the point of the bench —
/// it defeats per-file min/max pruning so only shard ranges can skip I/O.
fn shuffled_keys(n: usize, mut seed: u64) -> Vec<i64> {
    let mut keys: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        keys.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    keys
}

fn rows_for(keys: &[i64]) -> Vec<Row> {
    keys.iter()
        .map(|&k| vec![Value::Int64(k), Value::Int64(k * 3)])
        .collect()
}

/// Evenly spaced split points carving `[0, rows)` into `shards` ranges.
fn splits(shards: usize, rows: usize) -> Vec<i64> {
    (1..shards).map(|i| (rows * i / shards) as i64).collect()
}

fn build_sharded(env: &DualTableEnv, name: &str, shards: usize, keys: &[i64]) -> ShardedTable {
    let spec = ShardSpec::new(0, splits(shards, keys.len())).expect("spec");
    let t = ShardedTable::create(env, name, schema(), table_cfg(), spec).expect("create");
    t.insert_rows(rows_for(keys)).expect("load");
    t
}

/// Runs `f` repeatedly for `window`, returning queries/second.
fn throughput(window: Duration, mut f: impl FnMut() -> usize) -> f64 {
    // One warm-up call primes footer caches for every contender equally.
    std::hint::black_box(f());
    let start = Instant::now();
    let mut queries = 0u64;
    while start.elapsed() < window {
        std::hint::black_box(f());
        queries += 1;
    }
    queries as f64 / start.elapsed().as_secs_f64()
}

struct ScalingRow {
    shards: usize,
    range_qps: f64,
    full_qps: f64,
    range_rows: usize,
}

struct GridRow {
    config: String,
    ratio: f64,
    seconds: f64,
    rows_scanned: u64,
    plans: String,
}

fn main() {
    let (rows, window) = if smoke() {
        (4_000, Duration::from_millis(300))
    } else {
        (scaled(32_000), Duration::from_millis(1_500))
    };
    let keys = shuffled_keys(rows, 0xB8B8_5EED);
    let eighth = (rows / 8) as i64;

    header(
        "BENCH 8",
        "range sharding: scatter-gather scaling and the sharded update-ratio grid",
    );

    // ---- Experiment 1: SELECT scaling over 1/2/4/8 shards ----
    let mut scaling: Vec<ScalingRow> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let env = DualTableEnv::in_memory();
        let t = build_sharded(&env, &format!("scale{shards}"), shards, &keys);
        let range_pred = [
            ColumnPredicate::new(0, PredicateOp::Ge, Value::Int64(0)),
            ColumnPredicate::new(0, PredicateOp::Lt, Value::Int64(eighth)),
        ];
        let range_rows = t
            .scan_scatter(None, Some(&range_pred), &Deadline::never())
            .expect("range scan")
            .len();
        let range_qps = throughput(window, || {
            t.scan_scatter(None, Some(&range_pred), &Deadline::never())
                .expect("range scan")
                .len()
        });
        let full_qps = throughput(window, || {
            t.scan_scatter(None, None, &Deadline::never())
                .expect("full scan")
                .len()
        });
        scaling.push(ScalingRow {
            shards,
            range_qps,
            full_qps,
            range_rows,
        });
    }

    print_rows(
        &["shards", "range qps", "range speedup", "full-scan qps"],
        &scaling
            .iter()
            .map(|r| {
                vec![
                    r.shards.to_string(),
                    format!("{:.1}", r.range_qps),
                    format!("{:.2}x", r.range_qps / scaling[0].range_qps),
                    format!("{:.1}", r.full_qps),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Every contender must return the same range-query answer.
    assert!(
        scaling.iter().all(|r| r.range_rows >= eighth as usize),
        "a contender dropped rows from the range query"
    );

    // The CI floor: 8 shards prune 7/8 of the keyspace the single-shard
    // table has to wade through (file stats are useless under shuffled
    // load order), so range-SELECT throughput must scale.
    let floor: f64 = std::env::var("BENCH8_SPEEDUP_FLOOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.5);
    let speedup = scaling[3].range_qps / scaling[0].range_qps.max(f64::MIN_POSITIVE);
    assert!(
        speedup >= floor,
        "8-shard range SELECT speedup {speedup:.2}x is below the {floor}x floor \
         ({:.1} qps vs {:.1} qps)",
        scaling[3].range_qps,
        scaling[0].range_qps
    );
    // Parallel gather only has hardware to run on with >= 4 cores; on
    // smaller boxes the full-scan numbers are informative only.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        let full_speedup = scaling[2].full_qps / scaling[0].full_qps.max(f64::MIN_POSITIVE);
        assert!(
            full_speedup >= 1.2,
            "4-shard full-scan speedup {full_speedup:.2}x on {cores} cores"
        );
    }

    // ---- Experiment 2: sharded update-ratio grid ----
    let ratios: &[f64] = if smoke() {
        &[0.01, 0.5]
    } else {
        &[0.01, 0.05, 0.2, 0.5]
    };
    let mut grid: Vec<GridRow> = Vec::new();
    for &ratio in ratios {
        let hi = ((rows as f64) * ratio) as i64;
        let pushdown = UnionReadOptions {
            predicates: Some(vec![ColumnPredicate::new(
                0,
                PredicateOp::Lt,
                Value::Int64(hi),
            )]),
            ..UnionReadOptions::all()
        };

        // Unsharded baseline.
        let env = DualTableEnv::in_memory();
        let t = DualTableStore::create(&env, "plain", schema(), table_cfg()).expect("create");
        t.insert_rows(rows_for(&keys)).expect("load");
        let start = Instant::now();
        let report = t
            .update(
                move |row| row[0].as_i64().unwrap() < hi,
                &[(1, Box::new(|_| Value::Int64(-1)))],
                RatioHint::Explicit(ratio),
            )
            .expect("update");
        grid.push(GridRow {
            config: "unsharded".into(),
            ratio,
            seconds: start.elapsed().as_secs_f64(),
            rows_scanned: report.rows_scanned,
            plans: format!("{:?}", report.plan),
        });

        for shards in [4usize, 8] {
            let env = DualTableEnv::in_memory();
            let t = build_sharded(&env, &format!("grid{shards}"), shards, &keys);
            let start = Instant::now();
            let report = t
                .update_keyed(
                    move |row| row[0].as_i64().unwrap() < hi,
                    &[(1, Box::new(|_| Value::Int64(-1)))],
                    RatioHint::Explicit(ratio),
                    None,
                    Some(&pushdown),
                )
                .expect("sharded update");
            grid.push(GridRow {
                config: format!("{shards}-shard"),
                ratio,
                seconds: start.elapsed().as_secs_f64(),
                rows_scanned: report.rows_scanned,
                plans: report.plan_summary(),
            });
        }
    }

    print_rows(
        &["config", "ratio", "seconds", "rows scanned", "plans"],
        &grid
            .iter()
            .map(|r| {
                vec![
                    r.config.clone(),
                    format!("{}", r.ratio),
                    format!("{:.4}", r.seconds),
                    r.rows_scanned.to_string(),
                    r.plans.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // Deterministic claim: at the lowest ratio the 8-shard run prunes
    // shards the unsharded run has to scan.
    let low = ratios[0];
    let scanned = |config: &str| {
        grid.iter()
            .find(|r| r.config == config && r.ratio == low)
            .map(|r| r.rows_scanned)
            .unwrap()
    };
    assert!(
        scanned("8-shard") < scanned("unsharded"),
        "8-shard UPDATE at ratio {low} scanned {} rows, unsharded {} — pruning never engaged",
        scanned("8-shard"),
        scanned("unsharded")
    );

    // ---- BENCH_8.json ----
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|r| {
            format!(
                "  {{\"shards\": {}, \"range_qps\": {:.2}, \"range_speedup\": {:.3}, \"full_scan_qps\": {:.2}}}",
                r.shards,
                r.range_qps,
                r.range_qps / scaling[0].range_qps,
                r.full_qps
            )
        })
        .collect();
    let grid_json: Vec<String> = grid
        .iter()
        .map(|r| {
            format!(
                "  {{\"config\": \"{}\", \"ratio\": {}, \"seconds\": {:.6}, \"rows_scanned\": {}, \"plans\": \"{}\"}}",
                r.config, r.ratio, r.seconds, r.rows_scanned, r.plans
            )
        })
        .collect();
    let out = format!(
        "{{\n  \"bench\": \"BENCH_8\",\n  \"title\": \"Range sharding: scatter-gather SELECT scaling and the sharded update-ratio grid\",\n  \"smoke\": {},\n  \"rows\": {},\n  \"speedup_floor\": {floor},\n  \"eight_shard_range_speedup\": {speedup:.3},\n  \"select_scaling\": [\n{}\n  ],\n  \"update_ratio_grid\": [\n{}\n  ]\n}}\n",
        smoke(),
        rows,
        scaling_json.join(",\n"),
        grid_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    match std::fs::write(path, out) {
        Ok(()) => println!("-- wrote {path}"),
        Err(e) => eprintln!("-- failed to write BENCH_8.json: {e}"),
    }
}
