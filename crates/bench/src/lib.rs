//! Experiment harness shared by the per-figure bench targets.
//!
//! Every table and figure of the paper's evaluation (§VI) has a bench
//! target under `benches/` (see DESIGN.md §5 for the index), plus the
//! Hive-ACID ablation and the substrate micro-benchmarks. This library
//! holds what they share: dataset builders for each system under test,
//! wall-clock measurement, cost-model calibration against the simulated
//! substrate, and paper-style series/table printing.
//!
//! The repository's performance benchmark is not here: it is the `ladder`
//! package under `src/bin/ladder/` (declared in `BENCHMARK.json`), a
//! crate of its own outside the workspace.
//!
//! Scale is controlled by the `DT_BENCH_SCALE` environment variable
//! (`1.0` = default; larger values grow row counts linearly).

pub mod datasets;
pub mod model;
pub mod report;
pub mod sweeps;
pub mod systems;

use std::time::Instant;

/// Returns the scale factor from `DT_BENCH_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("DT_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .max(0.01)
}

/// Scales a default row count.
pub fn scaled(default_rows: usize) -> usize {
    ((default_rows as f64) * scale()) as usize
}

/// Times a closure, returning (seconds, result).
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Times a fallible closure, panicking on error (benches want hard
/// failures).
pub fn time_ok<T, E: std::fmt::Debug>(f: impl FnOnce() -> Result<T, E>) -> (f64, T) {
    let (secs, out) = time(f);
    (secs, out.expect("bench step failed"))
}
