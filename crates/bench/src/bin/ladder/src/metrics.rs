//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; a test below holds the two
//! together.

use crate::recorder::{median, Kind};
use crate::run::Outcome;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// The metric's value in a run, and the number of samples behind it.
    pub value: fn(&Outcome) -> (f64, usize),
}

/// The median latency of one statement kind.
fn p50(o: &Outcome, kind: Kind) -> (f64, usize) {
    let s = o.rec.samples(kind);
    (s.p50().unwrap_or(f64::NAN), s.len())
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    value: fn(&Outcome) -> (f64, usize),
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
        value,
    }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    value: fn(&Outcome) -> (f64, usize),
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: true,
        bound,
        value,
    }
}

/// Every workload reports every one of these, from a run with tracing off.
/// README.md says which statement of each workload feeds which.
///
/// The bounds are the widest the contract allows, but for the EDITs. On
/// the 2-core sandbox the benchmark was written on, the run-to-run spread
/// (quartile distance over median, ten runs with ten seeds) is 3–5 % for
/// the point and burst EDITs, 2–8 % for most of the rest and up to 12 %
/// for the reads and the peak memory of `grid_htap`; other tenants move
/// whole runs by that much, and now and then by half for minutes.
pub const END_TO_END: [EndToEnd; 12] = [
    lower("setup_s", "s", 0.25, |o| {
        (median(&o.setups).unwrap_or(f64::NAN), o.setups.len())
    }),
    lower("peak_rss_mb", "MB", 0.25, |_| (peak_rss_mb(), 1)),
    higher("scan_rows_per_s", "1/s", 0.25, |o| {
        let scans = o.rec.by_kind.iter().filter(|(k, _)| k.is_full_scan_read());
        (
            o.rec.scan_rows as f64 / o.rec.scan_busy.as_secs_f64(),
            scans.map(|(_, s)| s.len()).sum(),
        )
    }),
    higher("stmts_per_s", "1/s", 0.25, |o| {
        (o.stmts_per_s, o.rec.attempted() as usize)
    }),
    lower("cycle_s", "s", 0.25, |o| {
        (
            median(&o.rec.rounds).unwrap_or(f64::NAN),
            o.rec.rounds.len(),
        )
    }),
    lower("q1_p50_ms", "ms", 0.25, |o| p50(o, Kind::Q1)),
    lower("count_p50_ms", "ms", 0.25, |o| p50(o, Kind::Count)),
    lower("select_p50_ms", "ms", 0.25, |o| p50(o, Kind::Select)),
    lower("edit_p50_ms", "ms", 0.2, |o| p50(o, Kind::Edit)),
    lower("delete_p50_ms", "ms", 0.25, |o| p50(o, Kind::Delete)),
    lower("overwrite_p50_ms", "ms", 0.25, |o| p50(o, Kind::Overwrite)),
    lower("compact_p50_ms", "ms", 0.25, |o| p50(o, Kind::Compact)),
];

/// Per-layer metrics: `(name, unit, higher is better)`. Every workload's
/// traced run reports all of them; one that does not apply to a workload
/// reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 65] = [
    ("dfs.read_mb_per_s", "MB/s", true),
    ("dfs.cache_hit_ratio", "ratio", true),
    ("dfs.cache_evictions", "count", false),
    ("dfs.bytes_read", "bytes", false),
    ("dfs.read_ops", "count", false),
    ("dfs.bytes_written_per_user_byte", "ratio", false),
    ("dfs.self_share", "ratio", false),
    ("orcfile.decode_rows_per_s", "1/s", true),
    ("orcfile.decode_proj1_rows_per_s", "1/s", true),
    ("orcfile.encode_rows_per_s", "1/s", true),
    ("orcfile.stripes_skipped_ratio", "ratio", true),
    ("orcfile.footer_cache_hit_ratio", "ratio", true),
    ("orcfile.filter_p50_ms", "ms", false),
    ("orcfile.self_share", "ratio", false),
    ("kvstore.put_cells_per_s", "1/s", true),
    ("kvstore.shadow_put_cells_per_s", "1/s", true),
    ("kvstore.scan_cells_per_s", "1/s", true),
    ("kvstore.wal_fsyncs", "count", false),
    ("kvstore.group_commits", "count", true),
    ("kvstore.sstable_count", "count", false),
    ("kvstore.bytes_written_per_user_byte", "ratio", false),
    ("kvstore.delta_spills", "count", false),
    ("kvstore.self_share", "ratio", false),
    ("engine.mapreduce_rows_per_s", "1/s", true),
    ("dualtable.union_read_rows_per_s", "1/s", true),
    ("dualtable.union_read_dirty_rows_per_s", "1/s", true),
    ("dualtable.union_read_overhead", "ratio", false),
    ("dualtable.merge_self_share", "ratio", false),
    ("dualtable.plan_edit_share", "ratio", true),
    ("dualtable.plan_regret_max", "ratio", false),
    ("dualtable.attached_scans_skipped", "count", true),
    ("dualtable.attached_cells", "count", false),
    ("dualtable.fold_useful_ratio", "ratio", true),
    ("dualtable.ww_conflicts", "count", false),
    ("dualtable.quiesced_scan_p50_ms", "ms", false),
    ("dualtable.scan_interference", "ratio", false),
    ("dualtable.space_per_user_byte", "ratio", false),
    ("dualtable.self_share", "ratio", false),
    ("hiveql.parse_us", "us", false),
    ("hiveql.exec_self_ms", "ms", false),
    ("hiveql.rows_examined_per_row_returned", "ratio", false),
    ("hiveql.self_share", "ratio", false),
    ("server.wire_overhead_us", "us", false),
    ("server.scaling", "ratio", true),
    ("server.concurrency_penalty", "ratio", false),
    ("server.stmts_shed", "count", false),
    ("server.ledger_exact", "bool", true),
    ("server.generator_lag_p95_us", "us", false),
    ("server.open_p95_ms_at_200", "ms", false),
    ("server.open_p95_ms_at_400", "ms", false),
    ("server.open_p95_ms_at_800", "ms", false),
    ("server.max_rate_ok", "1/s", true),
    ("server.self_share", "ratio", false),
    ("baselines.hive_update_1pct_ms", "ms", false),
    ("baselines.hive_q1_ms", "ms", false),
    ("baselines.edit_speedup_vs_hive", "ratio", true),
    ("bench.trace_overhead_share", "ratio", false),
    ("bench.ladder_negative_share", "ratio", false),
    ("bench.replayed_stmts", "count", true),
    ("stmt.error_share", "ratio", false),
    ("stmt.edit_p95_ms", "ms", false),
    ("stmt.select_p95_ms", "ms", false),
    ("stmt.txn_p50_ms", "ms", false),
    ("stmt.insert_p50_ms", "ms", false),
    ("stmt.q1_clean_p50_ms", "ms", false),
];

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of one run, in `END_TO_END` order, each with
/// the number of samples behind it.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, usize)> {
    END_TO_END
        .iter()
        .map(|m| {
            let (value, n) = (m.value)(o);
            (m.name, value, n)
        })
        .collect()
}

/// The per-layer metrics of a traced run, in `PER_LAYER` order.
pub fn per_layer(o: &Outcome) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, o.layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = json.get("end_to_end").expect("end_to_end").items();
        assert_eq!(listed.len(), END_TO_END.len());
        for (have, want) in listed.iter().zip(&END_TO_END) {
            assert_eq!(have.get("name").unwrap().str(), want.name);
            assert_eq!(have.get("unit").unwrap().str(), want.unit);
            let better = if want.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(have.get("better").unwrap().str(), better, "{}", want.name);
            assert_eq!(
                have.get("bound").unwrap().num(),
                want.bound,
                "{}",
                want.name
            );
        }
        let listed = json.get("per_layer").expect("per_layer").items();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (have, (name, unit, higher)) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(have.get("name").unwrap().str(), *name);
            assert_eq!(have.get("unit").unwrap().str(), *unit);
            let better = if *higher { "higher" } else { "lower" };
            assert_eq!(have.get("better").unwrap().str(), better, "{name}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().str())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
