//! Ablation (paper §V-C, future work in §VIII): DualTable vs the Hive
//! ACID base+delta design on an update-then-read cycle.
//!
//! Hive ACID appends *whole records* to delta files on the DFS and
//! merge-reads them sequentially; DualTable stores only changed *cells*
//! in the random-access Attached Table. The ablation measures both the
//! DML and the read-after cost, plus bytes written per tier.

use dt_baselines::StorageHandler;
use dt_bench::datasets::grid_rows_default;
use dt_bench::report;
use dt_bench::systems::{build_acid, build_dual, calibrate_rates};
use dt_bench::time;
use dt_common::{Row, Value};
use dt_workloads::smartgrid as grid;
use dualtable::{DualTableEnv, PlanMode};

fn main() {
    report::header(
        "Ablation",
        "DualTable vs Hive-ACID base+delta (update cells vs whole-record deltas)",
    );
    let n = grid_rows_default();
    let schema = grid::tj_gbsjwzl_mx_schema();
    let rq = schema.index_of("rq").unwrap();
    let rcjl = schema.index_of("rcjl").unwrap();
    let rates = calibrate_rates(4096);

    let mut labels = Vec::new();
    let mut acid_dml = Vec::new();
    let mut acid_read = Vec::new();
    let mut acid_bytes = Vec::new();
    let mut dual_dml = Vec::new();
    let mut dual_read = Vec::new();
    let mut dual_bytes = Vec::new();

    for k in [1i64, 4, 8, 12] {
        let cutoff = grid::BASE_DATE + k;
        let pred = move |row: &Row| row[rq].as_i64().map(|d| d < cutoff).unwrap_or(false);
        let assignments: Vec<dualtable::Assignment<'static>> =
            vec![(rcjl, Box::new(|_| Ok(Value::Float64(1.0))))];

        // Hive ACID.
        let env = DualTableEnv::in_memory();
        let acid = build_acid(
            &env,
            "acid_t",
            schema.clone(),
            grid::tj_gbsjwzl_mx_rows(n, 9).collect(),
        );
        let before = env.dfs.stats().snapshot();
        let (t_dml, _) = time(|| acid.update(&pred, &assignments).unwrap());
        let written = env.dfs.stats().snapshot().since(&before).bytes_written;
        let (t_read, _) = time(|| acid.for_each_batch(None, None, &mut |_| Ok(())).unwrap());
        acid_dml.push(t_dml);
        acid_read.push(t_read);
        acid_bytes.push(written as f64);

        // DualTable (forced EDIT to isolate the storage layout).
        let env = DualTableEnv::in_memory();
        let dual = build_dual(
            &env,
            "dual_t",
            schema.clone(),
            grid::tj_gbsjwzl_mx_rows(n, 9).collect(),
            PlanMode::AlwaysEdit,
            rates,
        );
        let before = env.kv.stats().snapshot();
        let (t_dml, _) = time(|| {
            dual.update(
                pred,
                &assignments,
                dualtable::RatioHint::Explicit(k as f64 / 36.0),
            )
            .unwrap()
        });
        let written = env.kv.stats().snapshot().since(&before).bytes_written;
        let (t_read, _) = time(|| dual.scan_all().unwrap());
        dual_dml.push(t_dml);
        dual_read.push(t_read);
        dual_bytes.push(written as f64);

        labels.push(format!("{k}/36"));
    }

    report::print_series(
        "UPDATE ratio",
        &labels,
        &[
            ("ACID update (s)", acid_dml),
            ("DualTable update (s)", dual_dml),
            ("ACID read-after (s)", acid_read),
            ("DualTable read-after (s)", dual_read),
        ],
    );
    report::print_series(
        "UPDATE ratio",
        &labels,
        &[
            ("ACID bytes written", acid_bytes.clone()),
            ("DualTable bytes written", dual_bytes.clone()),
        ],
    );
    println!(
        "-- whole-record deltas vs changed cells: ACID writes {:.1}x the bytes at the last point",
        acid_bytes.last().unwrap() / dual_bytes.last().unwrap().max(1.0)
    );
}
