//! Multi-version history: the paper notes DualTable "can make use of
//! HBase's multiple-version feature to track data change history" (§V-C).
//! This example updates a cell three times, reads its full history, and
//! runs a snapshot scan at an earlier logical timestamp.
//!
//! ```sh
//! cargo run --example time_travel
//! ```

use dualtable_repro::common::{DataType, Schema, Value};
use dualtable_repro::dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, UnionReadOptions,
};

fn main() {
    let env = DualTableEnv::in_memory();
    let schema = Schema::from_pairs(&[("meter", DataType::Int64), ("kwh", DataType::Float64)]);
    let config = DualTableConfig {
        plan_mode: PlanMode::AlwaysEdit, // history lives in the attached tier
        ..DualTableConfig::default()
    };
    let table = DualTableStore::create(&env, "readings", schema, config).unwrap();
    table
        .insert_rows((0..10).map(|i| vec![Value::Int64(i), Value::Float64(0.0)]))
        .unwrap();

    // Three correction rounds for meter 7.
    let mut snapshots = Vec::new();
    for round in 1..=3 {
        snapshots.push(env.kv.clock().tick());
        table
            .update(
                |row| row[0] == Value::Int64(7),
                &[(
                    1,
                    Box::new(move |_| Ok(Value::Float64(round as f64 * 10.0))),
                )],
                RatioHint::Explicit(0.1),
            )
            .unwrap();
    }

    // Full change history of the cell, newest first.
    let record = table.scan_all().unwrap()[7].0;
    println!("history of meter 7's kwh cell (newest first):");
    for (ts, value) in table.cell_history(record, 1, 16).unwrap() {
        println!("  ts={ts:<4} kwh={value}");
    }

    // Snapshot reads: the world as of each round.
    for (round, ts) in snapshots.iter().enumerate() {
        let mut opts = UnionReadOptions::all();
        opts.snapshot_ts = *ts;
        let rows = table.scan(&opts).unwrap();
        println!(
            "snapshot before round {}: meter 7 = {}",
            round + 1,
            rows[7].1[1]
        );
    }
    let rows = table.scan_all().unwrap();
    println!("latest: meter 7 = {}", rows[7].1[1]);
}
