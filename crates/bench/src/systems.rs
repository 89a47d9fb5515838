//! Builders for the systems under test and cost-model calibration.

use dt_baselines::{HiveAcidTable, HiveHbaseTable, HiveHdfsTable, StorageHandler};
use dt_common::{Row, Schema, Value};
use dt_hiveql::{Session, SessionConfig};
use dt_orcfile::WriterOptions;
use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, PlanMode, Rates, RatioHint};

use crate::time;

/// Rows per master/ORC file used across systems so file layout is
/// comparable.
fn rows_per_file(total_rows: usize) -> usize {
    (total_rows / 8).max(1024)
}

/// Writer options shared by every ORC-writing system.
fn writer_options() -> WriterOptions {
    WriterOptions {
        stripe_rows: 4 * 1024,
        codec: dt_orcfile::Codec::Lz,
    }
}

/// DualTable configuration for experiments.
pub fn dual_config(total_rows: usize, plan_mode: PlanMode, rates: Rates) -> DualTableConfig {
    DualTableConfig {
        rows_per_file: rows_per_file(total_rows),
        writer: writer_options(),
        plan_mode,
        k_successive_reads: 1,
        rates,
        sample_rows: 2_000,
        ..DualTableConfig::default()
    }
}

/// Builds a fresh DualTable with `rows`.
pub fn build_dual(
    env: &DualTableEnv,
    name: &str,
    schema: Schema,
    rows: Vec<Row>,
    plan_mode: PlanMode,
    rates: Rates,
) -> DualTableStore {
    let config = dual_config(rows.len(), plan_mode, rates);
    let t = DualTableStore::create(env, name, schema, config).expect("create dual table");
    t.insert_rows(rows).expect("load dual table");
    t
}

/// Builds a fresh Hive(HDFS) table with `rows`.
pub fn build_hive(env: &DualTableEnv, name: &str, schema: Schema, rows: Vec<Row>) -> HiveHdfsTable {
    let t = HiveHdfsTable::create(
        &env.dfs,
        name,
        schema,
        writer_options(),
        rows_per_file(rows.len()),
    )
    .expect("create hive table");
    t.insert_rows(rows).expect("load hive table");
    t
}

/// Builds a fresh Hive(HBase) table with `rows`.
pub fn build_hbase(
    env: &DualTableEnv,
    name: &str,
    schema: Schema,
    rows: Vec<Row>,
) -> HiveHbaseTable {
    let t = HiveHbaseTable::create(&env.kv, name, schema).expect("create hbase table");
    t.insert_rows(rows).expect("load hbase table");
    t
}

/// Builds a fresh Hive-ACID table with `rows`.
pub fn build_acid(env: &DualTableEnv, name: &str, schema: Schema, rows: Vec<Row>) -> HiveAcidTable {
    let t = HiveAcidTable::create(
        &env.dfs,
        name,
        schema,
        writer_options(),
        rows_per_file(rows.len()),
    )
    .expect("create acid table");
    t.insert_rows(rows).expect("load acid table");
    t
}

/// Calibrates the cost model's throughput rates against this process's
/// actual substrate speeds, mirroring how the paper derives its constants
/// from cluster measurements (§IV's 1 / 0.8 / 0.5 GB/s example).
pub fn calibrate_rates(probe_rows: usize) -> Rates {
    use dt_common::DataType;
    let env = DualTableEnv::in_memory();
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int64),
        ("payload", DataType::Utf8),
        ("v", DataType::Float64),
    ]);
    let rows: Vec<Row> = (0..probe_rows.max(512))
        .map(|i| {
            vec![
                Value::Int64(i as i64),
                Value::Utf8(format!("payload-{i:032}")),
                Value::Float64(i as f64),
            ]
        })
        .collect();

    // Master write: ORC encode + DFS store.
    let hive = HiveHdfsTable::create(&env.dfs, "probe", schema, writer_options(), 1 << 20)
        .expect("probe table");
    let before = env.dfs.stats().snapshot();
    let (w_secs, _) = time(|| hive.insert_rows(rows.clone()).unwrap());
    let master_bytes = env
        .dfs
        .stats()
        .snapshot()
        .since(&before)
        .bytes_written
        .max(1);
    // Master read: full scan (decode).
    let (r_secs, _) = time(|| hive.for_each_batch(None, None, &mut |_| Ok(())).unwrap());

    // Attached write/read: KV puts and scans of cell-sized values.
    let store = env.kv.create_table("probe_att").expect("probe kv");
    let cells: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> = (0..probe_rows.max(512) as u64)
        .map(|i| (i.to_be_bytes().to_vec(), vec![0, 1], vec![7u8; 16]))
        .collect();
    let cell_bytes: u64 = cells
        .iter()
        .map(|(r, q, v)| (r.len() + q.len() + v.len()) as u64)
        .sum();
    let (aw_secs, _) = time(|| store.put_batch(cells).unwrap());
    let (ar_secs, _) = time(|| store.scan(None, None).unwrap().collect_rows().unwrap());

    Rates {
        master_write_bps: master_bytes as f64 / w_secs.max(1e-9),
        master_read_bps: master_bytes as f64 / r_secs.max(1e-9),
        attached_write_bps: cell_bytes as f64 / aw_secs.max(1e-9),
        attached_read_bps: cell_bytes as f64 / ar_secs.max(1e-9),
    }
}

/// A session preloaded with TPC-H `lineitem` + `orders` on one storage.
pub fn tpch_session(storage: &str, lineitem_rows: usize, seed: u64) -> Session {
    use dt_workloads::tpch;
    let mut session = Session::with_env(DualTableEnv::in_memory());
    session.config = SessionConfig {
        rows_per_file: rows_per_file(lineitem_rows),
        ..SessionConfig::default()
    };
    session.config.dualtable.writer = writer_options();
    session.config.dualtable.rows_per_file = rows_per_file(lineitem_rows);
    session.set_ratio_hint(RatioHint::Sample);

    let orders_n = tpch::orders_rows_for(lineitem_rows);
    create_table_as(&mut session, "lineitem", &tpch::lineitem_schema(), storage);
    create_table_as(&mut session, "orders", &tpch::orders_schema(), storage);
    insert_direct(
        &mut session,
        "lineitem",
        tpch::lineitem_rows(lineitem_rows, orders_n, seed).collect(),
    );
    insert_direct(
        &mut session,
        "orders",
        tpch::orders_rows(orders_n, seed).collect(),
    );
    session
}

/// Issues a CREATE TABLE for `schema` with the given storage clause.
pub fn create_table_as(session: &mut Session, name: &str, schema: &Schema, storage: &str) {
    let cols: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.data_type.sql_name()))
        .collect();
    session
        .execute(&format!(
            "CREATE TABLE {name} ({}) STORED AS {storage}",
            cols.join(", ")
        ))
        .expect("create table");
}

/// Inserts pre-generated rows through the storage handler (bypassing SQL
/// literal parsing, which would dominate load time).
pub fn insert_direct(session: &mut Session, name: &str, rows: Vec<Row>) {
    session
        .table(name)
        .expect("table registered")
        .insert(rows)
        .expect("bulk insert");
}
