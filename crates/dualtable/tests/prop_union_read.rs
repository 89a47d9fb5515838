//! Property test: DualTable under any interleaving of inserts, EDIT-plan
//! updates/deletes and compactions must equal a reference model (a plain
//! `Vec` of rows mutated in place).

use dt_common::{DataType, Row, Schema, Value};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, FoldOutcome, PlanChoice, PlanMode, RatioHint,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        count: u8,
    },
    /// Update rows whose id % divisor == rem: set v = new_v.
    Update {
        divisor: u8,
        rem: u8,
        new_v: i8,
    },
    /// Delete rows whose id % divisor == rem.
    Delete {
        divisor: u8,
        rem: u8,
    },
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u8..40).prop_map(|count| Op::Insert { count }),
        3 => (1u8..6, 0u8..6, any::<i8>()).prop_map(|(d, r, v)| Op::Update {
            divisor: d,
            rem: r % d,
            new_v: v
        }),
        2 => (1u8..6, 0u8..6).prop_map(|(d, r)| Op::Delete { divisor: d, rem: r % d }),
        1 => Just(Op::Compact),
    ]
}

fn config() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 16,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

/// Runs `op` on the table and on the reference model — `(id, v)` pairs in
/// insertion order, ids handed out from `next_id`.
fn apply(table: &DualTableStore, op: &Op, model: &mut Vec<(i64, i64)>, next_id: &mut i64) {
    match op {
        Op::Insert { count } => {
            let rows: Vec<_> = (0..*count)
                .map(|_| {
                    let id = *next_id;
                    *next_id += 1;
                    model.push((id, 0));
                    vec![Value::Int64(id), Value::Int64(0)]
                })
                .collect();
            table.insert_rows(rows).unwrap();
        }
        Op::Update {
            divisor,
            rem,
            new_v,
        } => {
            let (d, r, v) = (*divisor as i64, *rem as i64, *new_v as i64);
            let report = table
                .update(
                    move |row| row[0].as_i64().unwrap() % d == r,
                    &[(1, Box::new(move |_| Value::Int64(v)))],
                    RatioHint::Explicit(0.01),
                )
                .unwrap();
            let mut expect_matched = 0u64;
            for (id, val) in model.iter_mut() {
                if *id % d == r {
                    *val = v;
                    expect_matched += 1;
                }
            }
            prop_assert_eq!(report.rows_matched, expect_matched);
        }
        Op::Delete { divisor, rem } => {
            let (d, r) = (*divisor as i64, *rem as i64);
            table
                .delete(
                    move |row| row[0].as_i64().unwrap() % d == r,
                    RatioHint::Explicit(0.01),
                )
                .unwrap();
            model.retain(|(id, _)| id % d != r);
        }
        Op::Compact => table.compact().unwrap(),
    }
}

/// The table's rows without their record IDs (a rewrite hands out new
/// ones): in scan order, or — `by_id` — ordered by the `id` column.
fn scan_rows(table: &DualTableStore, by_id: bool) -> Vec<Row> {
    let scanned = table.scan_all().unwrap();
    let mut rows: Vec<Row> = scanned.into_iter().map(|(_, row)| row).collect();
    if by_id {
        rows.sort_by_key(|row| row[0].as_i64());
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dualtable_matches_reference(ops in proptest::collection::vec(arb_op(), 1..24)) {
        let env = DualTableEnv::in_memory();
        let table = DualTableStore::create(&env, "t", schema(), config()).unwrap();
        let mut model: Vec<(i64, i64)> = Vec::new();
        let mut next_id = 0i64;

        for op in &ops {
            apply(&table, op, &mut model, &mut next_id);

            // Scan must equal the model; the store keeps insertion order
            // only within files, and compaction/overwrite preserves scan
            // order, so compare as sorted-by-id multisets AND verify scan
            // order monotonicity of record ids.
            let scanned = table.scan_all().unwrap();
            prop_assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
            let mut got: Vec<(i64, i64)> = scanned
                .iter()
                .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
                .collect();
            got.sort_unstable();
            let mut want = model.clone();
            want.sort_unstable();
            prop_assert_eq!(got, want);
            prop_assert_eq!(table.count().unwrap(), model.len() as u64);
        }
    }

    /// Every rewrite is one fold: after a random history, each of them
    /// leaves the scan row-for-row equal to the UNION READ taken before
    /// it — in scan order for a full rewrite; an incremental fold moves
    /// the folded files' rows to fresh file IDs past the carried ones, so
    /// its rows compare ordered by `id`. A full rewrite empties the
    /// attached table; an incremental fold retires exactly the folded
    /// files' presence rows and carries the rest under their own file IDs.
    #[test]
    fn every_rewrite_preserves_the_union_read(
        ops in proptest::collection::vec(arb_op(), 1..16),
        rewrite in 0u8..4,
        write_threads in 1u8..3,
    ) {
        let env = DualTableEnv::in_memory();
        let config = DualTableConfig { write_threads: write_threads as usize, ..config() };
        let table = DualTableStore::create(&env, "t", schema(), config.clone()).unwrap();
        let (mut model, mut next_id) = (Vec::new(), 0i64);
        for op in &ops {
            apply(&table, op, &mut model, &mut next_id);
        }
        let by_id = rewrite == 2;
        let before = scan_rows(&table, by_id);
        let dirty = |table: &DualTableStore| -> Vec<u32> {
            table.presence_index().unwrap().files.keys().copied().collect()
        };

        match rewrite {
            0 => table.compact().unwrap(),
            1 => {
                table.begin_compact().unwrap().finish().unwrap();
            }
            2 => loop {
                // Every dirty file is eligible (`min_attached_cells` 1),
                // `max_files_per_cycle` of them per cycle.
                let dirty_before = dirty(&table);
                match table.compact_incremental().unwrap() {
                    FoldOutcome::Clean => break,
                    FoldOutcome::LostRace => prop_assert!(false, "nothing races this fold"),
                    FoldOutcome::Folded { files, .. } => {
                        let dirty_after = dirty(&table);
                        prop_assert_eq!(dirty_after.len() + files, dirty_before.len());
                        let live = table.master_file_ids().unwrap();
                        for id in &dirty_after {
                            prop_assert!(dirty_before.contains(id) && live.contains(id));
                        }
                        prop_assert_eq!(&scan_rows(&table, by_id), &before);
                    }
                }
            },
            _ => {
                // The OVERWRITE plan through a second handle on the table.
                let config = DualTableConfig { plan_mode: PlanMode::AlwaysOverwrite, ..config };
                let overwriting = DualTableStore::open(&env, "t", schema(), config).unwrap();
                let report = overwriting
                    .update(|_| false, &[(1, Box::new(|_| Value::Int64(7)))], RatioHint::Explicit(1.0))
                    .unwrap();
                prop_assert_eq!(report.plan, PlanChoice::Overwrite);
                prop_assert_eq!(report.rows_matched, 0);
            }
        }

        prop_assert_eq!(scan_rows(&table, by_id), before);
        prop_assert!(dirty(&table).is_empty());
        if rewrite != 2 {
            prop_assert_eq!(table.stats().unwrap().attached_entries, 0);
        }
    }
}

// ----------------------------------------------------------------------
// Differential test of the batch merge: every scan entry point against
// the full scan of the same epoch.
// ----------------------------------------------------------------------

mod differential {
    use std::cmp::Ordering;

    use dt_common::rng::Rng64;
    use dt_common::{DataType, Deadline, Field, RecordId, Row, Schema, Value};
    use dt_orcfile::{ColumnPredicate, PredicateOp, WriterOptions};
    use dualtable::{
        DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, ShardSpec,
        ShardedTable, Transaction, UnionReadOptions,
    };
    use proptest::prelude::*;

    const TYPES: [DataType; 5] = [
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Bool,
        DataType::Date,
    ];

    /// A value of `ty`: NULL one time in five; strings from a pool of three
    /// (a dictionary stream) when `column` is even, unique ones (a direct
    /// stream) when it is odd.
    fn value(rng: &mut Rng64, ty: DataType, column: usize) -> Value {
        if rng.chance(0.2) {
            return Value::Null;
        }
        match ty {
            DataType::Int64 => Value::Int64(rng.range_i64(-20, 20)),
            DataType::Float64 => Value::Float64(rng.range_i64(-40, 40) as f64 / 2.0),
            DataType::Bool => Value::Bool(rng.chance(0.5)),
            DataType::Date => Value::Date(rng.range_i64(18_000, 18_040) as i32),
            DataType::Utf8 if column.is_multiple_of(2) => {
                Value::from(*rng.choose(&["red", "green", "blüe"]))
            }
            DataType::Utf8 => Value::Utf8(format!("s-{}", rng.next_below(1 << 20))),
        }
    }

    /// Column 0 is the unique, non-null key `k` (also the shard key).
    fn schema(rng: &mut Rng64) -> Schema {
        let mut fields = vec![Field::new("k", DataType::Int64)];
        for c in 1..rng.range_i64(2, 6) as usize {
            fields.push(Field::new(format!("c{c}"), *rng.choose(&TYPES)));
        }
        Schema::new(fields).unwrap()
    }

    fn rows(rng: &mut Rng64, schema: &Schema, first: i64, n: usize) -> Vec<Row> {
        (0..n as i64)
            .map(|i| {
                let mut row = vec![Value::Int64(first + i)];
                for c in 1..schema.len() {
                    row.push(value(rng, schema.field(c).data_type, c));
                }
                row
            })
            .collect()
    }

    enum Dml {
        Update {
            d: i64,
            r: i64,
            column: usize,
            value: Value,
        },
        Delete {
            d: i64,
            r: i64,
        },
    }

    fn dml(rng: &mut Rng64, schema: &Schema) -> Dml {
        let d = rng.range_i64(2, 6);
        let r = rng.range_i64(0, d - 1);
        if rng.chance(0.3) {
            return Dml::Delete { d, r };
        }
        let column = rng.range_i64(1, schema.len() as i64 - 1) as usize;
        Dml::Update {
            d,
            r,
            column,
            value: value(rng, schema.field(column).data_type, column),
        }
    }

    fn hits(row: &Row, d: i64, r: i64) -> bool {
        row[0].as_i64().unwrap().rem_euclid(d) == r
    }

    /// Runs `op` on the table and on its sharded twin.
    fn apply(t: &DualTableStore, sharded: &ShardedTable, op: &Dml) {
        let ratio = RatioHint::Explicit(0.1);
        match op {
            Dml::Update {
                d,
                r,
                column,
                value,
            } => {
                let assign = [(
                    *column,
                    Box::new(|_: &Row| value.clone()) as Box<dyn Fn(&Row) -> Value + Sync>,
                )];
                t.update(|row| hits(row, *d, *r), &assign, ratio).unwrap();
                sharded
                    .update_keyed(|row| hits(row, *d, *r), &assign, ratio, None, None)
                    .unwrap();
            }
            Dml::Delete { d, r } => {
                t.delete(|row| hits(row, *d, *r), ratio).unwrap();
                sharded
                    .delete_keyed(|row| hits(row, *d, *r), ratio, None, None)
                    .unwrap();
            }
        }
    }

    /// Random projection order (possibly empty, no repeats) and up to two
    /// stripe predicates on any column, projected or not.
    fn scan_opts(rng: &mut Rng64, schema: &Schema) -> UnionReadOptions {
        let mut opts = UnionReadOptions::all();
        if rng.chance(0.8) {
            let mut columns: Vec<usize> = (0..schema.len()).collect();
            for i in (1..columns.len()).rev() {
                columns.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            columns.truncate(rng.next_below(schema.len() as u64 + 1) as usize);
            opts.projection = Some(columns);
        }
        let predicates: Vec<ColumnPredicate> = (0..rng.next_below(3))
            .map(|_| {
                let column = rng.next_below(schema.len() as u64) as usize;
                let literal = match column {
                    0 => Value::Int64(rng.range_i64(0, 60)),
                    _ => loop {
                        let v = value(rng, schema.field(column).data_type, column);
                        if !v.is_null() {
                            break v;
                        }
                    },
                };
                let ops = [
                    PredicateOp::Eq,
                    PredicateOp::Lt,
                    PredicateOp::Le,
                    PredicateOp::Gt,
                    PredicateOp::Ge,
                ];
                ColumnPredicate::new(column, *rng.choose(&ops), literal)
            })
            .collect();
        if !predicates.is_empty() {
            opts.predicates = Some(predicates);
        }
        opts
    }

    /// One statement of a script that mixes inserts into the DML.
    enum Script {
        Insert(Vec<Row>),
        Edit(Dml),
    }

    fn assignment(column: usize, value: &Value) -> dualtable::Assignment<'_> {
        (column, Box::new(move |_: &Row| value.clone()))
    }

    /// A transaction's batch scan unpacked: `(record id, row)` per
    /// surviving row, buffered inserts under file 0 by position.
    fn scan_txn(txn: &Transaction, opts: &UnionReadOptions) -> Vec<(RecordId, Row)> {
        let mut out = Vec::new();
        txn.for_each_batch(opts, |file_id, batch| {
            for i in batch.selected() {
                let row_number = (batch.row_start() + i as u64) as u32;
                out.push((RecordId::new(file_id, row_number), batch.row(i)));
            }
            Ok(std::ops::ControlFlow::Continue(()))
        })
        .unwrap();
        out
    }

    fn satisfies(row: &Row, p: &ColumnPredicate) -> bool {
        let v = &row[p.column];
        if v.is_null() {
            return false;
        }
        let ord = v.total_cmp(&p.literal);
        match p.op {
            PredicateOp::Eq => ord == Ordering::Equal,
            PredicateOp::Lt => ord == Ordering::Less,
            PredicateOp::Le => ord != Ordering::Greater,
            PredicateOp::Gt => ord == Ordering::Greater,
            PredicateOp::Ge => ord != Ordering::Less,
        }
    }

    fn project(row: &Row, opts: &UnionReadOptions) -> Row {
        match &opts.projection {
            Some(p) => p.iter().map(|&c| row[c].clone()).collect(),
            None => row.clone(),
        }
    }

    /// `got` (a scan under `opts`) against `all` (the full scan of the same
    /// epoch): every row it returns is the projection of the full row with
    /// the same record ID, in the same order; it loses no row the
    /// predicates accept (they may only skip stripes); and without
    /// predicates it returns every row.
    fn check(got: &[(RecordId, Row)], all: &[(RecordId, Row)], opts: &UnionReadOptions) {
        let predicates = opts.predicates.as_deref().unwrap_or(&[]);
        let mut got = got.iter().peekable();
        for (id, full) in all {
            match got.next_if(|(g, _)| g == id) {
                Some((_, row)) => prop_assert_eq!(row, &project(full, opts), "row {:?}", id),
                None => prop_assert!(
                    !predicates.iter().all(|p| satisfies(full, p)),
                    "lost row {:?} = {:?} under {:?}",
                    id,
                    full,
                    opts
                ),
            }
        }
        prop_assert!(
            got.next().is_none(),
            "rows out of order or not in the table"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_scan_agrees_with_the_full_scan(seed in any::<u64>()) {
            let mut rng = Rng64::new(seed);
            let rng = &mut rng;
            let schema = schema(rng);
            let config = DualTableConfig {
                rows_per_file: rng.range_i64(4, 24) as usize,
                plan_mode: PlanMode::AlwaysEdit,
                writer: WriterOptions {
                    stripe_rows: rng.range_i64(1, 8) as usize,
                    ..WriterOptions::default()
                },
                ..DualTableConfig::default()
            };
            let base_len = rng.next_below(60) as usize;
            let base = rows(rng, &schema, 0, base_len);
            let ops: Vec<Dml> = (0..rng.next_below(6)).map(|_| dml(rng, &schema)).collect();
            let pinned_after = rng.next_below(ops.len() as u64 + 1) as usize;

            let env = DualTableEnv::in_memory();
            let t = DualTableStore::create(&env, "t", schema.clone(), config.clone()).unwrap();
            let split = rng.range_i64(1, 50);
            let spec = ShardSpec::new(0, vec![split, split + rng.range_i64(1, 20)]).unwrap();
            let sharded =
                ShardedTable::create(&env, "s", schema.clone(), config, spec).unwrap();
            t.insert_rows(base.clone()).unwrap();
            sharded.insert_rows(base).unwrap();

            // A snapshot pinned mid-history, then a transactional insert it
            // must never see (its files are staged, `file_visible` hides them).
            for op in &ops[..pinned_after] {
                apply(&t, &sharded, op);
            }
            let pinned = t.begin_snapshot().unwrap();
            let pinned_all = pinned.scan_all().unwrap();
            let extra_len = rng.next_below(12) as usize;
            let extra = rows(rng, &schema, 1000, extra_len);
            let mut txn = t.begin_transaction().unwrap();
            txn.insert(extra.clone()).unwrap();
            txn.commit().unwrap();
            sharded.insert_rows(extra).unwrap();
            for op in &ops[pinned_after..] {
                apply(&t, &sharded, op);
            }

            let all = t.scan_all().unwrap();
            prop_assert_eq!(t.count().unwrap(), all.len() as u64);
            prop_assert_eq!(pinned.scan_all().unwrap(), pinned_all.clone());
            prop_assert_eq!(pinned.count().unwrap(), pinned_all.len() as u64);
            prop_assert_eq!(sharded.count().unwrap(), all.len() as u64);
            let mut by_key: Vec<Row> = all.iter().map(|(_, row)| row.clone()).collect();
            by_key.sort_by_key(|row| row[0].as_i64());

            for _ in 0..6 {
                let opts = scan_opts(rng, &schema);
                let got = t.scan(&opts).unwrap();
                check(&got, &all, &opts);

                // The same scan at the pin, through the pinned snapshot and
                // as a time-travel read of the live table.
                let at_pin = pinned.scan(&opts).unwrap();
                check(&at_pin, &pinned_all, &opts);
                let travel = UnionReadOptions { snapshot_ts: pinned.ts(), ..opts.clone() };
                let travelled = t.scan(&travel).unwrap();
                let visible_then = |(id, _): &&(RecordId, Row)| {
                    pinned_all.binary_search_by_key(id, |(p, _)| *p).is_ok()
                };
                let travelled: Vec<_> = travelled.iter().filter(visible_then).cloned().collect();
                prop_assert_eq!(travelled, at_pin);

                // Scatter over three shards: the unsharded table, shard by
                // shard. Keys are unique, so rows compare by key.
                let scattered = sharded
                    .scan_scatter(None, opts.predicates.as_deref(), &Deadline::never())
                    .unwrap();
                let keys: Vec<Option<i64>> = scattered.iter().map(|r| r[0].as_i64()).collect();
                prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "gather is key-ordered");
                let predicates = opts.predicates.as_deref().unwrap_or(&[]);
                let mut scattered = scattered.iter().peekable();
                for full in &by_key {
                    if scattered.next_if_eq(&full).is_none() {
                        prop_assert!(
                            !predicates.iter().all(|p| satisfies(full, p)),
                            "scatter lost {:?} under {:?}", full, opts
                        );
                    }
                }
                prop_assert!(scattered.next().is_none(), "scatter invented a row");
                let projected = sharded
                    .scan_scatter(opts.projection.as_deref(), None, &Deadline::never())
                    .unwrap();
                let expect: Vec<Row> = by_key.iter().map(|row| project(row, &opts)).collect();
                prop_assert_eq!(projected, expect);
            }
        }

        /// One EDIT path: the same INSERT/UPDATE/DELETE script run under
        /// autocommit, inside one transaction, and inside one transaction
        /// over three shards ends in the same table — and after every
        /// buffered statement the transaction's own batch scan, under a
        /// random projection and stripe predicates, equals a plain-Rust
        /// read-your-own-writes model (patched survivors, then the
        /// buffered inserts).
        #[test]
        fn a_script_agrees_in_and_out_of_a_transaction(seed in any::<u64>()) {
            let mut rng = Rng64::new(seed);
            let rng = &mut rng;
            let schema = schema(rng);
            let config = DualTableConfig {
                rows_per_file: rng.range_i64(4, 24) as usize,
                plan_mode: PlanMode::AlwaysEdit,
                writer: WriterOptions {
                    stripe_rows: rng.range_i64(1, 8) as usize,
                    ..WriterOptions::default()
                },
                ..DualTableConfig::default()
            };
            let base_len = rng.next_below(60) as usize;
            let base = rows(rng, &schema, 0, base_len);
            let mut next_key = 1000;
            let script: Vec<Script> = (0..rng.next_below(8))
                .map(|_| {
                    if rng.chance(0.3) {
                        let n = rng.next_below(10) as usize;
                        next_key += n as i64;
                        Script::Insert(rows(rng, &schema, next_key - n as i64, n))
                    } else {
                        Script::Edit(dml(rng, &schema))
                    }
                })
                .collect();

            let env = DualTableEnv::in_memory();
            let create = |name| DualTableStore::create(&env, name, schema.clone(), config.clone());
            let (auto, single) = (create("auto").unwrap(), create("single").unwrap());
            let split = rng.range_i64(1, 50);
            let spec = ShardSpec::new(0, vec![split, split + rng.range_i64(1, 20)]).unwrap();
            let sharded =
                ShardedTable::create(&env, "s", schema.clone(), config.clone(), spec.clone())
                    .unwrap();
            auto.insert_rows(base.clone()).unwrap();
            single.insert_rows(base.clone()).unwrap();
            sharded.insert_rows(base).unwrap();

            // Autocommit: every statement its own commit.
            for step in &script {
                match step {
                    Script::Insert(rows) => drop(auto.insert_rows(rows.clone()).unwrap()),
                    Script::Edit(Dml::Update { d, r, column, value }) => {
                        let assign = [assignment(*column, value)];
                        let ratio = RatioHint::Explicit(0.1);
                        auto.update(|row| hits(row, *d, *r), &assign, ratio).unwrap();
                    }
                    Script::Edit(Dml::Delete { d, r }) => {
                        auto.delete(|row| hits(row, *d, *r), RatioHint::Explicit(0.1)).unwrap();
                    }
                }
            }

            // A clean table under a transaction still counts from its
            // footers: no attached scan, no column decoded, no DFS read
            // (the footers are cached by the scan above them).
            let mut committed = single.scan_all().unwrap();
            let mut txn = single.begin_transaction().unwrap();
            let mut on_shards = sharded.begin_transaction().unwrap();
            let skipped = env.health.snapshot().attached_scans_skipped;
            let reads = env.dfs.stats().snapshot().read_ops;
            let counted = scan_txn(&txn, &UnionReadOptions::all().with_projection(Vec::new()));
            prop_assert_eq!(counted.len(), committed.len());
            prop_assert_eq!(
                env.health.snapshot().attached_scans_skipped - skipped,
                single.master_file_ids().unwrap().len() as u64
            );
            prop_assert_eq!(env.dfs.stats().snapshot().read_ops, reads);

            let mut pending: Vec<Row> = Vec::new();
            for step in &script {
                let all = UnionReadOptions::all();
                match step {
                    Script::Insert(rows) => {
                        txn.insert(rows.clone()).unwrap();
                        on_shards.insert(rows.clone()).unwrap();
                        pending.extend(rows.iter().cloned());
                    }
                    Script::Edit(Dml::Update { d, r, column, value }) => {
                        let assign = [assignment(*column, value)];
                        let n = txn.update(|row| hits(row, *d, *r), &assign, &all).unwrap();
                        let m = on_shards.update(|row| hits(row, *d, *r), &assign, &all).unwrap();
                        let rows = committed.iter_mut().map(|(_, row)| row).chain(&mut pending);
                        let hit: Vec<_> = rows.filter(|row| hits(row, *d, *r)).collect();
                        prop_assert_eq!((n, m), (hit.len() as u64, hit.len() as u64));
                        for row in hit {
                            row[*column] = value.clone();
                        }
                    }
                    Script::Edit(Dml::Delete { d, r }) => {
                        let n = txn.delete(|row| hits(row, *d, *r), &all).unwrap();
                        let m = on_shards.delete(|row| hits(row, *d, *r), &all).unwrap();
                        let before = committed.len() + pending.len();
                        committed.retain(|(_, row)| !hits(row, *d, *r));
                        pending.retain(|row| !hits(row, *d, *r));
                        let gone = (before - committed.len() - pending.len()) as u64;
                        prop_assert_eq!((n, m), (gone, gone));
                    }
                }
                // The model under the record IDs the transaction scans it
                // by: survivors under their own, buffered inserts under
                // file 0 by position.
                let inserts = pending.iter().enumerate();
                let inserts = inserts.map(|(i, row)| (RecordId::new(0, i as u32), row.clone()));
                let model: Vec<_> = committed.iter().cloned().chain(inserts).collect();
                let opts = scan_opts(rng, &schema);
                check(&scan_txn(&txn, &opts), &model, &opts);

                // Shard by shard, each one's survivors then its inserts;
                // keys are unique, so rows compare by content.
                let shard = |row: &Row| spec.shard_of(row[0].as_i64().unwrap());
                let rows = model.iter().map(|(_, row)| row);
                let by_shard: Vec<&Row> = (0..3)
                    .flat_map(|s| rows.clone().filter(move |row| shard(row) == s))
                    .collect();
                let unprojected = UnionReadOptions { projection: None, ..opts.clone() };
                let got = scan_txn(&on_shards, &unprojected);
                let predicates = opts.predicates.as_deref().unwrap_or(&[]);
                let mut got = got.iter().map(|(_, row)| row).peekable();
                for full in &by_shard {
                    if got.next_if_eq(full).is_none() {
                        prop_assert!(
                            !predicates.iter().all(|p| satisfies(full, p)),
                            "sharded transaction lost {:?} under {:?}", full, opts
                        );
                    }
                }
                prop_assert!(got.next().is_none(), "sharded transaction invented a row");
                let unpruned = UnionReadOptions { predicates: None, ..opts.clone() };
                let got = scan_txn(&on_shards, &unpruned);
                let got: Vec<&Row> = got.iter().map(|(_, row)| row).collect();
                let expect: Vec<Row> = by_shard.iter().map(|row| project(row, &opts)).collect();
                prop_assert_eq!(got, expect.iter().collect::<Vec<_>>());
            }
            txn.commit().unwrap();
            on_shards.commit().unwrap();

            let rows_of = |t: &DualTableStore| -> Vec<Row> {
                t.scan_all().unwrap().into_iter().map(|(_, row)| row).collect()
            };
            let expect = rows_of(&auto);
            prop_assert_eq!(rows_of(&single), expect.clone());
            let mut by_key = expect;
            by_key.sort_by_key(|row| row[0].as_i64());
            let scattered = sharded.scan_scatter(None, None, &Deadline::never()).unwrap();
            prop_assert_eq!(scattered, by_key);
        }
    }
}
