//! Property test: DualTable under any interleaving of inserts, EDIT-plan
//! updates/deletes and compactions must equal a reference model (a plain
//! `Vec` of rows mutated in place).

use dt_common::rng::Rng64;
use dt_common::{DataType, Row, Schema, Value};
use dt_engine::with_degree;
use dt_orcfile::{OrcReader, WriterOptions, FILE_ID_METADATA_KEY};
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
                    &[(1, Box::new(move |_| Ok(Value::Int64(v))))],
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

    /// Every rewrite is one fold. A random table over all five types —
    /// insert files long and short, EDIT-plan overlays and delete markers
    /// on top — goes through each of them, the OVERWRITE plan with a random
    /// UPDATE or DELETE of its own, at every degree from one to four. The
    /// scan afterwards equals the row model, in order (an incremental fold
    /// moves the folded files' rows to fresh file IDs past the carried
    /// ones, so its rows compare ordered by key), under ascending record
    /// IDs; a full rewrite empties the attached table, an incremental fold
    /// retires exactly the folded files' presence rows; and every output
    /// stripe that kept all the rows of a source stripe stores, for each
    /// column neither that file's presence entry nor the statement's SET
    /// list names, the very bytes the source stripe stored.
    #[test]
    fn every_rewrite_preserves_the_union_read(
        seed in any::<u64>(),
        rewrite in 0u8..4,
        degree in 1usize..5,
    ) {
        with_degree(degree, || {
            let mut rng = Rng64::new(seed);
            let rng = &mut rng;
            let schema = differential::schema(rng);
            let config = DualTableConfig {
                rows_per_file: rng.range_i64(4, 24) as usize,
                writer: WriterOptions {
                    stripe_rows: rng.range_i64(1, 8) as usize,
                    ..WriterOptions::default()
                },
                ..config()
            };
            let env = DualTableEnv::in_memory();
            let table = DualTableStore::create(&env, "t", schema.clone(), config.clone()).unwrap();
            let (mut model, mut next_key): (Vec<Row>, i64) = (Vec::new(), 0);
            for _ in 0..rng.range_i64(1, 7) {
                if rng.chance(0.6) {
                    let n = rng.next_below(40) as usize;
                    let rows = differential::rows(rng, &schema, next_key, n);
                    next_key += n as i64;
                    table.insert_rows(rows.clone()).unwrap();
                    model.extend(rows);
                } else {
                    let op = differential::dml(rng, &schema);
                    op.run(&table);
                    model.retain_mut(|row| op.patch(row));
                }
            }
            let statement = differential::dml(rng, &schema);
            let by_key = rewrite == 2;
            let dirty = |table: &DualTableStore| -> Vec<u32> {
                table.presence_index().unwrap().files.keys().copied().collect()
            };
            let mut set: Vec<usize> = Vec::new();
            if rewrite == 3 {
                set.extend(statement.assignments().iter().flatten().map(|(column, _)| *column));
            }
            let sources = stripes(&env, &table, &set);

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
                            prop_assert_eq!(&scan_rows(&table, by_key), &model);
                        }
                    }
                },
                _ => {
                    // The OVERWRITE plan through a second handle on the table.
                    let config = DualTableConfig { plan_mode: PlanMode::AlwaysOverwrite, ..config };
                    let overwriting = DualTableStore::open(&env, "t", schema, config).unwrap();
                    let hit = model.iter().filter(|row| statement.hits(row)).count();
                    let report = statement.run(&overwriting);
                    prop_assert_eq!(report.plan, PlanChoice::Overwrite);
                    prop_assert_eq!(report.rows_matched, hit as u64);
                    prop_assert_eq!(report.rows_scanned, model.len() as u64);
                    model.retain_mut(|row| statement.patch(row));
                }
            }

            let scanned = table.scan_all().unwrap();
            prop_assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert_eq!(scan_rows(&table, by_key), model);
            prop_assert!(dirty(&table).is_empty());
            if rewrite != 2 {
                prop_assert_eq!(table.stats().unwrap().attached_entries, 0);
            }
            for written in stripes(&env, &table, &[]) {
                let Some(source) = sources.iter().find(|s| s.keys == written.keys) else {
                    continue; // rows came or went: nothing to carry
                };
                for (c, stream) in written.streams.iter().enumerate() {
                    prop_assert!(
                        source.changed[c] || stream == &source.streams[c],
                        "column {} of the stripe at key {:?} was re-encoded to other bytes",
                        c, written.keys.first()
                    );
                }
            }
        });
    }
}

/// One stripe of a master file as stored.
struct StoredStripe {
    /// The key column, decoded.
    keys: Vec<Value>,
    /// Every column's stream, compressed, as the file holds it.
    streams: Vec<Vec<u8>>,
    /// Per column: the file's presence entry or `set` names it.
    changed: Vec<bool>,
}

/// Every stripe of the table's live master files, in scan order.
fn stripes(env: &DualTableEnv, table: &DualTableStore, set: &[usize]) -> Vec<StoredStripe> {
    let live = table.master_file_ids().unwrap();
    let presence = table.presence_index().unwrap();
    let width = table.schema().len();
    let every: Vec<usize> = (0..width).collect();
    let mut out = Vec::new();
    for path in env.dfs.list(&format!("/warehouse/{}/", table.name())) {
        let reader = OrcReader::open(&env.dfs, &path).unwrap();
        let id = reader.metadata(FILE_ID_METADATA_KEY).unwrap();
        let id = u32::from_be_bytes(id.try_into().unwrap());
        if !live.contains(&id) {
            continue; // a generation on its way out
        }
        let updated = |c| presence.file(id).is_some_and(|p| p.has_update_on(c));
        for (stripe, keys) in reader.batches(Some(&[0]), None).unwrap().enumerate() {
            let keys = keys.unwrap();
            out.push(StoredStripe {
                keys: (0..keys.rows())
                    .map(|i| keys.columns()[0].value(i))
                    .collect(),
                streams: reader.raw_streams(stripe, &every).unwrap(),
                changed: (0..width).map(|c| updated(c) || set.contains(&c)).collect(),
            });
        }
    }
    out
}

/// COMPACT converges: many one-stripe insert files, each shorter than half
/// a stripe, fold into ⌈rows / `rows_per_file`⌉ files of full stripes (all
/// but the table's last), and a second COMPACT of the now-clean table
/// changes no stored byte of any column and reads no more than the master
/// files hold, on one rewrite worker.
#[test]
fn compact_folds_short_files_into_full_stripes_and_then_carries_them() {
    with_degree(1, || {
        let env = DualTableEnv::in_memory();
        let config = DualTableConfig {
            rows_per_file: 64,
            writer: WriterOptions {
                stripe_rows: 16,
                ..WriterOptions::default()
            },
            ..config()
        };
        let table = DualTableStore::create(&env, "t", schema(), config).unwrap();
        for batch in 0..39 {
            let rows = (0..5).map(|i| vec![Value::Int64(batch * 5 + i), Value::Int64(batch)]);
            table.insert_rows(rows.collect::<Vec<Row>>()).unwrap();
        }
        assert_eq!(table.master_file_ids().unwrap().len(), 39);
        let before = scan_rows(&table, false);

        table.compact().unwrap();
        assert_eq!(
            table.master_file_ids().unwrap().len(),
            195usize.div_ceil(64)
        );
        let folded = stripes(&env, &table, &[]);
        let lengths: Vec<usize> = folded.iter().map(|s| s.keys.len()).collect();
        assert_eq!(lengths, [[16; 12].as_slice(), &[3]].concat());
        assert_eq!(scan_rows(&table, false), before);

        let master_bytes = table.stats().unwrap().master_bytes;
        let read_before = env.dfs.stats().snapshot().bytes_read;
        table.compact().unwrap();
        let read = env.dfs.stats().snapshot().bytes_read - read_before;
        assert!(read <= master_bytes, "read {read} of {master_bytes} bytes");
        let carried = stripes(&env, &table, &[]);
        assert_eq!(carried.len(), folded.len());
        for (after, before) in carried.iter().zip(&folded) {
            assert_eq!(after.streams, before.streams);
        }
        assert_eq!(scan_rows(&table, false), before);
    });
}

// ----------------------------------------------------------------------
// Differential test of the batch merge: every scan entry point against
// the full scan of the same epoch.
// ----------------------------------------------------------------------

mod differential {
    use std::cmp::Ordering;
    use std::ops::ControlFlow;

    use dt_common::rng::Rng64;
    use dt_common::{DataType, Field, RecordId, Row, Schema, Value};
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
    pub(super) fn value(rng: &mut Rng64, ty: DataType, column: usize) -> Value {
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
    pub(super) fn schema(rng: &mut Rng64) -> Schema {
        let mut fields = vec![Field::new("k", DataType::Int64)];
        for c in 1..rng.range_i64(2, 6) as usize {
            fields.push(Field::new(format!("c{c}"), *rng.choose(&TYPES)));
        }
        Schema::new(fields).unwrap()
    }

    pub(super) fn rows(rng: &mut Rng64, schema: &Schema, first: i64, n: usize) -> Vec<Row> {
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

    /// One UPDATE or DELETE of the rows whose key is `r` modulo `d`.
    pub(super) struct Dml {
        d: i64,
        r: i64,
        kind: Kind,
    }

    enum Kind {
        /// `SET column = value`.
        Set {
            column: usize,
            value: Value,
        },
        /// `SET c1 = c2, c2 = c3, …, cn = c1` over every non-key column of
        /// one type: each right-hand side reads a column the statement
        /// also assigns, and must see it as stored.
        Rotate {
            columns: Vec<usize>,
        },
        Delete,
    }

    pub(super) fn dml(rng: &mut Rng64, schema: &Schema) -> Dml {
        let d = rng.range_i64(2, 6);
        let r = rng.range_i64(0, d - 1);
        let column = rng.range_i64(1, schema.len() as i64 - 1) as usize;
        let ty = schema.field(column).data_type;
        let kind = match rng.next_below(10) {
            0..=2 => Kind::Delete,
            3..=4 => Kind::Rotate {
                columns: (1..schema.len())
                    .filter(|c| schema.field(*c).data_type == ty)
                    .collect(),
            },
            _ => Kind::Set {
                column,
                value: value(rng, ty, column),
            },
        };
        Dml { d, r, kind }
    }

    impl Dml {
        pub(super) fn hits(&self, row: &Row) -> bool {
            row[0].as_i64().unwrap().rem_euclid(self.d) == self.r
        }

        /// The SET list; `None` for a DELETE.
        pub(super) fn assignments(&self) -> Option<Vec<dualtable::Assignment<'_>>> {
            match &self.kind {
                Kind::Delete => None,
                Kind::Set { column, value } => Some(vec![assignment(*column, value)]),
                Kind::Rotate { columns } => {
                    let from = columns.iter().cycle().skip(1);
                    let set = columns.iter().zip(from).map(|(&to, &from)| {
                        let read = move |row: &Row| Ok(row[from].clone());
                        (
                            to,
                            Box::new(read) as Box<dyn Fn(&Row) -> dt_common::Result<Value> + Sync>,
                        )
                    });
                    Some(set.collect())
                }
            }
        }

        /// The model: what the statement makes of `row` — `false` when it
        /// deletes it.
        pub(super) fn patch(&self, row: &mut Row) -> bool {
            if !self.hits(row) {
                return true;
            }
            match &self.kind {
                Kind::Delete => return false,
                Kind::Set { column, value } => row[*column] = value.clone(),
                Kind::Rotate { columns } => {
                    let stored = row.clone();
                    for (&to, &from) in columns.iter().zip(columns.iter().cycle().skip(1)) {
                        row[to] = stored[from].clone();
                    }
                }
            }
            true
        }

        /// Runs the statement on `t` under autocommit.
        pub(super) fn run(&self, t: &DualTableStore) -> dualtable::DmlReport {
            let ratio = RatioHint::Explicit(0.1);
            match self.assignments() {
                Some(set) => t.update(|row| self.hits(row), &set, ratio).unwrap(),
                None => t.delete(|row| self.hits(row), ratio).unwrap(),
            }
        }
    }

    /// Runs `op` on the table and on its sharded twin.
    fn apply(t: &DualTableStore, sharded: &ShardedTable, op: &Dml) {
        op.run(t);
        let ratio = RatioHint::Explicit(0.1);
        let hits = |row: &Row| op.hits(row);
        let set = op.assignments();
        sharded
            .dml(&hits, set.as_deref(), ratio, None, None)
            .unwrap();
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
        (column, Box::new(move |_: &Row| Ok(value.clone())))
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
            Ok(ControlFlow::Continue(()))
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

    /// Every row a scatter scan under `opts` returns, in gather order.
    fn scatter(t: &ShardedTable, opts: &UnionReadOptions) -> Vec<Row> {
        let mut rows = Vec::new();
        t.for_each_batch(opts, |_, batch| {
            rows.extend(batch.selected_rows());
            Ok(ControlFlow::Continue(()))
        })
        .unwrap();
        rows
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
                let pruned = UnionReadOptions {
                    predicates: opts.predicates.clone(),
                    ..UnionReadOptions::all()
                };
                let scattered = scatter(&sharded, &pruned);
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
                let narrow = UnionReadOptions {
                    projection: opts.projection.clone(),
                    ..UnionReadOptions::all()
                };
                let projected = scatter(&sharded, &narrow);
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
            let overwriting = DualTableConfig { plan_mode: PlanMode::AlwaysOverwrite, ..config.clone() };
            let over = DualTableStore::create(&env, "over", schema.clone(), overwriting).unwrap();
            auto.insert_rows(base.clone()).unwrap();
            over.insert_rows(base.clone()).unwrap();
            single.insert_rows(base.clone()).unwrap();
            sharded.insert_rows(base).unwrap();

            // Autocommit, every statement its own commit — under either
            // plan: the EDIT plan patches the attached table, the
            // OVERWRITE plan rewrites the master with the same patches.
            for step in &script {
                for t in [&auto, &over] {
                    match step {
                        Script::Insert(rows) => drop(t.insert_rows(rows.clone()).unwrap()),
                        Script::Edit(op) => drop(op.run(t)),
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
                    Script::Edit(op) => {
                        let hits = |row: &Row| op.hits(row);
                        let (n, m) = match op.assignments() {
                            Some(set) => (
                                txn.update(hits, &set, &all).unwrap(),
                                on_shards.update(hits, &set, &all).unwrap(),
                            ),
                            None => (
                                txn.delete(hits, &all).unwrap(),
                                on_shards.delete(hits, &all).unwrap(),
                            ),
                        };
                        let rows = committed.iter().map(|(_, row)| row).chain(&pending);
                        let hit = rows.filter(|row| op.hits(row)).count() as u64;
                        prop_assert_eq!((n, m), (hit, hit));
                        committed.retain_mut(|(_, row)| op.patch(row));
                        pending.retain_mut(|row| op.patch(row));
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
            prop_assert_eq!(rows_of(&over), expect.clone());
            let mut by_key = expect;
            by_key.sort_by_key(|row| row[0].as_i64());
            prop_assert_eq!(scatter(&sharded, &UnionReadOptions::all()), by_key);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The EDIT locate at degree 1 and at degree 4 finds the same
        /// patch set: over a table large enough to fan out, the same
        /// UPDATE/DELETE script — autocommit, then buffered in a
        /// transaction — leaves twin tables with the same reports, the
        /// same presence index, the same rows under the same record IDs,
        /// and the transactions with the same read-your-own-writes scan.
        #[test]
        fn edit_patch_sets_agree_across_degrees(seed in any::<u64>()) {
            let mut rng = Rng64::new(seed);
            let rng = &mut rng;
            let schema = schema(rng);
            let config = DualTableConfig {
                rows_per_file: rng.range_i64(1200, 2000) as usize,
                plan_mode: PlanMode::AlwaysEdit,
                writer: WriterOptions {
                    stripe_rows: rng.range_i64(300, 700) as usize,
                    ..WriterOptions::default()
                },
                ..DualTableConfig::default()
            };
            let n = rng.range_i64(4200, 6000) as usize;
            let base = rows(rng, &schema, 0, n);
            let script: Vec<Dml> = (0..rng.range_i64(2, 5)).map(|_| dml(rng, &schema)).collect();
            let twins = [1, 4].map(|degree| {
                let env = DualTableEnv::in_memory();
                let t = DualTableStore::create(&env, "t", schema.clone(), config.clone()).unwrap();
                t.insert_rows(base.clone()).unwrap();
                (degree, env, t)
            });
            for op in &script {
                let [one, four] = twins.each_ref().map(|(degree, _, t)| {
                    let report = dt_engine::with_degree(*degree, || op.run(t));
                    (report, t.presence_index().unwrap(), t.scan_all().unwrap())
                });
                prop_assert_eq!(one, four);
            }
            let all = UnionReadOptions::all();
            let [one, four] = twins.each_ref().map(|(degree, _, t)| {
                dt_engine::with_degree(*degree, || {
                    let mut txn = t.begin_transaction().unwrap();
                    txn.insert(rows(&mut Rng64::new(seed), &schema, 1 << 20, 40)).unwrap();
                    let matched: Vec<u64> = script
                        .iter()
                        .map(|op| {
                            let hits = |row: &Row| op.hits(row);
                            match op.assignments() {
                                Some(set) => txn.update(hits, &set, &all).unwrap(),
                                None => txn.delete(hits, &all).unwrap(),
                            }
                        })
                        .collect();
                    (matched, scan_txn(&txn, &all))
                })
            });
            prop_assert_eq!(one, four);
            // The degree-4 twin did fan out, wherever a second core exists.
            let fanned = twins[1].1.health.snapshot().scans_parallel;
            prop_assert!(fanned > 0 || dt_engine::cores() < 2);
            prop_assert_eq!(twins[0].1.health.snapshot().scans_parallel, 0);
        }
    }
}
