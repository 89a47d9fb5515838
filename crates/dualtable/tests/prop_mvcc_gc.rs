//! Property test: generation GC under any interleaving of snapshot pins,
//! unpins, EDIT commits and two-phase generation swings (DESIGN.md §13).
//!
//! Three properties, checked after every operation at the public API
//! level:
//!
//! 1. **Never drop a pinned generation** — every live [`Snapshot`] must
//!    keep returning its pin-time bytes, no matter how many swings have
//!    retired its generation since. (A deleted master file or a pruned
//!    visibility record would surface as missing or phantom rows.)
//! 2. **Never leak a dead generation** — the number of `gen-` directories
//!    holding files is at most `1 (current) + retired (pin-protected)`.
//!    Abandoned builds must not count against anything: their directories
//!    disappear on abandon.
//! 3. **Never leak dead attached rows** — the presence index names only
//!    master files of the current and the pinned generations, and once
//!    the last pin drains, of the current one alone.
//!
//! Beside the property, directed tests of the read pin: a read takes a
//! pin and no lock, so it never sees half a commit
//! (`an_autocommit_read_never_sees_half_a_commit`,
//! `a_sharded_read_never_sees_half_a_cross_shard_commit`) and no swing or
//! DROP waits for it (`a_swing_never_waits_for_a_parked_reader`).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

use dt_common::fault::{FaultKind, FaultPlan};
use dt_common::{DataType, RecordId, Result, Row, Schema, Value};
use dt_orcfile::ColumnBatch;
use dualtable::{
    Assignment, DualTableConfig, DualTableEnv, DualTableStore, FoldOutcome, PlanChoice, PlanMode,
    RatioHint, ShardSpec, ShardedTable, Snapshot, UnionReadOptions,
};
use proptest::prelude::*;

const TABLE: &str = "gc";

#[derive(Debug, Clone)]
enum Op {
    /// Pin a reader snapshot (capped at 4 live pins; extra pins no-op).
    Pin,
    /// Drop pin `idx % live` (no-op when none are live).
    Unpin {
        idx: u8,
    },
    Insert {
        count: u8,
    },
    /// EDIT-plan update: `v = new_v WHERE id % divisor == rem`.
    Update {
        divisor: u8,
        rem: u8,
        new_v: i8,
    },
    /// Two-phase COMPACT; `abandon` drops the build instead of swinging.
    Compact {
        abandon: bool,
    },
    /// Two-phase INSERT OVERWRITE (`v += 1000`); `abandon` as above.
    Overwrite {
        abandon: bool,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Pin),
        3 => any::<u8>().prop_map(|idx| Op::Unpin { idx }),
        2 => (1u8..12).prop_map(|count| Op::Insert { count }),
        2 => (1u8..5, 0u8..5, any::<i8>()).prop_map(|(d, r, v)| Op::Update {
            divisor: d,
            rem: r % d,
            new_v: v
        }),
        2 => any::<bool>().prop_map(|abandon| Op::Compact { abandon }),
        2 => any::<bool>().prop_map(|abandon| Op::Overwrite { abandon }),
    ]
}

fn config() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 8,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    }
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

/// Generation directories currently holding master files.
fn gen_dirs(env: &DualTableEnv) -> Vec<String> {
    let mut dirs: Vec<String> = env
        .dfs
        .list(&format!("/warehouse/{TABLE}/"))
        .into_iter()
        .filter_map(|p| {
            p.split('/')
                .find(|seg| seg.starts_with("gen-"))
                .map(String::from)
        })
        .collect();
    dirs.sort();
    dirs.dedup();
    dirs
}

/// The master file IDs of generation `gen` of table `name`.
fn gen_files(env: &DualTableEnv, name: &str, gen: u64) -> Vec<u32> {
    let prefix = format!("/warehouse/{name}/gen-{gen:010}/part-");
    let listed = env.dfs.list(&prefix).into_iter();
    listed
        .filter_map(|path| path.strip_prefix(&prefix)?.parse().ok())
        .collect()
}

/// The files the presence index names that are outside `live`.
fn dead_presence(table: &DualTableStore, live: &[u32]) -> Vec<u32> {
    let index = table.presence_index().unwrap();
    let keys = index.files.into_keys();
    keys.filter(|id| !live.contains(id)).collect()
}

fn sorted_pairs(rows: &[(RecordId, Row)]) -> Vec<(i64, i64)> {
    let mut got: Vec<(i64, i64)> = rows
        .iter()
        .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generation_gc_never_drops_pinned_never_leaks(
        ops in proptest::collection::vec(arb_op(), 1..28),
    ) {
        let env = DualTableEnv::in_memory();
        let table = DualTableStore::create(&env, TABLE, schema(), config()).unwrap();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut next_id = 0i64;
        // Each live pin with the bytes it must keep seeing.
        let mut pins: Vec<(Snapshot, Vec<(i64, i64)>)> = Vec::new();

        for op in &ops {
            match op {
                Op::Pin => {
                    if pins.len() < 4 {
                        let snap = table.begin_snapshot().unwrap();
                        let expect = sorted_pairs(&snap.scan_all().unwrap());
                        prop_assert_eq!(
                            &expect,
                            &model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>(),
                            "fresh pin does not see the committed state"
                        );
                        pins.push((snap, expect));
                    }
                }
                Op::Unpin { idx } => {
                    if !pins.is_empty() {
                        pins.remove(*idx as usize % pins.len());
                    }
                }
                Op::Insert { count } => {
                    let rows: Vec<Row> = (0..*count as i64)
                        .map(|i| {
                            let id = next_id + i;
                            vec![Value::Int64(id), Value::Int64(id)]
                        })
                        .collect();
                    table.insert_rows(rows).unwrap();
                    for i in 0..*count as i64 {
                        model.insert(next_id + i, next_id + i);
                    }
                    next_id += *count as i64;
                }
                Op::Update { divisor, rem, new_v } => {
                    let (d, r, v) = (*divisor as i64, *rem as i64, *new_v as i64);
                    table
                        .update(
                            move |row| row[0].as_i64().unwrap() % d == r,
                            &[(1, Box::new(move |_| Ok(Value::Int64(v))))],
                            RatioHint::Explicit(0.01),
                        )
                        .unwrap();
                    model.iter_mut().for_each(|(id, val)| {
                        if id % d == r {
                            *val = v;
                        }
                    });
                }
                Op::Compact { abandon } => {
                    let job = table.begin_compact().unwrap();
                    if *abandon {
                        job.abandon();
                    } else {
                        // No commit since the pin: the swing must win.
                        job.finish().unwrap();
                    }
                }
                Op::Overwrite { abandon } => {
                    let rows: Vec<Row> = model
                        .iter()
                        .map(|(&id, &v)| vec![Value::Int64(id), Value::Int64(v + 1000)])
                        .collect();
                    let job = table.begin_insert_overwrite(rows).unwrap();
                    if *abandon {
                        job.abandon();
                    } else {
                        job.finish().unwrap();
                        model.values_mut().for_each(|v| *v += 1000);
                    }
                }
            }

            // Property 1: every pinned reader still sees its pin-time
            // bytes — no pinned generation (or its visibility records)
            // was dropped.
            for (snap, expect) in &pins {
                prop_assert_eq!(
                    &sorted_pairs(&snap.scan_all().unwrap()),
                    expect,
                    "pinned snapshot drifted (gen {})",
                    snap.generation()
                );
            }

            // Property 2: at most the current and the pin-protected
            // generation directories survive on disk. Abandoned builds
            // must not linger.
            let dirs = gen_dirs(&env);
            let budget = 1 + table.retired_generations();
            prop_assert!(
                dirs.len() <= budget,
                "{} generation dirs on disk exceed budget {budget}: {dirs:?}",
                dirs.len(),
            );

            // Property 3: the presence index names files of the current
            // and the pinned generations only.
            let mut live = table.master_file_ids().unwrap();
            for (snap, _) in &pins {
                live.extend(gen_files(&env, TABLE, snap.generation()));
            }
            let dead = dead_presence(&table, &live);
            prop_assert!(dead.is_empty(), "dead files in the presence index: {dead:?}");

            // Latest-state reads stay correct throughout.
            prop_assert_eq!(
                sorted_pairs(&table.scan_all().unwrap()),
                model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
            );
        }

        // Drain every pin: the disk shrinks to the current generation and
        // the presence index to its files.
        pins.clear();
        prop_assert_eq!(table.pinned_snapshots(), 0);
        prop_assert_eq!(table.retired_generations(), 0);
        prop_assert!(gen_dirs(&env).len() <= 1);
        let dead = dead_presence(&table, &table.master_file_ids().unwrap());
        prop_assert!(dead.is_empty(), "dead files after the last unpin: {dead:?}");
        prop_assert_eq!(
            sorted_pairs(&table.scan_all().unwrap()),
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
    }
}

/// How long a directed test waits for the other side of a race: a step
/// that takes longer is taken to wait for the parked reader.
const PARK: Duration = Duration::from_secs(10);

/// Two master files of four rows each, `v = id`, both already dirty: a row
/// of each carries an EDIT overlay, so a scan opens both files' attached
/// ranges and a fold has candidates.
fn two_dirty_files(env: &DualTableEnv, name: &str) -> DualTableStore {
    let config = DualTableConfig {
        rows_per_file: 4,
        ..DualTableConfig::default()
    };
    let t = DualTableStore::create(env, name, schema(), config).unwrap();
    t.insert_rows((0..8).map(|i| vec![Value::Int64(i), Value::Int64(i)]))
        .unwrap();
    assert_eq!(t.master_file_ids().unwrap().len(), 2);
    assert_eq!(bump(&t, [0, 4], 100, 0.005).unwrap(), PlanChoice::Edit);
    t
}

/// `UPDATE SET v = v + by WHERE id IN ids` under the cost model with
/// modification ratio `ratio`; returns the plan it ran.
fn bump(t: &DualTableStore, ids: [i64; 2], by: i64, ratio: f64) -> Result<PlanChoice> {
    let set = add(by);
    let all = UnionReadOptions::all();
    let report = t.dml(
        &picks(ids),
        Some(&set),
        RatioHint::Explicit(ratio),
        None,
        &all,
    )?;
    Ok(report.plan)
}

fn picks(ids: [i64; 2]) -> impl Fn(&Row) -> bool + Sync {
    move |row: &Row| ids.contains(&row[0].as_i64().unwrap())
}

fn add(by: i64) -> [Assignment<'static>; 1] {
    [(
        1,
        Box::new(move |row: &Row| Ok(Value::Int64(row[1].as_i64().unwrap() + by))),
    )]
}

fn v_sum(rows: &[Row]) -> i64 {
    rows.iter().map(|row| row[1].as_i64().unwrap()).sum()
}

type Batches<'a> = &'a mut dyn FnMut(ColumnBatch) -> Result<ControlFlow<()>>;

/// Runs `read` — a scan handing each merged batch to its callback — on a
/// thread of `s`, parked after its first batch until the returned sender
/// fires; the thread returns every row it read.
fn parked<'s>(
    s: &'s Scope<'s, '_>,
    read: impl FnOnce(Batches<'_>) -> Result<()> + Send + 's,
) -> (ScopedJoinHandle<'s, Result<Vec<Row>>>, mpsc::Sender<()>) {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let reader = s.spawn(move || {
        let mut rows = Vec::new();
        let mut first = true;
        read(&mut |batch| {
            rows.extend(batch.selected_rows());
            if std::mem::take(&mut first) {
                parked_tx.send(()).unwrap();
                let _ = go_rx.recv();
            }
            Ok(ControlFlow::Continue(()))
        })?;
        Ok(rows)
    });
    parked_rx
        .recv_timeout(PARK)
        .expect("the reader parks after its first batch");
    (reader, go_tx)
}

/// Runs `op` on a thread of `s`; `None` if it is not done within [`PARK`]
/// (the thread still runs to its end before the scope closes).
fn within<'s, T: Send + 's>(s: &'s Scope<'s, '_>, op: impl FnOnce() -> T + Send + 's) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    s.spawn(move || tx.send(op()));
    rx.recv_timeout(PARK).ok()
}

/// A read parked between two dirty master files while one autocommit
/// EDIT commits a change to a row of each: the read sees the commit
/// whole or not at all.
#[test]
fn an_autocommit_read_never_sees_half_a_commit() {
    let env = DualTableEnv::in_memory();
    let t = two_dirty_files(&env, "torn");
    let rows: Vec<Row> = t.scan_all().unwrap().into_iter().map(|(_, r)| r).collect();
    let before = v_sum(&rows);
    let all = UnionReadOptions::all();
    std::thread::scope(|s| {
        let (reader, go) = parked(s, |f| t.for_each_batch(&all, |_, batch| f(batch)));
        let update = within(s, || bump(&t, [1, 5], 1000, 0.005));
        go.send(()).unwrap();
        let got = v_sum(&reader.join().unwrap().unwrap());
        let plan = update.expect("the EDIT waited for the reader").unwrap();
        assert_eq!(plan, PlanChoice::Edit);
        assert!(
            got == before || got == before + 2000,
            "a torn read: sum {got}, {before} before the commit and {} after",
            before + 2000
        );
    });
    assert_eq!(t.pinned_snapshots(), 0);
}

/// The same across shards: a scan parked between the two shards of a
/// table while one autocommit UPDATE commits a change in each.
#[test]
fn a_sharded_read_never_sees_half_a_cross_shard_commit() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![4]).unwrap();
    let t = ShardedTable::create(&env, "torn", schema(), DualTableConfig::default(), spec).unwrap();
    t.insert_rows(
        (0..8)
            .map(|i| vec![Value::Int64(i), Value::Int64(i)])
            .collect(),
    )
    .unwrap();
    let bump = |ids, by| {
        let (set, ratio) = (add(by), RatioHint::Explicit(0.005));
        let report = t.dml(&picks(ids), Some(&set), ratio, None, None)?;
        let plans: Vec<_> = report.per_shard.iter().map(|(_, r)| r.plan).collect();
        Ok::<_, dt_common::Error>(plans)
    };
    // Both shards dirty, so each one's scan opens its attached range.
    assert_eq!(bump([0, 4], 100).unwrap(), [PlanChoice::Edit; 2]);
    let mut before = 0;
    t.for_each_batch(&UnionReadOptions::all(), |_, batch| {
        before += v_sum(&batch.selected_rows().collect::<Vec<_>>());
        Ok(ControlFlow::Continue(()))
    })
    .unwrap();
    let all = UnionReadOptions::all();
    std::thread::scope(|s| {
        let (reader, go) = parked(s, |f| t.for_each_batch(&all, |_, batch| f(batch)));
        let update = within(s, || bump([1, 5], 1000));
        go.send(()).unwrap();
        let got = v_sum(&reader.join().unwrap().unwrap());
        let plans = update.expect("the UPDATE waited for the reader").unwrap();
        assert_eq!(
            plans,
            [PlanChoice::Edit; 2],
            "one commit across both shards"
        );
        assert!(
            got == before || got == before + 2000,
            "a torn read: sum {got}, {before} before the commit and {} after",
            before + 2000
        );
    });
    assert!(t.shards().iter().all(|shard| shard.pinned_snapshots() == 0));
}

/// A reader parked mid-scan holds a pin and no lock: an incremental
/// fold's swing, an OVERWRITE-plan UPDATE, INSERT OVERWRITE and DROP
/// TABLE each complete beside it. The parked read returns the table as
/// it was before the swing (or, across a DROP, an error), and once it
/// ends nothing stays pinned and the deferred cleanup has run.
#[test]
fn a_swing_never_waits_for_a_parked_reader() {
    for swing in [
        "fold",
        "OVERWRITE-plan UPDATE",
        "INSERT OVERWRITE",
        "DROP TABLE",
    ] {
        let env = DualTableEnv::in_memory();
        let t = two_dirty_files(&env, "swung");
        let before: Vec<Row> = t.scan_all().unwrap().into_iter().map(|(_, r)| r).collect();
        let all = UnionReadOptions::all();
        std::thread::scope(|s| {
            let (reader, go) = parked(s, |f| t.for_each_batch(&all, |_, batch| f(batch)));
            let done = within(s, || match swing {
                "fold" => t.compact_incremental().map(|o| format!("{o:?}")),
                "OVERWRITE-plan UPDATE" => bump(&t, [1, 5], 1000, 0.9).map(|p| format!("{p:?}")),
                "INSERT OVERWRITE" => t.insert_overwrite(before.clone()).map(|n| n.to_string()),
                _ => t.clone().drop_table().map(|()| "dropped".into()),
            });
            go.send(()).unwrap();
            let read = reader.join().expect("a parked read never panics");
            let done = done.unwrap_or_else(|| panic!("{swing} waited for the parked reader"));
            match swing {
                "DROP TABLE" => assert!(read.is_err() || read.unwrap() == before),
                _ => assert_eq!(read.unwrap(), before, "{swing}: the pre-swing table"),
            }
            let done = done.unwrap();
            match swing {
                "fold" => assert!(done.starts_with("Folded"), "{done}"),
                "OVERWRITE-plan UPDATE" => assert_eq!(done, format!("{:?}", PlanChoice::Overwrite)),
                _ => {}
            }
        });
        assert_eq!(t.pinned_snapshots(), 0, "{swing}");
        if swing == "DROP TABLE" {
            continue;
        }
        // The generation the reader held went with its pin, and so did
        // the attached rows of every file the swing retired.
        assert_eq!(t.retired_generations(), 0, "{swing}");
        let live = t.master_file_ids().unwrap();
        let presence = t.presence_index().unwrap();
        assert!(
            presence.files.keys().all(|id| live.contains(id)),
            "{swing}: retired files left attached rows: {:?} vs live {live:?}",
            presence.files.keys().collect::<Vec<_>>()
        );
    }
}

/// When the sweep runs, each case at the public API: with no pin, a
/// COMPACT or INSERT OVERWRITE swing — exclusive or two-phase — truncates
/// the attached table at once, and a fold removes its folded files' rows
/// at once; behind a pin, each waits for the last unpin. An unpin that
/// drains nothing reads no byte of either tier.
#[test]
fn the_sweep_runs_at_the_swing_or_at_the_last_unpin() {
    for swing in ["COMPACT", "INSERT OVERWRITE", "two-phase COMPACT", "fold"] {
        for pinned in [false, true] {
            let plan = Arc::new(FaultPlan::new(1));
            let env = DualTableEnv::in_memory_faulty(plan.clone()).unwrap();
            let t = two_dirty_files(&env, "timed");
            let pin = pinned.then(|| t.begin_snapshot().unwrap());
            let rows: Vec<Row> = t.scan_all().unwrap().into_iter().map(|(_, r)| r).collect();
            match swing {
                "COMPACT" => t.compact().unwrap(),
                "INSERT OVERWRITE" => drop(t.insert_overwrite(rows).unwrap()),
                "two-phase COMPACT" => drop(t.begin_compact().unwrap().finish().unwrap()),
                _ => assert!(matches!(
                    t.compact_incremental().unwrap(),
                    FoldOutcome::Folded { .. }
                )),
            }
            let live = t.master_file_ids().unwrap();
            let case = format!("{swing}, pinned {pinned}");
            if let Some(pin) = pin {
                assert_eq!(
                    dead_presence(&t, &live).len(),
                    2,
                    "{case}: swept behind a pin"
                );
                // A read of the current generation drains nothing: with the
                // attached table flushed, any read of it would be I/O.
                let attached = env.kv.table("att_timed").unwrap();
                attached.flush().unwrap();
                let ops = plan.ops_seen();
                drop(t.begin_snapshot().unwrap());
                assert_eq!(
                    plan.ops_seen(),
                    ops,
                    "{case}: an unpin that drains nothing read"
                );
                drop(pin);
            }
            assert!(
                dead_presence(&t, &live).is_empty(),
                "{case}: dead rows left"
            );
            if swing != "fold" {
                let entries = t.stats().unwrap().attached_entries;
                assert_eq!(entries, 0, "{case}: the attached table was not truncated");
            }
        }
    }
}

/// A sweep that faults reading the attached table leaves its dead rows to
/// the next sweep — here the next fold's, with no reopen in between.
#[test]
fn a_failed_attached_sweep_is_retried_by_the_next_sweep() {
    let plan = Arc::new(FaultPlan::new(2));
    let env = DualTableEnv::in_memory_faulty(plan.clone()).unwrap();
    let config = DualTableConfig {
        rows_per_file: 4,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    };
    let t = DualTableStore::create(&env, "retry", schema(), config).unwrap();
    t.insert_rows((0..24).map(|i| vec![Value::Int64(i), Value::Int64(i)]))
        .unwrap();
    let files = t.master_file_ids().unwrap();
    assert_eq!(files.len(), 6);
    // The last two files the dirtiest, the middle two dirty, the first two
    // clean: the first fold takes the last two and the second the middle
    // two, so the second fold's own fold set never covers the first's.
    let hint = RatioHint::Explicit(0.01);
    let set = |v| [(1, Box::new(move |_: &Row| Ok(Value::Int64(v))) as _)];
    t.update(|row| row[0].as_i64().unwrap() >= 16, &set(-1), hint)
        .unwrap();
    let middle = |row: &Row| (8..16).contains(&row[0].as_i64().unwrap());
    t.update(
        move |row| middle(row) && row[0].as_i64().unwrap() % 4 == 0,
        &set(-2),
        hint,
    )
    .unwrap();
    env.kv.table("att_retry").unwrap().flush().unwrap();

    let job = t.begin_incremental(|| {}).unwrap().unwrap();
    assert_eq!(job.folded_files(), Some(&files[4..]));
    let failures = env.health.snapshot().cleanup_failures;
    plan.fail_next(FaultKind::ReadError);
    job.finish().unwrap();
    assert_eq!(
        plan.injected_count(),
        1,
        "the sweep read the attached table"
    );
    assert!(env.health.snapshot().cleanup_failures > failures);
    let live = t.master_file_ids().unwrap();
    assert_eq!(dead_presence(&t, &live), files[4..], "the faulted sweep");

    assert!(matches!(
        t.compact_incremental().unwrap(),
        FoldOutcome::Folded { files: 2, .. }
    ));
    let live = t.master_file_ids().unwrap();
    let dead = dead_presence(&t, &live);
    assert!(
        dead.is_empty(),
        "dead files {dead:?} outlived the next sweep"
    );
}
