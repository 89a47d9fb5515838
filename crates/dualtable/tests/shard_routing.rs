//! Range-shard routing, pruning, and maintenance fairness (DESIGN.md §16).
//!
//! Covers the sharding edge cases the design calls out explicitly:
//!
//! - keys exactly equal to a split point land in the *upper* shard
//!   (half-open `[lo, hi)` ranges);
//! - empty shards scan, count, and compact without fuss;
//! - a single-shard table is logically identical to an unsharded table
//!   over the same workload, and its master tier is byte-identical;
//! - range predicates prune non-matching shards before any I/O — a
//!   contradictory range touches zero shards and issues **zero DFS
//!   reads** (asserted via the DFS counters);
//! - one UPDATE statement can pick EDIT on one shard and OVERWRITE on
//!   another, because the cost model runs per shard;
//! - `compact_incremental` walks shards round-robin with a fairness
//!   bound of one full cycle;
//! - crash between shard-map publication and shard creation heals on
//!   `open` (an absent shard store equals a never-written shard).

use std::ops::ControlFlow;

use dt_common::{DataType, Row, Schema, Value};
use dt_orcfile::{ColumnPredicate, PredicateOp};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanChoice, PlanMode, RatioHint, ShardMap,
    ShardSpec, ShardedTable, UnionReadOptions,
};

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 8,
        plan_mode: PlanMode::CostBased,
        ..DualTableConfig::default()
    }
}

fn row(id: i64, v: i64) -> Row {
    vec![Value::Int64(id), Value::Int64(v)]
}

fn sorted_ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    ids.sort_unstable();
    ids
}

/// Every row a scatter scan under `predicates` returns, in gather order.
fn scatter(t: &ShardedTable, predicates: Option<&[ColumnPredicate]>) -> Vec<Row> {
    let opts = UnionReadOptions {
        predicates: predicates.map(<[ColumnPredicate]>::to_vec),
        ..UnionReadOptions::all()
    };
    let mut rows = Vec::new();
    t.for_each_batch(&opts, |_, batch| {
        rows.extend(batch.selected_rows());
        Ok(ControlFlow::Continue(()))
    })
    .unwrap();
    rows
}

fn pred(op: PredicateOp, v: i64) -> ColumnPredicate {
    ColumnPredicate::new(0, op, Value::Int64(v))
}

/// Keys equal to a split point route to the shard *starting* at the
/// split: ranges are half-open `[lo, hi)`.
#[test]
fn split_point_keys_route_to_upper_shard() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![10, 20]).unwrap();
    let t = ShardedTable::create(&env, "routed", schema(), cfg(), spec).unwrap();

    // One row per interesting key: below, at, and above each split.
    let keys = [0i64, 9, 10, 11, 19, 20, 21, 100];
    t.insert_rows(keys.iter().map(|&k| row(k, k * 2)).collect())
        .unwrap();

    assert_eq!(t.shard_for_key(9), 0);
    assert_eq!(t.shard_for_key(10), 1, "key == split point → upper shard");
    assert_eq!(t.shard_for_key(19), 1);
    assert_eq!(t.shard_for_key(20), 2, "key == split point → upper shard");

    let per_shard: Vec<u64> = (0..3).map(|i| t.shards()[i].count().unwrap()).collect();
    assert_eq!(per_shard, vec![2, 3, 3]);

    // Gather returns every row exactly once, in shard (= key-range) order.
    let rows = scatter(&t, None);
    assert_eq!(sorted_ids(&rows), keys.to_vec());
    let gathered: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    let mut in_order = gathered.clone();
    in_order.sort_unstable();
    assert_eq!(gathered, in_order, "shard-order gather is key-ordered here");

    // A point predicate at the split touches only the upper shard.
    let eq10 = [pred(PredicateOp::Eq, 10)];
    assert_eq!(t.shards_matching(Some(&eq10)), vec![1]);
}

/// Shards with no rows participate in every code path without errors and
/// without physical reads.
#[test]
fn empty_shards_are_harmless() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![100, 200, 300]).unwrap();
    let t = ShardedTable::create(&env, "sparse", schema(), cfg(), spec).unwrap();

    // Only shard 0 ever sees data; shards 1..3 stay empty.
    t.insert_rows((0..10).map(|k| row(k, k)).collect()).unwrap();
    assert_eq!(t.count().unwrap(), 10);
    for i in 1..4 {
        assert_eq!(t.shards()[i].count().unwrap(), 0, "shard {i} not empty");
    }

    let rows = scatter(&t, None);
    assert_eq!(rows.len(), 10);

    // DML that routes only to empty shards matches nothing.
    let report = t
        .dml(
            &|_: &Row| true,
            Some(&[(1, Box::new(|_| Ok(Value::Int64(-1))))]),
            RatioHint::Explicit(0.01),
            None,
            Some(&UnionReadOptions {
                predicates: Some(vec![pred(PredicateOp::Ge, 250)]),
                ..UnionReadOptions::all()
            }),
        )
        .unwrap();
    assert_eq!(report.rows_matched, 0);

    // Maintenance walks the empty shards without complaint.
    t.compact().unwrap();
    for _ in 0..8 {
        t.compact_incremental().unwrap();
    }
}

/// A single-shard sharded table over `(-inf, +inf)` is the degenerate
/// case: same logical content as an unsharded table under the same
/// workload, and the same master-tier bytes on disk.
#[test]
fn single_shard_matches_unsharded() {
    let env = DualTableEnv::in_memory();
    let plain = DualTableStore::create(&env, "plain", schema(), cfg()).unwrap();
    let spec = ShardSpec::new(0, Vec::new()).unwrap();
    let sharded = ShardedTable::create(&env, "one", schema(), cfg(), spec).unwrap();
    assert_eq!(sharded.shard_count(), 1);

    let batch: Vec<Row> = (0..40).map(|k| row(k, k * 7)).collect();
    plain.insert_rows(batch.clone()).unwrap();
    sharded.insert_rows(batch).unwrap();
    for t in [&plain, sharded.shards().first().unwrap()] {
        t.update(
            |r| r[0].as_i64().unwrap() % 3 == 0,
            &[(1, Box::new(|_| Ok(Value::Int64(5))))],
            RatioHint::Explicit(0.01),
        )
        .unwrap();
        t.delete(
            |r| r[0].as_i64().unwrap() % 5 == 4,
            RatioHint::Explicit(0.01),
        )
        .unwrap();
        t.compact().unwrap();
    }

    // Logical equivalence.
    let mut want: Vec<(i64, i64)> = plain
        .scan_all()
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    want.sort_unstable();
    let mut got: Vec<(i64, i64)> = scatter(&sharded, None)
        .into_iter()
        .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    got.sort_unstable();
    assert_eq!(got, want);

    // Physical equivalence: the single shard's master files carry the
    // same bytes as the unsharded table's (paths differ, content not).
    let master_bytes = |prefix: &str| -> Vec<Vec<u8>> {
        let mut files: Vec<Vec<u8>> = env
            .dfs
            .list(prefix)
            .into_iter()
            .filter(|p| !p.ends_with("__shard_map"))
            .map(|p| env.dfs.read_to_vec(&p).unwrap())
            .collect();
        files.sort();
        files
    };
    let plain_files = master_bytes("/warehouse/plain/");
    let shard_files = master_bytes("/warehouse/one__s0/");
    assert!(!plain_files.is_empty());
    assert_eq!(
        plain_files, shard_files,
        "single-shard master tier must be byte-identical to unsharded"
    );
}

/// Range predicates prune whole shards before any I/O. A contradictory
/// range prunes everything: zero rows, zero DFS reads.
#[test]
fn range_pruning_skips_shard_io() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![100, 200, 300]).unwrap();
    let t = ShardedTable::create(&env, "pruned", schema(), cfg(), spec).unwrap();
    t.insert_rows((0..400).map(|k| row(k, k)).collect())
        .unwrap();

    // Predicate covering only shard 1 ([100, 200)).
    let mid = [pred(PredicateOp::Ge, 120), pred(PredicateOp::Lt, 180)];
    assert_eq!(t.shards_matching(Some(&mid)), vec![1]);
    // File-level pushdown is stripe-granular: every matching row comes
    // back (exact filtering is the query layer's job), and shard pruning
    // guarantees nothing outside shard 1's [100, 200) range is read.
    let rows = scatter(&t, Some(&mid));
    let ids = sorted_ids(&rows);
    assert!(ids.iter().all(|&id| (100..200).contains(&id)));
    assert!((120..180).all(|k| ids.binary_search(&k).is_ok()));

    let pruned_before = env.shard_health.snapshot().shards_pruned_by_range;

    // Contradictory range: x >= 500 AND x < 0 — no shard can match.
    let none = [pred(PredicateOp::Ge, 500), pred(PredicateOp::Lt, 0)];
    assert!(t.shards_matching(Some(&none)).is_empty());
    let before = env.dfs.stats().snapshot();
    let rows = scatter(&t, Some(&none));
    let delta = env.dfs.stats().snapshot().since(&before);
    assert!(rows.is_empty());
    assert_eq!(
        delta.read_ops, 0,
        "fully pruned scatter scan must issue zero DFS reads"
    );
    assert_eq!(delta.bytes_read, 0);

    // The health tier saw all four shards pruned by that scan.
    let snap = env.shard_health.snapshot();
    assert_eq!(snap.shards_pruned_by_range, pruned_before + 4);
    assert!(snap.scatter_scans >= 2);
}

/// A shard that range pruning drops never reaches UNION READ's per-file
/// merge: a range SELECT counts a skipped attached scan for each file of
/// the matched shard and for none of the others, though every file of
/// every shard is dirty.
#[test]
fn pruned_shards_never_reach_the_file_merge() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![10, 20, 30]).unwrap();
    let config = DualTableConfig {
        plan_mode: PlanMode::AlwaysEdit,
        ..cfg()
    };
    let t = ShardedTable::create(&env, "dirty", schema(), config, spec).unwrap();
    t.insert_rows((0..40).map(|k| row(k, k)).collect()).unwrap();
    let even = |r: &Row| r[0].as_i64().unwrap() % 2 == 0;
    let set: [dualtable::Assignment<'_>; 1] = [(1, Box::new(|_| Ok(Value::Int64(-1))))];
    t.dml(&even, Some(&set), RatioHint::Explicit(0.5), None, None)
        .unwrap();
    let files = |i: usize| t.shards()[i].master_file_ids().unwrap().len() as u64;
    for (i, shard) in t.shards().iter().enumerate() {
        assert_eq!(shard.presence_index().unwrap().files.len() as u64, files(i));
    }

    // Projecting the key alone, every file reached skips its scan.
    let skipped = |predicates: Option<Vec<ColumnPredicate>>| {
        let opts = UnionReadOptions {
            predicates,
            ..UnionReadOptions::all().with_projection(vec![0])
        };
        let before = env.health.snapshot().attached_scans_skipped;
        let mut rows = 0;
        t.for_each_batch(&opts, |_, batch| {
            rows += batch.selected_len();
            Ok(ControlFlow::Continue(()))
        })
        .unwrap();
        (rows, env.health.snapshot().attached_scans_skipped - before)
    };
    let all: u64 = (0..4).map(files).sum();
    assert_eq!(skipped(None), (40, all));
    let mid = vec![pred(PredicateOp::Ge, 12), pred(PredicateOp::Lt, 18)];
    assert_eq!(t.shards_matching(Some(&mid)), vec![1]);
    let (rows, count) = skipped(Some(mid));
    assert!(rows >= 6);
    assert_eq!(count, files(1), "only the matched shard's files");
}

/// One UPDATE statement, two different plans: the shard where the
/// predicate touches every row goes OVERWRITE, the barely-touched shard
/// stays EDIT. The cost model is per shard, per range.
#[test]
fn per_shard_plans_diverge() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![1000]).unwrap();
    let t = ShardedTable::create(&env, "split_plan", schema(), cfg(), spec).unwrap();

    // Shard 0: 64 rows; shard 1: 64 rows.
    let mut rows: Vec<Row> = (0..64).map(|k| row(k, 0)).collect();
    rows.extend((1000..1064).map(|k| row(k, 0)));
    t.insert_rows(rows).unwrap();

    // Predicate: every row of shard 1, exactly one row of shard 0.
    let report = t
        .dml(
            &|r: &Row| {
                let id = r[0].as_i64().unwrap();
                id == 0 || id >= 1000
            },
            Some(&[(1, Box::new(|_| Ok(Value::Int64(9))))]),
            RatioHint::Sample,
            None,
            None,
        )
        .unwrap();
    assert_eq!(report.rows_matched, 65);
    assert_eq!(report.per_shard.len(), 2);
    let plan_of = |i: usize| {
        report
            .per_shard
            .iter()
            .find(|(s, _)| *s == i)
            .map(|(_, r)| r.plan)
            .unwrap()
    };
    assert_eq!(plan_of(0), PlanChoice::Edit, "1/64 rows → EDIT");
    assert_eq!(plan_of(1), PlanChoice::Overwrite, "64/64 rows → OVERWRITE");
    assert!(report.plan_summary().contains("EDIT"));
    assert!(report.plan_summary().contains("OVERWRITE"));
}

/// Round-robin fairness: over any window of `shard_count` consecutive
/// probes, every shard is attempted exactly once — a busy shard cannot
/// starve its siblings for more than one full cycle.
#[test]
fn incremental_compaction_is_round_robin_fair() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![100, 200]).unwrap();
    let t = ShardedTable::create(&env, "fair", schema(), cfg(), spec).unwrap();

    // Dirty every shard (deletes leave attached-tier tombstones to fold).
    t.insert_rows((0..300).map(|k| row(k, k)).collect())
        .unwrap();
    t.dml(
        &|r: &Row| r[0].as_i64().unwrap() % 2 == 0,
        None,
        RatioHint::Explicit(0.01),
        None,
        None,
    )
    .unwrap();

    // Each call probes until it finds work, so with all three shards
    // dirty, three calls must visit shard 0, 1, 2 — one attempt each.
    for _ in 0..3 {
        t.compact_incremental().unwrap();
    }
    let attempts: Vec<u64> = (0..3).map(|i| t.fold_stats(i).attempted).collect();
    assert_eq!(
        attempts,
        vec![1, 1, 1],
        "each shard probed exactly once per full cycle"
    );

    // Ledger sanity: every attempt is classified exactly once.
    for i in 0..3 {
        let s = t.fold_stats(i);
        assert_eq!(s.attempted, s.folded + s.lost_race + s.clean);
    }
}

/// A crash after the shard map is published but before every shard store
/// exists heals on `open`: missing shard stores are created empty.
#[test]
fn open_heals_partially_created_table() {
    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![50]).unwrap();

    // Simulate the create-crash window: map durable, no shards yet.
    ShardMap::save(&env, "healed", &spec).unwrap();
    let t = ShardedTable::open(&env, "healed", schema(), cfg()).unwrap();
    assert_eq!(t.shard_count(), 2);
    assert_eq!(t.count().unwrap(), 0);
    t.insert_rows(vec![row(1, 1), row(99, 2)]).unwrap();
    assert_eq!(t.shards()[0].count().unwrap(), 1);
    assert_eq!(t.shards()[1].count().unwrap(), 1);
}
