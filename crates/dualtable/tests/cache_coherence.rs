//! Cache-coherence suite for the read-acceleration layer (DESIGN.md §10).
//!
//! Every test here runs the same workload twice — once on a stack with the
//! block and footer caches enabled (the default) and once with both
//! disabled — or compares warm-cache reads against counters. Caching is an
//! optimization, never a semantic: results must be byte-identical either
//! way, and a warm cache must eliminate physical reads entirely.

use dt_common::{DataType, Row, Schema, Value};
use dt_dfs::{Dfs, DfsConfig};
use dt_kvstore::{KvCluster, KvConfig};
use dt_orcfile::{ColumnPredicate, PredicateOp, WriterOptions};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, FoldOutcome, PlanMode, RatioHint,
    UnionReadOptions,
};

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn row(i: i64) -> Row {
    vec![Value::Int64(i), Value::Int64(i * 10)]
}

fn table_cfg() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 32,
        plan_mode: PlanMode::AlwaysEdit,
        writer: WriterOptions {
            stripe_rows: 8,
            ..WriterOptions::default()
        },
        ..DualTableConfig::default()
    }
}

/// A fresh in-memory stack; `cached = false` disables the DFS block cache
/// and the table-level footer cache.
fn env_with(cached: bool) -> DualTableEnv {
    let block_cache_bytes = if cached {
        DfsConfig::default().block_cache_bytes
    } else {
        0
    };
    DualTableEnv::new(
        Dfs::in_memory(DfsConfig {
            block_cache_bytes,
            ..DfsConfig::default()
        }),
        KvCluster::in_memory(KvConfig::default()),
    )
    .unwrap()
}

fn create(env: &DualTableEnv, cached: bool) -> DualTableStore {
    let mut config = table_cfg();
    if !cached {
        config.footer_cache_entries = 0;
    }
    DualTableStore::create(env, "t", schema(), config).unwrap()
}

// ----------------------------------------------------------------------
// Acceptance: a warm repeated SELECT performs zero physical block reads.
// ----------------------------------------------------------------------

#[test]
fn warm_repeated_select_reads_no_blocks() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..128).map(row)).unwrap();

    let cold = t.scan_all().unwrap();
    assert_eq!(cold.len(), 128);
    let after_cold = env.dfs.stats().snapshot();
    assert!(after_cold.cache_misses > 0, "cold scan fetches blocks");

    for _ in 0..3 {
        let warm = t.scan_all().unwrap();
        assert_eq!(warm, cold);
    }
    // `cache_misses` counts physical block-store fetches; `bytes_read`
    // counts logical bytes served and keeps growing on hits.
    let after_warm = env.dfs.stats().snapshot().since(&after_cold);
    assert_eq!(
        after_warm.cache_misses, 0,
        "warm scans must perform zero block-store reads beyond the first scan"
    );
    assert!(
        after_warm.cache_hits > 0,
        "warm scans were served by the cache"
    );
}

#[test]
fn warm_hit_rate_exceeds_ninety_percent() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..256).map(row)).unwrap();
    t.scan_all().unwrap(); // warm
    for _ in 0..19 {
        t.scan_all().unwrap();
    }
    let snap = env.dfs.stats().snapshot();
    let total = snap.cache_hits + snap.cache_misses;
    assert!(
        snap.cache_hits * 100 > total * 90,
        "warm hit rate too low: {} hits / {} accesses",
        snap.cache_hits,
        total
    );
}

// ----------------------------------------------------------------------
// Coherence: cache on vs cache off is byte-identical through DML loops.
// ----------------------------------------------------------------------

/// Runs `step` against both stacks `rounds` times, comparing full scans
/// after every round.
fn assert_coherent(rounds: usize, mut step: impl FnMut(&DualTableStore, usize)) {
    let env_on = env_with(true);
    let env_off = env_with(false);
    let on = create(&env_on, true);
    let off = create(&env_off, false);
    for t in [&on, &off] {
        t.insert_rows((0..96).map(row)).unwrap();
    }
    for round in 0..rounds {
        step(&on, round);
        step(&off, round);
        assert_eq!(
            on.scan_all().unwrap(),
            off.scan_all().unwrap(),
            "cached and uncached stacks diverged in round {round}"
        );
        assert_eq!(on.count().unwrap(), off.count().unwrap());
    }
    // The cached stack actually cached something.
    assert!(env_on.dfs.stats().snapshot().cache_hits > 0);
    assert_eq!(env_off.dfs.stats().snapshot().cache_hits, 0);
}

#[test]
fn update_compact_select_loop_is_cache_transparent() {
    assert_coherent(4, |t, round| {
        t.update(
            move |r| r[0].as_i64().unwrap() % 4 == round as i64 % 4,
            &[(
                1,
                Box::new(move |r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap() + round as i64))),
            )],
            RatioHint::Explicit(0.25),
        )
        .unwrap();
        if round % 2 == 1 {
            t.compact().unwrap();
        }
    });
}

#[test]
fn overwrite_select_loop_is_cache_transparent() {
    assert_coherent(3, |t, round| {
        let base = (round as i64 + 1) * 1000;
        t.insert_overwrite((base..base + 64).map(row)).unwrap();
    });
}

// ----------------------------------------------------------------------
// Acceptance: per-file predicate push-down with updates elsewhere.
// ----------------------------------------------------------------------

/// Two master files of 32 rows (4 stripes of 8 each). Updates touch only
/// the predicate column of file 2, so file 1 keeps full push-down: a
/// predicate selecting file 1's first stripe must prune file 1 down to 8
/// rows while file 2 — where push-down is withheld — surfaces all 32.
/// Before the presence index, one update cell anywhere disabled push-down
/// everywhere and this scan surfaced all 64 rows.
#[test]
fn pushdown_prunes_stripes_per_file_with_updates_elsewhere() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..64).map(row)).unwrap();
    let file_ids = t.master_file_ids().unwrap();
    assert_eq!(file_ids.len(), 2);

    // Update column 0 (the predicate column) in the second file only.
    t.update(
        |r| r[0].as_i64().unwrap() >= 56,
        &[(
            0,
            Box::new(|r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap() + 1000))),
        )],
        RatioHint::Explicit(0.125),
    )
    .unwrap();

    let index = t.presence_index().unwrap();
    assert!(!index.is_dirty(file_ids[0]), "file 1 is clean");
    assert!(index.is_dirty(file_ids[1]), "file 2 holds the overlays");
    assert!(index.file(file_ids[1]).unwrap().has_update_on(0));

    let mut opts = UnionReadOptions::all();
    opts.predicates = Some(vec![ColumnPredicate {
        column: 0,
        op: PredicateOp::Lt,
        literal: Value::Int64(8),
    }]);
    let rows = t.scan(&opts).unwrap();
    // File 1: stripes 2-4 pruned by statistics, stripe 1 surfaces rows
    // 0..8. File 2: no push-down, all 32 rows surface (stripe-skipping
    // predicates are not row filters).
    assert_eq!(rows.len(), 8 + 32, "per-file pruning must apply");
    let ids: Vec<i64> = rows.iter().map(|(_, r)| r[0].as_i64().unwrap()).collect();
    assert_eq!(&ids[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
    assert!(
        ids[8..].iter().all(|&id| id >= 32),
        "rest comes from file 2"
    );
    assert!(
        ids.iter().any(|&id| id >= 1000),
        "overlay visible in file 2"
    );

    // A predicate on the *unmodified* column keeps push-down even in the
    // dirty file.
    let mut opts = UnionReadOptions::all();
    opts.predicates = Some(vec![ColumnPredicate {
        column: 1,
        op: PredicateOp::Lt,
        literal: Value::Int64(80),
    }]);
    let rows = t.scan(&opts).unwrap();
    assert_eq!(rows.len(), 8, "both files prune on the clean column");
}

/// A file with only delete markers keeps full push-down (markers can only
/// hide rows, never move one into a pruned stripe's range).
#[test]
fn delete_markers_do_not_block_pushdown() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..32).map(row)).unwrap();
    t.delete(|r| r[0].as_i64().unwrap() == 20, RatioHint::Explicit(0.04))
        .unwrap();

    let index = t.presence_index().unwrap();
    let file_id = t.master_file_ids().unwrap()[0];
    assert!(index.is_dirty(file_id));
    assert!(!index.file(file_id).unwrap().has_update_on(0));

    let mut opts = UnionReadOptions::all();
    opts.predicates = Some(vec![ColumnPredicate {
        column: 0,
        op: PredicateOp::Lt,
        literal: Value::Int64(8),
    }]);
    let rows = t.scan(&opts).unwrap();
    assert_eq!(rows.len(), 8, "stripes 2-4 pruned despite delete markers");
}

// ----------------------------------------------------------------------
// Satellite 1: stats() and opens are served from the footer cache.
// ----------------------------------------------------------------------

#[test]
fn footer_parsed_once_per_file_per_process() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..128).map(row)).unwrap();
    let files = t.master_file_ids().unwrap().len() as u64;
    assert_eq!(files, 4);

    for _ in 0..3 {
        let stats = t.stats().unwrap();
        assert_eq!(stats.master_rows, 128);
    }
    t.scan_all().unwrap();
    t.count().unwrap();

    let fc = t.footer_cache_stats();
    assert_eq!(
        fc.misses, files,
        "each master footer must be parsed exactly once per process"
    );
    assert!(
        fc.hits >= 3 * files,
        "everything else was served from cache"
    );
}

// ----------------------------------------------------------------------
// Attached-scan skipping: clean files bypass the KV tier entirely.
// ----------------------------------------------------------------------

#[test]
fn clean_files_skip_attached_scans() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..128).map(row)).unwrap(); // 4 files
    t.update(
        |r| r[0].as_i64().unwrap() == 33,
        &[(1, Box::new(|_| Ok(Value::Int64(0))))],
        RatioHint::Explicit(0.01),
    )
    .unwrap();

    let before = env.health.snapshot();
    t.scan_all().unwrap();
    let skipped = env.health.snapshot().attached_scans_skipped - before.attached_scans_skipped;
    assert_eq!(skipped, 3, "three of four files are clean");
}

/// Attached scans skipped by one `count()`.
fn skipped_by_count(env: &DualTableEnv, t: &DualTableStore) -> u64 {
    let before = env.health.snapshot().attached_scans_skipped;
    t.count().unwrap();
    env.health.snapshot().attached_scans_skipped - before
}

/// Regression: an attached table holding tombstones but no index rows used
/// to read as "data from before the index existed" — every scan paid one
/// attached scan per master file and lost push-down until the next EDIT.
/// An incremental fold that retires the last dirty file's rows gets there;
/// an insert-only transaction must leave every file clean too.
#[test]
fn tombstones_without_index_rows_still_skip_attached_scans() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..128).map(row)).unwrap(); // 4 files
    t.update(
        |r| r[0].as_i64().unwrap() == 33,
        &[(1, Box::new(|_| Ok(Value::Int64(0))))],
        RatioHint::Explicit(0.01),
    )
    .unwrap();
    while t.compact_incremental().unwrap() != FoldOutcome::Clean {}
    assert!(t.presence_index().unwrap().files.is_empty());
    assert_eq!(skipped_by_count(&env, &t), 4, "every file is clean");

    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..64).map(row)).unwrap(); // 2 files
    let mut txn = t.begin_transaction().unwrap();
    txn.insert(vec![row(1000)]).unwrap();
    txn.commit().unwrap();
    assert_eq!(skipped_by_count(&env, &t), 3, "every file is clean");
}

// ----------------------------------------------------------------------
// Pruned and unprojected dirty files: a read pays only for the stripes
// and columns it reads.
// ----------------------------------------------------------------------

/// A grid-shaped table: meter `zdjh` (never updated), day `rq`, `status`.
fn grid(
    env: &DualTableEnv,
    name: &str,
    rows_per_file: usize,
    stripe_rows: usize,
) -> DualTableStore {
    let schema = Schema::from_pairs(&[
        ("zdjh", DataType::Int64),
        ("rq", DataType::Int64),
        ("status", DataType::Int64),
    ]);
    let config = DualTableConfig {
        rows_per_file,
        writer: WriterOptions {
            stripe_rows,
            ..WriterOptions::default()
        },
        ..table_cfg()
    };
    DualTableStore::create(env, name, schema, config).unwrap()
}

fn grid_row(i: i64) -> Row {
    vec![Value::Int64(i), Value::Int64(i % 7), Value::Int64(0)]
}

/// Sets `status` on the rows whose `zdjh` `hit` picks.
fn set_status(t: &DualTableStore, hit: impl Fn(i64) -> bool + Sync) {
    t.update(
        |r| hit(r[0].as_i64().unwrap()),
        &[(
            2,
            Box::new(|r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap() + 100))),
        )],
        RatioHint::Explicit(0.01),
    )
    .unwrap();
}

/// The range `lo <= zdjh < hi`.
fn zdjh_range(lo: i64, hi: i64) -> Vec<ColumnPredicate> {
    vec![
        ColumnPredicate::new(0, PredicateOp::Ge, Value::Int64(lo)),
        ColumnPredicate::new(0, PredicateOp::Lt, Value::Int64(hi)),
    ]
}

/// Scans `t` under `opts`, returning the rows and the attached scans the
/// read skipped; the rows must equal the unpruned, fully projected scan,
/// projected and filtered by the predicates (each range here ends on a
/// stripe boundary, so the stripes a scan reads hold no other row).
fn scan_pruned(env: &DualTableEnv, t: &DualTableStore, opts: &UnionReadOptions) -> (Vec<Row>, u64) {
    let before = env.health.snapshot().attached_scans_skipped;
    let got: Vec<Row> = t.scan(opts).unwrap().into_iter().map(|(_, r)| r).collect();
    let skipped = env.health.snapshot().attached_scans_skipped - before;
    let predicates = opts.predicates.as_deref().unwrap_or(&[]);
    let expect: Vec<Row> = t
        .scan_all()
        .unwrap()
        .into_iter()
        .map(|(_, full)| full)
        .filter(|full| {
            predicates.iter().all(|p| {
                let k = full[p.column].as_i64().unwrap();
                let lit = p.literal.as_i64().unwrap();
                match p.op {
                    PredicateOp::Ge => k >= lit,
                    PredicateOp::Lt => k < lit,
                    _ => unreachable!("only ranges here"),
                }
            })
        })
        .map(|full| match &opts.projection {
            Some(p) => p.iter().map(|&c| full[c].clone()).collect(),
            None => full,
        })
        .collect();
    assert_eq!(got, expect, "scan under {opts:?}");
    (got, skipped)
}

/// Dirty files whose only cells are `status` overlays cost a read that
/// prunes them, or does not project `status`, no attached scan; a file
/// with delete markers is still scanned, and its rows still drop.
#[test]
fn pruned_or_unprojected_dirty_files_skip_attached_scans() {
    let env = env_with(true);
    let t = grid(&env, "g", 16, 16);
    t.insert_rows((0..96).map(grid_row)).unwrap(); // six one-stripe files
    let files = t.master_file_ids().unwrap().len() as u64;
    assert_eq!(files, 6);
    set_status(&t, |k| k < 64 && k % 2 == 0); // the first four files
    let index = t.presence_index().unwrap();
    assert_eq!(index.files.len(), 4);
    assert!(index
        .files
        .values()
        .all(|p| p.has_update_on(2) && !p.has_update_on(0)));

    // A `zdjh` range SELECT of a clean file: every dirty file is pruned.
    let clean = UnionReadOptions {
        predicates: Some(zdjh_range(80, 96)),
        ..UnionReadOptions::all()
    };
    let (rows, skipped) = scan_pruned(&env, &t, &clean);
    assert_eq!(rows.len(), 16);
    assert_eq!(skipped, files, "clean or pruned: no attached scan");

    // The same range over a dirty file scans that one file only.
    let dirty = UnionReadOptions {
        predicates: Some(zdjh_range(16, 32)),
        ..UnionReadOptions::all()
    };
    let (rows, skipped) = scan_pruned(&env, &t, &dirty);
    assert_eq!(rows[0][2], Value::Int64(116), "the overlay is read");
    assert_eq!(skipped, files - 1);

    // No `status` in the projection: nothing to patch in, no scan.
    let narrow = UnionReadOptions::all().with_projection(vec![1, 0]);
    assert_eq!(scan_pruned(&env, &t, &narrow).1, files);
    assert_eq!(
        skipped_by_count(&env, &t),
        files,
        "overlays change no count"
    );

    // A delete marker drops a row of any read: its file is scanned.
    t.delete(|r| r[0].as_i64().unwrap() == 21, RatioHint::Explicit(0.01))
        .unwrap();
    let keys = UnionReadOptions::all().with_projection(vec![0]);
    let (rows, skipped) = scan_pruned(&env, &t, &keys);
    assert_eq!(skipped, files - 1);
    assert_eq!(rows.len(), 95);
    assert!(
        !rows.contains(&vec![Value::Int64(21)]),
        "the deleted row drops"
    );
    assert_eq!(skipped_by_count(&env, &t), files - 1);
    assert_eq!(t.count().unwrap(), 95);
}

/// A three-stripe file whose middle stripe alone survives a range gets
/// exactly that stripe's overlays — the first and last of its rows
/// included — from a scan bounded to the stripe's rows.
#[test]
fn a_surviving_middle_stripe_gets_exactly_its_overlays() {
    let env = env_with(true);
    let t = grid(&env, "g3", 48, 16);
    t.insert_rows((0..48).map(grid_row)).unwrap(); // one file, three stripes
    set_status(&t, |k| [0, 15, 16, 20, 31, 32, 47].contains(&k));

    let overlays: Vec<Value> = (16..32)
        .map(|k| {
            Value::Int64(if [16, 20, 31].contains(&k) {
                k + 100
            } else {
                0
            })
        })
        .collect();
    for (projection, status) in [(None, 2), (Some(vec![2, 0]), 0)] {
        let middle = UnionReadOptions {
            projection,
            predicates: Some(zdjh_range(16, 32)),
            ..UnionReadOptions::all()
        };
        let (rows, skipped) = scan_pruned(&env, &t, &middle);
        assert_eq!(skipped, 0, "the surviving stripe is scanned");
        let got: Vec<Value> = rows.iter().map(|r| r[status].clone()).collect();
        assert_eq!(got, overlays);
    }

    // A range that no stripe survives opens no scan at all.
    let none = UnionReadOptions {
        predicates: Some(zdjh_range(60, 70)),
        ..UnionReadOptions::all()
    };
    let (rows, skipped) = scan_pruned(&env, &t, &none);
    assert!(rows.is_empty());
    assert_eq!(skipped, 1);
}

// ----------------------------------------------------------------------
// Restart coherence: caches never resurrect pre-crash state.
// ----------------------------------------------------------------------

#[test]
fn crash_and_reopen_purges_all_cache_tiers() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..64).map(row)).unwrap();
    let expected = t.scan_all().unwrap(); // warm both caches
    assert!(env.dfs.block_cache_entries() > 0);

    env.crash_and_reopen().unwrap();
    assert_eq!(
        env.dfs.block_cache_entries(),
        0,
        "restart must purge the block cache"
    );

    // Reads after recovery re-fetch from durable state (the reopened
    // table's footer cache starts empty, and the epoch bump would have
    // invalidated any surviving one).
    let t = DualTableStore::open(&env, "t", schema(), table_cfg()).unwrap();
    assert_eq!(t.scan_all().unwrap(), expected);
    assert_eq!(
        t.footer_cache_stats().misses,
        2,
        "both footers re-parsed after the restart"
    );
}

// ----------------------------------------------------------------------
// MVCC sessions: caches stay coherent across concurrent snapshots,
// commits and generation swings (DESIGN.md §13).
// ----------------------------------------------------------------------

/// A reader pinned on generation E must keep being served from the warm
/// block and footer caches while another session commits an EDIT and
/// swings a COMPACT to generation E+1: per-path invalidation means the
/// swing touches nothing the pinned reader needs. Only the *new*
/// generation's footers are parsed for latest-state reads, and the
/// deferred GC that runs when the pin drops must not evict them.
#[test]
fn pinned_reader_stays_warm_across_concurrent_swing() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..128).map(row)).unwrap(); // 4 master files in gen E

    let snap = t.begin_snapshot().unwrap();
    let expected = snap.scan_all().unwrap(); // warms both cache tiers
    let fc0 = t.footer_cache_stats();
    let dfs0 = env.dfs.stats().snapshot();

    // A concurrent session commits an EDIT, then swings a COMPACT.
    let writer = t.clone();
    writer
        .update(
            |r| r[0].as_i64().unwrap() == 7,
            &[(1, Box::new(|_| Ok(Value::Int64(-7))))],
            RatioHint::Explicit(0.01),
        )
        .unwrap();
    writer.begin_compact().unwrap().finish().unwrap();
    assert_eq!(t.retired_generations(), 1, "old generation pinned, not GCd");

    // The pinned reader re-scans: byte-identical, and served entirely
    // from the caches warmed before the swing — zero new footer parses,
    // zero physical block fetches.
    let fc1 = t.footer_cache_stats();
    let dfs1 = env.dfs.stats().snapshot();
    for _ in 0..3 {
        assert_eq!(snap.scan_all().unwrap(), expected);
    }
    let fc2 = t.footer_cache_stats();
    let dfs2 = env.dfs.stats().snapshot().since(&dfs1);
    assert_eq!(
        fc2.misses, fc1.misses,
        "pinned re-scan after the swing re-parsed a footer"
    );
    assert_eq!(
        dfs2.cache_misses, 0,
        "pinned re-scan after the swing fetched blocks"
    );
    assert!(fc1.misses >= fc0.misses, "counters are monotonic");
    let _ = dfs0;

    // Latest-state reads parse exactly the new generation's footers.
    let latest = t.scan_all().unwrap();
    assert_eq!(latest.len(), 128);
    assert!(latest.iter().any(|(_, r)| r[1].as_i64().unwrap() == -7));
    let new_files = t.master_file_ids().unwrap().len() as u64;
    let fc3 = t.footer_cache_stats();
    assert_eq!(
        fc3.misses - fc2.misses,
        new_files,
        "each new-generation footer parsed exactly once"
    );

    // Dropping the pin sweeps generation E; its per-path invalidation
    // must leave the new generation's cached footers untouched.
    drop(snap);
    assert_eq!(t.retired_generations(), 0, "drained pin triggers the sweep");
    assert_eq!(t.scan_all().unwrap(), latest);
    let fc4 = t.footer_cache_stats();
    assert_eq!(
        fc4.misses, fc3.misses,
        "GC of the old generation evicted new-generation footers"
    );
}

// ----------------------------------------------------------------------
// Delta (HTAP) tier: routing through the WAL-backed shadow runs is an
// optimization, never a semantic (DESIGN.md §17). Scans must be
// byte-identical with the tier on or off, across every scan variant.
// ----------------------------------------------------------------------

fn delta_cfg(delta_bytes: usize) -> DualTableConfig {
    DualTableConfig {
        delta_bytes,
        ..table_cfg()
    }
}

/// Runs the same EDIT-heavy workload on a delta-on and a delta-off stack,
/// comparing plain, predicated and projected scans after every round. `budget` small enough forces mid-workload spills, so the
/// comparison covers entries in the shadow runs *and* entries migrated
/// into the LSM.
fn assert_delta_coherent(budget: usize) {
    let env_on = env_with(true);
    let env_off = env_with(true);
    let on = DualTableStore::create(&env_on, "t", schema(), delta_cfg(budget)).unwrap();
    let off = DualTableStore::create(&env_off, "t", schema(), delta_cfg(0)).unwrap();
    for t in [&on, &off] {
        t.insert_rows((0..160).map(row)).unwrap();
    }
    for round in 0..4i64 {
        for t in [&on, &off] {
            t.update(
                move |r| r[0].as_i64().unwrap() % 4 == round % 4,
                &[(
                    1,
                    Box::new(move |r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap() * 100 + round))),
                )],
                RatioHint::Explicit(0.25),
            )
            .unwrap();
            t.delete(
                move |r| r[0].as_i64().unwrap() == 150 + round,
                RatioHint::Explicit(0.01),
            )
            .unwrap();
        }
        let mut opts = UnionReadOptions::all();
        opts.predicates = Some(vec![ColumnPredicate {
            column: 0,
            op: PredicateOp::Lt,
            literal: Value::Int64(120),
        }]);
        for o in [UnionReadOptions::all(), opts] {
            let expected = off.scan(&o).unwrap();
            assert_eq!(
                on.scan(&o).unwrap(),
                expected,
                "delta-on scan diverged in round {round}"
            );
            let p = o.clone().with_projection(vec![1]);
            assert_eq!(
                on.scan(&p).unwrap(),
                off.scan(&p).unwrap(),
                "projected delta-on scan diverged in round {round}"
            );
        }
        assert_eq!(on.count().unwrap(), off.count().unwrap());
    }
    assert_eq!(off.delta_bytes_used().unwrap(), 0, "delta-off stays empty");
}

/// Large budget: every EDIT cell stays resident in the shadow runs — the
/// merge cursor itself must be coherent.
#[test]
fn delta_resident_scans_match_delta_off() {
    assert_delta_coherent(1 << 20);
}

/// Tiny budget: the workload spills repeatedly, so scans see a mix of
/// shadow-resident and LSM-migrated entries. Spilling must be invisible.
#[test]
fn delta_spilling_scans_match_delta_off() {
    assert_delta_coherent(256);
}

/// The tier actually engages (bytes accounted, spill drains them), and an
/// explicit spill is a read no-op.
#[test]
fn delta_tier_engages_and_explicit_spill_is_a_read_noop() {
    let env = env_with(true);
    let t = DualTableStore::create(&env, "t", schema(), delta_cfg(1 << 20)).unwrap();
    t.insert_rows((0..96).map(row)).unwrap();
    t.update(
        |r| r[0].as_i64().unwrap() < 48,
        &[(1, Box::new(|_| Ok(Value::Int64(-1))))],
        RatioHint::Explicit(0.5),
    )
    .unwrap();
    assert!(
        t.delta_bytes_used().unwrap() > 0,
        "EDIT cells must land in the delta tier"
    );
    let before = t.scan_all().unwrap();
    let spilled = t.spill_delta().unwrap();
    assert!(spilled > 0, "spill must migrate the resident entries");
    assert_eq!(t.delta_bytes_used().unwrap(), 0);
    assert_eq!(t.scan_all().unwrap(), before, "spill is a visibility no-op");
}

/// Scatter-gather over a sharded table with the delta tier enabled on
/// every shard matches the delta-off sharded scan exactly: the shadow
/// stream threads through the same projection/predicate path as the
/// attached scan in every fan-out variant.
#[test]
fn delta_sharded_scatter_matches_delta_off() {
    use dualtable::{ShardSpec, ShardedTable};
    use std::ops::ControlFlow;

    let spec = || ShardSpec::new(0, vec![40, 80]).unwrap();
    let env_on = env_with(true);
    let env_off = env_with(true);
    let on = ShardedTable::create(&env_on, "s", schema(), delta_cfg(1 << 20), spec()).unwrap();
    let off = ShardedTable::create(&env_off, "s", schema(), delta_cfg(0), spec()).unwrap();
    for t in [&on, &off] {
        t.insert_rows((0..120).map(row).collect()).unwrap();
        t.dml(
            &|r: &Row| r[0].as_i64().unwrap() % 3 == 0,
            Some(&[(
                1,
                Box::new(|r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap()))),
            )]),
            RatioHint::Explicit(0.34),
            None,
            None,
        )
        .unwrap();
        t.dml(
            &|r: &Row| r[0].as_i64().unwrap() == 77,
            None,
            RatioHint::Explicit(0.01),
            None,
            None,
        )
        .unwrap();
    }
    assert!(
        on.shards()
            .iter()
            .any(|s| s.delta_bytes_used().unwrap() > 0),
        "at least one shard holds resident delta entries"
    );
    let scatter = |t: &ShardedTable, opts: &UnionReadOptions| -> Vec<Row> {
        let mut rows = Vec::new();
        t.for_each_batch(opts, |_, batch| {
            rows.extend(batch.selected_rows());
            Ok(ControlFlow::Continue(()))
        })
        .unwrap();
        rows
    };
    let all = UnionReadOptions::all();
    assert_eq!(
        scatter(&on, &all),
        scatter(&off, &all),
        "delta-on scatter diverged from delta-off"
    );
    // Range-pruned + projected scatter stays coherent too.
    let preds = vec![
        ColumnPredicate {
            column: 0,
            op: PredicateOp::Ge,
            literal: Value::Int64(30),
        },
        ColumnPredicate {
            column: 0,
            op: PredicateOp::Lt,
            literal: Value::Int64(90),
        },
    ];
    let narrow = UnionReadOptions {
        predicates: Some(preds),
        ..UnionReadOptions::all().with_projection(vec![1])
    };
    assert_eq!(
        scatter(&on, &narrow),
        scatter(&off, &narrow),
        "range-pruned delta-on scatter diverged"
    );
}

/// Presence-index push-down must stay snapshot-scoped: a session that
/// dirties a file's predicate column after a reader pinned may widen the
/// set of stripes the pinned scan surfaces (push-down is withheld for
/// dirty files), but every surfaced row must still carry pin-time bytes.
/// The fresh autocommit scan sees the new reality immediately.
#[test]
fn pinned_predicate_scan_sees_pin_time_values_under_concurrent_dirtying() {
    let env = env_with(true);
    let t = create(&env, true);
    t.insert_rows((0..64).map(row)).unwrap(); // 2 files, both clean
    let pred = || {
        let mut opts = UnionReadOptions::all();
        opts.predicates = Some(vec![ColumnPredicate {
            column: 0,
            op: PredicateOp::Lt,
            literal: Value::Int64(8),
        }]);
        opts
    };

    let snap = t.begin_snapshot().unwrap();
    let at_pin = snap.scan(&pred()).unwrap();
    assert_eq!(at_pin.len(), 8, "clean files: full push-down");

    // A concurrent session dirties file 2's predicate column.
    t.update(
        |r| r[0].as_i64().unwrap() >= 56,
        &[(
            0,
            Box::new(|r: &Row| Ok(Value::Int64(r[0].as_i64().unwrap() + 1000))),
        )],
        RatioHint::Explicit(0.125),
    )
    .unwrap();

    // The pinned scan may surface more rows now (file 2 lost push-down),
    // but none of them may show the post-pin update: the overlay cells
    // are newer than the pin and must be filtered out.
    let pinned = snap.scan(&pred()).unwrap();
    assert!(
        pinned.iter().all(|(_, r)| r[0].as_i64().unwrap() < 1000),
        "pinned scan surfaced a post-pin overlay value"
    );
    let matching: Vec<_> = pinned
        .iter()
        .filter(|(_, r)| r[0].as_i64().unwrap() < 8)
        .cloned()
        .collect();
    assert_eq!(matching, at_pin, "pin-time predicate rows are byte-stable");

    // The autocommit scan sees the dirty file immediately: push-down is
    // withheld there and the updated ids surface.
    let fresh = t.scan(&pred()).unwrap();
    assert!(
        fresh.iter().any(|(_, r)| r[0].as_i64().unwrap() >= 1000),
        "latest scan must see the committed update"
    );
    let index = t.presence_index().unwrap();
    let files = t.master_file_ids().unwrap();
    assert!(!index.is_dirty(files[0]));
    assert!(index.file(files[1]).unwrap().has_update_on(0));
}
