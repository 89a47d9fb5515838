//! DualTable concurrency (readers vs EDIT-plan writers vs COMPACT) and the
//! on-disk environment roundtrip.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dt_common::{DataType, Row, Schema, Value};
use dualtable::{
    Assignment, DualTableConfig, DualTableEnv, DualTableStore, FoldOutcome, PlanMode, RatioHint,
    ShardSpec, ShardedTable,
};

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn config() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 64,
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    }
}

/// Sets its flag when dropped, by a panic too: the other side of a race
/// stops instead of spinning forever.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Scans at the latest epoch race autocommit INSERTs of three master files
/// each. A scan lists the generation under the MVCC state mutex, which a
/// commit holds while it renames its files in, so it counts every insert
/// whole or not at all. The directed real-thread test of that listing.
#[test]
fn a_scan_counts_each_multi_file_insert_whole() {
    let env = DualTableEnv::in_memory();
    let cfg = DualTableConfig {
        rows_per_file: 8,
        ..config()
    };
    let t = DualTableStore::create(&env, "t", schema(), cfg).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _stop = Stop(&done);
            for i in 0..400i64 {
                let rows = (i * 24..(i + 1) * 24).map(|k| vec![Value::Int64(k), Value::Int64(k)]);
                t.insert_rows(rows).unwrap();
            }
        });
        while !done.load(Ordering::Acquire) {
            let n = t.count().unwrap();
            assert_eq!(
                n % 24,
                0,
                "a scan counted {n} rows: part of a three-file insert"
            );
        }
    });
}

/// `v = v + 1`.
fn bump() -> [Assignment<'static>; 1] {
    [(
        1,
        Box::new(|row: &Row| Ok(Value::Int64(row[1].as_i64().unwrap() + 1))),
    )]
}

/// Runs `fold` (the compactor's tick, returning its outcome and the index
/// in `stores` of the store it ended on) on a thread of its own while this
/// thread runs `update(r)` (`v = v + 1` where `id % 8 == r`) until three
/// ticks lost their swing to an update, or 4,000 rounds. Before every
/// tick a generation directory that no generation owns is planted in each
/// of `stores` — what a failed delete leaves — so a lost race must sweep
/// it from its store at once. Checks the fold ledger, the sweep and every
/// row's value; returns the lost ticks.
fn fold_race(
    env: &DualTableEnv,
    stores: &[DualTableStore],
    update: impl Fn(i64),
    fold: impl Fn() -> (FoldOutcome, usize) + Sync,
) -> u64 {
    let (done, lost) = (AtomicBool::new(false), AtomicU64::new(0));
    let mut hits = [0i64; 8];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _stop = Stop(&done);
            let stale =
                |store: &DualTableStore| format!("/warehouse/{}/gen-9999999999/left", store.name());
            while !done.load(Ordering::Acquire) {
                for store in stores {
                    let _ = env.dfs.write_file(&stale(store), b"x");
                }
                let (outcome, i) = fold();
                if outcome == FoldOutcome::LostRace {
                    lost.fetch_add(1, Ordering::Relaxed);
                    let planted = stale(&stores[i]);
                    assert!(!env.dfs.exists(&planted), "a lost tick left {planted}");
                }
            }
        });
        let _stop = Stop(&done);
        for r in (0..8).cycle().take(4_000) {
            if lost.load(Ordering::Relaxed) >= 3 || done.load(Ordering::Acquire) {
                break;
            }
            update(r);
            hits[r as usize] += 1;
        }
    });
    let (lost, h) = (lost.into_inner(), env.health.snapshot());
    assert!(lost > 0, "no tick lost its swing in 4,000 updates");
    assert_eq!(h.compactions_lost_race, lost, "lost ticks vs the counter");
    let ended = h.compactions_completed + h.compactions_lost_race + h.compactions_aborted;
    assert_eq!(ended, h.compactions_started, "fold ledger out of balance");
    for store in stores {
        for (_, row) in store.scan_all().unwrap() {
            let id = row[0].as_i64().unwrap();
            assert_eq!(row[1], Value::Int64(hits[id as usize % 8]), "row {id}");
        }
    }
    lost
}

/// The compactor's tick racing autocommit UPDATEs of the files it folds,
/// on one store and on a range-sharded table (round-robin ticks): a tick
/// whose swing loses to a commit is a clean retry — `LostRace`, counted
/// in the store-wide and the shard's ledger, its stale generations swept
/// at once — and no update is lost or applied twice. The directed
/// real-thread test of the lost race: the soaks fold in two scheduled
/// steps, with nothing between them but the steps the model schedules.
#[test]
fn a_fold_that_loses_its_race_is_a_clean_retry() {
    let ids = (0..3).flat_map(|s| s * 100..s * 100 + 24);
    let rows: Vec<Row> = ids
        .map(|k| vec![Value::Int64(k), Value::Int64(0)])
        .collect();
    let cfg = DualTableConfig {
        rows_per_file: 8,
        ..config()
    };
    let hit = |r: i64| move |row: &Row| row[0].as_i64().unwrap() % 8 == r;

    let env = DualTableEnv::in_memory();
    let t = DualTableStore::create(&env, "t", schema(), cfg.clone()).unwrap();
    t.insert_rows(rows.clone()).unwrap();
    let update = |r| {
        t.update(hit(r), &bump(), RatioHint::Explicit(0.01))
            .unwrap();
    };
    fold_race(&env, std::slice::from_ref(&t), update, || {
        (t.compact_incremental().unwrap(), 0)
    });

    let env = DualTableEnv::in_memory();
    let spec = ShardSpec::new(0, vec![100, 200]).unwrap();
    let t = ShardedTable::create(&env, "s", schema(), cfg, spec).unwrap();
    t.insert_rows(rows).unwrap();
    let update = |r| {
        let set = bump();
        t.dml(&hit(r), Some(&set), RatioHint::Explicit(0.01), None, None)
            .unwrap();
    };
    let lost_races = || (0..t.shard_count()).map(|s| t.fold_stats(s).lost_race);
    let lost = fold_race(&env, t.shards(), update, || {
        let before: Vec<u64> = lost_races().collect();
        let outcome = t.compact_incremental().unwrap();
        let shard = lost_races().zip(&before).position(|(now, was)| now > *was);
        (outcome, shard.unwrap_or(0))
    });
    let stats: Vec<_> = (0..t.shard_count()).map(|s| t.fold_stats(s)).collect();
    for (s, f) in stats.iter().enumerate() {
        let ledger = f.folded + f.lost_race + f.clean;
        assert_eq!(f.attempted, ledger, "shard {s}: fold probes out of balance");
    }
    let shard_lost: u64 = stats.iter().map(|f| f.lost_race).sum();
    assert_eq!(shard_lost, lost, "the shards' lost races vs the ticks");
}

#[test]
fn concurrent_scans_and_edits() {
    let env = DualTableEnv::in_memory();
    let t = DualTableStore::create(&env, "t", schema(), config()).unwrap();
    t.insert_rows((0..500).map(|i| vec![Value::Int64(i), Value::Int64(0)]))
        .unwrap();

    std::thread::scope(|scope| {
        let writer = {
            let t = t.clone();
            scope.spawn(move || {
                for round in 1..=20i64 {
                    t.update(
                        move |r| r[0].as_i64().unwrap() % 20 == round % 20,
                        &[(1, Box::new(move |_| Ok(Value::Int64(round))))],
                        RatioHint::Explicit(0.05),
                    )
                    .unwrap();
                }
            })
        };
        // Concurrent scans always see 500 complete rows, and each scan is
        // one pinned read: every round — one UPDATE of the 25 ids of one
        // `id % 20` class — is whole or absent in it, and the rounds
        // present are the first k, in commit order.
        for _ in 0..15 {
            let rows = t.scan_all().unwrap();
            assert_eq!(rows.len(), 500);
            let mut landed = [0usize; 21];
            for (_, r) in &rows {
                assert_eq!(r.len(), 2);
                let (id, v) = (r[0].as_i64().unwrap(), r[1].as_i64().unwrap());
                let round = if id % 20 == 0 { 20 } else { id % 20 };
                assert!(
                    v == 0 || v == round,
                    "id {id}: v {v} from no round of its class"
                );
                landed[v as usize] += usize::from(v != 0);
            }
            let rounds = landed[1..].iter().take_while(|&&n| n == 25).count();
            assert!(
                landed[1 + rounds..].iter().all(|&n| n == 0),
                "a round torn or out of order: {landed:?}"
            );
        }
        writer.join().unwrap();
    });
    // All rounds landed.
    let rows = t.scan_all().unwrap();
    let updated = rows
        .iter()
        .filter(|(_, r)| r[1].as_i64().unwrap() > 0)
        .count();
    assert_eq!(
        updated, 500,
        "every id % 20 class was touched by some round"
    );
}

#[test]
fn compact_excludes_writers_and_keeps_readers_correct() {
    let env = DualTableEnv::in_memory();
    let t = DualTableStore::create(&env, "t", schema(), config()).unwrap();
    t.insert_rows((0..300).map(|i| vec![Value::Int64(i), Value::Int64(0)]))
        .unwrap();
    t.delete(|r| r[0].as_i64().unwrap() < 30, RatioHint::Explicit(0.1))
        .unwrap();

    std::thread::scope(|scope| {
        let compactor = {
            let t = t.clone();
            scope.spawn(move || t.compact().unwrap())
        };
        // Scans either run before or after COMPACT (it holds the write
        // lock); both views have exactly 270 rows.
        for _ in 0..10 {
            assert_eq!(t.count().unwrap(), 270);
        }
        compactor.join().unwrap();
    });
    assert_eq!(t.stats().unwrap().master_rows, 270);
}

/// Regression (REVIEW: non-repeatable read): autocommit INSERT stages
/// its master files before writing them, so a snapshot pinned anywhere
/// inside an in-flight insert must read a stable row count — never
/// "see the new rows, then lose them when the commit lands past the
/// pin". Races real `insert_rows` calls against pinned re-scans.
#[test]
fn pinned_snapshot_count_is_stable_across_racing_inserts() {
    let env = DualTableEnv::in_memory();
    let cfg = DualTableConfig {
        rows_per_file: 4, // many small files → wide write-to-commit window
        ..config()
    };
    let t = DualTableStore::create(&env, "t", schema(), cfg).unwrap();
    t.insert_rows((0..40).map(|i| vec![Value::Int64(i), Value::Int64(0)]))
        .unwrap();

    std::thread::scope(|scope| {
        let writer = {
            let t = t.clone();
            scope.spawn(move || {
                for round in 0..30i64 {
                    let base = 1000 + round * 40;
                    t.insert_rows(
                        (base..base + 40).map(|i| vec![Value::Int64(i), Value::Int64(round)]),
                    )
                    .unwrap();
                }
            })
        };
        while !writer.is_finished() {
            let snap = t.begin_snapshot().unwrap();
            let first = snap.count().unwrap();
            // Whole inserts only: autocommit INSERT commits all its
            // files at one timestamp.
            assert_eq!(first % 40, 0, "snapshot saw a torn insert");
            for _ in 0..3 {
                assert_eq!(
                    snap.count().unwrap(),
                    first,
                    "pinned snapshot re-scan must be repeatable"
                );
            }
        }
        writer.join().unwrap();
    });
    assert_eq!(t.count().unwrap(), 40 + 30 * 40);
}

#[test]
fn on_disk_environment_roundtrip() {
    let dir = std::env::temp_dir().join(format!("dt-disk-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let env = DualTableEnv::on_disk(&dir).unwrap();
        let t = DualTableStore::create(&env, "persisted", schema(), config()).unwrap();
        t.insert_rows((0..100).map(|i| vec![Value::Int64(i), Value::Int64(1)]))
            .unwrap();
        t.update(
            |r| r[0].as_i64().unwrap() == 7,
            &[(1, Box::new(|_| Ok(Value::Int64(777))))],
            RatioHint::Explicit(0.01),
        )
        .unwrap();
        let rows = t.scan_all().unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[7].1[1], Value::Int64(777));
        // Real files landed on disk for both tiers.
        assert!(std::fs::read_dir(dir.join("dfs")).unwrap().count() > 0);
        assert!(std::fs::read_dir(dir.join("kv")).unwrap().count() > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// §II-B: Hive's INSERT OVERWRITE rewrite "reads every record and a total
/// of 22 columns … to update only one column". DualTable's UNION READ with
/// a projection must touch only the projected columns' bytes.
#[test]
fn projection_cuts_master_io() {
    use dt_common::DataType;
    use dt_dfs::{Dfs, DfsConfig};
    use dt_kvstore::{KvCluster, KvConfig};
    // No block cache: `bytes_read` then counts every block each scan
    // touches, and neither scan subsidizes the other's data blocks.
    let env = DualTableEnv::new(
        Dfs::in_memory(DfsConfig {
            block_cache_bytes: 0,
            ..DfsConfig::default()
        }),
        KvCluster::in_memory(KvConfig::default()),
    )
    .unwrap();
    let fields: Vec<(String, DataType)> = (0..23)
        .map(|i| (format!("c{i:02}"), DataType::Utf8))
        .collect();
    let pairs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs);
    let t = DualTableStore::create(&env, "wide", schema, config()).unwrap();
    t.insert_rows((0..500).map(|i| {
        (0..23)
            .map(|c| Value::Utf8(format!("row{i}-col{c}-padding-padding")))
            .collect()
    }))
    .unwrap();

    // Warm the footer cache first so both measurements cover data bytes
    // only: the first scan would otherwise pay the footer parses for the
    // second.
    let _ = t.count().unwrap();
    let before = env.dfs.stats().snapshot();
    let _ = t
        .scan(&dualtable::UnionReadOptions::all().with_projection(vec![3]))
        .unwrap();
    let narrow = env.dfs.stats().snapshot().since(&before).bytes_read;

    let before = env.dfs.stats().snapshot();
    let _ = t.scan_all().unwrap();
    let wide = env.dfs.stats().snapshot().since(&before).bytes_read;

    // Compression flattens the gap (the filler strings encode tightly) and
    // footers/indexes are read either way, so require a 3x reduction.
    assert!(
        narrow * 3 < wide,
        "1-of-23-column read must cost far less I/O: narrow={narrow} wide={wide}"
    );
}
