//! Concurrency tests: the store must stay consistent under concurrent
//! writers, readers and maintenance.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dt_common::LogicalClock;
use dt_kvstore::{KvConfig, MemEnv, Store};

fn store(auto: bool) -> Store {
    Store::open(
        Arc::new(MemEnv::new()),
        KvConfig {
            memtable_flush_bytes: 2048,
            block_size: 256,
            max_sstables: 4,
            max_versions: 2,
            auto_maintenance: auto,
            ..KvConfig::default()
        },
        LogicalClock::new(),
        Arc::default(),
    )
    .unwrap()
}

#[test]
fn concurrent_writers_disjoint_keys() {
    let s = store(true);
    std::thread::scope(|scope| {
        for w in 0u8..4 {
            let s = s.clone();
            scope.spawn(move || {
                for i in 0u32..200 {
                    let key = [w, (i >> 8) as u8, i as u8];
                    s.put(&key, b"q", &i.to_be_bytes()).unwrap();
                }
            });
        }
    });
    for w in 0u8..4 {
        for i in 0u32..200 {
            let key = [w, (i >> 8) as u8, i as u8];
            assert_eq!(
                s.get(&key, b"q").unwrap().unwrap(),
                i.to_be_bytes(),
                "writer {w} key {i}"
            );
        }
    }
    let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
    assert_eq!(rows.len(), 800);
}

#[test]
fn readers_run_while_writers_write() {
    let s = store(true);
    for i in 0u32..100 {
        s.put(&i.to_be_bytes(), b"q", b"base").unwrap();
    }
    std::thread::scope(|scope| {
        let writer = {
            let s = s.clone();
            scope.spawn(move || {
                for i in 100u32..400 {
                    s.put(&i.to_be_bytes(), b"q", b"new").unwrap();
                }
            })
        };
        // Concurrent scans: each must see a consistent prefix — at least
        // the 100 base rows, never a torn row.
        for _ in 0..20 {
            let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
            assert!(rows.len() >= 100);
            for r in &rows {
                assert_eq!(r.cells.len(), 1);
                assert!(r.cells[0].2 == b"base" || r.cells[0].2 == b"new");
            }
        }
        writer.join().unwrap();
    });
    assert_eq!(
        s.scan(None, None).unwrap().collect_rows().unwrap().len(),
        400
    );
}

/// Scans racing a flush see every row: the flush parks the drained
/// memtable where reads find it until the SSTable that holds it is
/// published. The directed real-thread test of the drain→publish window.
#[test]
fn scans_racing_a_flush_see_every_row() {
    for round in 0..300 {
        let s = store(false);
        for i in 0u32..64 {
            s.put(&i.to_be_bytes(), b"q", b"v").unwrap();
        }
        let flushed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.flush().unwrap();
                flushed.store(true, Ordering::Release);
            });
            while !flushed.load(Ordering::Acquire) {
                let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
                assert_eq!(rows.len(), 64, "round {round}: a scan lost rows mid-flush");
            }
        });
    }
}

#[test]
fn compaction_races_with_reads() {
    let s = store(false);
    for i in 0u32..500 {
        s.put(&i.to_be_bytes(), b"q", &i.to_le_bytes()).unwrap();
        if i % 100 == 99 {
            s.flush().unwrap();
        }
    }
    std::thread::scope(|scope| {
        let compactor = {
            let s = s.clone();
            scope.spawn(move || {
                s.compact().unwrap();
            })
        };
        for _ in 0..10 {
            let rows = s.scan(None, None).unwrap().collect_rows().unwrap();
            assert_eq!(rows.len(), 500, "reads during compaction see all rows");
        }
        compactor.join().unwrap();
    });
    assert_eq!(s.sstable_count(), 1);
}
