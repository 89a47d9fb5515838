//! Model-based property test: the LSM store must behave exactly like a
//! reference `BTreeMap` under any interleaving of puts, deletes, flushes
//! and compactions, including across a crash (reopen from env).

use std::collections::BTreeMap;
use std::sync::Arc;

use dt_common::LogicalClock;
use dt_kvstore::{KvConfig, MemEnv, Store};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put { row: u8, qual: u8, val: u8 },
    DeleteCell { row: u8, qual: u8 },
    DeleteRow { row: u8 },
    Flush,
    Compact,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u8..16, 0u8..4, any::<u8>()).prop_map(|(row, qual, val)| Op::Put { row, qual, val }),
        3 => (0u8..16, 0u8..4).prop_map(|(row, qual)| Op::DeleteCell { row, qual }),
        2 => (0u8..16).prop_map(|row| Op::DeleteRow { row }),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => Just(Op::Reopen),
    ]
}

fn small_config() -> KvConfig {
    KvConfig {
        memtable_flush_bytes: 1 << 30, // flush only when the op says so
        block_size: 64,                // tiny blocks exercise boundaries
        max_sstables: 64,
        max_versions: 4,
        auto_maintenance: false,
        ..KvConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let env = Arc::new(MemEnv::new());
        let clock = LogicalClock::new();
        let mut store = Store::open(env.clone(), small_config(), clock.clone(), Arc::default()).unwrap();
        let mut model: BTreeMap<(u8, u8), u8> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Put { row, qual, val } => {
                    store.put(&[*row], &[*qual], &[*val]).unwrap();
                    model.insert((*row, *qual), *val);
                }
                Op::DeleteCell { row, qual } => {
                    store.delete_cell(&[*row], &[*qual]).unwrap();
                    model.remove(&(*row, *qual));
                }
                Op::DeleteRow { row } => {
                    store.delete_row(&[*row]).unwrap();
                    model.retain(|(r, _), _| r != row);
                }
                Op::Flush => store.flush().unwrap(),
                Op::Compact => store.compact().unwrap(),
                Op::Reopen => {
                    drop(store);
                    store = Store::open(env.clone(), small_config(), clock.clone(), Arc::default()).unwrap();
                }
            }

            // Point reads agree.
            for row in 0u8..16 {
                for qual in 0u8..4 {
                    let got = store.get(&[row], &[qual]).unwrap();
                    let want = model.get(&(row, qual)).map(|v| vec![*v]);
                    prop_assert_eq!(&got, &want, "get({}, {}) mismatch", row, qual);
                }
            }
        }

        // Final scan agrees with the model, in order.
        let rows = store.scan(None, None).unwrap().collect_rows().unwrap();
        let mut expect: BTreeMap<u8, Vec<(u8, u8)>> = BTreeMap::new();
        for ((row, qual), val) in &model {
            expect.entry(*row).or_default().push((*qual, *val));
        }
        prop_assert_eq!(rows.len(), expect.len());
        for (entry, (row, cells)) in rows.iter().zip(expect.iter()) {
            prop_assert_eq!(&entry.row, &vec![*row]);
            let got: Vec<(u8, u8)> = entry.cells.iter().map(|(q, _, v)| (q[0], v[0])).collect();
            prop_assert_eq!(&got, cells);
        }
    }

    #[test]
    fn range_scan_matches_model(
        puts in proptest::collection::vec((0u8..32, any::<u8>()), 1..64),
        lo in 0u8..32,
        hi in 0u8..32,
    ) {
        let env = Arc::new(MemEnv::new());
        let store = Store::open(env, small_config(), LogicalClock::new(), Arc::default()).unwrap();
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();
        for (row, val) in &puts {
            store.put(&[*row], b"q", &[*val]).unwrap();
            model.insert(*row, *val);
        }
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let rows = store
            .scan(Some(&[lo][..]), Some(&[hi][..]))
            .unwrap()
            .collect_rows()
            .unwrap();
        let expect: Vec<u8> = model.range(lo..hi).map(|(r, _)| *r).collect();
        let got: Vec<u8> = rows.iter().map(|r| r.row[0]).collect();
        prop_assert_eq!(got, expect);
    }
}
