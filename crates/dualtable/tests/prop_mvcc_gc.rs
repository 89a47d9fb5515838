//! Property test: generation GC under any interleaving of snapshot pins,
//! unpins, EDIT commits and two-phase generation swings (DESIGN.md §13).
//!
//! Two safety properties, checked after every operation at the public API
//! level:
//!
//! 1. **Never drop a pinned generation** — every live [`Snapshot`] must
//!    keep returning its pin-time bytes, no matter how many swings have
//!    retired its generation since. (A deleted master file or a pruned
//!    visibility record would surface as missing or phantom rows.)
//! 2. **Never leak dead generations past the budget** — the number of
//!    `gen-` directories holding files is at most
//!    `1 (current) + retired (pin-protected) + max_generations (dead
//!    budget)`. Abandoned builds must not count against anything: their
//!    directories disappear on abandon.
//!
//! `max_generations` itself is part of the generated input, so the budget
//! is exercised at 0 (sweep eagerly) through 2 (tolerate leaks).

use std::collections::BTreeMap;

use dt_common::{DataType, RecordId, Row, Schema, Value};
use dualtable::{DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, Snapshot};
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

fn config(max_generations: usize) -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 8,
        plan_mode: PlanMode::AlwaysEdit,
        max_generations,
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
        max_generations in 0usize..3,
        ops in proptest::collection::vec(arb_op(), 1..28),
    ) {
        let env = DualTableEnv::in_memory();
        let table =
            DualTableStore::create(&env, TABLE, schema(), config(max_generations)).unwrap();
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

            // Property 2: at most current + pin-protected + dead budget
            // generation directories survive on disk. Abandoned builds
            // must not linger.
            let dirs = gen_dirs(&env);
            let budget = 1 + table.retired_generations() + max_generations;
            prop_assert!(
                dirs.len() <= budget,
                "{} generation dirs on disk exceed budget {budget} \
                 (retired {}, max_generations {max_generations}): {dirs:?}",
                dirs.len(),
                table.retired_generations()
            );

            // Latest-state reads stay correct throughout.
            prop_assert_eq!(
                sorted_pairs(&table.scan_all().unwrap()),
                model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
            );
        }

        // Drain every pin: the deferred ledger must empty and the disk
        // must shrink to the current generation plus the dead budget.
        pins.clear();
        prop_assert_eq!(table.pinned_snapshots(), 0);
        prop_assert_eq!(table.retired_generations(), 0);
        prop_assert!(gen_dirs(&env).len() <= 1 + max_generations);
        prop_assert_eq!(
            sorted_pairs(&table.scan_all().unwrap()),
            model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
    }
}
