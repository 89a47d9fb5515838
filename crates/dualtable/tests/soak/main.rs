//! The soak harness (DESIGN.md §6): every soak is a [`Config`] of one
//! seeded [`Scheduler`] over the reference model the crash matrix uses.
//!
//! One thread runs logical sessions in the order the scheduler draws from
//! the seed, so a soak is a pure function of `Config × seed` (save where a
//! fault lands inside a rewrite that fans out to two workers). The model
//! predicts every first-committer-wins and swing loss; `Ok` means applied
//! on every store at one timestamp (every `Check` reads its pin plus its
//! own writes), and `Err` means applied nowhere (each store still equals
//! the model, after a restart when the fault was fail-stop or left a store
//! degraded). With no pin left no generation stays retired; at the end no
//! pin is left, the health counters equal the predicted conflicts, the
//! fold ledger balances, fsck is healthy and a serial replay of the
//! acknowledged commits scans the same rows in the same order.
//!
//! `SOAK_SEEDS=N` sets every configuration's seed count; `SEED=n` replays
//! one seed, whose failure prints its repro (`dt_common::seed_report`);
//! `SOAK_TRACE=1` prints one line per step.

mod scheduler;
#[path = "../support/mod.rs"]
mod support;

use std::collections::BTreeMap;
use std::sync::Arc;

use dt_common::fault::{FaultKind, FaultPlan};
use dt_common::{seed_from_env, with_seed_repro, Rng64, Row};
use dt_engine::with_degree;
use dualtable::{DualTableStore, ShardFoldStats, UnionReadOptions};
use scheduler::{Mix, Scheduler, OUTAGE, TRANSIENT};
use support::*;
use FaultKind::*;
use Set::{Add, To};
use Step::*;

const FAIL_STOP: &[FaultKind] = &[WriteError, ReadError, TornWrite, Crash];

/// One soak: the shape, the seeds, the scheduler's mix and the fault
/// schedule armed through the storm.
struct Config {
    name: &'static str,
    shape: Shape,
    seeds: u64,
    steps: usize,
    sessions: u64,
    setup: Vec<Step>,
    mix: Mix,
    /// The first fresh id of each shard range.
    first: [i64; SHARDS],
    faults: fn(u64) -> FaultPlan,
    /// Fail-stop faults, as the chaos suites ran them: a failed statement
    /// restarts the process, and every step is checked against the model.
    restart: bool,
    /// `(tier.metric, minimum)` over all seeds; `soak.failed` counts
    /// failed commits and statements, `soak.lost.Swing` and
    /// `soak.lost.Record` predicted conflicts.
    expect: &'static [(&'static str, u64)],
}

fn transient(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed, 8, 6_000, TRANSIENT)
}

fn fail_stop(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed, 24, 600, FAIL_STOP)
}

/// Transient outages of 1–3 operations, spaced at least 16 operations of
/// their own class apart: no retried operation (4 attempts) can span two,
/// so under retry every statement succeeds — a theorem, not a likelihood.
fn spaced_outages(seed: u64) -> FaultPlan {
    let (mut rng, mut plan, mut at) = (Rng64::new(seed), FaultPlan::new(seed), [1u64; 2]);
    for _ in 0..40 {
        let pick = rng.next_below(2) as usize;
        at[pick] += 16 + rng.next_below(48);
        plan = plan.fail_transient_at_nth(at[pick], TRANSIENT[pick], 1 + rng.next_below(3) as u32);
    }
    plan
}

/// A run's counts: the harness's own (`soak.*`) and every health metric
/// (`tier.metric`).
#[derive(Debug, Default)]
struct Totals(BTreeMap<String, u64>);

impl Totals {
    fn add(&mut self, key: &str, n: u64) {
        *self.0.entry(key.into()).or_default() += n;
    }

    fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Asserts each `(key, minimum)`.
    fn expect(&self, name: &str, expect: &[(&str, u64)]) {
        for &(key, min) in expect {
            assert!(
                self.get(key) >= min,
                "{name}: {key} = {} < {min}",
                self.get(key)
            );
        }
    }
}

/// The serializability oracle: a fault-free stack of the same shape that
/// takes each acknowledged commit alone, in commit order — an autocommit
/// step as itself, a transaction's writes at its COMMIT (an UPDATE or
/// DELETE on the rows it matched at its pin), a swing as the one-step
/// rewrite it installs. At the end every store's scan equals the soak's,
/// row for row in record order.
struct Serial {
    stack: Stack,
    live: Live,
    degree: usize,
    /// Each open session's acknowledged writes, with the ids each UPDATE
    /// or DELETE matched.
    writes: BTreeMap<usize, Vec<(Step, Vec<i64>)>>,
    job: Option<Job>,
}

impl Serial {
    fn new(shape: &Shape) -> Self {
        let env = shape.env(&Arc::new(FaultPlan::new(0))).unwrap();
        Serial {
            stack: Stack::new(&env, shape, true).unwrap(),
            live: Live::default(),
            degree: shape.degree,
            writes: BTreeMap::new(),
            job: None,
        }
    }

    fn run(&mut self, model: &Model, step: &Step) {
        let (stack, live) = (&self.stack, &mut self.live);
        with_degree(self.degree, || apply(stack, live, model, step)).expect("serial replay");
    }

    /// Takes acknowledged `step`; `model` is the state before it.
    fn ack(&mut self, model: &Model, step: &Step) {
        match *step {
            Begin(s) => drop(self.writes.insert(s, Vec::new())),
            TxnInsert(s, ..) | TxnUpdate(s, ..) | TxnDelete(s, ..) => {
                let matched = |(_, t, (d, r), ..): Edit| {
                    let ids = model.view(s)[t].keys().filter(|id| id.rem_euclid(d) == r);
                    ids.copied().collect()
                };
                let ids = step.edit().map(matched).unwrap_or_default();
                self.writes.get_mut(&s).unwrap().push((step.clone(), ids));
            }
            Commit(s) => {
                self.run(model, &Begin(s));
                for (write, ids) in self.writes.remove(&s).unwrap() {
                    let Some((_, t, _, set, _)) = write.edit() else {
                        self.run(model, &write);
                        continue;
                    };
                    let txn = &mut self.live.sessions.get_mut(&s).unwrap()[t];
                    let keep = |row: &Row| ids.contains(&row[0].as_i64().unwrap());
                    let all = UnionReadOptions::all();
                    match set {
                        Some(set) => txn.update(keep, &set.assignment(), &all),
                        None => txn.delete(keep, &all),
                    }
                    .expect("serial replay");
                }
                self.run(model, step);
            }
            Build(job) => self.job = Some(job),
            Swing => {
                let rewrite = match self.job.take() {
                    Some(Job::Compact) => Compact(MAIN),
                    Some(Job::Overwrite) => Overwrite(MAIN),
                    Some(Job::Fold) => Fold(MAIN),
                    None => return,
                };
                self.run(model, &rewrite);
            }
            Rollback(_) | Drop(_) | Abandon | Check(_) | Fault(_) => {}
            _ => self.run(model, step),
        }
    }

    /// Forgets what ended without a commit: failed sessions and jobs, and
    /// everything a restart dropped.
    fn settle(&mut self, model: &Model) {
        self.writes.retain(|s, _| model.is_open(*s));
        self.job = self.job.filter(|_| model.has_job());
    }

    /// Record IDs compare with their files numbered densely in scan order:
    /// abandoned builds and failed statements use up file IDs a serial run
    /// never allocates. A statement whose OVERWRITE build failed took the
    /// EDIT plan instead, which the serial run did not; after one, only
    /// the rows' order compares.
    fn compare(&self, stack: &Stack) -> bool {
        let exact = stack.env.health.snapshot().plan_fallbacks == 0;
        let scan = |store: &DualTableStore| {
            let mut files = Vec::new();
            let scan = store.scan_all().unwrap().into_iter();
            let dense = scan.map(|(rid, row)| {
                if files.last() != Some(&rid.file_id) {
                    files.push(rid.file_id);
                }
                let rid = (files.len(), rid.row);
                (exact.then_some(rid), row)
            });
            dense.collect::<Vec<_>>()
        };
        for (got, want) in stack.stores().zip(self.stack.stores()) {
            assert_eq!(
                scan(got),
                scan(want),
                "{}: the serial replay's scan, in record order",
                got.name()
            );
        }
        exact
    }
}

/// Runs one seed of `cfg`; `script` yields the steps (the scheduler, or a
/// fixed schedule).
fn soak(cfg: &Config, seed: u64, script: &mut dyn FnMut(&Model) -> Option<Step>) -> Totals {
    let (shape, plan) = (&cfg.shape, Arc::new((cfg.faults)(seed)));
    plan.set_armed(false);
    let mut stack = Stack::new(&shape.env(&plan).unwrap(), shape, true).unwrap();
    let (mut model, mut live, mut totals) = (shape.model(), Live::default(), Totals::default());
    let mut serial = Serial::new(shape);
    for step in &cfg.setup {
        let seen = with_degree(shape.degree, || apply(&stack, &mut live, &model, step)).unwrap();
        serial.ack(&model, step);
        model.step(step, &seen);
    }
    plan.set_armed(true);
    let mut i = 0u64;
    while let Some(step) = script(&model) {
        i += 1;
        let loses = model.loses(&step);
        if let Fault(kind) = step {
            plan.fail_transient_next(kind, OUTAGE);
        }
        let outcome = with_degree(shape.degree, || apply(&stack, &mut live, &model, &step));
        if std::env::var("SOAK_TRACE").is_ok() {
            eprintln!("step {i}: {step:?} loses={loses:?} ok={}", outcome.is_ok());
        }
        let failed = match outcome {
            Ok(seen) => {
                assert!(
                    loses.is_none(),
                    "step {i}: {step:?} committed, the model predicted a conflict"
                );
                model
                    .check(&step, &seen)
                    .unwrap_or_else(|e| panic!("step {i}: {e}"));
                serial.ack(&model, &step);
                model.step(&step, &seen);
                let rewrote = step.edit().is_some() && seen.swung.is_some_and(|s| !s.is_empty());
                let files =
                    matches!(&step, Insert(_, k) if k.end - k.start > shape.rows_per_file as i64);
                totals.add("soak.overwrite_plans", u64::from(rewrote));
                totals.add("soak.multi_file_inserts", u64::from(files));
                false
            }
            Err(e) => {
                assert!(
                    loses.is_some() || !e.is_conflict(),
                    "step {i}: {step:?}: unpredicted {e}"
                );
                let commits = !matches!(step, Begin(_) | Check(_) | Build(_) | Spill(_));
                let counter = match loses.filter(|_| e.is_conflict()) {
                    Some(loss) => format!("soak.lost.{loss:?}"),
                    None => "soak.failed".into(),
                };
                totals.add(&counter, u64::from(e.is_conflict() || commits));
                model.fail(&step);
                live.sessions.retain(|s, _| model.is_open(*s));
                true
            }
        };
        // A decided commit whose write failed leaves its store degraded
        // until a reopen redoes it (DESIGN.md §13).
        let degraded = stack.env.kv.health_snapshot().degraded > 0;
        let restart = plan.is_crashed() || degraded || (failed && cfg.restart);
        if restart {
            std::mem::forget(std::mem::take(&mut live));
            plan.heal_and_disarm();
            stack.env.crash_and_reopen().expect("recovery");
            stack = Stack::new(&stack.env.clone(), shape, false).expect("reopen");
            model.restart();
            totals.add("soak.restarts", 1);
        }
        serial.settle(&model);
        if failed || restart || cfg.restart {
            plan.set_armed(false);
            verify(&stack, &model, shape, &format!("after step {i}, {step:?}"));
            plan.set_armed(true);
        }
        for store in stack.stores() {
            let drained = store.pinned_snapshots() > 0 || store.retired_generations() == 0;
            assert!(
                drained,
                "step {i}: a generation stays retired with no pin left"
            );
        }
    }
    plan.heal_and_disarm();
    drop(live);
    verify(&stack, &model, shape, "at the end");
    totals.add("soak.exact_replays", u64::from(serial.compare(&stack)));
    let h = stack.env.health.snapshot();
    for store in stack.stores() {
        let left = (store.pinned_snapshots(), store.retired_generations());
        assert_eq!(
            left,
            (0, 0),
            "{}: pins, retired generations left",
            store.name()
        );
    }
    let ended = h.compactions_completed + h.compactions_lost_race + h.compactions_aborted;
    assert_eq!(ended, h.compactions_started, "fold ledger out of balance");
    let lost = (
        totals.get("soak.lost.Record"),
        totals.get("soak.lost.Swing"),
    );
    assert_eq!(
        (h.ww_conflicts, h.swing_conflicts),
        lost,
        "conflict counters vs the model"
    );
    assert!(stack.env.dfs.fsck().unwrap().healthy(), "fsck unhealthy");
    if plan.injected_count() == 0 {
        assert_eq!(
            h.cleanup_failures, 0,
            "a cleanup failed with no fault injected"
        );
    }
    if let Handle::Sharded(t) = &stack.tables[MAIN] {
        let ledger = |f: ShardFoldStats| f.attempted >= f.folded + f.lost_race + f.clean;
        assert!(
            (0..SHARDS).all(|s| ledger(t.fold_stats(s))),
            "a shard fold ledger"
        );
    }
    totals.add("soak.injected", plan.injected_count() as u64);
    totals.add("soak.steps", i);
    for (tier, metric, n) in stack.env.health_report().metrics() {
        totals.add(&format!("{tier}.{metric}"), n);
    }
    totals
}

/// Every store holds its slice of the model, in record-ID order, and
/// `count()` agrees.
fn verify(stack: &Stack, model: &Model, shape: &Shape, when: &str) {
    let want = shape.slices(&model.tables);
    for (store, want) in stack.stores().zip(want) {
        let scan = store.scan_all().unwrap();
        assert!(
            scan.windows(2).all(|w| w[0].0 < w[1].0),
            "{when}: record ids out of order"
        );
        assert_eq!(
            pairs(Ok(scan)).unwrap(),
            want,
            "{when}: {} diverged from the model",
            store.name()
        );
        assert_eq!(store.count().unwrap(), want.len() as u64, "{when}: count()");
    }
}

/// Runs `cfg` over its seeds (or `SEED`), prints its totals and checks its
/// expectations.
fn run(cfg: Config, test: &str) -> Totals {
    let seeds = std::env::var("SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(cfg.seeds);
    let seeds = match std::env::var("SEED") {
        Ok(_) => vec![seed_from_env(0)],
        Err(_) => (0..seeds).map(|i| 0xD1A2_0000 + i).collect(),
    };
    let mut totals = Totals::default();
    for &seed in &seeds {
        with_seed_repro("dualtable", "soak", test, seed, |seed| {
            let mut sched =
                Scheduler::new(seed, cfg.sessions, cfg.shape.tables(), cfg.mix, cfg.first);
            let mut left = cfg.steps;
            let mut script = |m: &Model| (left > 0).then(|| (left -= 1, sched.next(m)).1);
            for (k, n) in soak(&cfg, seed, &mut script).0 {
                totals.add(&k, n);
            }
        });
    }
    let get = |k: &str| totals.get(k);
    eprintln!(
        "soak {}: {} seeds, {} steps, {} failed commits, {} predicted conflicts, {} folds, \
         {} OVERWRITE-plan edits, {} multi-file inserts, {} restarts, {} exact replays",
        cfg.name,
        seeds.len(),
        get("soak.steps"),
        get("soak.failed"),
        get("soak.lost.Record") + get("soak.lost.Swing"),
        get("table.compactions_completed"),
        get("soak.overwrite_plans"),
        get("soak.multi_file_inserts"),
        get("soak.restarts"),
        get("soak.exact_replays"),
    );
    // The minimums are over every seed; a replay of one is judged by the
    // model alone.
    if std::env::var("SEED").is_err() {
        totals.expect(cfg.name, cfg.expect);
    }
    totals
}

/// Runs a fixed schedule on a 10-row table with no faults.
fn fixed(steps: Vec<Step>, expect: &'static [(&'static str, u64)]) {
    let cfg = Config {
        setup: vec![Insert(MAIN, 0..10)],
        expect,
        ..mvcc()
    };
    let mut steps = steps.into_iter();
    soak(&cfg, 1, &mut |_| steps.next()).expect("fixed schedule", expect);
}

/// Five sessions on one table with no faults: transactions and pinned
/// readers beside autocommit DML of both plans, INSERT OVERWRITE, COMPACT,
/// compactor ticks and two-phase rewrites whose swing can lose. Every
/// conflict is predicted.
fn mvcc() -> Config {
    Config {
        name: "mvcc",
        // The soaks race sessions, not block pipelines or flushes; one
        // worker per rewrite keeps a seed's I/O order, and so where its
        // faults land, the same on every run.
        shape: Shape {
            degree: 1,
            chunk_size: 1 << 20,
            memtable_bytes: 1 << 20,
            ..Shape::default()
        },
        seeds: 50,
        steps: 110,
        sessions: 5,
        setup: vec![Insert(MAIN, 0..40)],
        mix: Mix {
            begin: 8,
            insert: 2,
            update: 2,
            delete: 1,
            rewrite: 1,
            overwrite: 1,
            compact: 1,
            fold: 2,
            build: 2,
            rows: 4,
            ..Mix::default()
        },
        first: [1_000, 2_000, 3_000],
        faults: FaultPlan::new,
        restart: false,
        expect: &[
            ("table.ww_conflicts", 1),
            ("table.swing_conflicts", 1),
            ("table.generations_deferred", 1),
            ("table.generations_gcd", 1),
        ],
    }
}

#[test]
fn mvcc_soak() {
    run(mvcc(), "mvcc_soak");
}

/// Autocommit DML of both plans — INSERTs of up to three master files —
/// under fail-stop faults (write and read errors, torn writes, crashes):
/// every failed statement restarts the process and applied nothing.
/// Rewrites fan out to two workers, so faults also land inside the
/// parallel build; where they land varies run to run, and the expected
/// minimums hold for any landing.
fn fault() -> Config {
    Config {
        name: "fault",
        shape: Shape {
            degree: 2,
            ..mvcc().shape
        },
        seeds: 13,
        steps: 140,
        sessions: 1,
        setup: vec![],
        mix: Mix {
            begin: 1,
            insert: 3,
            update: 3,
            delete: 2,
            rewrite: 2,
            compact: 1,
            rows: 24,
            ..Mix::default()
        },
        faults: fail_stop,
        restart: true,
        expect: &[
            ("soak.failed", 10),
            ("soak.restarts", 10),
            ("soak.overwrite_plans", 10),
            ("soak.multi_file_inserts", 10),
        ],
        ..mvcc()
    }
}

#[test]
fn fault_soak() {
    run(fault(), "fault_soak");
}

/// The same statements under spaced transient outages: with retries on
/// they are invisible; with retries off the same outages fail statements,
/// which applied nothing.
#[test]
fn availability_soak() {
    let avail = || Config {
        name: "availability",
        shape: mvcc().shape,
        faults: spaced_outages,
        restart: false,
        ..fault()
    };
    let on = run(
        Config {
            expect: &[("dfs.retries", 10), ("soak.injected", 10)],
            ..avail()
        },
        "availability_soak",
    );
    assert_eq!(
        on.get("soak.failed") + on.get("soak.restarts"),
        0,
        "an outage surfaced"
    );
    let mut off = avail();
    off.shape.retry = false;
    run(
        Config {
            name: "availability, retries off",
            seeds: 1,
            expect: &[("soak.failed", 1)],
            ..off
        },
        "availability_soak",
    );
}

/// A range-sharded table beside an unsharded one under transient faults
/// and faults that outlast the retries: cross-shard and two-table
/// transactions, cross-shard autocommit DML, pinned cross-shard readers and
/// round-robin compactor ticks.
#[test]
fn shard_soak() {
    run(
        Config {
            name: "shard",
            shape: Shape {
                sharded: true,
                ..mvcc().shape
            },
            seeds: 8,
            steps: 120,
            sessions: 4,
            setup: vec![
                Insert(MAIN, 80..96),
                Insert(MAIN, 180..196),
                Insert(MAIN, 280..296),
                Insert(SIDE, 0..6),
            ],
            mix: Mix {
                begin: 6,
                insert: 2,
                update: 2,
                delete: 1,
                rewrite: 1,
                fold: 3,
                fault: 1,
                rows: 3,
                ..Mix::default()
            },
            first: [10, 100, 300],
            faults: transient,
            expect: &[
                ("table.compactions_completed", 1),
                ("table.commit_records", 1),
                ("soak.failed", 1),
            ],
            ..mvcc()
        },
        "shard_soak",
    );
}

/// The compactor racing transactions, pinned readers and autocommit DML
/// under transient faults and faults that outlast the retries: one-step
/// ticks and two-phase folds, builds aside whose swing loses to any commit
/// in between.
#[test]
fn compactor_soak() {
    run(
        Config {
            name: "compactor",
            seeds: 25,
            steps: 120,
            setup: vec![Insert(MAIN, 0..24)],
            mix: Mix {
                begin: 6,
                insert: 1,
                update: 2,
                delete: 1,
                fold: 4,
                build: 3,
                fault: 1,
                rows: 3,
                ..Mix::default()
            },
            faults: transient,
            expect: &[
                ("table.compactions_completed", 1),
                ("soak.lost.Swing", 1),
                ("soak.failed", 1),
            ],
            ..mvcc()
        },
        "compactor_soak",
    );
}

// Fixed schedules: one per race the random soaks exist to find.

/// Two transactions patch one row: the first committer wins, the second
/// loses with nothing applied.
#[test]
fn first_committer_wins() {
    fixed(
        vec![
            Begin(0),
            Begin(1),
            TxnUpdate(0, MAIN, (10, 3), To(111)),
            TxnUpdate(1, MAIN, (10, 3), To(222)),
            Commit(0),
            Commit(1),
        ],
        &[("table.ww_conflicts", 1)],
    );
}

/// A swing under a pinned reader: the reader keeps its view, GC waits for
/// the pin, and drops the old generation once it drains. The reader also
/// keeps hiding a file committed after its pin, across the swing.
#[test]
fn swing_under_a_pinned_reader() {
    fixed(
        vec![
            Begin(0),
            Insert(MAIN, 100..108),
            Build(Job::Compact),
            Swing,
            Check(0),
            Compact(MAIN),
            Check(0),
            Rollback(0),
        ],
        &[
            ("table.generations_deferred", 1),
            ("table.generations_gcd", 1),
        ],
    );
}

/// An EDIT or an INSERT committed mid-rewrite fails its swing, and a
/// transaction pinned before a swing loses its commit.
#[test]
fn a_commit_between_build_and_swing_wins() {
    fixed(
        vec![
            Build(Job::Compact),
            Update(MAIN, (10, 1), To(-7)),
            Swing,
            Compact(MAIN),
        ],
        &[("table.swing_conflicts", 1)],
    );
    fixed(
        vec![
            Build(Job::Fold),
            Update(MAIN, (2, 0), Add(1)),
            Build(Job::Fold),
            Insert(MAIN, 100..101),
            Swing,
        ],
        &[("table.swing_conflicts", 1)],
    );
    fixed(
        vec![
            Begin(0),
            TxnUpdate(0, MAIN, (10, 2), To(5)),
            Build(Job::Compact),
            Swing,
            Commit(0),
        ],
        &[("table.swing_conflicts", 1)],
    );
}

/// Transactional writes stay invisible until COMMIT, then appear at once.
#[test]
fn transactional_writes_appear_atomically() {
    fixed(
        vec![
            Begin(0),
            TxnInsert(0, MAIN, 50..52),
            TxnDelete(0, MAIN, (10, 0)),
            Check(0),
            Begin(1),
            Check(1),
            Commit(0),
            Check(1),
            Rollback(1),
            Begin(1),
            Check(1),
        ],
        &[],
    );
}
