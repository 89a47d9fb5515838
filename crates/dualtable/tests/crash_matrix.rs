//! The crash-point matrix (DESIGN.md §9): one runner, one reference model,
//! every write path.
//!
//! A [`Workload`] is data: a table [`Shape`], setup steps run disarmed,
//! armed steps, the steps whose I/O windows it exists to cross, and what
//! its record run must have exercised. [`run`] drives every workload the
//! same way:
//!
//! 1. A record run learns the armed steps' I/O trace.
//! 2. A fresh stack re-runs the workload once for every armed I/O index
//!    `k`, with a fail-stop fault at `k` (a torn write on even write ops).
//!    There is no subsampling.
//! 3. The dead process's live sessions are `mem::forget`-ed: a crash runs
//!    no Drop glue (rollback, abandon, unpin).
//! 4. [`DualTableEnv::crash_and_reopen`] recovers every tier.
//! 5. [`check_recovered`] holds the recovered stack to the [`Model`]: the
//!    block cache is empty; every store is at its slice of `oracle(acked)`
//!    or `oracle(acked + 1)`; the in-flight step — any step: an autocommit
//!    statement is one commit like a COMMIT — landed on every store it
//!    touches or on none; no staging file is left; `count()` equals the
//!    scan; each store has one generation, no pins and no retired
//!    generations; fsck is healthy and scrub leaves no orphan and the
//!    content unchanged; and an EDIT, a fold and (delta tier on) a spill
//!    still work, the spill draining the tier. The fold ledger must balance
//!    at the crash itself, and at least 90 % of the points must fire.

mod support;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use dt_common::crash_matrix::run_crash_matrix;
use dt_common::fault::{FaultKind, FaultPlan, IoOp};
use dt_common::{Row, Value};
use dt_dfs::DfsConfig;
use dt_engine::with_degree;
use dt_orcfile::{ColumnPredicate, PredicateOp};
use dualtable::{
    DualTableEnv, DualTableStore, PlanMode, RatioHint, ShardedTable, Transaction, UnionReadOptions,
};
use support::*;
use Job::Compact as Rebuild;
use Set::{Add, To};
use Step::*;

/// The sessions of [`crash_matrix_interleaved_transactions`]: a writer and
/// a pinned reader.
const A: usize = 0;
const R: usize = 1;

impl Model {
    /// The durable writes `step` commits with, on `shape`'s stores: one
    /// attached batch per store it EDITs, one rename per master file it
    /// inserts (`rows_per_file` rows a file), and one metadata put for all
    /// of its generation swings. A commit with more than one writes a
    /// decision record.
    fn durable_actions(&self, shape: &Shape, step: &Step) -> usize {
        let files = |n: usize| n.div_ceil(shape.rows_per_file);
        let per_store = |t: usize, ids: &mut dyn Iterator<Item = i64>| {
            let mut n = BTreeMap::<usize, usize>::new();
            ids.for_each(|id| *n.entry(self.store_of(t, id)).or_default() += 1);
            n.into_values()
        };
        match step {
            Step::Insert(t, keys) => per_store(*t, &mut keys.clone()).map(files).sum(),
            Step::Update(t, hit, _) | Step::Delete(t, hit) => {
                let ids = self.tables[*t].keys().copied();
                per_store(*t, &mut ids.filter(|id| id.rem_euclid(hit.0) == hit.1)).count()
            }
            Step::Commit(s) => {
                let writes = self.commit_writes(*s).into_values();
                writes
                    .map(|(ins, pat)| files(ins) + usize::from(pat > 0))
                    .sum()
            }
            Step::Overwrite(_) | Step::Compact(_) | Step::Fold(_) | Step::Swing => 1,
            _ => 0,
        }
    }
}

/// Generation directories under one store's warehouse prefix.
fn generations(env: &DualTableEnv, store: &str) -> BTreeSet<String> {
    let files = env.dfs.list(&format!("/warehouse/{store}/"));
    let gen = |p: &String| {
        p.split('/')
            .find(|seg| seg.starts_with("gen-"))
            .map(String::from)
    };
    files.iter().filter_map(gen).collect()
}

impl Shape {
    /// Every store as its table, in [`Stack::stores`] order.
    fn store_tables(&self) -> Vec<usize> {
        match self.sharded {
            true => vec![MAIN, MAIN, MAIN, SIDE],
            false => vec![MAIN],
        }
    }

    /// What must still work on a recovered stack.
    fn after_recovery(&self) -> Vec<Step> {
        let mut steps = vec![Step::Update(MAIN, (2, 0), Set::To(777)), Step::Fold(MAIN)];
        if self.delta_bytes > 0 {
            steps.extend((0..self.tables()).map(Step::Spill));
        }
        steps
    }
}

impl Stack {
    /// Each store's content as sorted `(id, v)` pairs.
    fn scan(&self) -> Result<Vec<Vec<(i64, i64)>>, String> {
        let scan =
            |s: &DualTableStore| pairs(s.scan_all()).map_err(|e| format!("{} scan: {e}", s.name()));
        self.stores().map(scan).collect()
    }
}

impl Step {
    /// The variant name.
    fn name(&self) -> String {
        let debug = format!("{self:?}");
        debug.split('(').next().unwrap_or_default().to_string()
    }
}

/// One crash matrix.
struct Workload {
    name: &'static str,
    shape: Shape,
    /// Runs disarmed in every run, so op 1 is the first armed operation.
    setup: Vec<Step>,
    steps: Vec<Step>,
    /// Steps ([`Step::name`]) whose I/O the matrix exists to crash inside:
    /// each must occur and do I/O.
    windows: &'static [&'static str],
    /// `(tier, metric, minimum)`: what the record run's health report must
    /// show it exercised.
    expect: &'static [(&'static str, &'static str, u64)],
    /// The fewest armed I/O operations (= crash points) it may have — its
    /// record-run count — so an edit to the workload cannot quietly shrink
    /// its matrix.
    min_points: usize,
}

impl Workload {
    fn setup(&self, plan: &Arc<FaultPlan>) -> dt_common::Result<(Stack, Model)> {
        plan.set_armed(false);
        let stack = Stack::new(&self.shape.env(plan)?, &self.shape, true)?;
        let mut model = self.shape.model();
        for step in &self.setup {
            let seen = apply(&stack, &mut Live::default(), &model, step)?;
            model.step(step, &seen);
        }
        Ok((stack, model))
    }
}

/// What the record run learned.
struct Record {
    trace: Vec<IoOp>,
    /// Committed state after the setup and after each armed step.
    oracles: Vec<State>,
}

const SEED: u64 = 0xC0FFEE;

fn fold_ledger(env: &DualTableEnv) -> Result<(), String> {
    let h = env.health.snapshot();
    let ended = h.compactions_completed + h.compactions_lost_race + h.compactions_aborted;
    if ended != h.compactions_started {
        return Err(format!(
            "fold ledger out of balance: {ended} ended, {} started",
            h.compactions_started
        ));
    }
    Ok(())
}

/// The record run: learns the trace and checks the workload exercised what
/// it claims to.
fn record(w: &Workload) -> Record {
    let name = w.name;
    let plan = Arc::new(FaultPlan::new(SEED));
    let (stack, mut model) = w.setup(&plan).expect("clean setup");
    plan.record_trace();
    plan.set_armed(true);
    let mut oracles = vec![model.tables.clone()];
    let (mut live, mut did_io, mut decided) = (Live::default(), Vec::new(), 0);
    let records_before = stack.env.health.snapshot().commit_records;
    for step in &w.steps {
        decided += u64::from(model.durable_actions(&w.shape, step) > 1);
        let start = plan.ops_seen();
        let seen = apply(&stack, &mut live, &model, step)
            .unwrap_or_else(|e| panic!("{name}: record run faulted at {step:?}: {e}"));
        model.check(step, &seen).unwrap();
        model.step(step, &seen);
        did_io.push(start < plan.ops_seen());
        oracles.push(model.tables.clone());
    }
    plan.set_armed(false);
    let trace = plan.take_trace();

    let want = w.shape.slices(oracles.last().unwrap());
    assert_eq!(stack.scan().unwrap(), want, "{name}: record run diverged");
    for window in w.windows {
        let mut steps = w
            .steps
            .iter()
            .zip(&did_io)
            .filter(|(s, _)| s.name() == *window);
        assert!(steps.next().is_some(), "{name}: no {window} step");
        assert!(
            steps.all(|(_, &io)| io),
            "{name}: a {window} step did no I/O"
        );
    }
    let health = stack.env.health_report().metrics();
    for &(tier, metric, min) in w.expect {
        let got = health
            .iter()
            .find(|m| (m.0, m.1) == (tier, metric))
            .unwrap()
            .2;
        assert!(got >= min, "{name}: {tier}.{metric} = {got} < {min}");
    }
    let records = stack.env.health.snapshot().commit_records - records_before;
    assert_eq!(
        records, decided,
        "{name}: one decision record per commit of several durable writes"
    );
    for store in stack.stores() {
        assert_eq!(store.pinned_snapshots(), 0, "{name}: pin left behind");
        assert_eq!(store.retired_generations(), 0, "{name}: GC left behind");
    }
    fold_ledger(&stack.env).unwrap();
    Record { trace, oracles }
}

/// Crashes `w` at every armed I/O index.
fn run(w: Workload) {
    let degree = w.shape.degree;
    let rec = with_degree(degree, || record(&w));
    let points: Vec<u64> = (1..=rec.trace.len() as u64).collect();
    eprintln!("{}: {} crash points", w.name, points.len());
    assert!(
        points.len() >= w.min_points,
        "{}: {} crash points, fewer than {}",
        w.name,
        points.len(),
        w.min_points
    );
    let report = run_crash_matrix(&points, |k| with_degree(degree, || crash_at(&w, &rec, k)));
    assert!(
        report.ok(),
        "{}: violations at {} of {} points:\n{:#?}",
        w.name,
        report.violations.len(),
        report.points,
        report.violations
    );
    // A small remainder may be absorbed by replica failover.
    assert!(
        report.crashes_injected * 10 >= report.points * 9,
        "{}: only {} of {} crash points fired",
        w.name,
        report.crashes_injected,
        report.points
    );
}

/// One crash run: `Ok(false)` if the fault never fired.
fn crash_at(w: &Workload, rec: &Record, k: u64) -> Result<bool, String> {
    let kind = match rec.trace[(k - 1) as usize] {
        IoOp::Write if k.is_multiple_of(2) => FaultKind::TornWrite,
        _ => FaultKind::Crash,
    };
    let plan = Arc::new(FaultPlan::new(SEED ^ k).fail_at(k, kind));
    let (stack, mut model) = w.setup(&plan).map_err(|e| format!("setup: {e}"))?;
    plan.set_armed(true);
    let (mut live, mut acked) = (Live::default(), 0);
    for step in &w.steps {
        let Ok(seen) = apply(&stack, &mut live, &model, step) else {
            break;
        };
        model.check(step, &seen)?;
        model.step(step, &seen);
        acked += 1;
        // An acknowledged step with a sticky crash behind it: the fault hit
        // post-commit work, and the process is dead.
        if plan.is_crashed() {
            break;
        }
    }
    if acked == w.steps.len() && !plan.is_crashed() {
        return Ok(false);
    }
    fold_ledger(&stack.env)?;
    std::mem::forget(live);
    plan.heal_and_disarm();
    stack
        .env
        .crash_and_reopen()
        .map_err(|e| format!("recovery: {e}"))?;
    check_recovered(w, &stack.env, &rec.oracles, acked)?;
    Ok(true)
}

/// Every invariant a recovered stack owes the model, `acked` armed steps
/// having been acknowledged before the crash.
fn check_recovered(
    w: &Workload,
    env: &DualTableEnv,
    oracles: &[State],
    acked: usize,
) -> Result<(), String> {
    // Recovery can roll the namespace back past commits, so a block cached
    // before the crash may describe state the recovered namespace never saw.
    if env.dfs.block_cache_entries() != 0 {
        return Err("pre-crash blocks survived recovery in the cache".into());
    }
    let shape = &w.shape;
    let stack = Stack::new(env, shape, false).map_err(|e| format!("reopen: {e}"))?;
    let stores: Vec<&DualTableStore> = stack.stores().collect();
    if stores.len() != shape.store_tables().len() {
        return Err(format!("{} stores after recovery", stores.len()));
    }

    let got = stack.scan()?;
    let base = shape.slices(&oracles[acked]);
    let next = oracles.get(acked + 1).map(|s| shape.slices(s));
    let mut at_next = vec![false; stores.len()];
    for (c, rows) in got.iter().enumerate() {
        if *rows == base[c] {
            continue;
        }
        match &next {
            Some(next) if *rows == next[c] => at_next[c] = true,
            _ => {
                return Err(format!(
                    "{} matches neither oracle({acked}) nor oracle({}): {} rows",
                    stores[c].name(),
                    acked + 1,
                    rows.len()
                ))
            }
        }
    }
    if let Some(next) = &next {
        let touched: Vec<usize> = (0..stores.len()).filter(|&c| base[c] != next[c]).collect();
        let landed: Vec<bool> = touched.iter().map(|&c| at_next[c]).collect();
        if landed.windows(2).any(|p| p[0] != p[1]) {
            return Err(format!(
                "in-flight {:?} landed on part of {touched:?}: {landed:?}",
                w.steps[acked]
            ));
        }
    }
    let mut paths = env.dfs.list("/warehouse/").into_iter();
    if let Some(path) = paths.find(|p| p.split('/').nth(3) == Some("_staging")) {
        return Err(format!("staging file {path} survived recovery"));
    }

    for (store, rows) in stores.iter().zip(&got) {
        let name = store.name();
        if store.count().map_err(|e| format!("count: {e}"))? != rows.len() as u64 {
            return Err(format!("{name}: count() disagrees with the scan"));
        }
        let gens = generations(env, name);
        if gens.len() > 1 {
            return Err(format!("{name}: mixed generations {gens:?}"));
        }
        if store.pinned_snapshots() != 0 || store.retired_generations() != 0 {
            return Err(format!("{name}: a pin or a deferred GC outlived the crash"));
        }
        let live = store
            .master_file_ids()
            .map_err(|e| format!("{name}: {e}"))?;
        let index = store.presence_index().map_err(|e| format!("{name}: {e}"))?;
        if let Some(dead) = index.files.keys().find(|id| !live.contains(id)) {
            return Err(format!("{name}: the presence index names dead file {dead}"));
        }
    }

    let fsck = env.dfs.fsck().map_err(|e| format!("fsck: {e}"))?;
    if !fsck.healthy() {
        return Err(format!("fsck unhealthy after recovery: {fsck:?}"));
    }
    env.dfs.scrub().map_err(|e| format!("scrub: {e}"))?;
    let after = env
        .dfs
        .fsck()
        .map_err(|e| format!("post-scrub fsck: {e}"))?;
    if after.orphan_blocks != 0 {
        return Err(format!("{} orphans survived scrub", after.orphan_blocks));
    }
    if stack.scan()? != got {
        return Err("scrub changed logical content".into());
    }

    // The recovered stack is operable: a half-folded presence index or a
    // replayed delta tier may neither hide nor duplicate a row.
    let mut model = shape.model();
    for (t, rows) in shape.store_tables().into_iter().zip(got) {
        model.tables[t].extend(rows);
    }
    for step in shape.after_recovery() {
        let seen = apply(&stack, &mut Live::default(), &model, &step)
            .map_err(|e| format!("post-recovery {step:?}: {e}"))?;
        model.step(&step, &seen);
        if stack.scan()? != shape.slices(&model.tables) {
            return Err(format!("post-recovery {step:?} produced wrong content"));
        }
    }
    if shape.delta_bytes > 0 {
        for store in &stores {
            if store
                .delta_bytes_used()
                .map_err(|e| format!("delta: {e}"))?
                != 0
            {
                return Err(format!("{}: spill left resident delta bytes", store.name()));
            }
        }
    }
    Ok(())
}

/// Statements on one store: EDIT-plan UPDATE/DELETE, INSERT OVERWRITE and
/// COMPACT, whose generation swaps are the windows.
#[test]
fn crash_matrix_three_tiers() {
    run(Workload {
        name: "three_tiers",
        shape: Shape::default(),
        setup: vec![],
        steps: vec![
            Insert(MAIN, 0..8),
            Insert(MAIN, 8..14),
            Update(MAIN, (2, 0), To(7)),
            Insert(MAIN, 14..22),
            Delete(MAIN, (3, 1)),
            Compact(MAIN),
            Insert(MAIN, 22..27),
            Update(MAIN, (5, 2), To(-3)),
            Overwrite(MAIN),
            Insert(MAIN, 27..35),
            Delete(MAIN, (2, 1)),
            Update(MAIN, (3, 0), To(11)),
            Compact(MAIN),
            Insert(MAIN, 35..42),
            Update(MAIN, (7, 3), To(21)),
        ],
        windows: &["Overwrite", "Compact"],
        expect: &[],
        min_points: 262,
    });
}

/// EDIT cells through the WAL-backed delta tier (DESIGN.md §17): each
/// spill's atomic WAL record, the memtable inserts behind it and the
/// rotation carry-forward are windows. The trailing EDIT burst lives only
/// in the replayed tier.
#[test]
fn crash_matrix_delta_tier() {
    run(Workload {
        name: "delta_tier",
        shape: Shape {
            delta_bytes: 1 << 20,
            ..Shape::default()
        },
        setup: vec![],
        steps: vec![
            Insert(MAIN, 0..8),
            Insert(MAIN, 8..16),
            Update(MAIN, (2, 0), To(7)),
            Spill(MAIN),
            Insert(MAIN, 16..22),
            Delete(MAIN, (3, 1)),
            Update(MAIN, (5, 2), To(-3)),
            Spill(MAIN),
            Compact(MAIN),
            Insert(MAIN, 22..30),
            Update(MAIN, (3, 0), To(11)),
            Delete(MAIN, (4, 1)),
            Spill(MAIN),
            Insert(MAIN, 30..35),
            Update(MAIN, (7, 3), To(21)),
        ],
        windows: &["Spill", "Compact"],
        expect: &[("kv", "delta_spills", 3), ("kv", "delta_bytes_used", 1)],
        min_points: 126,
    });
}

/// Interleaved sessions (DESIGN.md §13): an autocommit writer, a pinned
/// reader, two transactions, the first inserting two master files, and a
/// two-phase compaction that swings while the reader is pinned. Windows:
/// the multi-file commit, the swing under the pin, the GC drain at unpin.
#[test]
fn crash_matrix_interleaved_transactions() {
    run(Workload {
        name: "interleaved_transactions",
        shape: Shape::default(),
        setup: vec![Insert(MAIN, 0..20)],
        steps: vec![
            Update(MAIN, (4, 0), Add(100)),
            Begin(R),
            Begin(A),
            TxnUpdate(A, MAIN, (3, 1), To(-5)),
            TxnInsert(A, MAIN, 100..110),
            Commit(A),
            Build(Rebuild),
            Swing,
            Insert(MAIN, 200..204),
            Begin(A),
            TxnUpdate(A, MAIN, (5, 2), Add(7)),
            Check(R),
            Rollback(R),
            Commit(A),
            Compact(MAIN),
        ],
        windows: &["Commit", "Swing", "Rollback"],
        expect: &[
            ("table", "generations_deferred", 1),
            ("table", "generations_gcd", 2),
        ],
        min_points: 244,
    });
}

/// An autocommit EDIT of more than 4096 cells commits as one attached
/// batch: a crash anywhere in it leaves all of the statement or none.
#[test]
fn large_autocommit_edit_is_all_or_nothing() {
    run(Workload {
        name: "large_autocommit_edit",
        shape: Shape {
            rows_per_file: 1500,
            plan_mode: PlanMode::AlwaysEdit,
            chunk_size: DfsConfig::default().chunk_size,
            ..Shape::default()
        },
        setup: vec![Insert(MAIN, 0..4500)],
        steps: vec![Update(MAIN, (1, 0), To(1))],
        windows: &["Update"],
        expect: &[],
        min_points: 8,
    });
}

/// A range-sharded table beside an unsharded one, delta tier on:
/// cross-shard transactions and two-table commits are all-or-none through
/// one decision record; a round-robin fold and a spill of every shard are
/// windows too.
#[test]
fn sharded_crash_matrix_all_or_none() {
    run(Workload {
        name: "sharded",
        shape: Shape {
            sharded: true,
            delta_bytes: 1 << 20,
            ..Shape::default()
        },
        setup: vec![Insert(SIDE, 0..6)],
        steps: vec![
            Insert(MAIN, 0..8),
            Begin(A),
            TxnInsert(A, MAIN, 20..24),
            TxnInsert(A, MAIN, 120..124),
            TxnInsert(A, MAIN, 220..224),
            Commit(A),
            Update(MAIN, (2, 0), To(7)),
            Begin(A),
            TxnUpdate(A, MAIN, (3, 0), To(11)),
            TxnInsert(A, SIDE, 100..103),
            TxnUpdate(A, SIDE, (2, 0), To(11)),
            Commit(A),
            Insert(MAIN, 110..116),
            Begin(A),
            TxnInsert(A, MAIN, 40..45),
            TxnInsert(A, MAIN, 140..145),
            TxnInsert(A, MAIN, 240..245),
            Commit(A),
            Begin(A),
            TxnUpdate(A, MAIN, (4, 1), To(5)),
            Commit(A),
            Fold(MAIN),
            Delete(MAIN, (3, 1)),
            Spill(MAIN),
            Compact(MAIN),
            Begin(A),
            TxnUpdate(A, MAIN, (5, 4), To(-7)),
            TxnInsert(A, SIDE, 200..202),
            TxnUpdate(A, SIDE, (2, 0), To(-7)),
            Commit(A),
            Insert(MAIN, 210..217),
            Begin(A),
            TxnInsert(A, MAIN, 60..63),
            TxnInsert(A, MAIN, 160..163),
            TxnInsert(A, MAIN, 260..263),
            Commit(A),
            Update(MAIN, (5, 2), To(-3)),
            Spill(MAIN),
            Fold(MAIN),
        ],
        windows: &["Commit", "Fold", "Spill"],
        expect: &[
            ("table", "compactions_completed", 2),
            ("kv", "delta_spills", 2),
        ],
        min_points: 721,
    });
}

/// An autocommit INSERT of three master files: every file is staged, and
/// one decision record renames all three into place, or none.
#[test]
fn multi_file_insert_is_all_or_nothing() {
    run(Workload {
        name: "multi_file_insert",
        shape: Shape::default(),
        setup: vec![Insert(MAIN, 0..8)],
        steps: vec![Insert(MAIN, 100..124)],
        windows: &["Insert"],
        expect: &[],
        min_points: 24,
    });
}

/// Autocommit statements on a range-sharded table, each one commit over
/// every shard it touches (DESIGN.md §16): an INSERT into all three shards
/// (two files in the middle one), a cross-shard EDIT UPDATE and DELETE,
/// and an INSERT OVERWRITE and a COMPACT that swing every shard's
/// generation pointer in one metadata batch.
#[test]
fn sharded_autocommit_is_all_or_nothing() {
    run(Workload {
        name: "sharded_autocommit",
        shape: Shape {
            sharded: true,
            rows_per_file: 64,
            ..Shape::default()
        },
        setup: vec![Insert(MAIN, 0..4), Insert(MAIN, 250..254)],
        steps: vec![
            Insert(MAIN, 90..210),
            Update(MAIN, (2, 0), To(7)),
            Delete(MAIN, (3, 1)),
            Overwrite(MAIN),
            Compact(MAIN),
        ],
        windows: &["Insert", "Update", "Delete", "Overwrite", "Compact"],
        expect: &[],
        min_points: 344,
    });
}

/// Incremental folds (DESIGN.md §15) against realistic dirt: every
/// window of a fold — pre-build, mid-build, pre-swing, post-swing — and
/// of a fold behind a session's pin, whose end drains the old generation
/// into the sweep.
#[test]
fn compactor_crash_matrix() {
    run(Workload {
        name: "compactor",
        shape: Shape::default(),
        setup: vec![],
        steps: vec![
            Insert(MAIN, 0..8),
            Insert(MAIN, 8..16),
            Update(MAIN, (2, 0), To(7)),
            Fold(MAIN),
            Insert(MAIN, 16..22),
            Update(MAIN, (3, 1), To(-3)),
            Delete(MAIN, (5, 4)),
            Fold(MAIN),
            Insert(MAIN, 22..30),
            Update(MAIN, (4, 2), To(11)),
            Fold(MAIN),
            Update(MAIN, (7, 5), To(20)),
            Fold(MAIN),
            Update(MAIN, (3, 2), To(5)),
            Begin(R),
            Fold(MAIN),
            Check(R),
            Rollback(R),
        ],
        windows: &["Fold", "Rollback"],
        expect: &[
            ("table", "compactions_completed", 4),
            ("table", "generations_deferred", 1),
        ],
        min_points: 396,
    });
}

/// A COMPACT fanned out over three rewrite workers (DESIGN.md §12),
/// crashed in the fan-out and in its commit step.
#[test]
fn crash_matrix_parallel_compact() {
    run(Workload {
        name: "parallel_compact",
        shape: Shape {
            degree: 3,
            rows_per_file: 16,
            ..Shape::default()
        },
        setup: vec![Insert(MAIN, 0..160), Delete(MAIN, (4, 1))],
        steps: vec![Compact(MAIN)],
        windows: &["Compact"],
        expect: &[("table", "write_workers_used", 2)],
        min_points: 138,
    });
}

// Directed failed-write cases (DESIGN.md §13): a decided commit whose
// participant write fails, or whose record cannot be cleared.

/// Decision records still in the metadata table.
fn decision_records(env: &DualTableEnv) -> usize {
    let meta = env.kv.table("__dualtable_meta").unwrap();
    meta.scan(Some(b"commit:"), Some(b"commit;"))
        .unwrap()
        .count()
}

/// The value a cross-shard transaction sets on every row of the directed
/// tests below.
const DECIDED: i64 = 42;

/// A sharded table with two rows per shard and a transaction, not yet
/// committed, that sets every row's `v` to [`DECIDED`]. Setup runs with
/// `plan` disarmed, so the commit's I/O is numbered from 1.
fn decided_update(plan: &Arc<FaultPlan>) -> (DualTableEnv, ShardedTable, Transaction) {
    plan.set_armed(false);
    let (env, cfg) = (
        Shape::default().env(plan).unwrap(),
        Shape::default().config(),
    );
    let table = ShardedTable::create(&env, TABLE, schema(), cfg, spec()).unwrap();
    table.insert_rows(rows([1, 2, 101, 102, 201, 202])).unwrap();
    let mut txn = table.begin_transaction().unwrap();
    let set = To(DECIDED).assignment();
    txn.update(|_| true, &set, &UnionReadOptions::all())
        .unwrap();
    (env, table, txn)
}

/// The commit of [`decided_update`] as I/O operations: the record write
/// (and the metadata table's flush behind it), then one append per shard
/// in shard order, then the record clear.
fn decided_commit_trace() -> Vec<IoOp> {
    let probe = Arc::new(FaultPlan::new(1));
    let (_, _, txn) = decided_update(&probe);
    probe.record_trace();
    probe.set_armed(true);
    txn.commit().unwrap();
    probe.set_armed(false);
    let trace = probe.take_trace();
    assert!(
        trace.ends_with(&[IoOp::Write; SHARDS + 1]),
        "shard appends, then the clear: {trace:?}"
    );
    trace
}

/// A cross-shard commit whose second shard could not take its decided
/// cells: the commit is still acknowledged, the shard turns read-only and
/// the decision record stays, so the reopen that redoes it gives every
/// shard the whole commit.
#[test]
fn a_failed_participant_write_keeps_its_decision_record() {
    // 1-based: the second of the last SHARDS + 1 operations.
    let second_shard = (decided_commit_trace().len() - SHARDS + 1) as u64;
    let plan = Arc::new(FaultPlan::new(3).fail_at(second_shard, FaultKind::WriteError));
    let (env, table, txn) = decided_update(&plan);
    plan.set_armed(true);
    txn.commit().expect("a decided commit is acknowledged");
    plan.set_armed(false);
    assert_eq!(
        decision_records(&env),
        1,
        "the record outlives a failed write"
    );

    let later = To(7).assignment();
    let refused = table.dml(
        &|row: &Row| row[0] == Value::Int64(101),
        Some(&later),
        RatioHint::Explicit(0.01),
        None,
        None,
    );
    assert!(
        refused.is_err(),
        "the shard missing decided cells takes no write"
    );

    env.crash_and_reopen().unwrap();
    assert_eq!(decision_records(&env), 0, "recovery redid and cleared it");
    drop(table);
    let table = ShardedTable::open(&env, TABLE, schema(), Shape::default().config()).unwrap();
    for (i, shard) in table.shards().iter().enumerate() {
        let values: Vec<i64> = shard
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, row)| row[1].as_i64().unwrap())
            .collect();
        assert_eq!(values, [DECIDED; 2], "shard {i}");
    }
}

/// A cross-shard commit whose decision record could not be cleared, then
/// a later autocommit UPDATE of one of its rows, then a crash: recovery
/// redoes the record at its own timestamp, so the later value survives,
/// and the redone presence counts still route a pushed-down scan to every
/// decided cell.
#[test]
fn a_left_over_decision_record_never_shadows_a_later_write() {
    // Fail the clear, the commit's last I/O, through every retry.
    let clear = decided_commit_trace().len() as u64;
    let plan =
        Arc::new(FaultPlan::new(2).fail_transient_at(clear, FaultKind::TransientWriteError, 4));
    let (env, table, txn) = decided_update(&plan);
    plan.set_armed(true);
    txn.commit().unwrap();
    plan.set_armed(false);
    assert_eq!(decision_records(&env), 1, "the record outlived its commit");

    let later = To(7).assignment();
    table
        .dml(
            &|row: &Row| row[0] == Value::Int64(101),
            Some(&later),
            RatioHint::Explicit(0.01),
            None,
            None,
        )
        .unwrap();
    env.crash_and_reopen().unwrap();
    assert_eq!(decision_records(&env), 0, "recovery redid and cleared it");
    drop(table);
    let table = ShardedTable::open(&env, TABLE, schema(), Shape::default().config()).unwrap();

    let scan = |opts: &UnionReadOptions| {
        let mut got: Vec<(i64, i64)> = Vec::new();
        table
            .for_each_batch(opts, |_, batch| {
                let rows = batch.selected_rows();
                got.extend(rows.map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap())));
                Ok(ControlFlow::Continue(()))
            })
            .unwrap();
        got.sort_unstable();
        got
    };
    let mut expect = vec![
        (1, DECIDED),
        (2, DECIDED),
        (101, 7),
        (102, DECIDED),
        (201, DECIDED),
        (202, DECIDED),
    ];
    assert_eq!(
        scan(&UnionReadOptions::all()),
        expect,
        "the later write survives the redo"
    );

    // Stripe statistics say no master row holds DECIDED: only the presence
    // index keeps the pushed-down predicate off those stripes.
    let mut pushed = UnionReadOptions::all();
    pushed.predicates = Some(vec![ColumnPredicate::new(
        1,
        PredicateOp::Eq,
        Value::Int64(DECIDED),
    )]);
    let mut got = scan(&pushed);
    got.retain(|&(_, v)| v == DECIDED);
    expect.retain(|&(_, v)| v == DECIDED);
    assert_eq!(
        got, expect,
        "a pushed-down scan still meets every decided cell"
    );
}
