//! The MVCC serializability harness (DESIGN.md §13).
//!
//! A deterministic, single-threaded scheduler drives six concurrent
//! sessions over one shared table — three transactional writers, two
//! pinned readers and one two-phase rewriter (OVERWRITE/COMPACT) — from a
//! seeded RNG. Because the harness interleaves the sessions itself, it
//! knows the exact committed state at every pin and can predict every
//! outcome exactly:
//!
//! * each transaction's reads must equal its pinned snapshot plus its own
//!   buffered writes (read-your-own-writes);
//! * each pinned reader must keep seeing its snapshot byte-for-byte while
//!   other sessions commit, swing the generation pointer and GC;
//! * each COMMIT must succeed or fail *exactly* as first-committer-wins
//!   predicts — no spurious conflicts, no lost updates;
//! * after the run, a serializability oracle replays the committed
//!   transactions in commit order on a single thread against a fresh
//!   table and the scans must be byte-identical;
//! * dead generations are GC'd only after their last pin drains.
//!
//! On failure the harness prints a `SEED=… cargo test …` repro line and
//! writes `target/last_failed_seed.txt` (see `dt_common::seed_report`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dt_common::{seed_from_env, with_seed_repro, DataType, Rng64, Schema, Value};
use dualtable::{
    DualTableConfig, DualTableEnv, DualTableStore, PlanMode, RatioHint, RewriteJob, Snapshot,
    Transaction, UnionReadOptions,
};

/// The transaction's read-your-own-writes view, unpacked from its batch
/// scan.
fn txn_rows(txn: &Transaction) -> dt_common::Result<Vec<Vec<Value>>> {
    let mut rows = Vec::new();
    txn.for_each_batch(&UnionReadOptions::all(), |_, batch| {
        rows.extend(batch.selected_rows());
        Ok(std::ops::ControlFlow::Continue(()))
    })?;
    Ok(rows)
}

fn schema() -> Schema {
    Schema::from_pairs(&[("id", DataType::Int64), ("v", DataType::Int64)])
}

fn config() -> DualTableConfig {
    DualTableConfig {
        rows_per_file: 8,
        // The harness predicts conflicts exactly; a cost-model OVERWRITE
        // plan would swing the generation behind its back.
        plan_mode: PlanMode::AlwaysEdit,
        ..DualTableConfig::default()
    }
}

fn rows_of(t: &DualTableStore) -> Vec<(i64, i64)> {
    t.scan_all()
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect()
}

fn as_pairs(rows: &[(dt_common::RecordId, Vec<Value>)]) -> Vec<(i64, i64)> {
    rows.iter()
        .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect()
}

fn sorted_pairs(m: &BTreeMap<i64, i64>) -> Vec<(i64, i64)> {
    m.iter().map(|(&k, &v)| (k, v)).collect()
}

/// One committed write event, for the oracle replay.
enum CommitEvent {
    /// A transactional or autocommit EDIT: per-record new value
    /// (`None` = delete), plus freshly inserted rows.
    Edit {
        patches: Vec<(i64, Option<i64>)>,
        inserts: Vec<(i64, i64)>,
    },
    /// `INSERT OVERWRITE` replacing the whole content.
    Overwrite(Vec<(i64, i64)>),
    /// `COMPACT` (content-neutral; replayed to exercise the same paths).
    Compact,
}

/// An open transactional writer session.
struct TxnState {
    txn: Transaction,
    /// The session's expected view: committed-at-pin + own writes.
    view: BTreeMap<i64, i64>,
    /// Pre-existing pks this transaction updated or deleted — its
    /// first-committer-wins footprint.
    patched: BTreeMap<i64, Option<i64>>,
    /// Rows this transaction inserted (not part of the footprint).
    own_inserts: Vec<(i64, i64)>,
    /// Global event count when the snapshot was pinned.
    pin_seq: u64,
}

/// An open pinned reader session.
struct ReaderState {
    snap: Snapshot,
    expect: BTreeMap<i64, i64>,
}

/// An in-progress two-phase rewrite.
struct RewriteState {
    job: RewriteJob,
    pin_seq: u64,
    /// Content the swing would install (for OVERWRITE, the replacement).
    replaces: Option<Vec<(i64, i64)>>,
}

/// What the model predicts a commit attempt will do.
#[derive(Debug, PartialEq)]
enum Predicted {
    Ok,
    SwingConflict,
    RecordConflict,
}

#[derive(Default)]
struct Totals {
    ww_conflicts: u64,
    swing_conflicts: u64,
    deferred: u64,
    gcd: u64,
}

struct Harness {
    store: DualTableStore,
    rng: Rng64,
    /// Model of the committed table content.
    committed: BTreeMap<i64, i64>,
    /// Monotone count of committed write events (commits and swings).
    events: u64,
    /// Last event that committed a write (edit or insert).
    write_seq: u64,
    /// Last event that swung the generation pointer.
    swing_seq: u64,
    /// Per-pk last write-commit event (the conflict window).
    pk_seq: HashMap<i64, u64>,
    /// Next fresh primary key.
    next_pk: i64,
    /// Commit-ordered log for the oracle replay.
    log: Vec<CommitEvent>,
    /// Predicted conflicts, to reconcile with health counters.
    predicted_ww: u64,
    predicted_swing: u64,
    writers: Vec<Option<TxnState>>,
    readers: Vec<Option<ReaderState>>,
    rewriter: Option<RewriteState>,
}

fn trace(msg: &str) {
    if std::env::var("MVCC_TRACE").is_ok() {
        eprintln!("[trace] {msg}");
    }
}

impl Harness {
    fn new(env: &DualTableEnv, seed: u64, initial_rows: i64) -> Self {
        let store = DualTableStore::create(env, "t", schema(), config()).unwrap();
        store
            .insert_rows((0..initial_rows).map(|i| vec![Value::Int64(i), Value::Int64(i * 10)]))
            .unwrap();
        Harness {
            store,
            rng: Rng64::new(seed),
            committed: (0..initial_rows).map(|i| (i, i * 10)).collect(),
            events: 0,
            write_seq: 0,
            swing_seq: 0,
            pk_seq: HashMap::new(),
            next_pk: initial_rows,
            log: vec![CommitEvent::Edit {
                patches: Vec::new(),
                inserts: (0..initial_rows).map(|i| (i, i * 10)).collect(),
            }],
            predicted_ww: 0,
            predicted_swing: 0,
            writers: vec![None, None, None],
            readers: vec![None, None],
            rewriter: None,
        }
    }

    fn fresh_pks(&mut self, n: usize) -> Vec<(i64, i64)> {
        (0..n)
            .map(|_| {
                let pk = self.next_pk;
                self.next_pk += 1;
                (pk, self.rng.range_i64(-1000, 1000))
            })
            .collect()
    }

    /// What would this transaction's COMMIT do right now?
    fn predict(&self, txn: &TxnState) -> Predicted {
        if txn.patched.is_empty() && txn.own_inserts.is_empty() {
            return Predicted::Ok; // read-only commits never conflict
        }
        if self.swing_seq > txn.pin_seq {
            return Predicted::SwingConflict;
        }
        for pk in txn.patched.keys() {
            if self.pk_seq.get(pk).copied().unwrap_or(0) > txn.pin_seq {
                return Predicted::RecordConflict;
            }
        }
        Predicted::Ok
    }

    fn step_writer(&mut self, w: usize) {
        let Some(state) = self.writers[w].take() else {
            // No open transaction: begin one, or fire an autocommit write.
            match self.rng.next_below(4) {
                0 => {
                    let txn = self.store.begin_transaction().unwrap();
                    trace(&format!(
                        "w{w} BEGIN pin_seq={} gen={} ts={}",
                        self.events,
                        txn.generation(),
                        txn.snapshot_ts()
                    ));
                    self.writers[w] = Some(TxnState {
                        txn,
                        view: self.committed.clone(),
                        patched: BTreeMap::new(),
                        own_inserts: Vec::new(),
                        pin_seq: self.events,
                    });
                }
                1 => self.autocommit_update(),
                2 => self.autocommit_insert(),
                _ => {} // idle
            }
            return;
        };
        let mut state = state;
        match self.rng.next_below(8) {
            0 | 1 => self.txn_update(&mut state),
            2 => self.txn_delete(&mut state),
            3 => self.txn_insert(&mut state),
            4 => {
                // Read-your-own-writes check.
                let got: BTreeMap<i64, i64> = txn_rows(&state.txn)
                    .unwrap()
                    .into_iter()
                    .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
                    .collect();
                assert_eq!(got, state.view, "transaction view diverged");
                self.writers[w] = Some(state);
                return;
            }
            5 | 6 => {
                self.commit_txn(state);
                return;
            }
            _ => {
                state.txn.rollback();
                return;
            }
        }
        self.writers[w] = Some(state);
    }

    fn txn_update(&mut self, state: &mut TxnState) {
        let m = [3i64, 5, 7][self.rng.next_below(3) as usize];
        let r = self.rng.range_i64(0, m - 1);
        let d = self.rng.range_i64(1, 9);
        let expect: Vec<i64> = state
            .view
            .keys()
            .copied()
            .filter(|pk| pk.rem_euclid(m) == r)
            .collect();
        let matched = state
            .txn
            .update(
                |row: &Vec<Value>| row[0].as_i64().unwrap().rem_euclid(m) == r,
                &[(
                    1,
                    Box::new(move |row: &Vec<Value>| {
                        Ok(Value::Int64(row[1].as_i64().unwrap() + d))
                    }),
                )],
                &UnionReadOptions::all(),
            )
            .unwrap();
        if matched != expect.len() as u64 {
            let got: Vec<(i64, i64)> = txn_rows(&state.txn)
                .unwrap()
                .into_iter()
                .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
                .collect();
            let want = sorted_pairs(&state.view);
            let extra: Vec<_> = got.iter().filter(|p| !want.contains(p)).collect();
            let missing: Vec<_> = want.iter().filter(|p| !got.contains(p)).collect();
            panic!(
                "UPDATE matched {matched}, model expected {}\n  extra in store: {extra:?}\n  missing from store: {missing:?}",
                expect.len()
            );
        }
        let own: BTreeSet<i64> = state.own_inserts.iter().map(|&(pk, _)| pk).collect();
        for pk in expect {
            let v = state.view.get_mut(&pk).unwrap();
            *v += d;
            let v = *v;
            if !own.contains(&pk) {
                state.patched.insert(pk, Some(v));
            } else {
                // Patch our own buffered insert in place.
                for ins in &mut state.own_inserts {
                    if ins.0 == pk {
                        ins.1 = v;
                    }
                }
            }
        }
    }

    fn txn_delete(&mut self, state: &mut TxnState) {
        let m = [4i64, 6][self.rng.next_below(2) as usize];
        let r = self.rng.range_i64(0, m - 1);
        let expect: Vec<i64> = state
            .view
            .keys()
            .copied()
            .filter(|pk| pk.rem_euclid(m) == r)
            .collect();
        let matched = state
            .txn
            .delete(
                |row: &Vec<Value>| row[0].as_i64().unwrap().rem_euclid(m) == r,
                &UnionReadOptions::all(),
            )
            .unwrap();
        assert_eq!(matched, expect.len() as u64, "DELETE matched count");
        let own: BTreeSet<i64> = state.own_inserts.iter().map(|&(pk, _)| pk).collect();
        for pk in expect {
            state.view.remove(&pk);
            if own.contains(&pk) {
                state.own_inserts.retain(|&(p, _)| p != pk);
                state.patched.remove(&pk);
            } else {
                state.patched.insert(pk, None);
            }
        }
    }

    fn txn_insert(&mut self, state: &mut TxnState) {
        let rows = {
            let n = 1 + self.rng.next_below(3) as usize;
            self.fresh_pks(n)
        };
        trace(&format!("txn INSERT {rows:?}"));
        state
            .txn
            .insert(
                rows.iter()
                    .map(|&(pk, v)| vec![Value::Int64(pk), Value::Int64(v)])
                    .collect(),
            )
            .unwrap();
        for &(pk, v) in &rows {
            state.view.insert(pk, v);
        }
        state.own_inserts.extend(rows);
    }

    fn commit_txn(&mut self, state: TxnState) {
        let predicted = self.predict(&state);
        trace(&format!(
            "COMMIT pin_seq={} patched={:?} inserts={:?} predicted={predicted:?}",
            state.pin_seq, state.patched, state.own_inserts
        ));
        let result = state.txn.commit();
        match predicted {
            Predicted::Ok => {
                result.unwrap_or_else(|e| panic!("predicted clean commit, got {e:?}"));
                if state.patched.is_empty() && state.own_inserts.is_empty() {
                    return; // read-only: no event
                }
                self.events += 1;
                self.write_seq = self.events;
                for &pk in state.patched.keys() {
                    self.pk_seq.insert(pk, self.events);
                }
                // Fold the transaction's effects into the committed model.
                for (&pk, new) in &state.patched {
                    match new {
                        Some(v) => {
                            self.committed.insert(pk, *v);
                        }
                        None => {
                            self.committed.remove(&pk);
                        }
                    }
                }
                for &(pk, v) in &state.own_inserts {
                    self.committed.insert(pk, v);
                }
                self.log.push(CommitEvent::Edit {
                    patches: state.patched.into_iter().collect(),
                    inserts: state.own_inserts,
                });
            }
            Predicted::SwingConflict | Predicted::RecordConflict => {
                let err = result.expect_err("predicted conflict, commit succeeded");
                assert!(err.is_conflict(), "predicted conflict, got {err:?}");
                if predicted == Predicted::SwingConflict {
                    self.predicted_swing += 1;
                } else {
                    self.predicted_ww += 1;
                }
            }
        }
    }

    fn autocommit_update(&mut self) {
        let m = [3i64, 5][self.rng.next_below(2) as usize];
        let r = self.rng.range_i64(0, m - 1);
        let d = self.rng.range_i64(1, 9);
        let report = self
            .store
            .update(
                |row| row[0].as_i64().unwrap().rem_euclid(m) == r,
                &[(
                    1,
                    Box::new(move |row: &Vec<Value>| {
                        Ok(Value::Int64(row[1].as_i64().unwrap() + d))
                    }),
                )],
                RatioHint::Explicit(0.05),
            )
            .unwrap();
        let hit: Vec<i64> = self
            .committed
            .keys()
            .copied()
            .filter(|pk| pk.rem_euclid(m) == r)
            .collect();
        trace(&format!(
            "auto UPDATE m={m} r={r} d={d} matched={}",
            report.rows_matched
        ));
        assert_eq!(report.rows_matched, hit.len() as u64, "autocommit UPDATE");
        if hit.is_empty() {
            return;
        }
        self.events += 1;
        self.write_seq = self.events;
        let mut patches = Vec::new();
        for pk in hit {
            let v = self.committed.get_mut(&pk).unwrap();
            *v += d;
            self.pk_seq.insert(pk, self.events);
            patches.push((pk, Some(*v)));
        }
        self.log.push(CommitEvent::Edit {
            patches,
            inserts: Vec::new(),
        });
    }

    fn autocommit_insert(&mut self) {
        let rows = {
            let n = 1 + self.rng.next_below(4) as usize;
            self.fresh_pks(n)
        };
        trace(&format!(
            "auto INSERT {rows:?} -> event {}",
            self.events + 1
        ));
        self.store
            .insert_rows(
                rows.iter()
                    .map(|&(pk, v)| vec![Value::Int64(pk), Value::Int64(v)]),
            )
            .unwrap();
        self.events += 1;
        self.write_seq = self.events;
        for &(pk, v) in &rows {
            self.committed.insert(pk, v);
        }
        self.log.push(CommitEvent::Edit {
            patches: Vec::new(),
            inserts: rows,
        });
    }

    fn step_reader(&mut self, r: usize) {
        match self.readers[r].take() {
            None => {
                if self.rng.next_below(2) == 0 {
                    let snap = self.store.begin_snapshot().unwrap();
                    self.readers[r] = Some(ReaderState {
                        snap,
                        expect: self.committed.clone(),
                    });
                }
            }
            Some(state) => {
                let got: BTreeMap<i64, i64> = state
                    .snap
                    .scan_all()
                    .unwrap()
                    .into_iter()
                    .map(|(_, row)| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
                    .collect();
                assert_eq!(got, state.expect, "pinned snapshot drifted");
                assert_eq!(state.snap.count().unwrap(), state.expect.len() as u64);
                // Keep the pin ~2/3 of the time.
                if self.rng.next_below(3) != 0 {
                    self.readers[r] = Some(state);
                }
            }
        }
    }

    fn step_rewriter(&mut self) {
        match self.rewriter.take() {
            None => match self.rng.next_below(4) {
                0 => {
                    let job = self.store.begin_compact().unwrap();
                    trace(&format!(
                        "rewrite BEGIN COMPACT pin_seq={} target={}",
                        self.events,
                        job.target_generation()
                    ));
                    assert_eq!(job.rows_written(), self.committed.len() as u64);
                    self.rewriter = Some(RewriteState {
                        job,
                        pin_seq: self.events,
                        replaces: None,
                    });
                }
                1 => {
                    let rows = {
                        let n = 4 + self.rng.next_below(8) as usize;
                        self.fresh_pks(n)
                    };
                    let job = self
                        .store
                        .begin_insert_overwrite(
                            rows.iter()
                                .map(|&(pk, v)| vec![Value::Int64(pk), Value::Int64(v)])
                                .collect(),
                        )
                        .unwrap();
                    trace(&format!(
                        "rewrite BEGIN OVERWRITE pin_seq={} target={} rows={:?}",
                        self.events,
                        job.target_generation(),
                        rows
                    ));
                    self.rewriter = Some(RewriteState {
                        job,
                        pin_seq: self.events,
                        replaces: Some(rows),
                    });
                }
                _ => {}
            },
            Some(state) => {
                if self.rng.next_below(4) == 0 {
                    trace(&format!(
                        "rewrite ABANDON target={}",
                        state.job.target_generation()
                    ));
                    state.job.abandon();
                    return;
                }
                let conflicted = self.write_seq > state.pin_seq || self.swing_seq > state.pin_seq;
                trace(&format!(
                    "rewrite FINISH target={} pin_seq={} predicted_conflict={conflicted}",
                    state.job.target_generation(),
                    state.pin_seq
                ));
                let replaces = state.replaces.clone();
                let result = state.job.finish();
                if conflicted {
                    let err = result.expect_err("predicted swing conflict, finish succeeded");
                    assert!(err.is_conflict(), "predicted conflict, got {err:?}");
                    self.predicted_swing += 1;
                } else {
                    result.unwrap_or_else(|e| panic!("predicted clean swing, got {e:?}"));
                    self.events += 1;
                    self.swing_seq = self.events;
                    match replaces {
                        Some(rows) => {
                            self.committed = rows.iter().copied().collect();
                            self.log.push(CommitEvent::Overwrite(rows));
                        }
                        None => self.log.push(CommitEvent::Compact),
                    }
                }
            }
        }
    }

    /// GC safety: with no pins alive nothing stays retired, and a pinned
    /// generation is never deleted (the pinned readers' scans above would
    /// explode if it were).
    fn check_gc_invariant(&self) {
        if self.store.pinned_snapshots() == 0 {
            assert_eq!(
                self.store.retired_generations(),
                0,
                "retired generations must drain once the last pin drops"
            );
        }
    }

    fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            match self.rng.next_below(6) {
                0..=2 => {
                    let w = self.rng.next_below(self.writers.len() as u64) as usize;
                    self.step_writer(w);
                }
                3 | 4 => {
                    let r = self.rng.next_below(self.readers.len() as u64) as usize;
                    self.step_reader(r);
                }
                _ => self.step_rewriter(),
            }
            self.check_gc_invariant();
        }
        // Drain every session.
        for w in 0..self.writers.len() {
            if let Some(state) = self.writers[w].take() {
                self.commit_txn(state);
            }
        }
        for r in 0..self.readers.len() {
            self.readers[r] = None;
        }
        if let Some(state) = self.rewriter.take() {
            state.job.abandon();
        }
        assert_eq!(self.store.pinned_snapshots(), 0, "all pins drained");
        assert_eq!(self.store.retired_generations(), 0, "all generations GC'd");
        assert_eq!(
            sorted_pairs(&self.committed),
            {
                let mut live = rows_of(&self.store);
                live.sort_unstable();
                live
            },
            "final table content diverged from the model"
        );
    }

    /// The serializability oracle: replay the committed write events in
    /// commit order, single-threaded, against a fresh table; the scan must
    /// be byte-identical to the live table's (values *and* order).
    fn replay_and_compare(&self) {
        let env = DualTableEnv::in_memory();
        let oracle = DualTableStore::create(&env, "oracle", schema(), config()).unwrap();
        for event in &self.log {
            match event {
                CommitEvent::Edit { patches, inserts } => {
                    let updates: HashMap<i64, i64> = patches
                        .iter()
                        .filter_map(|&(pk, v)| v.map(|v| (pk, v)))
                        .collect();
                    let deletes: BTreeSet<i64> = patches
                        .iter()
                        .filter(|(_, v)| v.is_none())
                        .map(|&(pk, _)| pk)
                        .collect();
                    if !updates.is_empty() {
                        let u = updates.clone();
                        oracle
                            .update(
                                move |row| u.contains_key(&row[0].as_i64().unwrap()),
                                &[(
                                    1,
                                    Box::new({
                                        let u = updates.clone();
                                        move |row: &Vec<Value>| {
                                            Ok(Value::Int64(u[&row[0].as_i64().unwrap()]))
                                        }
                                    }),
                                )],
                                RatioHint::Explicit(0.05),
                            )
                            .unwrap();
                    }
                    if !deletes.is_empty() {
                        oracle
                            .delete(
                                |row| deletes.contains(&row[0].as_i64().unwrap()),
                                RatioHint::Explicit(0.05),
                            )
                            .unwrap();
                    }
                    if !inserts.is_empty() {
                        oracle
                            .insert_rows(
                                inserts
                                    .iter()
                                    .map(|&(pk, v)| vec![Value::Int64(pk), Value::Int64(v)]),
                            )
                            .unwrap();
                    }
                }
                CommitEvent::Overwrite(rows) => {
                    oracle
                        .insert_overwrite(
                            rows.iter()
                                .map(|&(pk, v)| vec![Value::Int64(pk), Value::Int64(v)])
                                .collect::<Vec<_>>(),
                        )
                        .unwrap();
                }
                CommitEvent::Compact => {
                    oracle.compact().unwrap();
                }
            }
        }
        let live = self.store.scan_all().unwrap();
        let replayed = oracle.scan_all().unwrap();
        assert_eq!(
            as_pairs(&live),
            as_pairs(&replayed),
            "oracle replay diverged from the concurrent execution"
        );
    }
}

fn run_one_seed(seed: u64) -> Totals {
    let env = DualTableEnv::in_memory();
    let mut h = Harness::new(&env, seed, 40);
    h.run(110);
    h.replay_and_compare();
    let snap = env.health.snapshot();
    assert_eq!(
        snap.ww_conflicts, h.predicted_ww,
        "write-write conflict count must match the model's prediction"
    );
    assert_eq!(
        snap.swing_conflicts, h.predicted_swing,
        "swing conflict count must match the model's prediction"
    );
    assert_eq!(snap.cleanup_failures, 0, "no cleanup failures in-memory");
    Totals {
        ww_conflicts: snap.ww_conflicts,
        swing_conflicts: snap.swing_conflicts,
        deferred: snap.generations_deferred,
        gcd: snap.generations_gcd,
    }
}

/// The seed sweep. `MVCC_STRESS_SEEDS` overrides the seed count (the
/// nightly long run raises it); `SEED=<n>` replays one failing seed.
#[test]
fn mvcc_stress_seed_sweep() {
    if std::env::var("SEED").is_ok() {
        let seed = seed_from_env(1);
        with_seed_repro(
            "dualtable",
            "mvcc_stress",
            "mvcc_stress_seed_sweep",
            seed,
            |s| {
                run_one_seed(s);
            },
        );
        return;
    }
    let seeds: u64 = std::env::var("MVCC_STRESS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let mut totals = Totals::default();
    for i in 0..seeds {
        let seed = 0xD1A2_0000 + i;
        let t = std::cell::RefCell::new(Totals::default());
        with_seed_repro(
            "dualtable",
            "mvcc_stress",
            "mvcc_stress_seed_sweep",
            seed,
            |s| {
                *t.borrow_mut() = run_one_seed(s);
            },
        );
        let t = t.into_inner();
        totals.ww_conflicts += t.ww_conflicts;
        totals.swing_conflicts += t.swing_conflicts;
        totals.deferred += t.deferred;
        totals.gcd += t.gcd;
    }
    // The sweep must exercise every contended path at least once
    // (ISSUE 6 acceptance): a first-committer-wins loss, a swing
    // conflict, a swing deferred by a pinned reader, and a deferred
    // generation actually GC'd.
    assert!(
        totals.ww_conflicts >= 1,
        "no seed hit a write-write conflict"
    );
    assert!(totals.swing_conflicts >= 1, "no seed hit a swing conflict");
    assert!(
        totals.deferred >= 1,
        "no seed swung the pointer under a pinned reader"
    );
    assert!(totals.gcd >= 1, "no seed GC'd a deferred generation");
}

// ---------------------------------------------------------------------
// Directed scenarios: one deterministic script per acceptance bullet.
// ---------------------------------------------------------------------

fn small_store(env: &DualTableEnv) -> DualTableStore {
    let t = DualTableStore::create(env, "t", schema(), config()).unwrap();
    t.insert_rows((0..10).map(|i| vec![Value::Int64(i), Value::Int64(i * 10)]))
        .unwrap();
    t
}

/// Two transactions write the same record: the first committer wins, the
/// second gets a retryable conflict, and its buffered writes vanish.
#[test]
fn first_committer_wins_directed() {
    let env = DualTableEnv::in_memory();
    let t = small_store(&env);
    let mut a = t.begin_transaction().unwrap();
    let mut b = t.begin_transaction().unwrap();
    let set = |v: i64| -> Vec<dualtable::Assignment<'static>> {
        vec![(1, Box::new(move |_: &Vec<Value>| Ok(Value::Int64(v))))]
    };
    assert_eq!(
        a.update(
            |r| r[0].as_i64().unwrap() == 3,
            &set(111),
            &UnionReadOptions::all()
        )
        .unwrap(),
        1
    );
    assert_eq!(
        b.update(
            |r| r[0].as_i64().unwrap() == 3,
            &set(222),
            &UnionReadOptions::all()
        )
        .unwrap(),
        1
    );
    a.commit().unwrap();
    let err = b.commit().unwrap_err();
    assert!(
        err.is_conflict(),
        "loser must get a retryable conflict: {err:?}"
    );
    assert_eq!(env.health.snapshot().ww_conflicts, 1);
    let rows = rows_of(&t);
    assert!(rows.contains(&(3, 111)), "winner's write applied");
    assert!(!rows.contains(&(3, 222)), "loser's write discarded");
}

/// A generation swing with a reader pinned on the old generation: the
/// swing commits, the reader keeps its view, GC is deferred until the
/// pin drops, then the old generation is collected.
#[test]
fn pointer_swing_under_pinned_reader_directed() {
    let env = DualTableEnv::in_memory();
    let t = small_store(&env);
    let before = rows_of(&t);

    let reader = t.begin_snapshot().unwrap();
    let job = t.begin_compact().unwrap();
    job.finish().unwrap();

    assert!(
        env.health.snapshot().generations_deferred >= 1,
        "GC deferred"
    );
    assert_eq!(
        t.retired_generations(),
        1,
        "old generation retired, not GC'd"
    );
    let pinned: Vec<(i64, i64)> = reader
        .scan_all()
        .unwrap()
        .into_iter()
        .map(|(_, r)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert_eq!(pinned, before, "pinned reader view survives the swing");

    drop(reader);
    assert_eq!(t.retired_generations(), 0, "GC ran when the pin drained");
    assert!(env.health.snapshot().generations_gcd >= 1);
    assert_eq!(rows_of(&t), before, "compact is content-neutral");
}

/// An EDIT committing mid-rewrite makes the rewrite's finish fail — the
/// swing would silently lose the edit otherwise.
#[test]
fn edit_commit_fails_concurrent_rewrite() {
    let env = DualTableEnv::in_memory();
    let t = small_store(&env);
    let job = t.begin_compact().unwrap();
    t.update(
        |r| r[0].as_i64().unwrap() == 1,
        &[(1, Box::new(|_: &Vec<Value>| Ok(Value::Int64(-7))))],
        RatioHint::Explicit(0.05),
    )
    .unwrap();
    let err = job.finish().unwrap_err();
    assert!(err.is_conflict());
    assert!(env.health.snapshot().swing_conflicts >= 1);
    let rows = rows_of(&t);
    assert!(
        rows.contains(&(1, -7)),
        "the edit survived the failed swing"
    );
    // The abandoned generation leaves the table fully operational.
    t.compact().unwrap();
    assert!(rows_of(&t).contains(&(1, -7)));
}

/// An autocommit INSERT mid-rewrite also fails the swing: its files only
/// exist in the generation the swing would retire.
#[test]
fn insert_commit_fails_concurrent_rewrite() {
    let env = DualTableEnv::in_memory();
    let t = small_store(&env);
    let job = t.begin_compact().unwrap();
    t.insert_rows([vec![Value::Int64(100), Value::Int64(1)]])
        .unwrap();
    let err = job.finish().unwrap_err();
    assert!(
        err.is_conflict(),
        "swing must not drop the concurrent insert"
    );
    assert!(rows_of(&t).contains(&(100, 1)));
}

/// A transaction pinned before a successful swing conflicts at commit
/// (its record ids refer to the retired generation's files).
#[test]
fn transaction_loses_to_swing() {
    let env = DualTableEnv::in_memory();
    let t = small_store(&env);
    let mut txn = t.begin_transaction().unwrap();
    txn.update(
        |r| r[0].as_i64().unwrap() == 2,
        &[(1, Box::new(|_: &Vec<Value>| Ok(Value::Int64(5))))],
        &UnionReadOptions::all(),
    )
    .unwrap();
    let job = t.begin_compact().unwrap();
    job.finish().unwrap();
    let err = txn.commit().unwrap_err();
    assert!(err.is_conflict(), "swing invalidates older pins' writes");
    assert!(env.health.snapshot().swing_conflicts >= 1);
}

/// Transactional inserts stay invisible until commit, then appear
/// atomically with the transaction's other effects.
#[test]
fn transactional_insert_atomic_visibility() {
    let env = DualTableEnv::in_memory();
    let t = small_store(&env);
    let mut txn = t.begin_transaction().unwrap();
    txn.insert(vec![
        vec![Value::Int64(50), Value::Int64(1)],
        vec![Value::Int64(51), Value::Int64(2)],
    ])
    .unwrap();
    txn.delete(|r| r[0].as_i64().unwrap() == 0, &UnionReadOptions::all())
        .unwrap();
    let other = t.begin_snapshot().unwrap();
    assert_eq!(other.count().unwrap(), 10, "buffered writes invisible");
    assert_eq!(t.count().unwrap(), 10);
    txn.commit().unwrap();
    assert_eq!(
        other.count().unwrap(),
        10,
        "pinned snapshot still pre-commit"
    );
    assert_eq!(t.count().unwrap(), 11); // 10 - 1 deleted + 2 inserted
}
