//! `tpch_read` and `tpch_dml_cycle`: one in-process session on a 16-column
//! `lineitem`, closed loop, one generator thread.
//!
//! Both keep the table's size constant the same way: the base rows are
//! never deleted; each cycle deletes the batch the cycle before appended
//! (by its order-key range) and appends the next one. The shares below are
//! of the base rows.

use std::time::Instant;

use crate::gen::*;
use crate::layers::{
    counter_layers, micro_rungs, replay, span_layers, stmt_layers, trace_overhead, Replayed,
    TableFacts, WriteRung,
};
use crate::oracle::{same_rows, sort_lineitem, Expect, TpchModel};
use crate::recorder::{median, Kind};
use crate::run::{rounds_for, set_up, timed, Args, Lane, Outcome, TRACED_LOOP_SHARE};
use crate::rungs::{Cmp, Engine, Force, ScanSpec, Sql, TableCfg, Value};
use crate::trace::Tracer;

/// Base rows of `lineitem` at full scale (≈ 3 MB of ORC).
const BASE_ROWS: usize = 48_000;
/// The appended batch: 2 % of the base, a whole number of orders.
const BATCH_SHARE: usize = 50;
/// `tpch_read`: the default 64 MiB block cache; the table fits 20 times.
const CACHE_FITS: u64 = 64 << 20;
/// `tpch_dml_cycle`: 1 MiB, about a third of the table.
const CACHE_STARVED: u64 = 1 << 20;
/// `tpch_read`: read sets between two DML tails.
const READ_SETS: usize = 3;
/// Days a ship-date range filter covers (4 % of the span).
const RANGE_DAYS: i32 = 100;
const FILES: usize = 8;
const STRIPES_PER_FILE: usize = 3;

#[derive(Clone, Copy, PartialEq)]
pub enum Which {
    Read,
    DmlCycle,
}

struct Tpch {
    engine: Engine,
    sql: Sql,
    model: TpchModel,
    rng: Rng,
    /// Stream index of the batch now in the table, and of the next one.
    batch_first: usize,
    batch: usize,
    /// What the user's DML wrote, for the per-user-byte ratios.
    user_bytes: u64,
    table: &'static str,
}

fn table_cfg(base: usize) -> TableCfg {
    TableCfg {
        rows_per_file: base / FILES,
        stripe_rows: base / FILES / STRIPES_PER_FILE,
        delta_bytes: 0,
    }
}

impl Tpch {
    /// Generate + load. The warm-up round is the caller's.
    fn build(args: &Args, cache: u64, force: Force) -> Tpch {
        let base = args.rows(BASE_ROWS);
        let batch = base / BATCH_SHARE / 4 * 4;
        let rows = lineitem_rows(args.seed, base, 0, base + batch);
        let engine = Engine::new(cache, &table_cfg(base), force);
        let mut sql = engine.session();
        sql.create_table(LINEITEM, LINEITEM_COLUMNS, "DUALTABLE", "", &[]);
        sql.load(LINEITEM, rows.clone());
        Tpch {
            engine,
            sql,
            model: TpchModel::new(args.seed, base, rows),
            rng: Rng::new(args.seed ^ 0x7AB1E),
            batch_first: base,
            batch,
            user_bytes: 0,
            table: LINEITEM,
        }
    }

    fn send(&mut self, lane: &mut Lane, kind: Kind, stmt: TpchStmt) {
        let payload = self.model.payload(&stmt);
        let text = stmt.sql(self.table, &payload);
        let rows_before = self.model.rows.len() as u64;
        let expect = self.model.apply(&stmt);
        let sent = lane.send(&mut self.sql, kind, &text, &expect);
        if kind.is_full_scan_read() {
            lane.rec.scanned(rows_before, sent.latency);
        }
        self.user_bytes += match (&stmt, &expect) {
            (TpchStmt::Insert { .. }, _) => raw_bytes(&payload),
            (
                TpchStmt::Edit1 { .. } | TpchStmt::Edit5 { .. } | TpchStmt::Over50 { .. },
                Expect::Affected(n),
            ) => 8 * n,
            _ => 0,
        };
        if let Some((top, stmt_id)) = sent.replay {
            let affected = sent.reply.map_or(0, |r| r.affected);
            let write = match &stmt {
                TpchStmt::Edit1 { .. } | TpchStmt::Edit5 { .. } | TpchStmt::DeleteKeys { .. } => {
                    WriteRung::KvPut {
                        cells: affected,
                        shadow: false,
                    }
                }
                TpchStmt::Insert { .. } => WriteRung::OrcEncode { rows: payload },
                TpchStmt::Over50 { .. } | TpchStmt::Compact => WriteRung::OrcEncode {
                    rows: self.engine.materialise(self.table),
                },
                _ => WriteRung::None,
            };
            let replayed = Replayed {
                table: self.table,
                text: &text,
                scan: (!matches!(stmt, TpchStmt::Insert { .. })).then(|| scan_spec(&stmt)),
                write,
            };
            let tracer = lane.tracer.as_mut().expect("a replay implies a tracer");
            replay(&self.engine, tracer, top, stmt_id, replayed, None);
        }
    }

    fn ship_range(&mut self) -> TpchStmt {
        let lo = DATE_BASE + self.rng.range(0, i64::from(DATE_SPAN - RANGE_DAYS)) as i32;
        TpchStmt::ShipRange {
            lo,
            hi: lo + RANGE_DAYS,
        }
    }

    fn swap_batch(&mut self, lane: &mut Lane) {
        let (first, n) = (self.batch_first, self.batch);
        let (lo, hi) = (orderkey_of(first), orderkey_of(first + n));
        self.send(lane, Kind::Delete, TpchStmt::DeleteKeys { lo, hi });
        self.batch_first += n;
        self.send(
            lane,
            Kind::Insert,
            TpchStmt::Insert {
                first: first + n,
                n,
            },
        );
    }

    /// `tpch_read`: three read sets on the clean table, then a DML tail
    /// that leaves it clean again.
    fn read_round(&mut self, lane: &mut Lane) {
        for _ in 0..READ_SETS {
            self.send(lane, Kind::Q1, TpchStmt::Q1);
            self.send(lane, Kind::Count, TpchStmt::Count);
            let range = self.ship_range();
            self.send(lane, Kind::Select, range);
        }
        let r = self.rng.range(0, 99);
        self.send(lane, Kind::Edit, TpchStmt::Edit1 { r });
        self.swap_batch(lane);
        self.send(lane, Kind::Compact, TpchStmt::Compact);
        self.send(lane, Kind::Overwrite, TpchStmt::Over50 { r: r % 2 });
    }

    /// `tpch_dml_cycle`: the paper's experiment as one loop. `dirty` runs
    /// once the table carries the cycle's 8 % of edits.
    fn dml_round(&mut self, lane: &mut Lane, dirty: &mut dyn FnMut(&Tpch)) {
        let r = self.rng.range(0, 99);
        self.send(lane, Kind::Edit, TpchStmt::Edit1 { r });
        self.send(lane, Kind::Q1Light, TpchStmt::Q1);
        self.send(lane, Kind::Edit5, TpchStmt::Edit5 { r: r % 20 });
        self.swap_batch(lane);
        self.send(lane, Kind::Q1, TpchStmt::Q1);
        self.send(lane, Kind::Count, TpchStmt::Count);
        let range = self.ship_range();
        self.send(lane, Kind::Select, range);
        dirty(self);
        self.send(lane, Kind::Compact, TpchStmt::Compact);
        self.send(lane, Kind::Q1Clean, TpchStmt::Q1);
        self.send(lane, Kind::Overwrite, TpchStmt::Over50 { r: r % 2 });
    }

    fn round(&mut self, which: Which, lane: &mut Lane, dirty: &mut dyn FnMut(&Tpch)) {
        let busy = lane.rec.busy_s();
        match which {
            Which::Read => self.read_round(lane),
            Which::DmlCycle => self.dml_round(lane, dirty),
        }
        // A round's time is the time inside its statements: the oracle's
        // work between them is the harness's, not the engine's.
        let spent = lane.rec.busy_s() - busy;
        lane.rec.rounds.push(spent);
    }

    /// The final table, row for row, against the model.
    fn check_contents(&mut self, lane: &mut Lane) {
        let reply = self.sql.execute(&format!("SELECT * FROM {}", self.table));
        let same = reply.is_ok_and(|r| same_rows(&sort_lineitem(&r.rows), &self.model.sorted()));
        if !same {
            lane.rec.mismatches += 1;
            eprintln!("MISMATCH final contents of {}", self.table);
        }
    }
}

fn scan_spec(stmt: &TpchStmt) -> ScanSpec {
    match stmt {
        TpchStmt::Q1 => ScanSpec::all().and((L_SHIPDATE, Cmp::Le, Value::Date(Q1_CUTOFF))),
        TpchStmt::ShipRange { lo, hi } => ScanSpec::all()
            .and((L_SHIPDATE, Cmp::Ge, Value::Date(*lo)))
            .and((L_SHIPDATE, Cmp::Lt, Value::Date(*hi))),
        // COUNT(*) scans everything, and DML scans everything to find its rows.
        _ => ScanSpec::all(),
    }
}

pub fn run(which: Which, args: &Args) -> Outcome {
    let cache = match which {
        Which::Read => CACHE_FITS,
        Which::DmlCycle => CACHE_STARVED,
    };
    let mut out = Outcome::default();

    let mut t = set_up(&mut out.setups, || {
        let mut t = Tpch::build(args, cache, Force::CostBased);
        let mut warm = Lane::new(None);
        t.round(which, &mut warm, &mut |_| {});
        assert_eq!(warm.rec.failures(), 0, "the warm-up round must pass");
        t
    });
    t.user_bytes = 0;

    let origin = Instant::now();
    let mut lane = Lane::new(args.trace.then(|| Tracer::new(origin, 0)));
    let before = t.engine.counters(t.table);
    let mut dirty_scan = Vec::new();
    let seconds = args.seconds * if args.trace { TRACED_LOOP_SHARE } else { 1.0 };
    let mut traced_rounds = Vec::new();
    out.measured_s = rounds_for(seconds, |n| {
        // Odd rounds of a traced run go untraced: the difference between
        // the two kinds of round is what tracing costs.
        lane.tracing = args.trace && n % 2 == 0;
        let traced = lane.tracing;
        t.round(which, &mut lane, &mut |t: &Tpch| {
            if traced {
                let (rows, s) = timed(|| t.engine.union_read(t.table, &ScanSpec::all()));
                dirty_scan.push(rows as f64 / s);
            }
        });
        traced_rounds.push(traced);
    });
    let after = t.engine.counters(t.table);
    out.stmts_per_s = lane.rec.attempted() as f64 / lane.rec.busy_s();
    t.check_contents(&mut lane);

    out.sizes = vec![
        ("lineitem_rows", t.model.rows.len() as u64),
        ("block_cache_bytes", cache),
        ("master_bytes", after.master_bytes),
        ("rounds", lane.rec.rounds.len() as u64),
    ];

    if args.trace {
        let layers = &mut out.layers;
        counter_layers(
            &before,
            &after,
            t.user_bytes,
            raw_bytes(&t.model.rows),
            layers,
        );
        layers.insert(
            "bench.trace_overhead_share",
            trace_overhead(&lane.rec.rounds, &traced_rounds),
        );
        stmt_layers(&lane.rec, layers);
        let range = t.ship_range();
        micro_rungs(
            &t.engine,
            &TableFacts {
                table: t.table,
                filter: scan_spec(&range),
                group: (L_RETURNFLAG, L_LINESTATUS, L_QUANTITY),
            },
            layers,
        );
        layers.insert(
            "dualtable.union_read_dirty_rows_per_s",
            median(&dirty_scan).unwrap_or(0.0),
        );
        let p50 = |k| lane.rec.samples(k).p50().unwrap_or(0.0);
        if which == Which::DmlCycle {
            layers.insert(
                "dualtable.union_read_overhead",
                p50(Kind::Q1) / p50(Kind::Q1Clean),
            );
            layers.insert("stmt.q1_clean_p50_ms", p50(Kind::Q1Clean));
            hive_comparator(args, &t, p50(Kind::Edit), layers);
            layers.insert("dualtable.plan_regret_max", plan_regret(args, &t));
        }
        // Q1 returns at most six groups for every row it examines.
        let q1_rows = t.model.rows.len() as f64;
        layers.insert("hiveql.rows_examined_per_row_returned", q1_rows / 6.0);
        if let Some(tr) = lane.tracer.take() {
            out.spans = tr.spans;
        }
        span_layers(&out.spans, layers);
    }
    out.rec = lane.rec;
    out
}

/// Three cycles of the same DML on a `STORED AS ORC` copy: stock Hive,
/// where every UPDATE and DELETE rewrites the table.
fn hive_comparator(args: &Args, t: &Tpch, edit_p50_ms: f64, layers: &mut crate::run::Layers) {
    let mut sql = t.engine.session();
    const HIVE: &str = "lineitem_hive";
    sql.create_table(HIVE, LINEITEM_COLUMNS, "ORC", "", &[]);
    sql.load(HIVE, t.model.rows.clone());
    let mut hive = Tpch {
        engine: t.engine.clone(),
        sql,
        model: TpchModel::new(args.seed, args.rows(BASE_ROWS), t.model.rows.clone()),
        rng: Rng::new(args.seed ^ 0x417E),
        batch_first: t.batch_first,
        batch: t.batch,
        user_bytes: 0,
        table: HIVE,
    };
    let mut lane = Lane::new(None);
    for _ in 0..3 {
        let r = hive.rng.range(0, 99);
        hive.send(&mut lane, Kind::Edit, TpchStmt::Edit1 { r });
        hive.send(&mut lane, Kind::Edit5, TpchStmt::Edit5 { r: r % 20 });
        hive.swap_batch(&mut lane);
        hive.send(&mut lane, Kind::Q1, TpchStmt::Q1);
        hive.send(&mut lane, Kind::Overwrite, TpchStmt::Over50 { r: r % 2 });
    }
    assert_eq!(
        lane.rec.failures(),
        0,
        "the Hive comparator must pass its checks"
    );
    let p50 = |k| lane.rec.samples(k).p50().unwrap_or(0.0);
    layers.insert("baselines.hive_update_1pct_ms", p50(Kind::Edit));
    layers.insert("baselines.hive_q1_ms", p50(Kind::Q1));
    layers.insert(
        "baselines.edit_speedup_vs_hive",
        p50(Kind::Edit) / edit_p50_ms,
    );
}

/// Measured regret of the cost model's choices: each DML statement of one
/// cycle is run under `AlwaysEdit` and under `AlwaysOverwrite` on a fresh
/// copy of the table, followed by the one read the model assumes (k = 1).
/// The chosen plan's cost over the cheaper plan's; the worst of the four.
fn plan_regret(args: &Args, t: &Tpch) -> f64 {
    let (first, n) = (t.batch_first, t.batch);
    let decisions = [
        TpchStmt::Edit1 { r: 7 },
        TpchStmt::Edit5 { r: 7 },
        TpchStmt::DeleteKeys {
            lo: orderkey_of(first),
            hi: orderkey_of(first + n),
        },
        TpchStmt::Over50 { r: 1 },
    ];
    let mut worst: f64 = 0.0;
    for stmt in &decisions {
        let cost = |force: Force| {
            let engine = Engine::new(CACHE_STARVED, &table_cfg(args.rows(BASE_ROWS)), force);
            let mut sql = engine.session();
            sql.create_table(LINEITEM, LINEITEM_COLUMNS, "DUALTABLE", "", &[]);
            sql.load(LINEITEM, t.model.rows.clone());
            let (reply, s) = timed(|| {
                let reply = sql
                    .execute(&stmt.sql(LINEITEM, &[]))
                    .expect("the replayed DML runs");
                sql.execute(&TpchStmt::Q1.sql(LINEITEM, &[]))
                    .expect("the read after it runs");
                reply
            });
            (reply.plan(), s)
        };
        let (_, edit) = cost(Force::Edit);
        let (_, overwrite) = cost(Force::Overwrite);
        let (chosen, _) = cost(Force::CostBased);
        let chosen = match chosen {
            Some(crate::rungs::Plan::Overwrite) => overwrite,
            _ => edit,
        };
        worst = worst.max(chosen / edit.min(overwrite));
    }
    worst
}
