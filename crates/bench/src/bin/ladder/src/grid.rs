//! `grid_htap`: writes beside reads on one smart-grid `readings` table,
//! delta tier on. Two in-process sessions on a shared catalog, two
//! threads: an operator patching rows and a dashboard scanning them.
//!
//! The writer's round is eight iterations of {INSERT a batch of new
//! terminals; EDIT burst over a window of terminals; DELETE the batch the
//! iteration before inserted}, with an incremental fold after every second
//! one, then a 50 % UPDATE that the cost model turns into an OVERWRITE.
//! The reader loops {dashboard `GROUP BY status`; `COUNT(*)`; a
//! terminal-range select} until the writer's last round ends.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::gen::*;
use crate::layers::{
    counter_layers, micro_rungs, replay, span_layers, stmt_layers, trace_overhead, Replayed,
    TableFacts, WriteRung,
};
use crate::oracle::{sort_readings, Expect, GridModel};
use crate::recorder::{Kind, Samples};
use crate::run::{rounds_for, set_up, timed, Args, Lane, Outcome, TRACED_LOOP_SHARE};
use crate::rungs::{Cmp, Engine, Force, Reply, Row, ScanSpec, Sql, TableCfg, Value};
use crate::trace::Tracer;

const TABLE: &str = "readings";
/// Terminals loaded at full scale; they are never deleted.
const BASE_ROWS: usize = 65_536;
const ROWS_PER_FILE: usize = 2_048;
const DELTA_BYTES: usize = 4 << 20;
/// Terminals a batch inserts (and the next iteration deletes).
const BATCH: usize = 128;
/// An EDIT burst covers 1/64 of the base terminals: 1024 at full scale.
const BURST_SHARE: i64 = 64;
/// Terminals a range select covers: four bursts' worth.
const RANGE_BURSTS: i64 = 4;
const ITERATIONS: usize = 8;
/// One incremental fold per two iterations: a fold takes the two dirtiest
/// files, two bursts dirty two, so maintenance keeps up with the bursts.
/// (A fold's latency is mostly its wait for the reader's scan to let go of
/// the table, anything from nothing to a whole scan; four samples a round
/// are what makes its median steady.)
const FOLD_EVERY: i64 = 2;
/// Quiesced dashboard scans of the end state (traced run).
const QUIESCED_SCANS: usize = 50;

struct Writer {
    engine: Engine,
    sql: Sql,
    model: GridModel,
    base: i64,
    burst: i64,
    /// First terminal of the batch now in the table.
    batch_first: i64,
    iteration: i64,
    user_bytes: u64,
}

/// What a statement's scan reads, for its replay; `None` for an INSERT,
/// which reads nothing.
pub fn spec_of(stmt: &GridStmt) -> Option<ScanSpec> {
    let (ge, lt) = (
        |lo: &i64| (R_ZDJH, Cmp::Ge, Value::Int64(*lo)),
        |hi: &i64| (R_ZDJH, Cmp::Lt, Value::Int64(*hi)),
    );
    match stmt {
        GridStmt::IdRange { lo, hi } => Some(ScanSpec::all().and(ge(lo)).and(lt(hi))),
        // DML scans every row to find its own, whatever its WHERE says;
        // on a sharded table its key range picks the shards it scans.
        GridStmt::SetStatus { lo, hi, .. } | GridStmt::DeleteIds { lo, hi } => {
            Some(ScanSpec::all().routed(ge(lo)).routed(lt(hi)))
        }
        GridStmt::Insert { .. } => None,
        _ => Some(ScanSpec::all()),
    }
}

/// The scratch write that stands for `stmt`'s own, in a replay.
pub fn write_rung(
    engine: &Engine,
    table: &str,
    stmt: &GridStmt,
    payload: Vec<Row>,
    affected: u64,
    shadow: bool,
) -> WriteRung {
    match stmt {
        GridStmt::SetStatus { .. } | GridStmt::DeleteIds { .. } => WriteRung::KvPut {
            cells: affected,
            shadow,
        },
        GridStmt::Insert { .. } => WriteRung::OrcEncode { rows: payload },
        GridStmt::ResetHalf { .. } | GridStmt::Compact | GridStmt::CompactIncremental => {
            WriteRung::OrcEncode {
                rows: engine.materialise(table),
            }
        }
        _ => WriteRung::None,
    }
}

impl Writer {
    fn build(args: &Args) -> Writer {
        let base = args.rows(BASE_ROWS);
        let cfg = TableCfg {
            rows_per_file: ROWS_PER_FILE,
            stripe_rows: ROWS_PER_FILE,
            delta_bytes: DELTA_BYTES,
        };
        let engine = Engine::new(64 << 20, &cfg, Force::CostBased);
        let mut sql = engine.session();
        sql.create_table(TABLE, READINGS_COLUMNS, "DUALTABLE", "", &[]);
        let rows = readings_rows(args.seed, 0, base + BATCH);
        sql.load(TABLE, rows.clone());
        Writer {
            engine,
            sql,
            model: GridModel::new(args.seed, &rows),
            base: base as i64,
            burst: base as i64 / BURST_SHARE,
            batch_first: base as i64,
            iteration: 0,
            user_bytes: 0,
        }
    }

    fn send(&mut self, lane: &mut Lane, kind: Kind, stmt: GridStmt) -> Option<Reply> {
        let payload = self.model.payload(&stmt);
        let text = stmt.sql(TABLE, &payload);
        let expect = self.model.apply(&stmt);
        let sent = lane.send(&mut self.sql, kind, &text, &expect);
        self.user_bytes += match (&stmt, &expect) {
            (GridStmt::Insert { .. }, _) => raw_bytes(&payload),
            (GridStmt::SetStatus { .. } | GridStmt::ResetHalf { .. }, Expect::Affected(n)) => 8 * n,
            _ => 0,
        };
        if let Some((top, stmt_id)) = sent.replay {
            let affected = sent.reply.as_ref().map_or(0, |r| r.affected);
            let replayed = Replayed {
                table: TABLE,
                text: &text,
                scan: spec_of(&stmt),
                write: write_rung(&self.engine, TABLE, &stmt, payload, affected, true),
            };
            let tracer = lane.tracer.as_mut().expect("a replay implies a tracer");
            replay(&self.engine, tracer, top, stmt_id, replayed, None);
        }
        sent.reply
    }

    /// Bursts rotate over the base terminals past the first sixteenth:
    /// the cost model samples the table's first rows, and a burst there
    /// would read as a far larger update than it is.
    fn burst_window(&self) -> (i64, i64) {
        let guard = self.base / 16;
        let slots = (self.base - guard) / self.burst;
        let lo = guard + (self.iteration % slots) * self.burst;
        (lo, lo + self.burst)
    }

    fn round(&mut self, lane: &mut Lane) {
        let busy = lane.rec.busy_s();
        for _ in 0..ITERATIONS {
            let next = self.batch_first + BATCH as i64;
            self.send(
                lane,
                Kind::Insert,
                GridStmt::Insert {
                    first: next,
                    n: BATCH,
                },
            );
            let (lo, hi) = self.burst_window();
            let status = 1 + self.iteration % 9;
            self.send(lane, Kind::Edit, GridStmt::SetStatus { lo, hi, status });
            let gone = self.batch_first;
            self.send(
                lane,
                Kind::Delete,
                GridStmt::DeleteIds {
                    lo: gone,
                    hi: gone + BATCH as i64,
                },
            );
            self.batch_first = next;
            self.iteration += 1;
            if self.iteration % FOLD_EVERY != 0 {
                continue;
            }
            if let Some(reply) = self.send(lane, Kind::Compact, GridStmt::CompactIncremental) {
                // The writer is the only one who commits: a fold that
                // finds the bursts' files dirty and does not fold them is
                // wrong.
                if !reply.message.contains("folded") {
                    lane.rec.mismatches += 1;
                    eprintln!("MISMATCH fold did not fold: {}", reply.message);
                }
            }
        }
        let r = (self.iteration / ITERATIONS as i64) % 2;
        self.send(lane, Kind::Overwrite, GridStmt::ResetHalf { r });
        let spent = lane.rec.busy_s() - busy;
        lane.rec.rounds.push(spent);
    }
}

/// The dashboard side. It cannot know which of the writer's statements
/// its scan saw — a scan reads each file's latest state as it reaches it —
/// so under DML it checks what must hold whatever it saw: base terminals
/// are all there, at most two batches beside them, every reading in range.
/// The range select covers base terminals only, whose readings never
/// change, and is checked exactly.
struct Reader {
    sql: Sql,
    engine: Engine,
    /// The base terminals, as loaded.
    base_model: GridModel,
    base: i64,
    burst: i64,
    n: i64,
}

impl Reader {
    fn plausible_total(&self, count: i64, sum: f64) -> bool {
        (self.base..=self.base + 2 * BATCH as i64).contains(&count)
            && sum >= 90.0 * count as f64
            && sum <= 96.0 * count as f64
    }

    fn send(&mut self, lane: &mut Lane, kind: Kind, stmt: GridStmt) {
        let text = stmt.sql(TABLE, &[]);
        let expect = match &stmt {
            GridStmt::IdRange { lo, hi } => Expect::Rows(vec![self.base_model.id_range(*lo, *hi)]),
            _ => Expect::Nothing,
        };
        let sent = lane.send(&mut self.sql, kind, &text, &expect);
        let Some(reply) = &sent.reply else {
            return;
        };
        let int = |v: &Value| v.as_i64().unwrap_or(-1);
        let plausible = match &stmt {
            GridStmt::Count => {
                reply.rows.len() == 1
                    && self.plausible_total(
                        int(&reply.rows[0][0]),
                        93.0 * int(&reply.rows[0][0]) as f64,
                    )
            }
            GridStmt::Dashboard => {
                let count: i64 = reply.rows.iter().map(|r| int(&r[1])).sum();
                let sum: f64 = reply
                    .rows
                    .iter()
                    .map(|r| r[2].as_f64().unwrap_or(-1.0))
                    .sum();
                reply.rows.iter().all(|r| (0..=9).contains(&int(&r[0])))
                    && self.plausible_total(count, sum)
            }
            _ => true,
        };
        if !plausible {
            lane.rec.mismatches += 1;
            eprintln!("MISMATCH {text}: {:.200?}", reply.rows);
        }
        if kind.is_full_scan_read() {
            lane.rec
                .scanned(self.base as u64 + BATCH as u64, sent.latency);
        }
        if let Some((top, stmt_id)) = sent.replay {
            let replayed = Replayed {
                table: TABLE,
                text: &text,
                scan: spec_of(&stmt),
                write: WriteRung::None,
            };
            let tracer = lane.tracer.as_mut().expect("a replay implies a tracer");
            replay(&self.engine, tracer, top, stmt_id, replayed, None);
        }
    }

    fn range(&mut self) -> GridStmt {
        let width = RANGE_BURSTS * self.burst;
        let slots = (self.base - width) / self.burst;
        let lo = (self.n * 7 % slots) * self.burst;
        GridStmt::IdRange { lo, hi: lo + width }
    }

    fn set(&mut self, lane: &mut Lane) {
        self.send(lane, Kind::Q1, GridStmt::Dashboard);
        self.send(lane, Kind::Count, GridStmt::Count);
        let range = self.range();
        self.send(lane, Kind::Select, range);
        self.n += 1;
    }
}

/// The end state, quiesced: dashboard and count exactly as the model has
/// them, and the table row for row.
pub fn check_end_state(sql: &mut Sql, model: &mut GridModel, table: &str, lane: &mut Lane) {
    for (kind, stmt) in [
        (Kind::Q1, GridStmt::Dashboard),
        (Kind::Count, GridStmt::Count),
    ] {
        let expect = model.apply(&stmt);
        lane.send(sql, kind, &stmt.sql(table, &[]), &expect);
    }
    let reply = sql.execute(&format!("SELECT * FROM {table}"));
    if !reply.is_ok_and(|r| sort_readings(&r.rows) == model.sorted()) {
        lane.rec.mismatches += 1;
        eprintln!("MISMATCH final contents of {table}");
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut w = set_up(&mut out.setups, || {
        let mut w = Writer::build(args);
        let mut warm = Lane::new(None);
        w.round(&mut warm);
        assert_eq!(warm.rec.failures(), 0, "the warm-up round must pass");
        w
    });
    w.user_bytes = 0;
    let base_rows = readings_rows(args.seed, 0, w.base as usize);
    let mut reader = Reader {
        sql: w.engine.session(),
        engine: w.engine.clone(),
        base_model: GridModel::new(args.seed, &base_rows),
        base: w.base,
        burst: w.burst,
        n: 0,
    };

    let origin = Instant::now();
    let mut wlane = Lane::new(args.trace.then(|| Tracer::new(origin, 0)));
    let mut rlane = Lane::new(args.trace.then(|| Tracer::new(origin, 1)));
    let before = w.engine.counters(TABLE);
    let seconds = args.seconds * if args.trace { TRACED_LOOP_SHARE } else { 1.0 };
    let done = AtomicBool::new(false);
    let mut traced_rounds = Vec::new();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                reader.set(&mut rlane);
            }
        });
        out.measured_s = rounds_for(seconds, |n| {
            wlane.tracing = args.trace && n % 2 == 0;
            traced_rounds.push(wlane.tracing);
            w.round(&mut wlane);
        });
        done.store(true, Ordering::Release);
        reading.join().expect("the reader thread ends cleanly");
    });
    let after = w.engine.counters(TABLE);
    out.stmts_per_s = wlane.rec.attempted() as f64 / out.measured_s;
    let under_dml: Samples = rlane.rec.samples(Kind::Q1);
    check_end_state(&mut w.sql, &mut w.model, TABLE, &mut rlane);

    out.sizes = vec![
        ("readings_rows", w.model.count() as u64),
        ("rows_per_file", ROWS_PER_FILE as u64),
        ("delta_bytes", DELTA_BYTES as u64),
        ("rounds", wlane.rec.rounds.len() as u64),
        ("writer_ops", wlane.rec.attempted()),
        ("reader_scans", rlane.rec.attempted()),
    ];

    let mut rec = wlane.rec.clone();
    rec.merge(&rlane.rec);
    if args.trace {
        let layers = &mut out.layers;
        let table_bytes = raw_bytes(&base_rows);
        counter_layers(&before, &after, w.user_bytes, table_bytes, layers);
        layers.insert(
            "bench.trace_overhead_share",
            trace_overhead(&wlane.rec.rounds, &traced_rounds),
        );
        stmt_layers(&rec, layers);
        // The end state, scanned with nothing beside the scan.
        let mut quiesced = Samples::default();
        let dashboard = GridStmt::Dashboard.sql(TABLE, &[]);
        for _ in 0..QUIESCED_SCANS {
            let (reply, s) = timed(|| reader.sql.execute(&dashboard));
            assert!(reply.is_ok(), "a quiesced dashboard scan runs");
            quiesced.push(std::time::Duration::from_secs_f64(s));
        }
        let quiet = quiesced.p50().unwrap_or(f64::NAN);
        layers.insert("dualtable.quiesced_scan_p50_ms", quiet);
        layers.insert(
            "dualtable.scan_interference",
            under_dml.p50().unwrap_or(f64::NAN) / quiet,
        );
        micro_rungs(
            &w.engine,
            &TableFacts {
                table: TABLE,
                filter: spec_of(&reader.range()).expect("a range select scans"),
                group: (R_STATUS, R_STATUS, R_RCJL),
            },
            layers,
        );
        // The dashboard returns one row per status for every row it reads.
        let groups = w.model.histogram().len().max(1) as f64;
        layers.insert(
            "hiveql.rows_examined_per_row_returned",
            w.model.count() as f64 / groups,
        );
        for lane in [&mut wlane, &mut rlane] {
            if let Some(tr) = lane.tracer.take() {
                out.spans.extend(tr.spans);
            }
        }
        span_layers(&out.spans, layers);
    }
    // The reader completes no rounds: `rec.rounds` is the writer's alone.
    out.rec = rec;
    out
}
