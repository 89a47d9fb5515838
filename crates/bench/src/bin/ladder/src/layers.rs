//! Per-layer metrics that every workload's traced run computes the same
//! way: micro-rungs against the workload's own table, counter differences
//! over the measured part, and self times from the replayed statements.

use crate::recorder::{median, Kind};
use crate::run::{rung_s, timed, Layers};
use crate::rungs::{Counters, Engine, Row, ScanSpec};
use crate::trace::{self_times, Span};

/// Cells of the KV micro-rungs.
const KV_CELLS: u64 = 50_000;

/// What the micro-rungs need to know about a workload's table.
pub struct TableFacts<'a> {
    pub table: &'a str,
    /// The workload's range filter, for the stripe-skipping rungs.
    pub filter: ScanSpec,
    /// Columns the map-reduce rung groups by (two) and sums (one).
    pub group: (usize, usize, usize),
}

/// Times each layer's public entry point against the table's current
/// state. Every figure is the median of three repetitions.
pub fn micro_rungs(engine: &Engine, facts: &TableFacts<'_>, layers: &mut Layers) {
    let table = facts.table;
    let all = ScanSpec::all();

    let (bytes, s) = rung_s(|| engine.dfs_read(table, &all));
    layers.insert("dfs.read_mb_per_s", bytes as f64 / 1e6 / s);

    let ((rows, _, _), decode_s) = rung_s(|| engine.orc_decode(table, &all, None));
    layers.insert("orcfile.decode_rows_per_s", rows as f64 / decode_s);
    let ((rows, _, _), s) = rung_s(|| engine.orc_decode(table, &all, Some(&[0])));
    layers.insert("orcfile.decode_proj1_rows_per_s", rows as f64 / s);
    let ((_, stripes, matching), s) = rung_s(|| engine.orc_decode(table, &facts.filter, None));
    layers.insert("orcfile.filter_p50_ms", s * 1e3);
    layers.insert(
        "orcfile.stripes_skipped_ratio",
        1.0 - matching as f64 / stripes.max(1) as f64,
    );

    let (scanned, scan_s) = rung_s(|| engine.union_read(table, &all));
    layers.insert("dualtable.union_read_rows_per_s", scanned as f64 / scan_s);
    layers.insert(
        "dualtable.merge_self_share",
        ((scan_s - decode_s) / scan_s).max(0.0),
    );

    let rows: Vec<Row> = engine.materialise(table);
    let n = rows.len() as f64;
    let (_, s) = timed(|| engine.orc_encode(table, rows.clone()));
    layers.insert("orcfile.encode_rows_per_s", n / s);
    let (a, b, c) = facts.group;
    let (_, s) = timed(|| crate::rungs::map_reduce_group(rows, a, b, c));
    layers.insert("engine.mapreduce_rows_per_s", n / s);

    engine.drop_scratch();
    let (_, s) = timed(|| engine.kv_put(KV_CELLS, false));
    layers.insert("kvstore.put_cells_per_s", KV_CELLS as f64 / s);
    let (cells, s) = rung_s(|| engine.kv_scan_scratch());
    layers.insert("kvstore.scan_cells_per_s", cells as f64 / s);
    engine.drop_scratch();
    let (_, s) = timed(|| engine.kv_put(KV_CELLS, true));
    layers.insert("kvstore.shadow_put_cells_per_s", KV_CELLS as f64 / s);
    engine.drop_scratch();
}

/// What the measured part did to the public counters. `user_bytes` is
/// what the workload's DML wrote as the user sees it; `table_raw_bytes`
/// the table's rows at 8 bytes a number.
pub fn counter_layers(
    before: &Counters,
    after: &Counters,
    user_bytes: u64,
    table_raw_bytes: u64,
    layers: &mut Layers,
) {
    let d = after.since(before);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.insert(
        "dfs.cache_hit_ratio",
        ratio(d.dfs_cache_hits, d.dfs_cache_hits + d.dfs_cache_misses),
    );
    layers.insert("dfs.cache_evictions", d.dfs_cache_evictions as f64);
    layers.insert("dfs.bytes_read", d.dfs_bytes_read as f64);
    layers.insert("dfs.read_ops", d.dfs_read_ops as f64);
    layers.insert(
        "dfs.bytes_written_per_user_byte",
        ratio(d.dfs_bytes_written, user_bytes),
    );
    layers.insert(
        "orcfile.footer_cache_hit_ratio",
        ratio(d.footer_hits, d.footer_hits + d.footer_misses),
    );
    layers.insert("kvstore.wal_fsyncs", d.kv_wal_appends as f64);
    layers.insert("kvstore.group_commits", d.kv_group_commits as f64);
    layers.insert("kvstore.sstable_count", d.sstables as f64);
    layers.insert(
        "kvstore.bytes_written_per_user_byte",
        ratio(d.kv_bytes_written, user_bytes),
    );
    layers.insert("kvstore.delta_spills", d.delta_spills as f64);
    layers.insert(
        "dualtable.attached_scans_skipped",
        d.attached_scans_skipped as f64,
    );
    layers.insert("dualtable.attached_cells", d.attached_cells as f64);
    layers.insert(
        "dualtable.fold_useful_ratio",
        ratio(d.folds_completed, d.folds_started),
    );
    layers.insert("dualtable.ww_conflicts", d.ww_conflicts as f64);
    layers.insert(
        "dualtable.space_per_user_byte",
        ratio(d.dfs_total_bytes + d.attached_bytes, table_raw_bytes),
    );
    layers.insert("server.stmts_shed", d.stmts_shed as f64);
    layers.insert(
        "server.ledger_exact",
        f64::from(d.stmts_accepted + d.stmts_shed == d.stmts_submitted),
    );
}

/// Where the replayed statements' time went.
pub fn span_layers(spans: &[Span], layers: &mut Layers) {
    let t = self_times(spans);
    for (layer, key) in [
        ("server", "server.self_share"),
        ("hiveql", "hiveql.self_share"),
        ("dualtable", "dualtable.self_share"),
        ("orcfile", "orcfile.self_share"),
        ("kvstore", "kvstore.self_share"),
        ("dfs", "dfs.self_share"),
    ] {
        layers.insert(key, t.share(layer));
    }
    layers.insert("bench.ladder_negative_share", t.negative_share());
    layers.insert(
        "bench.replayed_stmts",
        spans.iter().filter(|s| s.name == "parser::parse").count() as f64,
    );

    let ms = |s: &Span| s.ns() as f64 / 1e6;
    let parses: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "parser::parse")
        .map(|s| ms(s) * 1e3)
        .collect();
    layers.insert("hiveql.parse_us", median(&parses).unwrap_or(0.0));

    // Session::execute of the workload's aggregate (Q1, the dashboard)
    // minus the parse and the UNION READ replayed on the same snapshot.
    let child = |parent: u32, name: &str| {
        spans
            .iter()
            .find(|s| s.parent == parent && s.name == name)
            .map(ms)
    };
    let mut exec_self = Vec::new();
    for execute in spans.iter().filter(|s| s.name == "Session::execute") {
        let top = spans
            .iter()
            .find(|s| s.id == execute.parent)
            .unwrap_or(execute);
        let is_q1 = top
            .counts
            .iter()
            .any(|(k, v)| *k == "kind" && *v == Kind::Q1 as u64);
        if let (true, Some(parse), Some(scan)) = (
            is_q1,
            child(execute.id, "parser::parse"),
            child(execute.id, "DualTableStore::scan"),
        ) {
            exec_self.push(ms(execute) - parse - scan);
        }
    }
    layers.insert("hiveql.exec_self_ms", median(&exec_self).unwrap_or(0.0));
}

/// The write a DML statement does, repeated against a scratch target.
pub enum WriteRung {
    None,
    /// An EDIT: this many attached-sized cells, into the memtable or,
    /// with the delta tier on, the shadow tier.
    KvPut {
        cells: u64,
        shadow: bool,
    },
    /// An OVERWRITE, COMPACT or INSERT: these rows through `OrcWriter`.
    OrcEncode {
        rows: Vec<Row>,
    },
}

/// What `replay` needs to know about the statement it repeats.
pub struct Replayed<'a> {
    pub table: &'a str,
    pub text: &'a str,
    /// `None` when the statement reads nothing (an INSERT).
    pub scan: Option<ScanSpec>,
    pub write: WriteRung,
}

/// Repeats a statement's work one rung at a time, below the span `top`
/// of the end-to-end call: `Session::execute` first when the call went
/// over the wire, then `parser::parse` + `DualTableStore::scan` with the
/// same predicates, then per-file `OrcReader::rows` + `Store::scan` of
/// the attached range, then `Dfs::read_to_vec`; and for DML the write.
pub fn replay(
    engine: &Engine,
    tr: &mut crate::trace::Tracer,
    top: u32,
    id: u32,
    stmt: Replayed<'_>,
    session: Option<&mut crate::rungs::Sql>,
) {
    let table = stmt.table;
    let execute = match session {
        Some(sql) => {
            let (span, _) = tr.span(top, id, "hiveql", "Session::execute", || {
                (sql.execute(stmt.text).is_ok(), vec![])
            });
            span
        }
        None => top,
    };
    tr.span(execute, id, "hiveql", "parser::parse", || {
        (crate::rungs::parse(stmt.text), vec![])
    });
    if let Some(spec) = &stmt.scan {
        let (scan, _) = tr.span(execute, id, "dualtable", "DualTableStore::scan", || {
            let n = engine.union_read(table, spec);
            ((), vec![("rows", n)])
        });
        let (decode, read_every_stripe) = tr.span(scan, id, "orcfile", "OrcReader::rows", || {
            let (rows, stripes, read) = engine.orc_decode(table, spec, None);
            (
                stripes == read,
                vec![("rows", rows), ("stripes", stripes), ("stripes_read", read)],
            )
        });
        tr.span(scan, id, "kvstore", "Store::scan", || {
            let n = engine.attached_scan(table, spec);
            ((), vec![("attached_rows", n)])
        });
        // With stripes skipped the decode reads part of each file, and a
        // whole-file read below it would come out slower than the decode.
        if read_every_stripe {
            tr.span(decode, id, "dfs", "Dfs::read_to_vec", || {
                let n = engine.dfs_read(table, spec);
                ((), vec![("bytes", n)])
            });
        }
    }
    match stmt.write {
        WriteRung::None => {}
        WriteRung::KvPut { cells, shadow } => {
            let name = if shadow {
                "Store::put_shadow_batch"
            } else {
                "Store::put_batch"
            };
            tr.span(execute, id, "kvstore", name, || {
                engine.kv_put(cells, shadow);
                ((), vec![("cells", cells)])
            });
        }
        WriteRung::OrcEncode { rows } => {
            let n = rows.len() as u64;
            tr.span(execute, id, "orcfile", "OrcWriter", || {
                let bytes = engine.orc_encode(table, rows);
                ((), vec![("rows", n), ("bytes", bytes)])
            });
        }
    }
    engine.drop_scratch();
}

/// Statement-level figures that are not end-to-end metrics: the tails
/// (given only with ten samples beyond them), and the error share.
pub fn stmt_layers(rec: &crate::recorder::Recorder, layers: &mut Layers) {
    let attempted = rec.attempted().max(1) as f64;
    layers.insert("stmt.error_share", rec.failures() as f64 / attempted);
    layers.insert(
        "stmt.edit_p95_ms",
        rec.samples(Kind::Edit).tail(0.95).unwrap_or(0.0),
    );
    layers.insert(
        "stmt.select_p95_ms",
        rec.samples(Kind::Select).tail(0.95).unwrap_or(0.0),
    );
    layers.insert(
        "stmt.txn_p50_ms",
        rec.samples(Kind::Txn).p50().unwrap_or(0.0),
    );
    layers.insert(
        "stmt.insert_p50_ms",
        rec.samples(Kind::Insert).p50().unwrap_or(0.0),
    );
    let (edit, overwrite) = rec.plans;
    if edit + overwrite > 0 {
        layers.insert(
            "dualtable.plan_edit_share",
            edit as f64 / (edit + overwrite) as f64,
        );
    }
}

/// Median traced round over median untraced round, minus one.
pub fn trace_overhead(rounds: &[f64], traced: &[bool]) -> f64 {
    let pick = |want: bool| {
        let v: Vec<f64> = rounds
            .iter()
            .zip(traced)
            .filter(|(_, t)| **t == want)
            .map(|(s, _)| *s)
            .collect();
        median(&v).unwrap_or(f64::NAN)
    };
    pick(true) / pick(false) - 1.0
}
