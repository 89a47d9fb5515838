//! The shared ratio-sweep harness behind Figures 5–10 (grid data) and
//! Figures 13–18 (TPC-H data).
//!
//! For each modification ratio the sweep rebuilds three fresh systems —
//! Hive(HDFS), DualTable in forced-EDIT mode, DualTable with the cost
//! model — executes the UPDATE or DELETE, then executes a full SELECT
//! (UNION READ on DualTable). Each phase records both wall-clock seconds
//! on this process's substrate and **modeled cluster seconds** (see
//! [`crate::model`]).

use dt_baselines::StorageHandler;
use dt_common::{Row, Schema, Value};
use dualtable::{Assignment, DualTableEnv, PlanChoice, PlanMode, Rates, RatioHint};

use crate::model::{ClusterModel, PhaseVolumes, TableProfile};
use crate::systems::{build_dual, build_hive};
use crate::time;

/// What to sweep.
pub struct SweepSpec {
    /// Table schema.
    pub schema: Schema,
    /// Fresh rows per system build.
    pub rows: Box<dyn Fn() -> Vec<Row>>,
    /// `(x label, ratio, predicate factory)` per sweep point.
    pub points: Vec<SweepPoint>,
    /// For UPDATE sweeps: `(column, new value)` assignment; `None` for
    /// DELETE sweeps.
    pub update: Option<(usize, Value)>,
    /// Cost-model rates used for plan selection (paper §IV constants by
    /// default).
    pub rates: Rates,
    /// The cluster-time model.
    pub model: ClusterModel,
}

/// One x-axis point.
pub struct SweepPoint {
    /// Axis label (e.g. "6/36" or "25%").
    pub label: String,
    /// The modification ratio handed to the cost model.
    pub ratio: f64,
    /// Row predicate selecting ~`ratio` of the data.
    pub predicate: Box<dyn Fn(&Row) -> bool + Send + Sync>,
}

/// Wall + modeled seconds for one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTime {
    /// Wall-clock seconds on this process's substrate.
    pub wall: f64,
    /// Modeled cluster seconds from measured volumes.
    pub modeled: f64,
}

/// Measured series, one value per sweep point.
#[derive(Debug, Default)]
pub struct SweepResult {
    /// X labels.
    pub labels: Vec<String>,
    /// Hive(HDFS) DML time.
    pub hive_dml: Vec<PhaseTime>,
    /// DualTable forced-EDIT DML time.
    pub dt_edit_dml: Vec<PhaseTime>,
    /// DualTable cost-model DML time.
    pub dt_cost_dml: Vec<PhaseTime>,
    /// Plan the cost model chose per point.
    pub dt_cost_plan: Vec<PlanChoice>,
    /// Hive read time after the DML.
    pub hive_read: Vec<PhaseTime>,
    /// DualTable(EDIT) UNION READ time after the DML.
    pub dt_edit_read: Vec<PhaseTime>,
    /// DualTable(cost-model) read time after the DML.
    pub dt_cost_read: Vec<PhaseTime>,
}

fn walls(v: &[PhaseTime]) -> Vec<f64> {
    v.iter().map(|p| p.wall).collect()
}

fn models(v: &[PhaseTime]) -> Vec<f64> {
    v.iter().map(|p| p.modeled).collect()
}

impl SweepResult {
    /// Wall-clock DML series (hive, edit, cost).
    pub fn dml_wall(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            walls(&self.hive_dml),
            walls(&self.dt_edit_dml),
            walls(&self.dt_cost_dml),
        )
    }

    /// Modeled DML series (hive, edit, cost).
    pub fn dml_modeled(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            models(&self.hive_dml),
            models(&self.dt_edit_dml),
            models(&self.dt_cost_dml),
        )
    }

    /// Wall-clock read-after series (hive, edit, cost).
    pub fn read_wall(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            walls(&self.hive_read),
            walls(&self.dt_edit_read),
            walls(&self.dt_cost_read),
        )
    }

    /// Modeled read-after series (hive, edit, cost).
    pub fn read_modeled(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        (
            models(&self.hive_read),
            models(&self.dt_edit_read),
            models(&self.dt_cost_read),
        )
    }

    /// DML + following read, per system: `(wall triple, modeled triple)`.
    #[allow(clippy::type_complexity)]
    pub fn totals(
        &self,
    ) -> (
        (Vec<f64>, Vec<f64>, Vec<f64>),
        (Vec<f64>, Vec<f64>, Vec<f64>),
    ) {
        let add =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
        let (hw, ew, cw) = self.dml_wall();
        let (hr, er, cr) = self.read_wall();
        let (hm, em, cm) = self.dml_modeled();
        let (hrm, erm, crm) = self.read_modeled();
        (
            (add(&hw, &hr), add(&ew, &er), add(&cw, &cr)),
            (add(&hm, &hrm), add(&em, &erm), add(&cm, &crm)),
        )
    }
}

struct PhaseOutcome {
    dml: PhaseTime,
    read: PhaseTime,
    plan: PlanChoice,
}

fn volumes(
    env: &DualTableEnv,
    before_dfs: dt_dfs::DfsSnapshot,
    before_kv: dt_kvstore::KvSnapshot,
    cells_written: u64,
    cells_read: u64,
) -> PhaseVolumes {
    let dfs = env.dfs.stats().snapshot().since(&before_dfs);
    let kv = env.kv.stats().snapshot().since(&before_kv);
    PhaseVolumes {
        master_read: dfs.bytes_read,
        master_written: dfs.bytes_written,
        attached_read: kv.bytes_read,
        attached_written: kv.bytes_written,
        attached_cells_written: cells_written,
        attached_cells_read: cells_read,
    }
}

fn run_dual(spec: &SweepSpec, point: &SweepPoint, plan_mode: PlanMode, tag: &str) -> PhaseOutcome {
    let env = DualTableEnv::in_memory();
    let rows = (spec.rows)();
    let row_count = rows.len() as u64;
    let before_build = env.dfs.stats().snapshot();
    let table = build_dual(
        &env,
        &format!("sweep_{tag}"),
        spec.schema.clone(),
        rows,
        plan_mode,
        spec.rates,
    );
    let build_bytes = env
        .dfs
        .stats()
        .snapshot()
        .since(&before_build)
        .bytes_written;
    let pred = &point.predicate;
    let hint = RatioHint::Explicit(point.ratio);

    let before_dfs = env.dfs.stats().snapshot();
    let before_kv = env.kv.stats().snapshot();
    let (dml_wall, report) = match &spec.update {
        Some((col, value)) => {
            let value = value.clone();
            let assignments: Vec<Assignment<'static>> =
                vec![(*col, Box::new(move |_| Ok(value.clone())))];
            time(|| table.update(|r| pred(r), &assignments, hint).unwrap())
        }
        None => time(|| table.delete(|r| pred(r), hint).unwrap()),
    };
    // Cells written by an EDIT plan: one per assignment (or one marker).
    let edit_cells = if report.plan == PlanChoice::Edit {
        report.rows_matched
    } else {
        0
    };
    let dml_vol = volumes(&env, before_dfs, before_kv, edit_cells, 0);

    let before_dfs = env.dfs.stats().snapshot();
    let before_kv = env.kv.stats().snapshot();
    let (read_wall, _) = time(|| table.scan_all().unwrap());
    let read_vol = volumes(&env, before_dfs, before_kv, 0, edit_cells);
    let profile = TableProfile {
        build_bytes,
        scan_bytes: read_vol.master_read,
        rows: row_count,
    };

    PhaseOutcome {
        dml: PhaseTime {
            wall: dml_wall,
            modeled: spec.model.seconds(&dml_vol, &profile),
        },
        read: PhaseTime {
            wall: read_wall,
            modeled: spec.model.seconds(&read_vol, &profile),
        },
        plan: report.plan,
    }
}

fn run_hive(spec: &SweepSpec, point: &SweepPoint) -> PhaseOutcome {
    let env = DualTableEnv::in_memory();
    let rows = (spec.rows)();
    let row_count = rows.len() as u64;
    let before_build = env.dfs.stats().snapshot();
    let table = build_hive(&env, "sweep_hive", spec.schema.clone(), rows);
    let build_bytes = env
        .dfs
        .stats()
        .snapshot()
        .since(&before_build)
        .bytes_written;
    let pred = &point.predicate;

    let before_dfs = env.dfs.stats().snapshot();
    let before_kv = env.kv.stats().snapshot();
    let (dml_wall, _) = match &spec.update {
        Some((col, value)) => {
            let value = value.clone();
            let assignments: Vec<Assignment<'static>> =
                vec![(*col, Box::new(move |_| Ok(value.clone())))];
            time(|| table.update(pred, &assignments).unwrap())
        }
        None => time(|| table.delete(pred).unwrap()),
    };
    let dml_vol = volumes(&env, before_dfs, before_kv, 0, 0);

    let before_dfs = env.dfs.stats().snapshot();
    let before_kv = env.kv.stats().snapshot();
    let (read_wall, _) = time(|| table.for_each_batch(None, None, &mut |_| Ok(())).unwrap());
    let read_vol = volumes(&env, before_dfs, before_kv, 0, 0);
    let profile = TableProfile {
        build_bytes,
        scan_bytes: read_vol.master_read.max(1),
        rows: row_count,
    };

    PhaseOutcome {
        dml: PhaseTime {
            wall: dml_wall,
            modeled: spec.model.seconds(&dml_vol, &profile),
        },
        read: PhaseTime {
            wall: read_wall,
            modeled: spec.model.seconds(&read_vol, &profile),
        },
        plan: PlanChoice::Overwrite,
    }
}

/// Runs the full sweep.
pub fn run_sweep(spec: &SweepSpec) -> SweepResult {
    let mut out = SweepResult::default();
    for point in &spec.points {
        let hive = run_hive(spec, point);
        let edit = run_dual(spec, point, PlanMode::AlwaysEdit, "edit");
        let cost = run_dual(spec, point, PlanMode::CostBased, "cost");
        out.labels.push(point.label.clone());
        out.hive_dml.push(hive.dml);
        out.hive_read.push(hive.read);
        out.dt_edit_dml.push(edit.dml);
        out.dt_edit_read.push(edit.read);
        out.dt_cost_dml.push(cost.dml);
        out.dt_cost_read.push(cost.read);
        out.dt_cost_plan.push(cost.plan);
    }
    out
}

/// The grid experiment's x grid: 1/36, 3/36, …, 17/36 (paper Figures
/// 5–10).
pub fn grid_ratio_points(
    predicate_for_days: impl Fn(i64) -> Box<dyn Fn(&Row) -> bool + Send + Sync>,
) -> Vec<SweepPoint> {
    (1..=17)
        .step_by(2)
        .map(|k| SweepPoint {
            label: format!("{k}/36"),
            ratio: k as f64 / 36.0,
            predicate: predicate_for_days(k),
        })
        .collect()
}

/// The TPC-H experiment's x grid: 1%, 5%, 10%, …, 50% (paper Figures
/// 13–18).
pub fn tpch_ratio_points(
    predicate_for_pct: impl Fn(i64) -> Box<dyn Fn(&Row) -> bool + Send + Sync>,
) -> Vec<SweepPoint> {
    std::iter::once(1i64)
        .chain((5..=50).step_by(5))
        .map(|pct| SweepPoint {
            label: format!("{pct}%"),
            ratio: pct as f64 / 100.0,
            predicate: predicate_for_pct(pct),
        })
        .collect()
}
