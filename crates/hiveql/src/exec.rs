//! Statement execution: SELECT pipelines and DML dispatch.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dt_common::{DataType, Deadline, Error, Field, Result, Row, Schema, Value};
use dt_orcfile::{ColumnBatch, ColumnPredicate, PredicateOp};
use dualtable::{RatioHint, Transaction};

use crate::ast::*;
use crate::catalog::{SharedCatalog, TableHandle};
use crate::expr::{
    eval, is_true, normalize_numeric, Binding, EvalContext, GroupKey, HashableValue,
};
use crate::vector::{Groups, Input, Kernels, Partials, Vector, DEADLINE_CHECK_ROWS};

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema (inferred for query results).
    pub schema: Schema,
    rows: Vec<Row>,
    /// Rows affected by DML/DDL.
    pub affected: u64,
    /// Human-readable execution note (e.g. the DML plan chosen).
    pub message: Option<String>,
    /// DualTable plan report, for DML on DualTable storage.
    pub dml: Option<dualtable::DmlReport>,
}

impl QueryResult {
    /// An empty result (DDL acknowledgements).
    pub fn empty() -> Self {
        QueryResult {
            schema: Schema::default(),
            rows: Vec::new(),
            affected: 0,
            message: None,
            dml: None,
        }
    }

    /// A result with a schema and rows.
    pub fn from_parts(schema: Schema, rows: Vec<Row>) -> Self {
        QueryResult {
            schema,
            rows,
            affected: 0,
            message: None,
            dml: None,
        }
    }

    /// The result rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consumes the result, returning its rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Ratio hint passed to DualTable DML.
    pub ratio_hint: RatioHint,
    /// Per-statement deadline token, checked at batch boundaries in scans,
    /// every [`DEADLINE_CHECK_ROWS`] joined rows and every as many rows the
    /// row interpreter evaluates in between. Defaults to never; installed
    /// per statement by
    /// [`Session::execute_with_deadline`](crate::Session::execute_with_deadline).
    pub deadline: Deadline,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            ratio_hint: RatioHint::Sample,
            deadline: Deadline::never(),
        }
    }
}

/// Executes one parsed statement against the catalog. DDL mutates the
/// catalog through the caller (`create_fn` handles CREATE since storage
/// construction needs the session's environment).
pub struct Executor<'a> {
    /// The table registry.
    pub catalog: &'a SharedCatalog,
    /// Tuning.
    pub config: &'a ExecConfig,
    /// Open transactions by table name (DESIGN.md §13). A scanned table
    /// that has one is read through it: the same UNION READ, at the
    /// transaction's pin, under its buffered writes.
    pub txns: Option<&'a BTreeMap<String, Transaction>>,
}

impl Executor<'_> {
    /// The open transaction covering `table`, if any.
    fn txn_of(&self, table: &str) -> Option<&Transaction> {
        self.txns.and_then(|m| m.get(table))
    }

    /// Runs a SELECT.
    pub fn select(&self, stmt: &SelectStmt) -> Result<QueryResult> {
        let mut ctx = EvalContext::default();
        let stmt = self.plan_subqueries_select(stmt.clone(), &mut ctx)?;
        self.select_with_ctx(&stmt, &ctx)
    }

    fn select_with_ctx(&self, stmt: &SelectStmt, ctx: &EvalContext) -> Result<QueryResult> {
        // 1. Resolve, before any I/O: the row layout of FROM + JOINs, the
        // select list and every column reference.
        let refs: Vec<&TableRef> = stmt
            .from
            .iter()
            .chain(stmt.joins.iter().map(|j| &j.table))
            .collect();
        let mut tables = Vec::with_capacity(refs.len());
        let mut binding = Binding::default();
        for table in &refs {
            let handle = self.catalog.get(&table.name)?;
            binding = binding.join(&Binding::from_schema(table.binding_name(), handle.schema()));
            tables.push(handle);
        }
        let items = expand_wildcards(&stmt.items, &binding)?;

        // One table: read only the columns the statement references.
        let projection: Option<Vec<usize>> = (tables.len() == 1).then(|| {
            let mut used = BTreeSet::new();
            let exprs = items
                .iter()
                .map(|(e, _)| e)
                .chain(&stmt.where_clause)
                .chain(&stmt.group_by)
                .chain(&stmt.having)
                .chain(stmt.order_by.iter().map(|(e, _)| e));
            for expr in exprs {
                expr.columns_into(&binding, &mut used);
            }
            used.into_iter().collect()
        });
        let deadline = &self.config.deadline;
        let layout = match &projection {
            Some(p) => binding.project(p),
            None => binding.clone(),
        };
        let mut pipeline = Pipeline::new(stmt, items, layout, ctx, deadline)?;

        // 2. Scan → WHERE → projection / aggregation, streamed.
        match (&tables[..], &projection) {
            ([base], Some(projection)) => {
                // WHERE conjuncts of the form column <op> literal skip
                // stripes (and shards).
                let predicates = stmt
                    .where_clause
                    .as_ref()
                    .map(|w| extract_pushdown(w, &binding, base.schema()))
                    .filter(|p| !p.is_empty());
                let (projection, predicates) = (Some(&projection[..]), predicates.as_deref());
                let txn = self.txn_of(&refs[0].name);
                let Pipeline { plan, acc } = &mut pipeline;
                let prepare = |batch: ColumnBatch| plan.prepare(&batch);
                base.scan_mapped(txn, projection, predicates, deadline, &prepare, &mut |p| {
                    acc.merge(p);
                    Ok(())
                })?;
            }
            _ => {
                // A chunk at a time: the deadline is checked between
                // chunks, and only one chunk is held twice.
                let rows = self.joined_rows(stmt, &refs, &tables, ctx)?;
                let fields = tables.iter().flat_map(|t| t.schema().fields());
                let fields = fields
                    .enumerate()
                    .map(|(i, f)| Field::new(format!("c{i}"), f.data_type));
                let schema = Schema::new(fields.collect())?;
                let columns: Vec<usize> = (0..schema.len()).collect();
                for chunk in rows.chunks(DEADLINE_CHECK_ROWS) {
                    deadline.check()?;
                    pipeline.push_batch(&ColumnBatch::from_rows(&schema, &columns, chunk)?)?;
                }
            }
        }
        let (mut out_rows, out_names, mut order_keys) = pipeline.finish()?;

        // 3. DISTINCT: keep the first occurrence of each output row.
        if stmt.distinct {
            let mut seen = std::collections::HashSet::new();
            let mut kept_rows = Vec::with_capacity(out_rows.len());
            let mut kept_keys = Vec::new();
            for (i, row) in out_rows.into_iter().enumerate() {
                let key = GroupKey(row.iter().cloned().map(HashableValue).collect());
                if seen.insert(key) {
                    if !order_keys.is_empty() {
                        kept_keys.push(order_keys[i].clone());
                    }
                    kept_rows.push(row);
                }
            }
            out_rows = kept_rows;
            order_keys = kept_keys;
        }

        // 4. ORDER BY.
        if !stmt.order_by.is_empty() {
            let ascending: Vec<bool> = stmt.order_by.iter().map(|(_, asc)| *asc).collect();
            let mut indexed: Vec<(GroupKey, Row)> = order_keys.into_iter().zip(out_rows).collect();
            indexed.sort_by(|(a, _), (b, _)| {
                for (i, (ka, kb)) in a.0.iter().zip(&b.0).enumerate() {
                    let ord = ka.0.total_cmp(&kb.0);
                    let ord = if ascending.get(i).copied().unwrap_or(true) {
                        ord
                    } else {
                        ord.reverse()
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            out_rows = indexed.into_iter().map(|(_, r)| r).collect();
        }

        // 5. LIMIT.
        if let Some(limit) = stmt.limit {
            out_rows.truncate(limit as usize);
        }

        Ok(QueryResult {
            schema: infer_schema(&out_names, &out_rows),
            rows: out_rows,
            affected: 0,
            message: None,
            dml: None,
        })
    }

    /// The working set of a query over no table (one empty row) or over
    /// joined tables: every table in full (through its open transaction
    /// when it has one), joined left to right.
    fn joined_rows(
        &self,
        stmt: &SelectStmt,
        refs: &[&TableRef],
        tables: &[TableHandle],
        ctx: &EvalContext,
    ) -> Result<Vec<Row>> {
        let mut rows = vec![Vec::new()];
        let mut binding = Binding::default();
        for (i, (table, handle)) in refs.iter().zip(tables).enumerate() {
            let right_binding = Binding::from_schema(table.binding_name(), handle.schema());
            let txn = self.txn_of(&table.name);
            let right_rows = handle.scan_deadline(txn, None, None, &self.config.deadline)?;
            let joined_binding = binding.join(&right_binding);
            rows = match i.checked_sub(1) {
                None => right_rows,
                Some(j) => self.join_rows(
                    rows,
                    &binding,
                    right_rows,
                    &right_binding,
                    &joined_binding,
                    &stmt.joins[j],
                    ctx,
                )?,
            };
            binding = joined_binding;
        }
        Ok(rows)
    }

    /// Hash join on equi-conditions where possible, else nested loop.
    #[allow(clippy::too_many_arguments)]
    fn join_rows(
        &self,
        left: Vec<Row>,
        left_binding: &Binding,
        right: Vec<Row>,
        right_binding: &Binding,
        joined_binding: &Binding,
        join: &Join,
        ctx: &EvalContext,
    ) -> Result<Vec<Row>> {
        let right_width = right_binding.len();
        let (left_keys, right_keys) = equi_keys(&join.on, left_binding, right_binding);

        let mut out = Vec::new();
        if !left_keys.is_empty() {
            // Hash join; residual ON conjuncts re-checked on the joined row.
            let mut table: HashMap<GroupKey, Vec<&Row>> = HashMap::new();
            for r in &right {
                if let Some(key) = hash_key(&right_keys, r, right_binding, ctx)? {
                    table.entry(key).or_default().push(r);
                }
            }
            for l in &left {
                let mut matched = false;
                let key = hash_key(&left_keys, l, left_binding, ctx)?;
                for r in key.and_then(|k| table.get(&k)).into_iter().flatten() {
                    let mut combined = l.clone();
                    combined.extend_from_slice(r);
                    if is_true(&eval(&join.on, &combined, joined_binding, ctx)?) {
                        out.push(combined);
                        matched = true;
                    }
                }
                if !matched && join.kind == JoinKind::LeftOuter {
                    let mut combined = l.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
            }
        } else {
            // Nested loop.
            for l in &left {
                let mut matched = false;
                for r in &right {
                    let mut combined = l.clone();
                    combined.extend_from_slice(r);
                    if is_true(&eval(&join.on, &combined, joined_binding, ctx)?) {
                        out.push(combined);
                        matched = true;
                    }
                }
                if !matched && join.kind == JoinKind::LeftOuter {
                    let mut combined = l.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, right_width));
                    out.push(combined);
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Subquery planning
    // ------------------------------------------------------------------

    fn plan_subqueries_select(
        &self,
        mut stmt: SelectStmt,
        ctx: &mut EvalContext,
    ) -> Result<SelectStmt> {
        if let Some(w) = stmt.where_clause.take() {
            stmt.where_clause = Some(self.plan_subqueries(w, ctx)?);
        }
        if let Some(h) = stmt.having.take() {
            stmt.having = Some(self.plan_subqueries(h, ctx)?);
        }
        Ok(stmt)
    }

    /// Replaces `IN (SELECT …)` with a precomputed set (uncorrelated
    /// subqueries only — column references inside the subquery resolve
    /// against the subquery's own tables).
    pub fn plan_subqueries(&self, expr: Expr, ctx: &mut EvalContext) -> Result<Expr> {
        Ok(match expr {
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let result = self.select(&subquery)?;
                if result.schema.len() != 1 {
                    return Err(Error::Plan(
                        "IN subquery must produce exactly one column".into(),
                    ));
                }
                let set = result
                    .into_rows()
                    .into_iter()
                    .map(|mut row| HashableValue(normalize_numeric(row.remove(0))))
                    .collect();
                let idx = ctx.sets.len();
                ctx.sets.push(set);
                Expr::InSet {
                    expr: Box::new(self.plan_subqueries(*expr, ctx)?),
                    set_index: idx,
                    negated,
                }
            }
            other => other.map_children(&mut |child| self.plan_subqueries(child, ctx))?,
        })
    }
}

// ----------------------------------------------------------------------
// The batch pipeline
// ----------------------------------------------------------------------

/// Where an ORDER BY key comes from.
enum OrderKey {
    /// An expression over the input row (or, when aggregating, over the
    /// group's aggregates and representative row).
    Input(Expr),
    /// The output column at this position, named by its alias.
    Output(usize),
}

/// What the pipeline has produced so far (`G` = [`Groups`]), or what one
/// batch through a [`Plan`] adds to it (`G` = [`Partials`], a [`Prepared`]).
enum Acc<G = Groups> {
    /// Plain projection: output rows and their ORDER BY keys.
    Rows(Vec<Row>, Vec<GroupKey>),
    /// GROUP BY / aggregation: states per group.
    Groups(G),
}

type Prepared = Acc<Partials>;

impl Acc {
    /// Takes one prepared batch, in scan order: its rows appended, or its
    /// groups' partial states merged.
    fn merge(&mut self, prepared: Prepared) {
        match (self, prepared) {
            (Acc::Rows(out, keys), Prepared::Rows(rows, more)) => {
                out.extend(rows);
                keys.extend(more);
            }
            (Acc::Groups(groups), Prepared::Groups(partials)) => groups.merge(partials),
            _ => unreachable!("a plan prepares what its accumulator takes"),
        }
    }
}

/// WHERE → projection or aggregation over a stream of column batches, a
/// batch at a time through the kernels of [`crate::vector`]: each batch
/// [`Plan::prepare`]d — on whichever thread scanned it — then merged into
/// the [`Acc`] on the statement's thread, in scan order.
struct Pipeline<'a> {
    plan: Plan<'a>,
    acc: Acc,
}

/// A statement's bound expressions. Every expression is bound to a
/// position of the input layout up front, so a misspelt column fails the
/// statement before anything is read.
struct Plan<'a> {
    filter: Option<Expr>,
    items: Vec<(Expr, String)>,
    group_by: Vec<Expr>,
    having: Option<Expr>,
    order_by: Vec<OrderKey>,
    /// The distinct aggregate calls across items, HAVING and ORDER BY.
    specs: Vec<Expr>,
    aggregating: bool,
    /// The statement is an unfiltered, ungrouped `COUNT(*)` reading no
    /// column: batch cardinalities answer it — for a clean master file,
    /// its footer's row counts.
    counts_only: bool,
    ctx: &'a EvalContext,
    deadline: &'a Deadline,
}

impl<'a> Pipeline<'a> {
    fn new(
        stmt: &SelectStmt,
        items: Vec<(Expr, String)>,
        binding: Binding,
        ctx: &'a EvalContext,
        deadline: &'a Deadline,
    ) -> Result<Self> {
        let bind = |e: &Expr| e.clone().bind(&binding);
        let filter = stmt.where_clause.as_ref().map(bind).transpose()?;
        let items: Vec<(Expr, String)> = items
            .into_iter()
            .map(|(e, n)| Ok((e.bind(&binding)?, n)))
            .collect::<Result<_>>()?;
        let group_by: Vec<Expr> = stmt.group_by.iter().map(bind).collect::<Result<_>>()?;
        let having = stmt.having.as_ref().map(bind).transpose()?;
        let aggregating = !group_by.is_empty()
            || items.iter().any(|(e, _)| e.contains_aggregate())
            || having.as_ref().is_some_and(Expr::contains_aggregate);
        // A bare name in ORDER BY may be an input column or an output
        // alias: the input wins for a plain projection, the alias when
        // aggregating.
        let mut order_by = Vec::with_capacity(stmt.order_by.len());
        for (expr, _) in &stmt.order_by {
            let alias = match expr {
                Expr::Column {
                    qualifier: None,
                    name,
                } => items.iter().position(|(_, n)| n == name),
                _ => None,
            };
            order_by.push(match (alias, bind(expr)) {
                (Some(pos), _) if aggregating => OrderKey::Output(pos),
                (_, Ok(bound)) => OrderKey::Input(bound),
                (Some(pos), Err(_)) => OrderKey::Output(pos),
                (None, Err(e)) => return Err(e),
            });
        }
        let mut specs: Vec<Expr> = Vec::new();
        for (e, _) in &items {
            collect_aggregates(e, &mut specs);
        }
        if let Some(e) = &having {
            collect_aggregates(e, &mut specs);
        }
        for key in &order_by {
            if let OrderKey::Input(e) = key {
                collect_aggregates(e, &mut specs);
            }
        }
        let count_star =
            |e: &Expr| matches!(e, Expr::Function { name, wildcard: true, .. } if name == "count");
        let counts_only = filter.is_none()
            && group_by.is_empty()
            && binding.is_empty()
            && !specs.is_empty()
            && specs.iter().all(count_star);
        let acc = match aggregating {
            true => Acc::Groups(Groups::new(&specs, stmt.group_by.is_empty())),
            false => Acc::Rows(Vec::new(), Vec::new()),
        };
        let plan = Plan {
            filter,
            items,
            group_by,
            having,
            order_by,
            specs,
            aggregating,
            counts_only,
            ctx,
            deadline,
        };
        Ok(Pipeline { plan, acc })
    }

    /// [`Plan::prepare`] then [`Acc::merge`], on this thread.
    fn push_batch(&mut self, batch: &ColumnBatch) -> Result<()> {
        let prepared = self.plan.prepare(batch)?;
        self.acc.merge(prepared);
        Ok(())
    }

    /// Output rows, output names and ORDER BY keys.
    fn finish(self) -> Result<(Vec<Row>, Vec<String>, Vec<GroupKey>)> {
        let plan = self.plan;
        let names = plan.items.iter().map(|(_, n)| n.clone()).collect();
        let groups = match self.acc {
            Acc::Rows(out, order_keys) => return Ok((out, names, order_keys)),
            Acc::Groups(groups) => groups.finish()?,
        };
        let mut out_rows = Vec::with_capacity(groups.len());
        let mut order_keys = Vec::with_capacity(groups.len());
        for (rep, values) in &groups {
            let at = |e: &Expr| {
                let e = with_values(e, &plan.specs, values)?;
                eval(&e, rep, &Binding::default(), plan.ctx)
            };
            if let Some(h) = &plan.having {
                if !is_true(&at(h)?) {
                    continue;
                }
            }
            let projected: Row = plan
                .items
                .iter()
                .map(|(e, _)| at(e))
                .collect::<Result<_>>()?;
            if !plan.order_by.is_empty() {
                let mut key = Vec::with_capacity(plan.order_by.len());
                for order in &plan.order_by {
                    key.push(HashableValue(match order {
                        OrderKey::Input(e) => at(e)?,
                        OrderKey::Output(pos) => projected[*pos].clone(),
                    }));
                }
                order_keys.push(GroupKey(key));
            }
            out_rows.push(projected);
        }
        Ok((out_rows, names, order_keys))
    }
}

impl Plan<'_> {
    /// Runs one batch through WHERE and the projection or aggregation:
    /// kernels, then projected rows as owned values, or each group's
    /// partial states. Each expression is evaluated once for the batch's
    /// selected rows.
    fn prepare(&self, batch: &ColumnBatch) -> Result<Prepared> {
        if self.counts_only {
            let n = batch.selected_len() as u64;
            return Ok(Prepared::Groups(Groups::counted(n, self.specs.len())));
        }
        let input = Input::of(batch);
        let k = Kernels::new(&input, self.ctx, self.deadline);
        let mut sel: Vec<u32> = batch.selected().map(|i| i as u32).collect();
        if let Some(filter) = &self.filter {
            sel = k.filter(filter, sel)?;
        }
        if self.aggregating {
            return Groups::prepare(&k, &self.group_by, &self.specs, &sel).map(Prepared::Groups);
        }
        let items: Vec<Vector> = self
            .items
            .iter()
            .map(|(e, _)| k.eval(e, &sel))
            .collect::<Result<_>>()?;
        let keys: Vec<Option<Vector>> = self
            .order_by
            .iter()
            .map(|key| match key {
                OrderKey::Input(e) => k.eval(e, &sel).map(Some),
                OrderKey::Output(_) => Ok(None),
            })
            .collect::<Result<_>>()?;
        let mut out = Vec::with_capacity(sel.len());
        let mut order_keys = Vec::new();
        for &i in &sel {
            let i = i as usize;
            let projected: Row = items.iter().map(|v| v.value(i)).collect();
            if !keys.is_empty() {
                let key = self.order_by.iter().zip(&keys).map(|(order, key)| {
                    HashableValue(match (order, key) {
                        (_, Some(v)) => v.value(i),
                        (OrderKey::Output(pos), None) => projected[*pos].clone(),
                        (OrderKey::Input(_), None) => unreachable!("evaluated above"),
                    })
                });
                order_keys.push(GroupKey(key.collect()));
            }
            out.push(projected);
        }
        Ok(Prepared::Rows(out, order_keys))
    }
}

fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    let is_call = matches!(expr, Expr::Function { name, .. } if is_aggregate_name(name));
    if is_call && !out.contains(expr) {
        out.push(expr.clone());
    }
    for child in expr.children() {
        collect_aggregates(child, out);
    }
}

/// `expr` with each aggregate call of `specs` replaced by its value, so
/// that the row interpreter evaluates it over a group's representative row
/// (first-row semantics for grouped columns).
fn with_values(expr: &Expr, specs: &[Expr], values: &[Value]) -> Result<Expr> {
    match specs.iter().position(|s| s == expr) {
        Some(i) => Ok(Expr::Literal(values[i].clone())),
        None => expr
            .clone()
            .map_children(&mut |child| with_values(&child, specs, values)),
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Splits an expression into top-level AND conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

fn resolves_in(expr: &Expr, binding: &Binding) -> bool {
    match expr {
        Expr::Column { qualifier, name } => binding.resolve(qualifier.as_deref(), name).is_ok(),
        Expr::Literal(_) => false,
        _ => false,
    }
}

/// The equi-keys of an ON clause: for each conjunct `a = b` with one side a
/// column of `left` and the other a column of `right`, the left-side and
/// right-side expressions, pairwise. Both empty when there is none.
pub(crate) fn equi_keys(on: &Expr, left: &Binding, right: &Binding) -> (Vec<Expr>, Vec<Expr>) {
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    for conjunct in conjuncts(on) {
        if let Expr::Binary {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = conjunct
        {
            for (l, r) in [(a, b), (b, a)] {
                if resolves_in(l, left) && resolves_in(r, right) {
                    left_keys.push((**l).clone());
                    right_keys.push((**r).clone());
                    break;
                }
            }
        }
    }
    (left_keys, right_keys)
}

/// `row`'s hash-join key over `exprs`, or `None` when any key value is
/// NULL (a NULL key never matches).
pub(crate) fn hash_key(
    exprs: &[Expr],
    row: &Row,
    binding: &Binding,
    ctx: &EvalContext,
) -> Result<Option<GroupKey>> {
    let mut key = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = eval(e, row, binding, ctx)?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(HashableValue(normalize_numeric(v)));
    }
    Ok(Some(GroupKey(key)))
}

/// Extracts stripe-skipping predicates (`col <op> literal`) from the WHERE
/// conjuncts of a single-table query.
pub fn extract_pushdown(
    where_clause: &Expr,
    binding: &Binding,
    schema: &Schema,
) -> Vec<ColumnPredicate> {
    let mut out = Vec::new();
    for conjunct in conjuncts(where_clause) {
        let Expr::Binary { op, left, right } = conjunct else {
            continue;
        };
        let mapped = match op {
            BinOp::Eq => PredicateOp::Eq,
            BinOp::Lt => PredicateOp::Lt,
            BinOp::LtEq => PredicateOp::Le,
            BinOp::Gt => PredicateOp::Gt,
            BinOp::GtEq => PredicateOp::Ge,
            _ => continue,
        };
        // col op lit, or lit op col (flipped).
        let (col_expr, lit_expr, op) = match (&**left, &**right) {
            (Expr::Column { .. }, Expr::Literal(_)) => (left, right, mapped),
            (Expr::Literal(_), Expr::Column { .. }) => (
                right,
                left,
                match mapped {
                    PredicateOp::Lt => PredicateOp::Gt,
                    PredicateOp::Le => PredicateOp::Ge,
                    PredicateOp::Gt => PredicateOp::Lt,
                    PredicateOp::Ge => PredicateOp::Le,
                    PredicateOp::Eq => PredicateOp::Eq,
                },
            ),
            _ => continue,
        };
        let Expr::Column { qualifier, name } = &**col_expr else {
            continue;
        };
        let Expr::Literal(lit) = &**lit_expr else {
            continue;
        };
        if binding.resolve(qualifier.as_deref(), name).is_err() {
            continue;
        }
        let Some(ordinal) = schema.index_of(name) else {
            continue;
        };
        // Push only what the evaluator can compare with the column: a
        // literal of another type makes the row filter fail the
        // statement, while stripe statistics would order the two by type
        // and silently skip every stripe.
        let comparable = match schema.field(ordinal).data_type {
            DataType::Utf8 => matches!(lit, Value::Utf8(_)),
            DataType::Bool => matches!(lit, Value::Bool(_)),
            DataType::Int64 | DataType::Float64 | DataType::Date => lit.as_f64().is_some(),
        };
        if comparable {
            out.push(ColumnPredicate::new(ordinal, op, lit.clone()));
        }
    }
    out
}

fn expand_wildcards(items: &[SelectItem], binding: &Binding) -> Result<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            // Every column, qualified by its table: joined tables may share
            // column names.
            SelectItem::Wildcard => {
                for (qualifier, name) in binding.columns() {
                    out.push((
                        Expr::Column {
                            qualifier,
                            name: name.clone(),
                        },
                        name,
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let positions = binding.positions_of_table(q);
                if positions.is_empty() {
                    return Err(Error::Plan(format!("unknown table alias '{q}'")));
                }
                let names = binding.names();
                for p in positions {
                    out.push((
                        Expr::Column {
                            qualifier: Some(q.clone()),
                            name: names[p].clone(),
                        },
                        names[p].clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias
                    .clone()
                    .unwrap_or_else(|| default_name(expr, out.len()));
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

fn default_name(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("_c{position}"),
    }
}

/// Infers an output schema from names and materialized rows.
fn infer_schema(names: &[String], rows: &[Row]) -> Schema {
    let mut fields = Vec::with_capacity(names.len());
    for (i, name) in names.iter().enumerate() {
        let ty = rows
            .iter()
            .find_map(|r| r.get(i).and_then(Value::data_type))
            .unwrap_or(DataType::Utf8);
        // Names may repeat after joins; disambiguate.
        let mut unique = name.clone();
        let mut n = 1;
        while fields
            .iter()
            .any(|f: &Field| f.name == unique.to_ascii_lowercase())
        {
            unique = format!("{name}_{n}");
            n += 1;
        }
        fields.push(Field::new(unique, ty));
    }
    Schema::new(fields).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn where_of(sql: &str) -> Expr {
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        sel.where_clause.expect("has WHERE")
    }

    #[test]
    fn conjuncts_split_only_top_level_ands() {
        let w = where_of("SELECT 1 FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND d < 4");
        assert_eq!(conjuncts(&w).len(), 3);
        let w = where_of("SELECT 1 FROM t WHERE a = 1 OR b = 2");
        assert_eq!(conjuncts(&w).len(), 1);
    }

    #[test]
    fn pushdown_extracts_comparisons_and_flips_reversed_literals() {
        let schema = Schema::from_pairs(&[("a", DataType::Int64), ("b", DataType::Int64)]);
        let binding = Binding::from_schema("t", &schema);
        let w = where_of("SELECT 1 FROM t WHERE a >= 5 AND 10 > b AND a + 1 = 3 AND b IN (1,2)");
        let preds = extract_pushdown(&w, &binding, &schema);
        // a >= 5 and (10 > b ⇒ b < 10); the arithmetic and IN conjuncts
        // are not push-downable.
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].column, 0);
        assert_eq!(preds[0].op, PredicateOp::Ge);
        assert_eq!(preds[1].column, 1);
        assert_eq!(preds[1].op, PredicateOp::Lt);
    }

    #[test]
    fn pushdown_ignores_unknown_columns() {
        let schema = Schema::from_pairs(&[("a", DataType::Int64)]);
        let binding = Binding::from_schema("t", &schema);
        let w = where_of("SELECT 1 FROM t WHERE zz = 5");
        assert!(extract_pushdown(&w, &binding, &schema).is_empty());
    }

    #[test]
    fn infer_schema_dedupes_join_column_names() {
        let names = vec!["id".to_string(), "id".to_string(), "v".to_string()];
        let rows = vec![vec![Value::Int64(1), Value::Int64(2), Value::from("x")]];
        let s = infer_schema(&names, &rows);
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "id");
        assert_eq!(s.field(1).name, "id_1");
        assert_eq!(s.field(0).data_type, DataType::Int64);
        assert_eq!(s.field(2).data_type, DataType::Utf8);
    }

    #[test]
    fn infer_schema_on_empty_result_defaults() {
        let s = infer_schema(&["c".to_string()], &[]);
        assert_eq!(s.field(0).data_type, DataType::Utf8);
    }
}
