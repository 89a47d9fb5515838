//! The user-facing session: parse → plan → execute over one environment.

use std::collections::BTreeMap;
use std::sync::Arc;

use dt_baselines::{HiveAcidTable, HiveHbaseTable, HiveHdfsTable, StorageHandler};
use dt_common::{Deadline, Error, Field, Result, Row, Schema, Value};
use dt_orcfile::ColumnBatch;
use dualtable::{
    Assignment, CompactionMode, DualTableConfig, DualTableEnv, DualTableStore, FoldOutcome,
    RatioHint, RowSelector, ShardSpec, ShardedTable, Transaction, UnionReadOptions,
};

use crate::ast::{InsertSource, ShardBy, Statement, StorageKind};
use crate::catalog::{DmlOutcome, SharedCatalog, TableHandle};
use crate::exec::{ExecConfig, Executor, QueryResult};
use crate::expr::{eval, is_true, Binding, EvalContext};
use crate::parser::parse;

/// Session-level configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// DualTable table configuration (plan mode, cost-model rates, `k`).
    pub dualtable: DualTableConfig,
    /// Rows per file for ORC-backed tables.
    pub rows_per_file: usize,
    /// Executor tuning.
    pub exec: ExecConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            dualtable: DualTableConfig::default(),
            rows_per_file: 1 << 20,
            exec: ExecConfig::default(),
        }
    }
}

/// An interactive HiveQL session.
///
/// ```
/// use dt_hiveql::Session;
/// let mut s = Session::in_memory();
/// s.execute("CREATE TABLE t (id BIGINT, v DOUBLE) STORED AS DUALTABLE").unwrap();
/// s.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
/// let r = s.execute("SELECT SUM(v) FROM t").unwrap();
/// assert_eq!(r.rows()[0][0].as_f64().unwrap(), 2.0);
/// ```
pub struct Session {
    env: DualTableEnv,
    catalog: SharedCatalog,
    /// Session configuration; mutable between statements.
    pub config: SessionConfig,
    /// Open transaction: table name → that table's [`Transaction`].
    /// `None` means autocommit; `Some` (even empty) means `BEGIN` was
    /// executed and DUALTABLE DML is buffered until `COMMIT` (DESIGN.md
    /// §13). Tables enroll lazily, pinning their snapshot(s) at first
    /// touch.
    txn: Option<BTreeMap<String, Transaction>>,
}

impl Session {
    /// A session over fresh in-memory storage.
    pub fn in_memory() -> Self {
        Self::with_env(DualTableEnv::in_memory())
    }

    /// A session over an existing environment (shared storage) with its
    /// own private catalog.
    pub fn with_env(env: DualTableEnv) -> Self {
        Self::with_shared(env, SharedCatalog::new())
    }

    /// A session over a shared environment *and* a shared catalog — the
    /// server constructor: every connection sees the same table names.
    pub fn with_shared(env: DualTableEnv, catalog: SharedCatalog) -> Self {
        Session {
            env,
            catalog,
            config: SessionConfig::default(),
            txn: None,
        }
    }

    /// `true` while a `BEGIN … COMMIT|ROLLBACK` transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The underlying environment.
    pub fn env(&self) -> &DualTableEnv {
        &self.env
    }

    /// The catalog this session resolves names against (clone it to open
    /// sibling sessions over the same tables).
    pub fn shared_catalog(&self) -> SharedCatalog {
        self.catalog.clone()
    }

    /// Direct access to a table's storage handler (for experiments mixing
    /// SQL and API access).
    pub fn table(&self, name: &str) -> Result<TableHandle> {
        self.catalog.get(name)
    }

    /// Drops the open transaction (if any) without touching storage:
    /// buffered writes discard, pinned snapshots release. The teardown
    /// path for dead connections and panicked statements — safe to call
    /// in any session state.
    pub fn abort_transaction(&mut self) {
        self.txn = None;
    }

    /// Parses and executes one statement, counted in flight
    /// ([`dt_engine::InFlight`]) while it runs: a read beside it fans out
    /// only onto the cores left.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let _in_flight = dt_engine::InFlight::begin();
        let stmt = parse(sql)?;
        self.execute_statement(stmt, sql)
    }

    /// [`Session::execute`] under a per-statement [`Deadline`]: scans
    /// check the token at row-batch boundaries and abort with
    /// [`Error::Timeout`] once it expires. The session is *not* poisoned:
    /// an open transaction keeps its buffered writes and pins, and the
    /// next statement runs normally.
    pub fn execute_with_deadline(&mut self, sql: &str, deadline: Deadline) -> Result<QueryResult> {
        let saved = std::mem::replace(&mut self.config.exec.deadline, deadline);
        let result = self.execute(sql);
        self.config.exec.deadline = saved;
        result
    }

    fn executor(&self) -> Executor<'_> {
        Executor {
            catalog: &self.catalog,
            config: &self.config.exec,
            txns: self.txn.as_ref(),
        }
    }

    /// The open transaction for `table`, enrolling it (pinning a fresh
    /// snapshot — one per shard for sharded tables) on first touch.
    /// Callers must have checked `self.txn.is_some()`.
    fn txn_for(&mut self, table: &str) -> Result<&mut Transaction> {
        let handle = self.catalog.get(table)?;
        let map = self.txn.as_mut().expect("caller checked in_transaction");
        if !map.contains_key(table) {
            let txn = match handle {
                TableHandle::Dual(store) => store.begin_transaction()?,
                TableHandle::Sharded(t) => t.begin_transaction()?,
                other => {
                    return Err(Error::Unsupported(format!(
                        "table '{table}' is stored as {:?}: transactions cover DUALTABLE \
                         storage only",
                        other.storage_kind()
                    )))
                }
            };
            map.insert(table.to_string(), txn);
        }
        Ok(map.get_mut(table).expect("just inserted"))
    }

    /// Enrolls every DUALTABLE named in the query's FROM/JOIN list into
    /// the open transaction, pinning its snapshot — SELECT inside a
    /// transaction gets repeatable snapshot reads. Tables referenced only
    /// from subqueries read committed state. Callers must have checked
    /// `self.txn.is_some()`.
    fn enroll_select_tables(&mut self, sel: &crate::ast::SelectStmt) -> Result<()> {
        let Some(from) = &sel.from else {
            return Ok(());
        };
        let mut names = vec![from.name.clone()];
        names.extend(sel.joins.iter().map(|j| j.table.name.clone()));
        for name in names {
            if matches!(
                self.catalog.get(&name),
                Ok(TableHandle::Dual(_) | TableHandle::Sharded(_))
            ) {
                self.txn_for(&name)?;
            }
        }
        Ok(())
    }

    fn execute_statement(&mut self, stmt: Statement, sql: &str) -> Result<QueryResult> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::InvalidArgument(
                        "transaction already open: nested BEGIN is not supported".into(),
                    ));
                }
                self.txn = Some(BTreeMap::new());
                Ok(default_message_result("transaction started".into()))
            }
            Statement::Commit => {
                let Some(map) = self.txn.take() else {
                    return Err(Error::InvalidArgument(
                        "COMMIT without an open transaction".into(),
                    ));
                };
                // One atomic commit over every table written (DESIGN.md
                // §13): all of them land, or — on a retryable conflict
                // naming the store that lost — none does.
                let tables = map.values().filter(|txn| !txn.is_read_only()).count() as u64;
                Transaction::commit_all(map.into_values())?;
                Ok(dml_result(tables, format!("committed ({tables} tables)")))
            }
            Statement::Rollback => {
                if self.txn.take().is_none() {
                    return Err(Error::InvalidArgument(
                        "ROLLBACK without an open transaction".into(),
                    ));
                }
                Ok(default_message_result("rolled back".into()))
            }
            Statement::Explain(inner) => self.explain_statement(&inner),
            Statement::Select(sel) => {
                if self.txn.is_some() {
                    self.enroll_select_tables(&sel)?;
                }
                self.executor().select(&sel)
            }
            Statement::ShowTables => {
                let rows: Vec<Row> = self
                    .catalog
                    .names()
                    .into_iter()
                    .map(|n| vec![Value::Utf8(n)])
                    .collect();
                Ok(result_with_rows(
                    Schema::from_pairs(&[("table_name", dt_common::DataType::Utf8)]),
                    rows,
                ))
            }
            Statement::ShowHealth => {
                let report = self.env.health_report();
                let rows: Vec<Row> = report
                    .metrics()
                    .into_iter()
                    .map(|(tier, metric, value)| {
                        vec![
                            Value::Utf8(tier.to_string()),
                            Value::Utf8(metric.to_string()),
                            Value::Int64(value as i64),
                        ]
                    })
                    .collect();
                Ok(result_with_rows(
                    Schema::from_pairs(&[
                        ("tier", dt_common::DataType::Utf8),
                        ("metric", dt_common::DataType::Utf8),
                        ("value", dt_common::DataType::Int64),
                    ]),
                    rows,
                ))
            }
            Statement::Describe { name } => {
                let handle = self.catalog.get(&name)?;
                let rows: Vec<Row> = handle
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| {
                        vec![
                            Value::Utf8(f.name.clone()),
                            Value::Utf8(f.data_type.sql_name().to_string()),
                        ]
                    })
                    .collect();
                Ok(result_with_rows(
                    Schema::from_pairs(&[
                        ("col_name", dt_common::DataType::Utf8),
                        ("data_type", dt_common::DataType::Utf8),
                    ]),
                    rows,
                ))
            }
            Statement::CreateTable {
                name,
                columns,
                storage,
                if_not_exists,
                sharding,
            } => {
                if self.catalog.contains(&name) {
                    if if_not_exists {
                        return Ok(default_message_result(format!(
                            "table '{name}' already exists"
                        )));
                    }
                    return Err(Error::AlreadyExists(format!("table '{name}'")));
                }
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(n, t)| Field::new(n.clone(), *t))
                        .collect(),
                )?;
                let sharded = sharding.is_some();
                let handle = self.create_storage(&name, schema, storage, sharding)?;
                let shards = match &handle {
                    TableHandle::Sharded(t) => t.shard_count(),
                    _ => 0,
                };
                self.catalog.register(&name, handle)?;
                Ok(default_message_result(if sharded {
                    format!("created table '{name}' stored as {storage:?} ({shards} shards)")
                } else {
                    format!("created table '{name}' stored as {storage:?}")
                }))
            }
            Statement::DropTable { name, if_exists } => {
                if self.txn.as_ref().is_some_and(|m| m.contains_key(&name)) {
                    return Err(Error::Busy(format!(
                        "table '{name}' has buffered transaction writes; COMMIT or ROLLBACK first"
                    )));
                }
                if !self.catalog.contains(&name) {
                    if if_exists {
                        return Ok(default_message_result(format!(
                            "table '{name}' does not exist"
                        )));
                    }
                    return Err(Error::not_found(format!("table '{name}'")));
                }
                let handle = self.catalog.remove(&name)?;
                handle.drop_storage()?;
                Ok(default_message_result(format!("dropped '{name}'")))
            }
            Statement::Insert {
                table,
                overwrite,
                source,
            } => {
                if self.txn.is_some() {
                    if let InsertSource::Select(sel) = &source {
                        self.enroll_select_tables(sel)?;
                    }
                }
                let rows = match source {
                    InsertSource::Values(tuples) => {
                        let binding = Binding::default();
                        let ctx = EvalContext::default();
                        let empty: Row = Vec::new();
                        tuples
                            .iter()
                            .map(|tuple| {
                                tuple
                                    .iter()
                                    .map(|e| eval(e, &empty, &binding, &ctx))
                                    .collect::<Result<Row>>()
                            })
                            .collect::<Result<Vec<Row>>>()?
                    }
                    InsertSource::Select(sel) => self.executor().select(&sel)?.into_rows(),
                };
                let coerced = {
                    let handle = self.catalog.get(&table)?;
                    coerce_rows(rows, handle.schema())?
                };
                if self.txn.is_some() {
                    if overwrite {
                        return Err(Error::Unsupported(
                            "INSERT OVERWRITE inside a transaction is not supported; COMMIT first"
                                .into(),
                        ));
                    }
                    let n = self.txn_for(&table)?.insert(coerced)?;
                    return Ok(dml_result(n, format!("inserted {n} rows (buffered)")));
                }
                let handle = self.catalog.get(&table)?;
                let n = if overwrite {
                    handle.insert_overwrite(coerced)?
                } else {
                    handle.insert(coerced)?
                };
                Ok(dml_result(n, format!("inserted {n} rows")))
            }
            Statement::Update {
                table,
                assignments,
                predicate,
            } => self.execute_dml(&table, Some(assignments), predicate, sql),
            Statement::Delete { table, predicate } => {
                self.execute_dml(&table, None, predicate, sql)
            }
            Statement::Compact { table, incremental } => {
                if self.txn.is_some() {
                    return Err(Error::Unsupported(
                        "COMPACT inside a transaction is not supported; COMMIT first".into(),
                    ));
                }
                if incremental {
                    let outcome = self.catalog.get(&table)?.compact_incremental()?;
                    return Ok(default_message_result(match outcome {
                        FoldOutcome::Folded { files, rows } => format!(
                            "incrementally compacted '{table}': folded {files} files ({rows} rows)"
                        ),
                        FoldOutcome::LostRace => format!(
                            "incremental compaction of '{table}' lost its swing race to a \
                             concurrent commit; safe to retry"
                        ),
                        FoldOutcome::Clean => {
                            format!("'{table}' has nothing dirty enough to fold")
                        }
                    }));
                }
                self.catalog.get(&table)?.compact()?;
                Ok(default_message_result(format!("compacted '{table}'")))
            }
            Statement::SetCompaction { auto } => {
                let mode = if auto {
                    CompactionMode::Auto
                } else {
                    CompactionMode::Off
                };
                self.env.compaction.set_mode(mode);
                Ok(default_message_result(format!(
                    "compaction mode set to {}",
                    self.env.compaction.mode_name()
                )))
            }
            Statement::ShowCompaction => {
                let snap = self.env.health.snapshot();
                let mut metrics: Vec<(String, String)> = vec![
                    ("mode".into(), self.env.compaction.mode_name().to_string()),
                    ("state".into(), self.env.compaction.state_name().to_string()),
                    ("started".into(), snap.compactions_started.to_string()),
                    ("completed".into(), snap.compactions_completed.to_string()),
                    ("lost_race".into(), snap.compactions_lost_race.to_string()),
                    ("aborted".into(), snap.compactions_aborted.to_string()),
                    ("throttled".into(), snap.compactor_throttled.to_string()),
                    ("reason".into(), self.env.compaction.reason()),
                ];
                // Per-shard fold ledgers of every sharded table: the
                // round-robin walk's fairness is observable here (the
                // `attempted` counts differ by at most one full cycle).
                for name in self.catalog.names() {
                    if let Ok(TableHandle::Sharded(t)) = self.catalog.get(&name) {
                        for i in 0..t.shard_count() {
                            let f = t.fold_stats(i);
                            metrics.push((
                                format!("{name}.s{i}"),
                                format!(
                                    "attempted={} folded={} lost_race={} clean={}",
                                    f.attempted, f.folded, f.lost_race, f.clean
                                ),
                            ));
                        }
                    }
                }
                let rows: Vec<Row> = metrics
                    .into_iter()
                    .map(|(metric, value)| vec![Value::Utf8(metric), Value::Utf8(value)])
                    .collect();
                Ok(result_with_rows(
                    Schema::from_pairs(&[
                        ("metric", dt_common::DataType::Utf8),
                        ("value", dt_common::DataType::Utf8),
                    ]),
                    rows,
                ))
            }
            Statement::ShowShards => {
                let mut rows: Vec<Row> = Vec::new();
                for name in self.catalog.names() {
                    if let Ok(TableHandle::Sharded(t)) = self.catalog.get(&name) {
                        for (i, shard) in t.shards().iter().enumerate() {
                            let (lo, hi) = t.spec().bounds(i);
                            let range = format!(
                                "[{}, {})",
                                lo.map_or_else(|| "-inf".to_string(), |v| v.to_string()),
                                hi.map_or_else(|| "+inf".to_string(), |v| v.to_string()),
                            );
                            let stats = shard.stats()?;
                            rows.push(vec![
                                Value::Utf8(name.clone()),
                                Value::Int64(i as i64),
                                Value::Utf8(range),
                                Value::Int64(shard.count()? as i64),
                                Value::Int64(stats.master_files as i64),
                                Value::Int64(stats.attached_entries as i64),
                            ]);
                        }
                    }
                }
                Ok(result_with_rows(
                    Schema::from_pairs(&[
                        ("table_name", dt_common::DataType::Utf8),
                        ("shard", dt_common::DataType::Int64),
                        ("range", dt_common::DataType::Utf8),
                        ("rows", dt_common::DataType::Int64),
                        ("master_files", dt_common::DataType::Int64),
                        ("attached_entries", dt_common::DataType::Int64),
                    ]),
                    rows,
                ))
            }
            Statement::Merge {
                target,
                source,
                on,
                matched_set,
                not_matched_insert,
            } => self.execute_merge(&target, &source, &on, &matched_set, not_matched_insert),
        }
    }

    /// `EXPLAIN`: renders the plan as rows of `(step, detail)` without
    /// executing. For UPDATE/DELETE on a DualTable, previews the §IV
    /// cost-model decision (sampled ratio, cost difference, chosen plan).
    fn explain_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        use crate::exec::extract_pushdown;
        let mut lines: Vec<(String, String)> = Vec::new();
        match stmt {
            Statement::Select(sel) => {
                if let Some(from) = &sel.from {
                    let handle = self.catalog.get(&from.name)?;
                    lines.push((
                        "scan".into(),
                        format!(
                            "{} [{:?}] ({} columns)",
                            from.name,
                            handle.storage_kind(),
                            handle.schema().len()
                        ),
                    ));
                    if sel.joins.is_empty() {
                        let preds = match &sel.where_clause {
                            Some(w) => {
                                let binding =
                                    Binding::from_schema(from.binding_name(), handle.schema());
                                extract_pushdown(w, &binding, handle.schema())
                            }
                            None => Vec::new(),
                        };
                        if !preds.is_empty() {
                            lines.push((
                                "pushdown".into(),
                                format!("{} stripe-skipping predicate(s)", preds.len()),
                            ));
                        }
                        if let TableHandle::Sharded(t) = &handle {
                            let matched = t.shards_matching(Some(&preds));
                            lines.push((
                                "scatter".into(),
                                format!(
                                    "{} of {} shard(s) scanned one after another, in range order ({} pruned by range)",
                                    matched.len(),
                                    t.shard_count(),
                                    t.shard_count() - matched.len()
                                ),
                            ));
                        }
                    }
                    for join in &sel.joins {
                        lines.push((
                            "join".into(),
                            format!("{:?} {} ON …", join.kind, join.table.name),
                        ));
                    }
                }
                if sel.where_clause.is_some() {
                    lines.push(("filter".into(), "WHERE predicate".into()));
                }
                if !sel.group_by.is_empty()
                    || sel.items.iter().any(|i| match i {
                        crate::ast::SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                        _ => false,
                    })
                {
                    lines.push((
                        "aggregate".into(),
                        format!(
                            "{} group key(s), running states over the streamed scan",
                            sel.group_by.len()
                        ),
                    ));
                }
                if sel.distinct {
                    lines.push(("distinct".into(), "deduplicate output rows".into()));
                }
                if !sel.order_by.is_empty() {
                    lines.push(("sort".into(), format!("{} key(s)", sel.order_by.len())));
                }
                if let Some(l) = sel.limit {
                    lines.push(("limit".into(), l.to_string()));
                }
            }
            Statement::Update {
                table, predicate, ..
            }
            | Statement::Delete { table, predicate } => {
                let set: &[(String, crate::ast::Expr)] = match stmt {
                    Statement::Update { assignments, .. } => assignments,
                    _ => &[],
                };
                let is_update = matches!(stmt, Statement::Update { .. });
                let op = if is_update { "UPDATE" } else { "DELETE" };
                // Resolved as execution resolves it, so both sample the
                // same rows through the same scan.
                let target = self.dml_target(table, predicate.clone(), set)?;
                let (handle, scan) = (&target.handle, &target.scan);
                lines.push((
                    "dml".into(),
                    format!("{op} {table} [{:?}]", handle.storage_kind()),
                ));
                if let TableHandle::Dual(t) = handle {
                    let preview = t.plan_preview(&target, is_update, scan)?;
                    lines.push((
                        "cost-model".into(),
                        format!(
                            "sampled ratio {:.4}, D = {} bytes, cost diff {:+.4}s",
                            preview.ratio, preview.master_bytes, preview.cost_diff
                        ),
                    ));
                    lines.push(("plan".into(), format!("{:?}", preview.plan)));
                } else if let TableHandle::Sharded(t) = handle {
                    // Each shard previews its own cost model: different
                    // key ranges may land on different sides of the
                    // EDIT/OVERWRITE crossover.
                    let matched = t.shards_matching(scan.predicates.as_deref());
                    lines.push((
                        "scatter".into(),
                        format!(
                            "{} of {} shard(s) ({} pruned by range)",
                            matched.len(),
                            t.shard_count(),
                            t.shard_count() - matched.len()
                        ),
                    ));
                    for i in matched {
                        let (lo, hi) = t.spec().bounds(i);
                        let preview = t.shards()[i].plan_preview(&target, is_update, scan)?;
                        lines.push((
                            format!("shard {i}"),
                            format!(
                                "[{}, {}) → {:?} (ratio {:.4}, cost diff {:+.4}s)",
                                lo.map_or_else(|| "-inf".to_string(), |v| v.to_string()),
                                hi.map_or_else(|| "+inf".to_string(), |v| v.to_string()),
                                preview.plan,
                                preview.ratio,
                                preview.cost_diff
                            ),
                        ));
                    }
                } else {
                    lines.push(("plan".into(), "full INSERT OVERWRITE rewrite".into()));
                }
            }
            other => lines.push(("statement".into(), format!("{other:?}"))),
        }
        let rows: Vec<Row> = lines
            .into_iter()
            .map(|(step, detail)| vec![Value::Utf8(step), Value::Utf8(detail)])
            .collect();
        Ok(result_with_rows(
            Schema::from_pairs(&[
                ("step", dt_common::DataType::Utf8),
                ("detail", dt_common::DataType::Utf8),
            ]),
            rows,
        ))
    }

    /// What UPDATE, DELETE and their EXPLAIN resolve before any row is
    /// read: the table, its WHERE clause with subqueries planned and every
    /// column bound, and what the statement reads (`set`: the SET list).
    fn dml_target(
        &self,
        table: &str,
        predicate: Option<crate::ast::Expr>,
        set: &[(String, crate::ast::Expr)],
    ) -> Result<DmlTarget> {
        let handle = self.catalog.get(table)?;
        let binding = Binding::from_schema(table, handle.schema());
        let mut ctx = EvalContext::default();
        let predicate = match predicate {
            Some(p) => Some(self.executor().plan_subqueries(p, &mut ctx)?),
            None => None,
        };
        let mut used = std::collections::BTreeSet::new();
        for expr in predicate.iter().chain(set.iter().map(|(_, e)| e)) {
            expr.columns_into(&binding, &mut used);
        }
        let mut scan = UnionReadOptions::all().with_projection(used.into_iter().collect());
        scan.predicates = predicate
            .as_ref()
            .map(|p| crate::exec::extract_pushdown(p, &binding, handle.schema()))
            .filter(|p| !p.is_empty());
        Ok(DmlTarget {
            predicate: predicate.map(|p| p.bind(&binding)).transpose()?,
            handle,
            binding,
            ctx,
            scan,
        })
    }

    /// One UPDATE (`set` given) or DELETE: buffered in the table's open
    /// transaction, or run through its storage handler (cost model and
    /// all) under autocommit.
    fn execute_dml(
        &mut self,
        table: &str,
        set: Option<Vec<(String, crate::ast::Expr)>>,
        predicate: Option<crate::ast::Expr>,
        sql: &str,
    ) -> Result<QueryResult> {
        let is_update = set.is_some();
        let set = set.unwrap_or_default();
        let target = self.dml_target(table, predicate, &set)?;
        let (handle, binding, scan) = (&target.handle, &target.binding, &target.scan);
        // Resolve assignments to (ordinal, evaluator) and bind every
        // column reference, once, before any row is read.
        let resolved: Vec<(usize, crate::ast::Expr)> = set
            .into_iter()
            .map(|(col, e)| Ok((handle.schema().require(&col)?, e.bind(binding)?)))
            .collect::<Result<_>>()?;
        let assign_fns: Vec<Assignment<'_>> = resolved
            .iter()
            .map(|(idx, e)| {
                (
                    *idx,
                    Box::new(|row: &Row| eval(e, row, binding, &target.ctx))
                        as Box<dyn Fn(&Row) -> Result<Value> + Sync + '_>,
                )
            })
            .collect();
        let verb = if is_update { "updated" } else { "deleted" };
        let set = is_update.then_some(&assign_fns[..]);
        if self.txn.is_some() {
            let matched = self.txn_for(table)?.edit(&target, set, scan)?;
            return Ok(dml_result(
                matched,
                format!("{verb} {matched} rows (buffered)"),
            ));
        }
        let (hint, key) = (self.config.exec.ratio_hint, statement_key(sql));
        let outcome = handle.dml(&target, set, hint, Some(&key), scan)?;
        let mut result = dml_result(outcome.rows_matched, dml_message(verb, &outcome));
        result.dml = outcome.report;
        Ok(result)
    }

    /// `MERGE INTO`: hash the source on the ON equi-keys, build and check
    /// the rows to insert — source rows that matched nothing — then update
    /// the matched target rows and insert, so a MERGE that fails applies
    /// nothing. A DUALTABLE target merges as one transaction: the session's
    /// open one, or an implicit one committed at the end (its UPDATE half
    /// runs as EDIT at the pin, like every transactional UPDATE). Unlike
    /// any other autocommit statement, the implicit one can lose
    /// first-committer-wins to a writer that commits one of its rows, or
    /// swings the generation, first: it then returns the retryable
    /// [`Error::Conflict`] having applied nothing. Other storages, which
    /// take no transaction, update through the handler, then insert.
    fn execute_merge(
        &mut self,
        target: &str,
        source: &crate::ast::TableRef,
        on: &crate::ast::Expr,
        matched_set: &[(String, crate::ast::Expr)],
        not_matched_insert: Option<Vec<crate::ast::Expr>>,
    ) -> Result<QueryResult> {
        use crate::exec::{equi_keys, hash_key};
        use crate::expr::GroupKey;
        use std::collections::{HashMap, HashSet};

        let target_handle = self.catalog.get(target)?;
        let target_schema = target_handle.schema().clone();
        let source_handle = self.catalog.get(&source.name)?;
        let source_schema = source_handle.schema().clone();
        let deadline = self.config.exec.deadline.clone();
        let hint = self.config.exec.ratio_hint;
        // Inside BEGIN a DUALTABLE source is read through the transaction:
        // at its pin, under its own buffered writes.
        let enrolled = self.txn.is_some() && !matches!(source_handle, TableHandle::Baseline(..));
        let source_txn = match enrolled {
            true => Some(&*self.txn_for(&source.name)?),
            false => None,
        };
        let source_rows = source_handle.scan_deadline(source_txn, None, None, &deadline)?;

        let target_binding = Binding::from_schema(target, &target_schema);
        let source_binding = Binding::from_schema(source.binding_name(), &source_schema);
        let combined_binding = target_binding.join(&source_binding);
        let ctx = EvalContext::default();

        let (target_keys, source_keys) = equi_keys(on, &target_binding, &source_binding);
        if target_keys.is_empty() {
            return Err(Error::Plan(
                "MERGE ON must contain at least one target.col = source.col equality".into(),
            ));
        }
        let mut implicit = None;
        let mut txn = match (&target_handle, self.txn.is_some()) {
            (_, true) => Some(self.txn_for(target)?),
            (TableHandle::Dual(t), false) => Some(implicit.insert(t.begin_transaction()?)),
            (TableHandle::Sharded(t), false) => Some(implicit.insert(t.begin_transaction()?)),
            (TableHandle::Baseline(..), false) => None,
        };

        // Source hash table (first row per key wins, like Hive's MERGE
        // cardinality check would reject duplicates; we take the first).
        let mut source_map: HashMap<GroupKey, Row> = HashMap::new();
        for row in &source_rows {
            if let Some(key) = hash_key(&source_keys, row, &source_binding, &ctx)? {
                source_map.entry(key).or_insert_with(|| row.clone());
            }
        }

        // Which source keys have a target partner (for the insert branch)?
        let mut matched_keys: HashSet<GroupKey> = HashSet::new();
        for row in target_handle.scan_deadline(txn.as_deref(), None, None, &deadline)? {
            if let Some(key) = hash_key(&target_keys, &row, &target_binding, &ctx)? {
                if source_map.contains_key(&key) {
                    matched_keys.insert(key);
                }
            }
        }

        // WHEN NOT MATCHED THEN INSERT: source rows without a partner,
        // checked before anything is written.
        let mut new_rows = Vec::new();
        if let Some(exprs) = &not_matched_insert {
            if exprs.len() != target_schema.len() {
                return Err(Error::schema(format!(
                    "MERGE INSERT provides {} values for {} columns",
                    exprs.len(),
                    target_schema.len()
                )));
            }
            for row in &source_rows {
                let matched = match hash_key(&source_keys, row, &source_binding, &ctx)? {
                    Some(key) => matched_keys.contains(&key),
                    None => false,
                };
                if !matched {
                    let values: Row = exprs
                        .iter()
                        .map(|e| eval(e, row, &source_binding, &ctx))
                        .collect::<Result<_>>()?;
                    new_rows.push(values);
                }
            }
        }
        let new_rows = coerce_rows(new_rows, &target_schema)?;

        // WHEN MATCHED THEN UPDATE.
        let mut updated = 0u64;
        if !matched_set.is_empty() {
            let full_match = |row: &Row| -> Option<Row> {
                let key = hash_key(&target_keys, row, &target_binding, &ctx).ok()??;
                let src = source_map.get(&key)?;
                let mut combined = row.clone();
                combined.extend(src.iter().cloned());
                // Residual ON conditions must hold too.
                match eval(on, &combined, &combined_binding, &ctx) {
                    Ok(v) if is_true(&v) => Some(combined),
                    _ => None,
                }
            };
            let mut resolved: Vec<(usize, &crate::ast::Expr)> = Vec::new();
            for (col, e) in matched_set {
                resolved.push((target_schema.require(col)?, e));
            }
            let pred = |row: &Row| full_match(row).is_some();
            let assigns: Vec<Assignment<'_>> = resolved
                .iter()
                .map(|(idx, e)| {
                    let combined_binding = &combined_binding;
                    let ctx = &ctx;
                    let full_match = &full_match;
                    (
                        *idx,
                        Box::new(move |row: &Row| match full_match(row) {
                            Some(combined) => eval(e, &combined, combined_binding, ctx),
                            None => Ok(Value::Null),
                        })
                            as Box<dyn Fn(&Row) -> Result<Value> + Sync + '_>,
                    )
                })
                .collect();
            let all = UnionReadOptions::all();
            updated = match txn.as_deref_mut() {
                Some(txn) => txn.update(pred, &assigns, &all)?,
                None => {
                    target_handle
                        .dml(&pred, Some(&assigns), hint, None, &all)?
                        .rows_matched
                }
            };
        }

        let inserted = new_rows.len() as u64;
        if !new_rows.is_empty() {
            match txn {
                Some(txn) => txn.insert(new_rows)?,
                None => target_handle.insert(new_rows)?,
            };
        }
        if let Some(txn) = implicit {
            txn.commit()?;
        }
        Ok(dml_result(
            updated + inserted,
            format!("merge: {updated} rows updated, {inserted} rows inserted"),
        ))
    }

    fn create_storage(
        &self,
        name: &str,
        schema: Schema,
        storage: StorageKind,
        sharding: Option<ShardBy>,
    ) -> Result<TableHandle> {
        if let Some(shard_by) = &sharding {
            if storage != StorageKind::DualTable {
                return Err(Error::Unsupported(format!(
                    "SHARDED BY RANGE requires STORED AS DUALTABLE, not {storage:?}"
                )));
            }
            let key_column = schema.require(&shard_by.column)?;
            // Split points are constant expressions (no row context).
            let binding = Binding::default();
            let ctx = EvalContext::default();
            let empty: Row = Vec::new();
            let mut splits = Vec::with_capacity(shard_by.splits.len());
            for e in &shard_by.splits {
                match eval(e, &empty, &binding, &ctx)? {
                    Value::Int64(v) => splits.push(v),
                    other => {
                        return Err(Error::schema(format!(
                            "SPLIT AT points must be BIGINT constants, got {other:?}"
                        )))
                    }
                }
            }
            let spec = ShardSpec::new(key_column, splits)?;
            return Ok(TableHandle::Sharded(ShardedTable::create(
                &self.env,
                name,
                schema,
                self.config.dualtable.clone(),
                spec,
            )?));
        }
        let writer = self.config.dualtable.writer.clone();
        let handler: Arc<dyn StorageHandler> = match storage {
            StorageKind::DualTable => {
                let config = self.config.dualtable.clone();
                let store = DualTableStore::create(&self.env, name, schema, config)?;
                return Ok(TableHandle::Dual(store));
            }
            StorageKind::Orc => Arc::new(HiveHdfsTable::create(
                &self.env.dfs,
                name,
                schema,
                writer,
                self.config.rows_per_file,
            )?),
            StorageKind::HBase => Arc::new(HiveHbaseTable::create(&self.env.kv, name, schema)?),
            StorageKind::Acid => Arc::new(HiveAcidTable::create(
                &self.env.dfs,
                &format!("{name}_acid"),
                schema,
                writer,
                self.config.rows_per_file,
            )?),
        };
        Ok(TableHandle::Baseline(storage, handler))
    }

    /// Registers an externally-created DualTable under a name (experiments
    /// build tables via the API, then query them via SQL).
    pub fn register_dualtable(&mut self, name: &str, store: DualTableStore) -> Result<()> {
        self.catalog.register(name, TableHandle::Dual(store))
    }

    /// Registers an externally-created sharded table under a name.
    pub fn register_sharded(&mut self, name: &str, table: ShardedTable) -> Result<()> {
        self.catalog.register(name, TableHandle::Sharded(table))
    }

    /// Overrides the ratio hint used for subsequent DualTable DML.
    pub fn set_ratio_hint(&mut self, hint: RatioHint) {
        self.config.exec.ratio_hint = hint;
    }
}

/// A resolved UPDATE or DELETE (see [`Session::dml_target`]).
struct DmlTarget {
    handle: TableHandle,
    binding: Binding,
    ctx: EvalContext,
    predicate: Option<crate::ast::Expr>,
    /// What the statement reads, for the storage layer: the columns its
    /// WHERE clause and SET right-hand sides reference, and the WHERE
    /// conjuncts that can skip stripes and prune shards.
    scan: UnionReadOptions,
}

/// The WHERE clause as the statement's row selector: no clause matches
/// every row; NULL, or a row the clause cannot be evaluated on, matches
/// none. A batch runs through the kernels of [`crate::vector`].
impl RowSelector for DmlTarget {
    fn matches(&self, row: &Row) -> bool {
        let eval = |p| eval(p, row, &self.binding, &self.ctx);
        self.predicate
            .as_ref()
            .is_none_or(|p| eval(p).is_ok_and(|v| is_true(&v)))
    }

    fn select(&self, batch: &ColumnBatch, columns: &[usize], width: usize) -> Vec<u32> {
        match &self.predicate {
            Some(p) => crate::vector::select(p, &self.ctx, batch, columns, width),
            None => batch.selected().map(|i| i as u32).collect(),
        }
    }
}

/// The message of an autocommit UPDATE/DELETE (`verb`: "updated" /
/// "deleted"): the plan a DualTable took, the per-shard plans of a sharded
/// one, or the baselines' full rewrite.
fn dml_message(verb: &str, outcome: &DmlOutcome) -> String {
    let n = outcome.rows_matched;
    match (&outcome.report, &outcome.sharded) {
        (Some(r), _) => format!("{verb} {n} rows via {:?} plan", r.plan),
        (None, Some(s)) => format!(
            "{verb} {n} rows across {} shard(s) ({})",
            s.per_shard.len(),
            s.plan_summary()
        ),
        (None, None) => format!("{verb} {n} rows (full rewrite)"),
    }
}

fn default_message_result(msg: String) -> QueryResult {
    let mut r = QueryResult::empty();
    r.message = Some(msg);
    r
}

fn dml_result(affected: u64, msg: String) -> QueryResult {
    let mut r = QueryResult::empty();
    r.affected = affected;
    r.message = Some(msg);
    r
}

fn result_with_rows(schema: Schema, rows: Vec<Row>) -> QueryResult {
    QueryResult::from_parts(schema, rows)
}

/// Normalized statement text used as the historical-ratio log key
/// (whitespace-insensitive, case-insensitive).
fn statement_key(sql: &str) -> String {
    sql.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_ascii_lowercase()
}

/// Coerces literal rows to the target schema (int → float/date widening)
/// and checks them against it, so `INSERT INTO t VALUES (1, 2)` works for
/// DOUBLE columns and a row that cannot fit fails before any is written.
fn coerce_rows(rows: Vec<Row>, schema: &Schema) -> Result<Vec<Row>> {
    rows.into_iter()
        .map(|row| {
            if row.len() != schema.len() {
                return Err(Error::schema(format!(
                    "INSERT provides {} values for {} columns",
                    row.len(),
                    schema.len()
                )));
            }
            let row: Row = row
                .into_iter()
                .zip(schema.fields())
                .map(|(v, f)| match (v, f.data_type) {
                    (Value::Int64(x), dt_common::DataType::Float64) => Value::Float64(x as f64),
                    (Value::Int64(x), dt_common::DataType::Date) => Value::Date(x as i32),
                    (v, _) => v,
                })
                .collect();
            schema.check_row(&row)?;
            Ok(row)
        })
        .collect()
}
