//! Abstract syntax tree for the HiveQL dialect.

use dt_common::{DataType, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `EXPLAIN <statement>` — describe the plan without executing it.
    /// For DualTable DML this previews the cost-model decision.
    Explain(Box<Statement>),
    /// `CREATE TABLE [IF NOT EXISTS] name (col TYPE, …) [STORED AS kind]
    ///  [SHARDED BY RANGE (col) [SPLIT AT (expr, …)]]`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
        /// Storage handler.
        storage: StorageKind,
        /// Suppress the already-exists error.
        if_not_exists: bool,
        /// Range-sharding clause (DUALTABLE storage only).
        sharding: Option<ShardBy>,
    },
    /// `DROP TABLE [IF EXISTS] name`
    DropTable {
        /// Table name.
        name: String,
        /// Suppress the not-found error.
        if_exists: bool,
    },
    /// `SHOW TABLES`
    ShowTables,
    /// `SHOW HEALTH` — per-tier self-healing counters (retries,
    /// failovers, quarantined replicas, degraded flags).
    ShowHealth,
    /// `DESCRIBE name`
    Describe {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO|OVERWRITE TABLE? name VALUES …| SELECT …`
    Insert {
        /// Target table.
        table: String,
        /// `INSERT OVERWRITE` replaces the content.
        overwrite: bool,
        /// Row source.
        source: InsertSource,
    },
    /// `SELECT …`
    Select(Box<SelectStmt>),
    /// `UPDATE name SET col = expr, … [WHERE …]` (DualTable extension)
    Update {
        /// Target table.
        table: String,
        /// `SET` assignments.
        assignments: Vec<(String, Expr)>,
        /// Row filter.
        predicate: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE …]` (DualTable extension)
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        predicate: Option<Expr>,
    },
    /// `COMPACT TABLE name [INCREMENTAL]` (DualTable extension).
    /// `INCREMENTAL` folds only the k dirtiest master files (DESIGN.md
    /// §15) instead of rewriting the whole table.
    Compact {
        /// Target table.
        table: String,
        /// Fold only the highest-scoring files instead of everything.
        incremental: bool,
    },
    /// `SET COMPACTION = AUTO | OFF` — flip the environment's background
    /// maintenance mode; `AUTO` also re-arms a daemon that switched
    /// itself off after repeated failures (DESIGN.md §15).
    SetCompaction {
        /// `AUTO` (`true`) or `OFF` (`false`).
        auto: bool,
    },
    /// `SHOW COMPACTION` — the maintenance daemon's mode, state and
    /// lifecycle counters.
    ShowCompaction,
    /// `SHOW SHARDS` — every range-sharded table's shard topology: key
    /// ranges, row counts, storage footprint and fold ledger per shard.
    ShowShards,
    /// `BEGIN [TRANSACTION]` / `START TRANSACTION` — open a
    /// multi-statement snapshot-isolation transaction (DESIGN.md §13).
    /// DML on DUALTABLE storage is buffered until `COMMIT`.
    Begin,
    /// `COMMIT` — atomically apply the open transaction's buffered writes.
    /// Fails with a retryable conflict error if another session committed
    /// a write to the same records (first committer wins).
    Commit,
    /// `ROLLBACK` — discard the open transaction's buffered writes.
    Rollback,
    /// `MERGE INTO target USING source ON cond
    ///  [WHEN MATCHED THEN UPDATE SET col = expr, …]
    ///  [WHEN NOT MATCHED THEN INSERT VALUES (expr, …)]`
    ///
    /// The proprietary upsert the paper's Table I counts; `ON` must contain
    /// at least one `target.col = source.col` equality.
    Merge {
        /// Target table name.
        target: String,
        /// Source table reference.
        source: TableRef,
        /// Match condition.
        on: Expr,
        /// `WHEN MATCHED THEN UPDATE SET` assignments (empty = no update
        /// branch). Expressions may reference both target and source
        /// columns.
        matched_set: Vec<(String, Expr)>,
        /// `WHEN NOT MATCHED THEN INSERT VALUES` expressions over the
        /// source row.
        not_matched_insert: Option<Vec<Expr>>,
    },
}

/// `SHARDED BY RANGE (col) [SPLIT AT (expr, …)]` — partition a DUALTABLE
/// by key range. No `SPLIT AT` means a single shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBy {
    /// The shard key column (must be BIGINT).
    pub column: String,
    /// Split-point expressions, each evaluating to a constant BIGINT.
    pub splits: Vec<Expr>,
}

/// Row source of an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// Literal `VALUES (…), (…)` tuples.
    Values(Vec<Vec<Expr>>),
    /// A nested query.
    Select(Box<SelectStmt>),
}

/// `STORED AS …` storage handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// ORC files on the DFS — stock Hive (the default).
    #[default]
    Orc,
    /// HBase storage handler.
    HBase,
    /// The paper's hybrid model.
    DualTable,
    /// Hive-ACID-style base+delta storage.
    Acid,
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// `FROM` table (queries without FROM evaluate items once).
    pub from: Option<TableRef>,
    /// `JOIN` clauses, applied in order.
    pub joins: Vec<Join>,
    /// `WHERE` filter.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` filter (post-aggregation).
    pub having: Option<Expr>,
    /// `ORDER BY` keys with ascending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT`.
    pub limit: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name in the catalog.
    pub name: String,
    /// `FROM t alias` / `FROM t AS alias`.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the query refers to this table by.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// A join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join type.
    pub kind: JoinKind,
    /// Right-hand table.
    pub table: TableRef,
    /// `ON` condition.
    pub on: Expr,
}

/// Supported join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`
    Inner,
    /// `LEFT [OUTER] JOIN`
    LeftOuter,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `[qualifier.]column`
    Column {
        /// Table alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Planner-internal: a column reference resolved to its position in the
    /// row layout the statement evaluates over (see [`Expr::bind`]).
    Bound(usize),
    /// A literal value.
    Literal(Value),
    /// `left op right`
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr` / `-expr`
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `name(args)`; `COUNT(*)` sets `wildcard`.
    Function {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `f(*)`.
        wildcard: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`
    InList {
        /// Probe expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)` — uncorrelated subquery.
    InSubquery {
        /// Probe expression.
        expr: Box<Expr>,
        /// Single-column subquery.
        subquery: Box<SelectStmt>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Planner-internal: `expr IN <precomputed set #index>`.
    InSet {
        /// Probe expression.
        expr: Box<Expr>,
        /// Index into the evaluation context's set table.
        set_index: usize,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        /// Probe expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `CASE [operand] WHEN w THEN t … [ELSE e] END`.
    Case {
        /// Simple-CASE operand (`CASE x WHEN 1 …`); `None` for searched
        /// CASE (`CASE WHEN cond …`).
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs, evaluated in order.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result (NULL when absent).
        else_result: Option<Box<Expr>>,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` and `_` wildcards.
    Like {
        /// Probe expression.
        expr: Box<Expr>,
        /// Pattern.
        pattern: String,
        /// `NOT LIKE`.
        negated: bool,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `NOT`
    Not,
    /// `-`
    Neg,
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// The direct sub-expressions, in evaluation order (a subquery's own
    /// expressions are not among them).
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::Column { .. } | Expr::Bound(_) | Expr::Literal(_) => Vec::new(),
            Expr::Binary { left, right, .. } => vec![left, right],
            Expr::Unary { operand: expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Like { expr, .. }
            | Expr::InSet { expr, .. }
            | Expr::InSubquery { expr, .. } => vec![expr],
            Expr::Function { args, .. } => args.iter().collect(),
            Expr::InList { expr, list, .. } => std::iter::once(&**expr).chain(list).collect(),
            Expr::Between {
                expr, low, high, ..
            } => vec![expr, low, high],
            Expr::Case {
                operand,
                branches,
                else_result,
            } => operand
                .iter()
                .map(|o| &**o)
                .chain(branches.iter().flat_map(|(w, t)| [w, t]))
                .chain(else_result.iter().map(|e| &**e))
                .collect(),
        }
    }

    /// Rebuilds the expression with `f` applied to every direct
    /// sub-expression; the first error wins.
    pub fn map_children<E>(self, f: &mut impl FnMut(Expr) -> Result<Expr, E>) -> Result<Expr, E> {
        let mut boxed = |e: Box<Expr>| f(*e).map(Box::new);
        Ok(match self {
            leaf @ (Expr::Column { .. } | Expr::Bound(_) | Expr::Literal(_)) => leaf,
            Expr::Binary { op, left, right } => Expr::Binary {
                op,
                left: boxed(left)?,
                right: boxed(right)?,
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op,
                operand: boxed(operand)?,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: boxed(expr)?,
                negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: boxed(expr)?,
                pattern,
                negated,
            },
            Expr::InSet {
                expr,
                set_index,
                negated,
            } => Expr::InSet {
                expr: boxed(expr)?,
                set_index,
                negated,
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => Expr::InSubquery {
                expr: boxed(expr)?,
                subquery,
                negated,
            },
            Expr::Function {
                name,
                args,
                wildcard,
            } => Expr::Function {
                name,
                args: args.into_iter().map(&mut *f).collect::<Result<_, E>>()?,
                wildcard,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: boxed(expr)?,
                list: list.into_iter().map(&mut *f).collect::<Result<_, E>>()?,
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: boxed(expr)?,
                low: boxed(low)?,
                high: boxed(high)?,
                negated,
            },
            Expr::Case {
                operand,
                branches,
                else_result,
            } => Expr::Case {
                operand: operand.map(&mut boxed).transpose()?,
                branches: branches
                    .into_iter()
                    .map(|(w, t)| Ok((f(w)?, f(t)?)))
                    .collect::<Result<_, E>>()?,
                else_result: else_result.map(|e| f(*e).map(Box::new)).transpose()?,
            },
        })
    }

    /// `true` iff the expression tree contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        matches!(self, Expr::Function { name, .. } if is_aggregate_name(name))
            || self.children().into_iter().any(Expr::contains_aggregate)
    }
}

/// `true` for the supported aggregate function names.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}
