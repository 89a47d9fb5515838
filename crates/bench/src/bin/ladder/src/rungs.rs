//! The one file that touches the engine.
//!
//! Every call the ladder makes into an engine crate goes through here:
//! `Session::execute`, `Client::query`, `Server::start`, `parser::parse`,
//! `DualTableStore::scan`, `OrcReader::open`/`rows`, `OrcWriter`,
//! `Store::put_batch`/`put_shadow_batch`/`scan`, `run_map_reduce`,
//! `Dfs::read_to_vec`, and the public counters. When the repository
//! collapses or renames one of those entry points, this file is the only
//! one a follow-up has to edit. The functions time nothing: callers wrap
//! them in spans.

use std::collections::BTreeMap;
use std::time::Duration;

use dt_dfs::{Dfs, DfsConfig};
use dt_engine::{run_map_reduce, JobConfig, JobCounters};
use dt_hiveql::{Session, SessionConfig, SharedCatalog, TableHandle};
use dt_kvstore::{KvCluster, KvConfig};
use dt_orcfile::{ColumnPredicate, OrcReader, OrcWriter, PredicateOp, WriterOptions};
use dt_server::{Client, Server, ServerConfig};
use dualtable::{DualTableEnv, DualTableStore, PlanMode, UnionReadOptions};

pub use dt_common::{Row, Value};

/// How a workload's tables are laid out.
#[derive(Debug, Clone)]
pub struct TableCfg {
    pub rows_per_file: usize,
    pub stripe_rows: usize,
    /// Delta-tier budget per table; 0 is the paper's configuration.
    pub delta_bytes: usize,
}

/// The plan a DML statement ran under, read back from its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    Edit,
    Overwrite,
}

/// Forces the plan of tables created afterwards (the regret replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Force {
    CostBased,
    Edit,
    Overwrite,
}

#[derive(Debug, Clone)]
pub struct Reply {
    pub rows: Vec<Row>,
    pub affected: u64,
    pub message: String,
}

impl Reply {
    /// `None` for statements that choose no plan, and for a sharded
    /// statement whose shards did not agree.
    pub fn plan(&self) -> Option<Plan> {
        let m = &self.message;
        let edit = m.contains("Edit plan") || m.contains("EDIT×");
        let over = m.contains("Overwrite plan") || m.contains("OVERWRITE×");
        match (edit, over) {
            (true, false) => Some(Plan::Edit),
            (false, true) => Some(Plan::Overwrite),
            _ => None,
        }
    }
}

/// One in-memory substrate — DFS, KV cluster, shared catalog — and the
/// table defaults of sessions opened on it.
#[derive(Clone)]
pub struct Engine {
    env: DualTableEnv,
    catalog: SharedCatalog,
    config: SessionConfig,
}

impl Engine {
    /// Flush policy is the kvstore default on every substrate the ladder
    /// builds, so both sides of any comparison share it.
    pub fn new(block_cache_bytes: u64, table: &TableCfg, force: Force) -> Engine {
        let dfs = Dfs::in_memory(DfsConfig {
            block_cache_bytes,
            ..DfsConfig::default()
        });
        let env = DualTableEnv::new(dfs, KvCluster::in_memory(KvConfig::default()))
            .expect("an in-memory environment opens");
        let mut config = SessionConfig {
            rows_per_file: table.rows_per_file,
            ..SessionConfig::default()
        };
        config.dualtable.rows_per_file = table.rows_per_file;
        config.dualtable.delta_bytes = table.delta_bytes;
        config.dualtable.writer = WriterOptions {
            stripe_rows: table.stripe_rows,
            ..WriterOptions::default()
        };
        config.dualtable.plan_mode = match force {
            Force::CostBased => PlanMode::CostBased,
            Force::Edit => PlanMode::AlwaysEdit,
            Force::Overwrite => PlanMode::AlwaysOverwrite,
        };
        Engine {
            env,
            catalog: SharedCatalog::new(),
            config,
        }
    }

    /// A new in-process session on the shared catalog.
    pub fn session(&self) -> Sql {
        let mut session = Session::with_shared(self.env.clone(), self.catalog.clone());
        session.config = self.config.clone();
        Sql { session }
    }

    /// Starts `dualtabled` in this process on an ephemeral loopback port.
    pub fn serve(&self, workers: usize, queue_depth: usize) -> Served {
        let server = Server::start(
            "127.0.0.1:0",
            self.env.clone(),
            self.catalog.clone(),
            ServerConfig {
                workers,
                queue_depth,
                session: self.config.clone(),
                ..ServerConfig::default()
            },
        )
        .expect("the server binds a loopback port");
        let addr = server.local_addr().to_string();
        Served { server, addr }
    }

    /// The stores a statement reaches: the table itself, or the shards of
    /// a sharded table that its key predicates cannot rule out.
    fn stores(&self, table: &str, scan: &ScanSpec) -> Vec<DualTableStore> {
        match self
            .catalog
            .get(table)
            .expect("the workload's table exists")
        {
            TableHandle::Dual(store) => vec![store],
            TableHandle::Sharded(t) => t
                .shards_matching(scan.routing().as_deref())
                .into_iter()
                .map(|i| t.shards()[i].clone())
                .collect(),
            _ => panic!("'{table}' is not DUALTABLE storage"),
        }
    }

    /// DFS paths of the current master files of the stores `scan` reaches.
    fn master_paths(&self, table: &str, scan: &ScanSpec) -> Vec<String> {
        let mut out = Vec::new();
        for store in self.stores(table, scan) {
            let ids = store.master_file_ids().expect("the table lists its files");
            let prefix = format!("/warehouse/{}/gen-", store.name());
            // A retired generation may linger until its readers drain:
            // the current one is the highest that holds these file ids.
            let mut by_gen: BTreeMap<String, Vec<String>> = BTreeMap::new();
            for path in self.env.dfs.list(&prefix) {
                let gen = path[prefix.len()..]
                    .split('/')
                    .next()
                    .unwrap_or("")
                    .to_string();
                by_gen.entry(gen).or_default().push(path);
            }
            if let Some((_, paths)) = by_gen
                .into_iter()
                .rev()
                .find(|(_, paths)| paths.len() == ids.len())
            {
                out.extend(paths);
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // Rungs below `Session::execute`
    // -----------------------------------------------------------------

    /// `DualTableStore::scan` with the statement's pushed-down predicates
    /// (each shard in turn for a sharded table). Returns rows produced.
    pub fn union_read(&self, table: &str, scan: &ScanSpec) -> u64 {
        let mut opts = UnionReadOptions::all();
        opts.predicates = scan.predicates();
        self.stores(table, scan)
            .iter()
            .map(|s| s.scan(&opts).expect("UNION READ succeeds").len() as u64)
            .sum()
    }

    /// `OrcReader::open` + `rows` over every master file, with the same
    /// predicates and an optional projection. Returns
    /// `(rows, stripes, stripes the predicates cannot rule out)`.
    pub fn orc_decode(
        &self,
        table: &str,
        scan: &ScanSpec,
        projection: Option<&[usize]>,
    ) -> (u64, u64, u64) {
        let predicates = scan.predicates();
        beside_a_writer("the ORC decode", || {
            let (mut rows, mut stripes, mut matching) = (0u64, 0u64, 0u64);
            for path in self.master_paths(table, scan) {
                let reader = OrcReader::open(&self.env.dfs, &path)?;
                stripes += reader.stripe_count() as u64;
                matching += match &predicates {
                    Some(p) => reader.matching_stripes(p) as u64,
                    None => reader.stripe_count() as u64,
                };
                // Collected, as `DualTableStore::scan` collects what it
                // merges: the two rungs then differ by the merge alone.
                let mut decoded = Vec::with_capacity(reader.num_rows() as usize);
                for row in reader.rows(projection, predicates.as_deref())? {
                    decoded.push(row?);
                }
                rows += decoded.len() as u64;
                std::hint::black_box(decoded);
            }
            Ok((rows, stripes, matching))
        })
    }

    /// `Store::scan` over the whole attached range of the stores `scan`
    /// reaches. Returns the attached rows seen (presence-index rows
    /// included).
    pub fn attached_scan(&self, table: &str, scan: &ScanSpec) -> u64 {
        beside_a_writer("the attached scan", || {
            let mut n = 0;
            for store in self.stores(table, scan) {
                let attached = self.env.kv.table(&format!("att_{}", store.name()))?;
                for row in attached.scan(None, None)? {
                    std::hint::black_box(row?);
                    n += 1;
                }
            }
            Ok(n)
        })
    }

    /// `Dfs::read_to_vec` of every master file `scan` reaches. Returns
    /// bytes read.
    pub fn dfs_read(&self, table: &str, scan: &ScanSpec) -> u64 {
        beside_a_writer("the DFS read", || {
            let mut bytes = 0;
            for path in self.master_paths(table, scan) {
                bytes += self.env.dfs.read_to_vec(&path)?.len() as u64;
            }
            Ok(bytes)
        })
    }

    // -----------------------------------------------------------------
    // Scratch-target write rungs and micro-rungs
    // -----------------------------------------------------------------

    /// `Store::put_batch` (or `put_shadow_batch`) of `cells` attached-
    /// sized cells into a scratch KV table, in batches of 10 k.
    pub fn kv_put(&self, cells: u64, shadow: bool) {
        let store = self
            .env
            .kv
            .table_or_create("ladder_scratch")
            .expect("scratch table");
        let mut next = 0u64;
        while next < cells {
            let n = (cells - next).min(10_000);
            let batch: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> = (next..next + n)
                .map(|i| (i.to_be_bytes().to_vec(), vec![0, 1], vec![7u8; 16]))
                .collect();
            if shadow {
                store.put_shadow_batch(batch).expect("scratch shadow put");
            } else {
                store.put_batch(batch).expect("scratch put");
            }
            next += n;
        }
    }

    /// `Store::scan` over the scratch table. Returns rows seen.
    pub fn kv_scan_scratch(&self) -> u64 {
        let store = self
            .env
            .kv
            .table_or_create("ladder_scratch")
            .expect("scratch table");
        let mut n = 0;
        for row in store.scan(None, None).expect("scratch scan") {
            std::hint::black_box(row.expect("scratch row"));
            n += 1;
        }
        n
    }

    pub fn drop_scratch(&self) {
        let _ = self.env.kv.drop_table("ladder_scratch");
        let _ = self.env.dfs.delete("/ladder_scratch/part");
    }

    /// `OrcWriter` of `rows` into a scratch DFS file with the table's
    /// writer options. Returns encoded bytes.
    pub fn orc_encode(&self, table: &str, rows: Vec<Row>) -> u64 {
        let schema = self.catalog.get(table).expect("table").schema().clone();
        let path = "/ladder_scratch/part";
        let _ = self.env.dfs.delete(path);
        let mut w = OrcWriter::create(
            &self.env.dfs,
            path,
            schema,
            self.config.dualtable.writer.clone(),
        )
        .expect("scratch ORC file");
        w.write_rows(rows).expect("scratch ORC rows");
        w.finish().expect("scratch ORC footer");
        self.env.dfs.len(path).expect("scratch ORC length")
    }

    /// The table's rows as UNION READ yields them (input of the encode and
    /// map-reduce rungs).
    pub fn materialise(&self, table: &str) -> Vec<Row> {
        let opts = UnionReadOptions::all();
        self.stores(table, &ScanSpec::all())
            .iter()
            .flat_map(|s| s.scan(&opts).expect("UNION READ succeeds"))
            .map(|(_, row)| row)
            .collect()
    }

    // -----------------------------------------------------------------
    // Public counters
    // -----------------------------------------------------------------

    pub fn counters(&self, table: &str) -> Counters {
        let dfs = self.env.dfs.stats().snapshot();
        let kv = self.env.kv.stats().snapshot();
        let health = self.env.health_report();
        let mut c = Counters {
            dfs_bytes_read: dfs.bytes_read,
            dfs_bytes_written: dfs.bytes_written,
            dfs_read_ops: dfs.read_ops,
            dfs_cache_hits: dfs.cache_hits,
            dfs_cache_misses: dfs.cache_misses,
            dfs_cache_evictions: dfs.cache_evictions,
            dfs_total_bytes: self.env.dfs.total_bytes(),
            kv_bytes_written: kv.bytes_written,
            kv_wal_appends: kv.write_ops,
            kv_group_commits: kv.group_commits,
            delta_spills: health.kv.delta_spills,
            attached_scans_skipped: health.table.attached_scans_skipped,
            ww_conflicts: health.table.ww_conflicts,
            folds_started: health.table.compactions_started,
            folds_completed: health.table.compactions_completed,
            stmts_submitted: health.server.stmts_submitted,
            stmts_accepted: health.server.stmts_accepted,
            stmts_shed: health.server.stmts_shed,
            ..Counters::default()
        };
        for store in self.stores(table, &ScanSpec::all()) {
            let f = store.footer_cache_stats();
            c.footer_hits += f.hits;
            c.footer_misses += f.misses;
            let s = store.stats().expect("table stats");
            c.attached_cells += s.attached_entries;
            c.attached_bytes += s.attached_bytes;
            c.master_bytes += s.master_bytes;
            if let Ok(att) = self.env.kv.table(&format!("att_{}", store.name())) {
                c.sstables += att.sstable_count() as u64;
            }
        }
        c
    }
}

/// Runs a rung that reads a table's files from outside the engine's
/// locks. Beside a writer, a generation swing can delete a file between
/// the listing and the read; the rung then starts over on the new listing.
fn beside_a_writer<T>(what: &str, mut rung: impl FnMut() -> dt_common::Result<T>) -> T {
    let mut last = None;
    for _ in 0..100 {
        match rung() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("{what} failed a hundred times over: {last:?}");
}

/// Monotonic counters (and a few gauges) read through the engine's public
/// surface. Differences between two snapshots give a phase's counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub dfs_bytes_read: u64,
    pub dfs_bytes_written: u64,
    pub dfs_read_ops: u64,
    pub dfs_cache_hits: u64,
    pub dfs_cache_misses: u64,
    pub dfs_cache_evictions: u64,
    pub kv_bytes_written: u64,
    pub kv_wal_appends: u64,
    pub kv_group_commits: u64,
    pub delta_spills: u64,
    pub attached_scans_skipped: u64,
    pub ww_conflicts: u64,
    pub folds_started: u64,
    pub folds_completed: u64,
    pub stmts_submitted: u64,
    pub stmts_accepted: u64,
    pub stmts_shed: u64,
    pub footer_hits: u64,
    pub footer_misses: u64,
    // Gauges: taken from the later snapshot, not subtracted.
    pub dfs_total_bytes: u64,
    pub attached_cells: u64,
    pub attached_bytes: u64,
    pub master_bytes: u64,
    pub sstables: u64,
}

impl Counters {
    /// Counts since `earlier`; gauges keep `self`'s value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            dfs_bytes_read: self.dfs_bytes_read - earlier.dfs_bytes_read,
            dfs_bytes_written: self.dfs_bytes_written - earlier.dfs_bytes_written,
            dfs_read_ops: self.dfs_read_ops - earlier.dfs_read_ops,
            dfs_cache_hits: self.dfs_cache_hits - earlier.dfs_cache_hits,
            dfs_cache_misses: self.dfs_cache_misses - earlier.dfs_cache_misses,
            dfs_cache_evictions: self.dfs_cache_evictions - earlier.dfs_cache_evictions,
            kv_bytes_written: self.kv_bytes_written - earlier.kv_bytes_written,
            kv_wal_appends: self.kv_wal_appends - earlier.kv_wal_appends,
            kv_group_commits: self.kv_group_commits - earlier.kv_group_commits,
            delta_spills: self.delta_spills - earlier.delta_spills,
            attached_scans_skipped: self.attached_scans_skipped - earlier.attached_scans_skipped,
            ww_conflicts: self.ww_conflicts - earlier.ww_conflicts,
            folds_started: self.folds_started - earlier.folds_started,
            folds_completed: self.folds_completed - earlier.folds_completed,
            stmts_submitted: self.stmts_submitted - earlier.stmts_submitted,
            stmts_accepted: self.stmts_accepted - earlier.stmts_accepted,
            stmts_shed: self.stmts_shed - earlier.stmts_shed,
            footer_hits: self.footer_hits - earlier.footer_hits,
            footer_misses: self.footer_misses - earlier.footer_misses,
            ..*self
        }
    }
}

/// The column-vs-literal conjuncts of a statement's WHERE clause: those
/// its scan pushes down to skip stripes, and those that only route it to
/// shards (DML scans every row of each shard it reaches).
#[derive(Debug, Clone, Default)]
pub struct ScanSpec {
    conjuncts: Vec<(usize, Cmp, Value)>,
    route_only: Vec<(usize, Cmp, Value)>,
}

#[derive(Debug, Clone, Copy)]
pub enum Cmp {
    Lt,
    Le,
    Ge,
}

impl ScanSpec {
    pub fn all() -> ScanSpec {
        ScanSpec::default()
    }

    pub fn and(mut self, conjunct: (usize, Cmp, Value)) -> ScanSpec {
        self.conjuncts.push(conjunct);
        self
    }

    /// A conjunct on the shard key that picks shards and skips no stripe.
    pub fn routed(mut self, conjunct: (usize, Cmp, Value)) -> ScanSpec {
        self.route_only.push(conjunct);
        self
    }

    fn predicates(&self) -> Option<Vec<ColumnPredicate>> {
        Self::lower(&self.conjuncts)
    }

    fn routing(&self) -> Option<Vec<ColumnPredicate>> {
        let all: Vec<_> = self
            .conjuncts
            .iter()
            .chain(&self.route_only)
            .cloned()
            .collect();
        Self::lower(&all)
    }

    fn lower(conjuncts: &[(usize, Cmp, Value)]) -> Option<Vec<ColumnPredicate>> {
        if conjuncts.is_empty() {
            return None;
        }
        Some(
            conjuncts
                .iter()
                .map(|(column, cmp, literal)| {
                    let op = match cmp {
                        Cmp::Lt => PredicateOp::Lt,
                        Cmp::Le => PredicateOp::Le,
                        Cmp::Ge => PredicateOp::Ge,
                    };
                    ColumnPredicate::new(*column, op, literal.clone())
                })
                .collect(),
        )
    }
}

/// `parser::parse` of one statement text.
pub fn parse(sql: &str) {
    std::hint::black_box(dt_hiveql::parse(sql).expect("the workload's statements parse"));
}

/// `run_map_reduce` grouping pre-materialised rows by two key columns
/// (Q1's return flag and line status on lineitem) and summing a third.
/// Returns groups produced.
pub fn map_reduce_group(rows: Vec<Row>, key_a: usize, key_b: usize, sum: usize) -> usize {
    let splits: Vec<Vec<Row>> = rows.chunks(64 * 1024).map(<[Row]>::to_vec).collect();
    let out: Vec<((String, String), f64)> = run_map_reduce(
        &JobConfig::default(),
        &JobCounters::new(),
        splits,
        |chunk: Vec<Row>, emit: &mut dyn FnMut((String, String), f64)| {
            let mut local: BTreeMap<(String, String), f64> = BTreeMap::new();
            for row in &chunk {
                let key = (row[key_a].to_string(), row[key_b].to_string());
                *local.entry(key).or_default() += row[sum].as_f64().unwrap_or(0.0);
            }
            for (k, v) in local {
                emit(k, v);
            }
            Ok(())
        },
        |key, partials: Vec<f64>| Ok(vec![(key, partials.iter().sum())]),
    )
    .expect("the map-reduce job runs");
    out.len()
}

/// An in-process session.
pub struct Sql {
    session: Session,
}

impl Sql {
    /// `Session::execute`.
    pub fn execute(&mut self, sql: &str) -> Result<Reply, String> {
        match self.session.execute(sql) {
            Ok(r) => Ok(Reply {
                affected: r.affected,
                message: r.message.clone().unwrap_or_default(),
                rows: r.into_rows(),
            }),
            Err(e) => Err(e.to_string()),
        }
    }

    /// `CREATE TABLE … STORED AS <storage>`, range-sharded at `splits`
    /// when there are any.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: &str,
        storage: &str,
        key: &str,
        splits: &[i64],
    ) {
        let mut sql = format!("CREATE TABLE {name} ({columns}) STORED AS {storage}");
        if !splits.is_empty() {
            let points: Vec<String> = splits.iter().map(i64::to_string).collect();
            sql.push_str(&format!(
                " SHARDED BY RANGE ({key}) SPLIT AT ({})",
                points.join(", ")
            ));
        }
        self.execute(&sql).expect("the workload's table is created");
    }

    /// Bulk load through the storage handler: what an ETL load does, and
    /// free of the literal parsing an INSERT … VALUES of this size pays.
    pub fn load(&mut self, table: &str, rows: Vec<Row>) -> u64 {
        self.session
            .table(table)
            .expect("the table to load exists")
            .insert(rows)
            .expect("the bulk load succeeds")
    }
}

/// A running in-process `dualtabled`.
pub struct Served {
    server: Server,
    addr: String,
}

impl Served {
    pub fn connect(&self) -> Wire {
        Wire {
            client: Client::connect_retry(self.addr.as_str(), Duration::from_secs(10))
                .expect("the loopback connection opens"),
        }
    }

    /// Drains and joins every server thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// One client connection.
pub struct Wire {
    client: Client,
}

impl Wire {
    /// `Client::query`. A refusal (shed, timed out, conflicted) and a
    /// failed statement both come back as the error's text.
    pub fn query(&mut self, sql: &str) -> Result<Reply, String> {
        match self.client.query(sql) {
            Ok(r) => Ok(Reply {
                rows: r.rows,
                affected: r.affected,
                message: r.message,
            }),
            Err(e) => Err(e.to_string()),
        }
    }
}
