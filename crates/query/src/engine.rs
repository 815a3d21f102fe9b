//! The top-level database engine: build once, run queries per session.

use std::fmt;

use dss_bufcache::BufferPool;
use dss_lockmgr::{LockMgr, LockMode, LockResult, Xid};
use dss_shmem::{AddressSpace, PrivateHeap};
use dss_tpcd::{DbData, Generator};
use dss_trace::{CostModel, Tracer};

use crate::catalog::{index_key, paper_index_set, Catalog};
use crate::exec::{build, run_to_completion, ExecCtx};
use crate::expr::{bind, SlotSource};
use crate::plan::Plan;
use crate::planner::plan_query;
use crate::{Datum, PlanError};

/// Configuration for building a database image.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// TPC-D scale factor (the paper uses 0.01 — the standard set scaled
    /// down 100×).
    pub scale: f64,
    /// Data generation seed.
    pub seed: u64,
    /// Buffer pool size in 8 KB blocks; must hold the whole database (the
    /// study's database is memory-resident).
    pub nbuffers: u32,
    /// `(table, column)` pairs to index.
    pub indexes: Vec<(&'static str, &'static str)>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            scale: dss_tpcd::PAPER_SCALE,
            seed: 42,
            nbuffers: 6144, // 48 MB of blocks: the ~20 MB database plus indices
            indexes: paper_index_set(),
        }
    }
}

impl DbConfig {
    /// A small configuration for tests (scale 1/1000).
    pub fn tiny() -> Self {
        DbConfig {
            scale: 0.001,
            seed: 42,
            nbuffers: 1024,
            indexes: paper_index_set(),
        }
    }
}

/// A built, memory-resident TPC-D database: shared address space, buffer
/// pool, lock manager, and catalog.
///
/// # Example
///
/// ```
/// use dss_query::{Database, DbConfig, Session};
///
/// let mut db = Database::build(&DbConfig::tiny());
/// let mut session = Session::new(0);
/// let out = db.run("select count(*) from region", &mut session).unwrap();
/// assert_eq!(out.rows[0][0], dss_query::Datum::Int(5));
/// ```
pub struct Database {
    /// The emulated shared segment's region table.
    pub space: AddressSpace,
    /// The shared buffer pool holding all pages.
    pub pool: BufferPool,
    /// The shared lock manager.
    pub lockmgr: LockMgr,
    /// Tables, indices, statistics.
    pub catalog: Catalog,
}

impl Database {
    /// Generates the TPC-D population and loads it (untraced).
    pub fn build(config: &DbConfig) -> Database {
        let data = Generator::new(config.scale, config.seed).generate();
        Self::build_from(config, &data)
    }

    /// Loads a pre-generated population (untraced).
    pub fn build_from(config: &DbConfig, data: &DbData) -> Database {
        let mut space = AddressSpace::new();
        let lockmgr = LockMgr::new(&mut space, 4096);
        let mut pool = BufferPool::new(&mut space, config.nbuffers);
        let catalog = Catalog::load(&mut pool, data, &config.indexes);
        Database {
            space,
            pool,
            lockmgr,
            catalog,
        }
    }

    /// Parses and executes any statement: `select` returns rows, `insert`
    /// and `delete` return the number of affected tuples. Writes take
    /// relation-level write locks — the locking granularity Postgres95
    /// actually implements, which the paper notes "clearly limits the level
    /// of concurrency in write-intensive queries".
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for parse, plan, typing, or lock-conflict
    /// failures.
    ///
    /// # Example
    ///
    /// ```
    /// use dss_query::{Database, DbConfig, Session};
    ///
    /// let mut db = Database::build(&DbConfig::tiny());
    /// let mut session = Session::new(0);
    /// let n = db
    ///     .execute("insert into region values (7, 'MU', 'lost')", &mut session)?
    ///     .affected();
    /// assert_eq!(n, Some(1));
    /// let n = db
    ///     .execute("delete from region where r_regionkey = 7", &mut session)?
    ///     .affected();
    /// assert_eq!(n, Some(1));
    /// assert_eq!(db.vacuum("region").unwrap(), 1);
    /// # Ok::<(), dss_query::EngineError>(())
    /// ```
    pub fn execute(
        &mut self,
        sql: &str,
        session: &mut Session,
    ) -> Result<StatementOutput, EngineError> {
        match dss_sql::parse_statement(sql)? {
            dss_sql::Statement::Select(ast) => {
                let plan = plan_query(&self.catalog, &ast)?;
                Ok(StatementOutput::Rows(self.run_plan(&plan, session)))
            }
            dss_sql::Statement::Insert { table, rows } => self
                .insert_rows(&table, &rows, session)
                .map(StatementOutput::Affected),
            dss_sql::Statement::Delete {
                table,
                where_clause,
            } => self
                .delete_where(&table, where_clause.as_ref(), session)
                .map(StatementOutput::Affected),
        }
    }

    fn insert_rows(
        &mut self,
        table: &str,
        rows: &[Vec<dss_sql::Expr>],
        session: &mut Session,
    ) -> Result<u64, EngineError> {
        let t = session.tracer.clone();
        let cost = session.cost;
        let Database {
            pool,
            lockmgr,
            catalog,
            ..
        } = self;
        let meta = catalog
            .table_mut(table)
            .ok_or_else(|| PlanError::new(format!("unknown table {table}")))?;
        let def = meta.heap.def().clone();
        // Validate every row before taking any lock, so failures leave no
        // state behind.
        let mut typed_rows = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != def.columns.len() {
                return Err(PlanError::new(format!(
                    "insert arity {} does not match {} columns",
                    row.len(),
                    def.columns.len()
                ))
                .into());
            }
            let vals = row
                .iter()
                .zip(&def.columns)
                .map(|(e, c)| literal_value(e, c.ty))
                .collect::<Result<Vec<_>, _>>()?;
            typed_rows.push(vals);
        }
        let xid = session.begin();
        if lockmgr.acquire(xid, meta.heap.rel(), LockMode::Write, &t) != LockResult::Granted {
            return Err(PlanError::new(format!("write lock on {table} unavailable")).into());
        }
        for idx in &meta.indexes {
            if lockmgr.acquire(xid, idx.tree.rel(), LockMode::Write, &t) != LockResult::Granted {
                lockmgr.release_all(xid, &t);
                return Err(PlanError::new("index write lock unavailable".into()).into());
            }
        }
        let width = meta.heap.row_width();
        let scratch = session.mem.alloc(width.max(8));
        let mut affected = 0;
        for vals in typed_rows {
            // Form the tuple in private scratch, then copy it into the page.
            t.busy(cost.tuple_overhead);
            t.write(scratch, width, dss_trace::DataClass::PrivHeap);
            let tid = meta.heap.append_traced(pool, &vals, scratch, &t);
            for idx in &mut meta.indexes {
                t.busy(cost.btree_step);
                let key = index_key(&Datum::from(&vals[idx.column]));
                idx.tree.insert(pool, &t, key, tid);
            }
            affected += 1;
        }
        session.mem.free(scratch, width.max(8));
        lockmgr.release_all(xid, &t);
        Ok(affected)
    }

    fn delete_where(
        &mut self,
        table: &str,
        pred: Option<&dss_sql::Expr>,
        session: &mut Session,
    ) -> Result<u64, EngineError> {
        let t = session.tracer.clone();
        let cost = session.cost;
        let Database {
            pool,
            lockmgr,
            catalog,
            ..
        } = self;
        let meta = catalog
            .table_mut(table)
            .ok_or_else(|| PlanError::new(format!("unknown table {table}")))?;
        let def = meta.heap.def().clone();
        // Bind before locking so failures leave no state behind.
        let bound = pred
            .map(|p| {
                bind(p, &|qual, name| {
                    qual.is_none_or(|q| q == table)
                        .then(|| def.column_index(name))
                        .flatten()
                })
            })
            .transpose()?;
        let xid = session.begin();
        if lockmgr.acquire(xid, meta.heap.rel(), LockMode::Write, &t) != LockResult::Granted {
            return Err(PlanError::new(format!("write lock on {table} unavailable")).into());
        }
        t.busy(cost.scan_start);
        let mut affected = 0;
        // A deleting sequential scan, as UF2 performs (index entries stay;
        // later scans hide the tombstoned tuples via visibility checks).
        for block in 0..meta.heap.npages() {
            t.busy(cost.page_advance);
            let buf = pool.pin(meta.heap.page(block), &t);
            let n = meta.heap.tuples_on_page(pool, buf, &t);
            for slot in 0..n {
                t.busy(cost.tuple_overhead);
                if !meta.heap.visible(pool, buf, slot, &t) {
                    continue;
                }
                let matches = match &bound {
                    Some(p) => {
                        let mut src = DeleteSrc {
                            heap: &meta.heap,
                            pool,
                            buf,
                            slot,
                            deformed: 0,
                        };
                        p.eval_bool(&mut src, &t, &cost)
                    }
                    None => true,
                };
                if matches {
                    meta.heap.tombstone(pool, buf, slot, &t);
                    affected += 1;
                }
            }
            pool.unpin(buf, &t);
        }
        lockmgr.release_all(xid, &t);
        Ok(affected)
    }

    /// Vacuums a table: compacts live tuples to the front of the heap,
    /// rebuilds its indexes, and refreshes the planner statistics. Untraced
    /// maintenance, like the initial load (the paper's database is built
    /// before tracing starts).
    ///
    /// Returns the number of dead tuples removed.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for an unknown table.
    pub fn vacuum(&mut self, table: &str) -> Result<u64, EngineError> {
        let Database { pool, catalog, .. } = self;
        let meta = catalog
            .table_mut(table)
            .ok_or_else(|| PlanError::new(format!("unknown table {table}")))?;
        let dead = meta.heap.ndead();
        if dead == 0 {
            return Ok(0);
        }
        // Collect live rows.
        let ncols = meta.heap.def().columns.len();
        let mut live: Vec<Vec<dss_tpcd::Value>> = Vec::new();
        for block in 0..meta.heap.npages() {
            let buf = pool.lookup(meta.heap.page(block)).expect("resident");
            let upto = ((meta.heap.ntuples() - block as u64 * meta.heap.tuples_per_page() as u64)
                .min(meta.heap.tuples_per_page() as u64)) as u32;
            for slot in 0..upto {
                if meta.heap.is_live(pool, buf, slot) {
                    let row: Vec<dss_tpcd::Value> = (0..ncols)
                        .map(|attr| datum_to_value(&meta.heap.attr_value(pool, buf, slot, attr)))
                        .collect();
                    live.push(row);
                }
            }
        }
        // Rewrite the heap front-to-back over its existing pages.
        meta.heap.truncate();
        let mut tids = Vec::with_capacity(live.len());
        for row in &live {
            tids.push(meta.heap.append(pool, row));
        }
        // Rebuild every index from the compacted heap.
        for idx in &mut meta.indexes {
            let mut entries: Vec<(dss_btree::Key, dss_btree::TupleId)> = live
                .iter()
                .zip(&tids)
                .map(|(row, tid)| (index_key(&Datum::from(&row[idx.column])), *tid))
                .collect();
            entries.sort();
            let index_rel = idx.tree.rel();
            idx.tree = dss_btree::BTree::bulk_build(pool, index_rel, &entries);
        }
        // Refresh statistics.
        meta.stats = crate::catalog::recompute_stats(&live, ncols);
        Ok(dead)
    }

    /// Parses and plans a query without executing it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for parse or plan failures.
    pub fn plan_sql(&self, sql: &str) -> Result<Plan, EngineError> {
        let ast = dss_sql::parse(sql)?;
        Ok(plan_query(&self.catalog, &ast)?)
    }

    /// Plans and executes `sql` in `session`, returning the result rows and
    /// the plan. All shared and private memory references are recorded by
    /// the session's tracer.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for parse or plan failures.
    pub fn run(&mut self, sql: &str, session: &mut Session) -> Result<QueryOutput, EngineError> {
        let plan = self.plan_sql(sql)?;
        Ok(self.run_plan(&plan, session))
    }

    /// Executes a plan once per session, partitioning every sequential scan
    /// by heap-block range — intra-query parallelism, the paper's closing
    /// future-work item. Partition `i` of `sessions.len()` scans blocks
    /// `[n*i/k, n*(i+1)/k)` of each sequentially scanned table.
    ///
    /// The caller combines the partial results (for distributive aggregates
    /// like the sum/count of Q6, summing the partials is exact; see the
    /// `intra_query_experiment` in `dss-core`).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] for parse or plan failures.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty.
    pub fn run_partitioned(
        &mut self,
        sql: &str,
        sessions: &mut [&mut Session],
    ) -> Result<Vec<QueryOutput>, EngineError> {
        assert!(!sessions.is_empty(), "need at least one session");
        let plan = self.plan_sql(sql)?;
        let k = sessions.len() as u32;
        let mut outputs = Vec::with_capacity(sessions.len());
        for (i, session) in sessions.iter_mut().enumerate() {
            let mut part = plan.clone();
            let catalog = &self.catalog;
            partition_scans(&mut part, i as u32, k, catalog);
            outputs.push(self.run_plan(&part, session));
        }
        Ok(outputs)
    }

    /// Executes an already-built plan in `session`.
    pub fn run_plan(&mut self, plan: &Plan, session: &mut Session) -> QueryOutput {
        let xid = session.begin();
        let mut root = build(plan, &self.catalog);
        let rows = {
            let mut ctx = ExecCtx {
                pool: &mut self.pool,
                lockmgr: &mut self.lockmgr,
                cat: &self.catalog,
                mem: &mut session.mem,
                t: session.tracer.clone(),
                cost: session.cost,
                xid,
            };
            run_to_completion(root.as_mut(), &mut ctx)
        };
        // Transaction end: release every lock (Postgres95's LockReleaseAll).
        self.lockmgr.release_all(xid, &session.tracer);
        QueryOutput {
            rows,
            plan: plan.clone(),
        }
    }
}

/// One simulated processor's execution context: its tracer, private heap,
/// and transaction counter. The paper runs one query stream per processor.
pub struct Session {
    /// The simulated processor id.
    pub proc_id: usize,
    /// The tracer recording this processor's references.
    pub tracer: Tracer,
    /// The processor's private heap.
    pub mem: PrivateHeap,
    /// Busy-cycle charges used by this session's queries.
    pub cost: CostModel,
    next_xid: u32,
}

impl Session {
    /// Creates a session for processor `proc_id` with an enabled tracer.
    pub fn new(proc_id: usize) -> Session {
        Session {
            proc_id,
            tracer: Tracer::new(proc_id),
            mem: PrivateHeap::new(proc_id),
            cost: CostModel::default(),
            next_xid: 1,
        }
    }

    /// Creates a session that records nothing (for result-correctness tests).
    pub fn untraced(proc_id: usize) -> Session {
        let mut s = Session::new(proc_id);
        s.tracer = Tracer::disabled();
        s
    }

    fn begin(&mut self) -> Xid {
        let xid = Xid(self.proc_id as u32 * 100_000 + self.next_xid);
        self.next_xid += 1;
        xid
    }
}

/// The result of executing one statement.
#[derive(Clone, Debug)]
pub enum StatementOutput {
    /// A `select`'s result rows.
    Rows(QueryOutput),
    /// Tuples inserted or deleted.
    Affected(u64),
}

impl StatementOutput {
    /// The affected count, if this was a write.
    pub fn affected(&self) -> Option<u64> {
        match self {
            StatementOutput::Affected(n) => Some(*n),
            StatementOutput::Rows(_) => None,
        }
    }
}

/// Rewrites every sequential scan in `plan` to cover partition `i` of `k`.
fn partition_scans(plan: &mut Plan, i: u32, k: u32, catalog: &Catalog) {
    match plan {
        Plan::SeqScan {
            table, block_range, ..
        } => {
            let npages = catalog.table(table).expect("planned table").heap.npages();
            let lo = npages * i / k;
            let hi = npages * (i + 1) / k;
            *block_range = Some((lo, hi));
        }
        Plan::NestLoop { outer, inner, .. }
        | Plan::MergeJoin { outer, inner, .. }
        | Plan::HashJoin { outer, inner, .. } => {
            partition_scans(outer, i, k, catalog);
            partition_scans(inner, i, k, catalog);
        }
        Plan::Filter { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Group { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Project { input, .. }
        | Plan::Limit { input, .. } => partition_scans(input, i, k, catalog),
        Plan::IndexScan { .. } => {}
    }
}

/// Heap-tuple slot source used by the deleting scan.
struct DeleteSrc<'a> {
    heap: &'a crate::Heap,
    pool: &'a BufferPool,
    buf: dss_bufcache::BufId,
    slot: u32,
    deformed: usize,
}

impl SlotSource for DeleteSrc<'_> {
    fn load(&mut self, i: usize, t: &Tracer) -> Datum {
        self.heap
            .read_attr_walking(self.pool, self.buf, self.slot, i, &mut self.deformed, t)
    }
}

/// Converts a runtime datum back to a storable value (vacuum support).
fn datum_to_value(d: &Datum) -> dss_tpcd::Value {
    match d {
        Datum::Int(v) => dss_tpcd::Value::Int(*v),
        Datum::Dec(v) => dss_tpcd::Value::Dec(*v),
        Datum::Date(dt) => dss_tpcd::Value::Date(*dt),
        Datum::Str(s) => dss_tpcd::Value::Str(s.clone()),
    }
}

/// Converts a literal AST expression to a storable value of column type `ty`
/// (integers widen into decimals; everything else must match exactly).
fn literal_value(e: &dss_sql::Expr, ty: dss_tpcd::ColType) -> Result<dss_tpcd::Value, PlanError> {
    use dss_sql::Expr;
    use dss_tpcd::{ColType, Value};
    Ok(match (e, ty) {
        (Expr::Int(v), ColType::Int) => Value::Int(*v),
        (Expr::Int(v), ColType::Dec) => Value::Dec(v * 100),
        (Expr::Dec(v), ColType::Dec) => Value::Dec(*v),
        (Expr::Str(s), ColType::Str(_)) => Value::Str(s.clone()),
        (Expr::DateLit { year, month, day }, ColType::Date) => {
            Value::Date(dss_tpcd::Date::from_ymd(*year, *month, *day))
        }
        (e, ty) => {
            return Err(PlanError::new(format!(
                "literal {e:?} does not fit column type {ty:?}"
            )))
        }
    })
}

/// The result of one query execution.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// Result rows in output order.
    pub rows: Vec<Vec<Datum>>,
    /// The plan that produced them.
    pub plan: Plan,
}

/// Errors surfaced by [`Database::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The SQL text failed to parse.
    Parse(dss_sql::ParseError),
    /// The query could not be planned.
    Plan(PlanError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Parse(e) => Some(e),
            EngineError::Plan(e) => Some(e),
        }
    }
}

impl From<dss_sql::ParseError> for EngineError {
    fn from(e: dss_sql::ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}
