//! [`Session`]: one client's handle onto a [`PermServer`], and the read
//! pipeline every query takes through it — parse → bind (+ provenance
//! rewrite) → plan → run or stream (the paper's Figure 3).
//!
//! A bound query is planned by exactly one function ([`Session::plan`]),
//! which yields a [`Planned`]; that one object is handed to every
//! consumer — one-shot queries, `EXPLAIN`, prepared statements, streams,
//! the `CREATE TABLE AS` read part and the stage trace — so what is shown
//! is what runs. Two functions consume it: [`Session::run`] materializes,
//! [`Session::stream`] pulls.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use perm_algebra::{bind_statement, BoundStatement, LogicalPlan};
use perm_exec::{
    estimated_peak_bytes, optimize_with, physical_tree, physical_tree_verbose, verify_physical,
    CatalogAdapter, CatalogStats, Executor, PhysicalPlan, PhysicalPlanner, QueryMemory,
};
use perm_rewrite::Rewriter;
use perm_sql::{parse_statement, parse_statements, Statement};
use perm_storage::{Catalog, CatalogWriteGuard};
use perm_types::{PermError, QueryContext, Result, Schema, Tuple, Value};

use crate::options::SessionOptions;
use crate::prepared::Prepared;
use crate::result::{QueryResult, RowStream, StatementResult};
use crate::server::PermServer;

/// One session against a [`PermServer`]: the unit of concurrency.
///
/// Sessions are cheap to clone and safe to share across threads (`Send +
/// Sync`); every query method takes `&self`. Reads run lock-free against
/// a catalog snapshot; [`Session::execute`] takes the catalog write lock
/// only for DDL/DML.
#[derive(Debug, Clone)]
pub struct Session {
    pub(crate) server: PermServer,
    options: SessionOptions,
}

/// One query, planned: the optimized logical plan and the physical plan
/// lowered from it under the session's options. Built only by
/// [`Session::plan`] (and `EXPLAIN VERIFY`'s traced variant), consumed
/// only by [`Session::run`] and [`Session::stream`].
pub(crate) struct Planned {
    pub(crate) optimized: LogicalPlan,
    pub(crate) physical: PhysicalPlan,
}

impl Planned {
    /// The query's output schema.
    pub(crate) fn schema(&self) -> &Schema {
        self.optimized.schema()
    }
}

/// Whether [`Session::run`] passes the server's admission gate first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admission {
    /// Queue (bounded) until the plan's estimated peak memory fits.
    Queue,
    /// Run at once: the caller holds the catalog write lock, and waiting
    /// for other queries' permits under it would stall every writer and
    /// every snapshot. Execution memory is still charged to the pool.
    Skip,
}

impl Session {
    pub(crate) fn new(server: PermServer, options: SessionOptions) -> Session {
        Session { server, options }
    }

    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Change this session's options (the browser's strategy / semantics
    /// toggles). Affects only this handle — clones keep their own options.
    pub fn set_options(&mut self, options: SessionOptions) {
        self.options = options;
    }

    /// Builder-style options change, for `server.session().with_options(…)`.
    pub fn with_options(mut self, options: SessionOptions) -> Session {
        self.options = options;
        self
    }

    /// The server handle this session belongs to.
    pub fn server(&self) -> PermServer {
        self.server.clone()
    }

    /// A consistent, immutable snapshot of the catalog as of now.
    pub fn snapshot(&self) -> Arc<Catalog> {
        self.server.catalog.snapshot()
    }

    /// Exclusive write access to the catalog (index creation, direct
    /// table loads). Blocks other writers; readers keep their snapshots.
    /// On a durable server a write through the guard is not logged: it
    /// survives a reopen only once [`PermServer::checkpoint`] follows it.
    ///
    /// **Drop the guard before querying from the same thread.** Query
    /// methods take the (non-reentrant) read lock to snapshot, so
    /// `session.query(..)` while this thread still holds the guard
    /// deadlocks. Take what you need from [`CatalogWriteGuard::snapshot`]
    /// instead, or end the guard's scope first.
    pub fn catalog_write(&self) -> CatalogWriteGuard<'_> {
        self.server.catalog.write()
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Execute one SQL / SQL-PLE statement. On a durable server a write
    /// is logged as `sql` itself, the text the user wrote.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt, sql)
    }

    /// Execute `stmt`, parsed from the source text `sql`.
    fn execute_statement(&self, stmt: &Statement, sql: &str) -> Result<StatementResult> {
        match stmt {
            // Queries never take the write lock.
            Statement::Query(_) | Statement::Explain { .. } => self.execute_read(stmt),
            _ => self.execute_write(stmt, sql),
        }
    }

    /// Execute a `;`-separated script, returning one result per statement.
    ///
    /// Statements run in order; a failure reports the 1-based index of the
    /// statement that died and how many earlier statements had already
    /// been applied (their effects are *not* rolled back). On a durable
    /// server each write is logged as its own slice of `sql`.
    pub fn run_script(&self, sql: &str) -> Result<Vec<StatementResult>> {
        let stmts = parse_statements(sql)?;
        let total = stmts.len();
        let mut results = Vec::with_capacity(total);
        for (idx, (stmt, text)) in stmts.iter().enumerate() {
            let n = idx + 1;
            results.push(self.execute_statement(stmt, text).map_err(|e| {
                let applied = match idx {
                    0 => "no earlier statements applied".to_string(),
                    1 => "statement 1 already applied".to_string(),
                    _ => format!("statements 1-{idx} already applied"),
                };
                e.with_context(format!("script statement {n} of {total} ({applied})"))
            })?);
        }
        Ok(results)
    }

    /// Convenience: execute a query and return its materialized rows.
    /// `EXPLAIN [VERBOSE]` works here too, PostgreSQL-style: one
    /// `QUERY PLAN` text row per plan line.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        match self.execute(sql)? {
            StatementResult::Rows(r) => Ok(r),
            StatementResult::Explain(text) => Ok(QueryResult {
                columns: vec!["QUERY PLAN".into()],
                rows: text
                    .lines()
                    .map(|l| Tuple::new(vec![Value::text(l)]))
                    .collect(),
            }),
            other => Err(PermError::Execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    /// Execute a query cursor-style: a pull-based [`RowStream`] that
    /// yields one row per `next()`. With `LIMIT k` over a streamable plan
    /// the scan stops after producing `k` rows instead of materializing
    /// the whole table. The stream reads a consistent snapshot — DDL that
    /// commits after this call does not affect it.
    pub fn query_stream(&self, sql: &str) -> Result<RowStream> {
        let stmt = parse_statement(sql)?;
        let snapshot = self.snapshot();
        let plan = match self.bind(&snapshot, &stmt)? {
            BoundStatement::Query(plan) => plan,
            other => {
                return Err(PermError::Execution(format!(
                    "statement did not produce rows: {other:?}"
                )))
            }
        };
        let planned = self.plan(&snapshot, plan)?;
        self.stream(snapshot, &planned)
    }

    /// Parse, provenance-rewrite, optimize and physically plan `sql`
    /// once, caching the result for repeated execution.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let stmt = parse_statement(sql)?;
        let snapshot = self.snapshot();
        let plan = match self.bind(&snapshot, &stmt)? {
            BoundStatement::Query(plan) => plan,
            other => {
                return Err(PermError::Analysis(format!(
                    "only queries can be prepared, got {other:?}"
                )))
            }
        };
        let planned = self.plan(&snapshot, plan)?;
        Ok(Prepared::new(self.clone(), sql, planned))
    }

    // ------------------------------------------------------------------
    // Pipeline stages (also used by the stage trace / browser)
    // ------------------------------------------------------------------

    /// Parse + analyze (+ provenance-rewrite when requested): the bound
    /// plan, pre-optimization, against a fresh snapshot.
    pub fn bind_sql(&self, sql: &str) -> Result<LogicalPlan> {
        let stmt = parse_statement(sql)?;
        self.bind_query(&self.snapshot(), &stmt)
    }

    /// Optimize and execute a bound plan against a fresh snapshot.
    pub fn run_plan(&self, plan: LogicalPlan) -> Result<(Schema, Vec<Tuple>)> {
        let snapshot = self.snapshot();
        let planned = self.plan(&snapshot, plan)?;
        let rows = self.run(snapshot, &planned, Admission::Queue)?;
        Ok((planned.schema().clone(), rows))
    }

    pub(crate) fn bind(&self, catalog: &Catalog, stmt: &Statement) -> Result<BoundStatement> {
        let estimator = CatalogStats(catalog);
        let rewriter = Rewriter::new(self.options.rewrite, &estimator);
        let adapter = CatalogAdapter(catalog);
        bind_statement(stmt, &adapter, Some(&rewriter))
    }

    /// [`Session::bind`] for a statement that must be a query (or the
    /// `EXPLAIN` of one): its bound plan.
    pub(crate) fn bind_query(&self, catalog: &Catalog, stmt: &Statement) -> Result<LogicalPlan> {
        match self.bind(catalog, stmt)? {
            BoundStatement::Query(p) | BoundStatement::Explain { plan: p, .. } => Ok(p),
            other => Err(PermError::Analysis(format!(
                "expected a query, got {other:?}"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Plan and run: one planner, one materializing and one streaming
    // consumer
    // ------------------------------------------------------------------

    /// Optimize a bound plan and lower it, under this session's options,
    /// against the catalog it was bound on. With
    /// [`SessionOptions::verify_plans`] the static verifier re-checks the
    /// plan after every optimizer phase and the lowering, and a violation
    /// surfaces as an error naming the responsible pass (debug builds
    /// always verify, but panic — a violation is an engine bug, not a user
    /// error).
    pub(crate) fn plan(&self, catalog: &Catalog, bound: LogicalPlan) -> Result<Planned> {
        let est = CatalogStats(catalog);
        let verify = self.options.verify_plans;
        let optimized = if verify {
            perm_exec::optimize_verified(bound, &est)?
        } else {
            optimize_with(bound, &est)
        };
        self.lower(catalog, optimized, verify)
    }

    /// The physical planner under this session's options: the session's
    /// parallelism options reach the planner here and nowhere else.
    fn planner<'c>(&self, catalog: &'c Catalog) -> PhysicalPlanner<'c> {
        PhysicalPlanner::new(catalog)
            .max_parallelism(self.options.max_parallelism)
            .parallel_threshold(self.options.parallel_row_threshold)
    }

    /// The lowering half of [`Session::plan`].
    fn lower(&self, catalog: &Catalog, optimized: LogicalPlan, verify: bool) -> Result<Planned> {
        let planner = self.planner(catalog);
        let physical = if verify {
            planner.plan_verified(&optimized)?
        } else {
            planner.plan(&optimized)
        };
        Ok(Planned {
            optimized,
            physical,
        })
    }

    /// Lower the sublink bodies of a node a write statement builds itself
    /// (the rows of `INSERT … VALUES`, the scan of `UPDATE` / `DELETE`)
    /// with the session's planner, as [`Session::lower`] lowers a query's.
    /// A node without a sublink comes back as it is, without a planner
    /// call.
    pub(crate) fn lower_sublinks(
        &self,
        catalog: &Catalog,
        node: PhysicalPlan,
    ) -> Result<PhysicalPlan> {
        let mut sublinks = false;
        node.for_each_sublink(&mut |_| sublinks = true);
        if !sublinks {
            return Ok(node);
        }
        let lowered = self.planner(catalog).lower_sublinks(node);
        if self.options.verify_plans {
            verify_physical(&lowered, "physical-planning")?;
        }
        Ok(lowered)
    }

    /// Execute `planned` against `snapshot` and materialize its rows: a
    /// fresh statement context, admission (see [`Admission`]), then one
    /// executor carrying the session's options and per-query memory view.
    pub(crate) fn run(
        &self,
        snapshot: Arc<Catalog>,
        planned: &Planned,
        admission: Admission,
    ) -> Result<Vec<Tuple>> {
        let ctx = self.query_context();
        // The permit must stay alive for the duration of execution.
        let _permit = match admission {
            Admission::Queue => Some(self.admit(&ctx, &planned.physical)?),
            Admission::Skip => None,
        };
        self.executor(snapshot, ctx).run_physical(&planned.physical)
    }

    /// Execute `planned` against `snapshot` cursor-style. The stream holds
    /// the admission permit until the consumer drops it, however few rows
    /// it pulls; the context outlives execution inside the stream, which
    /// cancels it on drop and hands out cancel handles.
    pub(crate) fn stream(&self, snapshot: Arc<Catalog>, planned: &Planned) -> Result<RowStream> {
        let ctx = self.query_context();
        let permit = self.admit(&ctx, &planned.physical)?;
        let stream = self
            .executor(snapshot, ctx.clone())
            .into_stream_physical(&planned.physical)?;
        Ok(RowStream::new(planned.schema().clone(), stream, ctx).with_permit(permit))
    }

    /// A fresh per-statement lifecycle context: unique query id, the
    /// session's statement deadline (clock starts now, admission wait
    /// included), and the server's shutdown flag.
    pub(crate) fn query_context(&self) -> QueryContext {
        let timeout = (self.options.statement_timeout_ms > 0)
            .then(|| Duration::from_millis(self.options.statement_timeout_ms));
        QueryContext::new(
            self.server.next_query_id.fetch_add(1, Ordering::Relaxed) + 1,
            timeout,
            Some(Arc::clone(&self.server.shutting_down)),
        )
    }

    /// Admit one execution of `physical` through the server's governor,
    /// waiting (bounded) if its estimated peak memory does not currently
    /// fit. The wait is cancellable through `ctx` (deadline and shutdown
    /// included): a cancelled waiter leaves the queue immediately.
    fn admit(
        &self,
        ctx: &QueryContext,
        physical: &PhysicalPlan,
    ) -> Result<crate::admission::AdmissionPermit> {
        self.server.governor.admit(
            ctx,
            estimated_peak_bytes(physical),
            self.options.max_concurrent_queries,
            Duration::from_millis(self.options.admission_timeout_ms),
        )
    }

    /// An executor over `snapshot` carrying this session's columnar switch, a
    /// fresh per-query memory view — the server pool plus the session's
    /// per-query cap ([`SessionOptions::memory_budget`]) — and the
    /// statement's lifecycle context.
    pub(crate) fn executor(&self, snapshot: Arc<Catalog>, ctx: QueryContext) -> Executor {
        let cap = (self.options.memory_budget > 0).then_some(self.options.memory_budget);
        Executor::new(snapshot)
            .with_memory(QueryMemory::new(self.server.governor.pool().clone(), cap))
            .with_columnar(self.options.columnar)
            .with_context(ctx)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    fn execute_read(&self, stmt: &Statement) -> Result<StatementResult> {
        let snapshot = self.snapshot();
        match self.bind(&snapshot, stmt)? {
            BoundStatement::Query(plan) => {
                let planned = self.plan(&snapshot, plan)?;
                let rows = self.run(snapshot, &planned, Admission::Queue)?;
                Ok(StatementResult::Rows(QueryResult::new(
                    planned.schema(),
                    rows,
                )))
            }
            BoundStatement::Explain {
                plan,
                verbose,
                verify,
            } => {
                if verify {
                    return self.explain_verify(&snapshot, plan, verbose);
                }
                // EXPLAIN never executes, so it skips admission.
                let planned = self.plan(&snapshot, plan)?;
                Ok(StatementResult::Explain(explain_text(
                    &planned, verbose, None,
                )))
            }
            other => Err(PermError::Analysis(format!(
                "query statement bound to {other:?}"
            ))),
        }
    }

    /// `EXPLAIN VERIFY`: run the full optimizer pipeline with the static
    /// plan verifier after every phase — regardless of the session's
    /// `verify_plans` flag — and report each check before the plan. A
    /// violation aborts with an error naming the failing invariant and
    /// the responsible pass.
    fn explain_verify(
        &self,
        snapshot: &Catalog,
        plan: LogicalPlan,
        verbose: bool,
    ) -> Result<StatementResult> {
        let mut report = String::from("== plan verification ==\n");
        perm_algebra::verify::verify_logical(&plan, "binding")?;
        report.push_str("binding: ok\n");
        // The provenance-rewrite contract (schema = original ++ provenance
        // columns, naming scheme intact) is enforced inside the binder for
        // every SELECT PROVENANCE; note it when the output carries
        // provenance columns.
        let prov = plan
            .schema()
            .iter()
            .filter(|c| c.name.starts_with("prov_"))
            .count();
        if prov > 0 {
            report.push_str(&format!(
                "provenance-rewrite: ok ({prov} provenance columns, contract checked at bind time)\n"
            ));
        }
        let optimized = perm_exec::optimize_verified(plan, &CatalogStats(snapshot))?;
        for phase in perm_exec::LOGICAL_PHASES {
            report.push_str(&format!("{phase}: ok\n"));
        }
        let planned = self.lower(snapshot, optimized, true)?;
        report.push_str("physical-planning: ok\n");
        Ok(StatementResult::Explain(explain_text(
            &planned,
            verbose,
            Some(&report),
        )))
    }
}

/// The text of `EXPLAIN [VERIFY] [VERBOSE]`: the verification `report`
/// if there is one, then the plan. VERBOSE adds the optimized logical
/// tree with its schemas and annotates each buffering operator of the
/// physical tree with its estimated peak memory and spill configuration.
fn explain_text(planned: &Planned, verbose: bool, report: Option<&str>) -> String {
    let mut text = report.map_or_else(String::new, |r| format!("{r}\n"));
    if verbose {
        let logical = perm_algebra::plan_tree_with_schema(&planned.optimized);
        text.push_str(&format!("== logical (optimized) ==\n{logical}\n"));
    }
    if verbose || report.is_some() {
        text.push_str("== physical ==\n");
    }
    text.push_str(&match verbose {
        true => physical_tree_verbose(&planned.physical),
        false => physical_tree(&planned.physical),
    });
    text
}

// The whole point of the server API: handles and prepared plans move
// freely across threads. Enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PermServer>();
    assert_send_sync::<Session>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<LogicalPlan>();
    const fn assert_send<T: Send>() {}
    assert_send::<RowStream>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A server with `t(x int NOT NULL, y text)` holding three rows, and a
    /// session on it.
    pub(crate) fn seeded() -> (PermServer, Session) {
        let server = PermServer::new();
        let session = server.session();
        session
            .run_script(
                "CREATE TABLE t (x int NOT NULL, y text);
                 INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');",
            )
            .unwrap();
        (server, session)
    }

    #[test]
    fn sessions_share_one_catalog() {
        let (server, s1) = seeded();
        let s2 = server.session();
        assert_eq!(s2.query("SELECT x FROM t").unwrap().row_count(), 3);
        s2.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        assert_eq!(s1.query("SELECT x FROM t").unwrap().row_count(), 4);
    }

    #[test]
    fn snapshots_survive_writer_activity() {
        // A reader's snapshot is taken before the writer starts and stays
        // queryable while (and after) the writer mutates.
        let (_, session) = seeded();
        let snapshot = session.snapshot();
        session.execute("DROP TABLE t").unwrap();
        assert_eq!(snapshot.table("t").unwrap().row_count(), 3);
        assert!(session.snapshot().table("t").is_err());
    }

    #[test]
    fn query_stream_yields_all_rows_in_order() {
        let (_, session) = seeded();
        let stream = session
            .query_stream("SELECT x FROM t ORDER BY x DESC")
            .unwrap();
        assert_eq!(stream.columns(), ["x"]);
        let xs: Vec<Value> = stream.map(|r| r.unwrap().get(0).clone()).collect();
        assert_eq!(xs, vec![Value::Int(3), Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn query_stream_limit_stops_scanning() {
        let server = PermServer::new();
        let session = server.session();
        session.execute("CREATE TABLE big (x int)").unwrap();
        {
            let mut w = session.catalog_write();
            let t = w.table_mut("big").unwrap();
            for i in 0..1_000 {
                t.push_raw(Tuple::new(vec![Value::Int(i)]));
            }
        }
        let mut stream = session
            .query_stream("SELECT x + 1 FROM big LIMIT 3")
            .unwrap();
        let mut got = Vec::new();
        for r in stream.by_ref() {
            got.push(r.unwrap());
        }
        assert_eq!(got.len(), 3);
        assert!(
            stream.rows_scanned() <= 3,
            "LIMIT 3 pulled {} scan rows",
            stream.rows_scanned()
        );
    }

    #[test]
    fn streams_read_a_consistent_snapshot_across_ddl() {
        let (_, session) = seeded();
        let stream = session.query_stream("SELECT x FROM t").unwrap();
        session.execute("DROP TABLE t").unwrap();
        // The stream still drains its pre-DDL snapshot.
        assert_eq!(stream.count(), 3);
        assert!(session.query("SELECT x FROM t").is_err());
    }

    #[test]
    fn run_script_executes_in_order() {
        let db = PermServer::new().session();
        let results = db
            .run_script("CREATE TABLE t (x int); INSERT INTO t VALUES (5); SELECT x FROM t;")
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].clone().expect_rows().row(0), &[Value::Int(5)]);
    }

    #[test]
    fn run_script_errors_name_the_statement() {
        let db = PermServer::new().session();
        let err = db
            .run_script("CREATE TABLE t (x int); SELECT nope FROM t;")
            .unwrap_err();
        assert!(err.message().contains("script statement 2 of 2"), "{err}");
    }

    #[test]
    fn run_script_reports_failing_statement_index() {
        let (_, session) = seeded();
        let err = session
            .run_script(
                "CREATE TABLE s1 (a int);
                 INSERT INTO s1 VALUES (1);
                 INSERT INTO nope VALUES (2);
                 CREATE TABLE s2 (b int);",
            )
            .unwrap_err();
        assert_eq!(err.kind(), "analysis");
        assert!(
            err.message().starts_with("script statement 3 of 4"),
            "{err}"
        );
        assert!(
            err.message().contains("statements 1-2 already applied"),
            "{err}"
        );
        // Earlier DDL really did apply.
        assert_eq!(session.query("SELECT a FROM s1").unwrap().row_count(), 1);
    }

    #[test]
    fn parse_errors_surface() {
        let db = PermServer::new().session();
        let err = db.execute("SELEC 1").unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn query_on_ddl_is_an_error() {
        let db = PermServer::new().session();
        assert!(db.query("CREATE TABLE t (x int)").is_err());
    }

    #[test]
    fn explain_returns_the_physical_plan() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        let r = db.execute("EXPLAIN SELECT x FROM t WHERE x > 1").unwrap();
        match r {
            StatementResult::Explain(tree) => {
                assert!(tree.contains("FusedScan(t)"), "{tree}");
                assert!(tree.contains("filter=(#0 > 1)"), "{tree}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_verbose_shows_logical_and_physical_trees() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        let r = db
            .execute("EXPLAIN VERBOSE SELECT x FROM t WHERE x > 1")
            .unwrap();
        match r {
            StatementResult::Explain(text) => {
                assert!(text.contains("== logical (optimized) =="), "{text}");
                assert!(text.contains("== physical =="), "{text}");
                assert!(text.contains("Scan(t)"), "{text}");
                assert!(text.contains("(t.x: int)"), "schema annotations: {text}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_through_query_yields_plan_rows() {
        let (_, session) = seeded();
        let r = session
            .query("EXPLAIN SELECT x FROM t WHERE x = 2")
            .unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        assert!(r.row_count() >= 1);
        let first = r.row(0)[0].to_string();
        assert!(first.contains("Scan(t)"), "{first}");
        // VERBOSE adds the logical tree section.
        let v = session
            .query("EXPLAIN VERBOSE SELECT x FROM t WHERE x = 2")
            .unwrap();
        assert!(v.row_count() > r.row_count());
    }

    #[test]
    fn explain_verify_reports_each_phase() {
        let (_, session) = seeded();
        let r = session
            .query("EXPLAIN VERIFY SELECT x FROM t WHERE x = 2")
            .unwrap();
        let text = (0..r.row_count())
            .map(|i| r.row(i)[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("== plan verification =="), "{text}");
        assert!(text.contains("binding: ok"), "{text}");
        assert!(text.contains("column-pruning: ok"), "{text}");
        assert!(text.contains("physical-planning: ok"), "{text}");
        assert!(text.contains("Scan(t)"), "{text}");

        // Provenance queries additionally report the rewrite contract.
        let p = session
            .query("EXPLAIN VERIFY SELECT PROVENANCE x FROM t")
            .unwrap();
        let text = (0..p.row_count())
            .map(|i| p.row(i)[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("provenance-rewrite: ok"), "{text}");
    }

    #[test]
    fn explain_verify_verbose_prints_the_verbose_physical_tree() {
        let (_, session) = seeded();
        let physical = |sql: &str| match session.execute(sql).unwrap() {
            StatementResult::Explain(text) => text.split_once("== physical ==\n").unwrap().1.into(),
            other => panic!("unexpected {other:?}"),
        };
        let q = "SELECT x FROM t ORDER BY y";
        let verbose: String = physical(&format!("EXPLAIN VERBOSE {q}"));
        assert!(verbose.contains("[est_mem≈"), "{verbose}");
        assert_eq!(physical(&format!("EXPLAIN VERIFY VERBOSE {q}")), verbose);
    }

    #[test]
    fn verify_plans_session_runs_clean() {
        // With verify_plans on, every read path re-checks each optimizer
        // phase; well-formed queries must be unaffected.
        let (server, _) = seeded();
        let s = server.session_with_options(SessionOptions::default().with_verify_plans(true));
        assert!(s.options().verify_plans);
        assert_eq!(
            s.query("SELECT PROVENANCE x, y FROM t WHERE x >= 2")
                .unwrap()
                .row_count(),
            2
        );
        let prepared = s.prepare("SELECT x FROM t ORDER BY x").unwrap();
        assert_eq!(prepared.execute().unwrap().row_count(), 3);
        assert_eq!(s.query_stream("SELECT x FROM t").unwrap().count(), 3);
        // Correlated sublinks exercise the per-plan verification memo.
        assert_eq!(
            s.query("SELECT x FROM t WHERE x = (SELECT max(x) FROM t)")
                .unwrap()
                .row_count(),
            1
        );
    }

    #[test]
    fn per_session_options_are_independent() {
        use perm_rewrite::ContributionSemantics;
        let (server, s1) = seeded();
        let s2 = server.session_with_options(
            SessionOptions::default().with_default_semantics(ContributionSemantics::Lineage),
        );
        assert_eq!(
            s1.options().rewrite.default_semantics,
            ContributionSemantics::Influence
        );
        assert_eq!(
            s2.options().rewrite.default_semantics,
            ContributionSemantics::Lineage
        );
    }
}
