//! The write path: DDL/DML under the catalog write lock, statement-atomic
//! and — on a durable server — logged before `execute` returns.

use std::sync::Arc;

use perm_algebra::expr::ScalarExpr;
use perm_algebra::BoundStatement;
use perm_exec::{PhysicalPlan, Pipe};
use perm_sql::{ObjectKind, Statement};
use perm_storage::{Catalog, CatalogWriteGuard, Table, WalRecord};
use perm_types::{Column, Result, Schema, Tuple};

use crate::result::StatementResult;
use crate::session::{Admission, Session};

impl Session {
    /// Create a hash index on `table(column)`.
    ///
    /// There is no SQL syntax for this (as in the demo, indexes are an
    /// executor concern); the call is logged to the WAL like any other
    /// committed write, so indexes survive restarts.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        if let Some(d) = &self.server.durability {
            d.check_writable()?;
        }
        let mut guard = self.server.catalog.write();
        let before = guard.snapshot();
        let applied = (|| {
            let t = guard.table_mut(table)?;
            let pos = t.schema().resolve(None, column)?;
            t.create_index(pos)
        })();
        if let Err(e) = applied {
            guard.restore(before);
            return Err(e);
        }
        if let Some(d) = &self.server.durability {
            if let Err(e) = d.log(&WalRecord::CreateIndex {
                table: table.to_string(),
                column: column.to_string(),
            }) {
                guard.restore(before);
                return Err(e);
            }
            d.maybe_checkpoint(&guard.snapshot());
        }
        Ok(())
    }

    /// DDL/DML under the catalog write lock. The read part of a compound
    /// statement (the query of `CREATE TABLE AS`, the row expressions of
    /// `INSERT`) runs against a pre-mutation snapshot taken under the same
    /// lock, then the mutation applies through copy-on-write — concurrent
    /// readers keep whatever snapshot they already hold.
    ///
    /// Statements are *atomic*: the pre-statement snapshot is restored on
    /// any failure (a multi-row `INSERT` with one bad row inserts
    /// nothing), which is also what lets WAL recovery equate "logged" with
    /// "fully applied". On a durable server the statement is appended to
    /// the log (and fsynced, per policy) after it applies in memory and
    /// before `execute` returns; if the append fails, the statement rolls
    /// back and the error surfaces to the caller — no committed statement
    /// is ever missing from the log. The log record is `sql`, the text
    /// `stmt` was parsed from, with the session's default contribution
    /// semantics: replay re-parses exactly what ran, under the semantics
    /// it ran with.
    pub(crate) fn execute_write(&self, stmt: &Statement, sql: &str) -> Result<StatementResult> {
        if let Some(d) = &self.server.durability {
            d.check_writable()?;
        }
        let mut guard = self.server.catalog.write();
        let before = guard.snapshot();
        let result = match self.apply_write(&mut guard, stmt) {
            Ok(r) => r,
            Err(e) => {
                guard.restore(before);
                return Err(e);
            }
        };
        if let Some(d) = &self.server.durability {
            let record = WalRecord::Statement {
                sql: sql.to_string(),
                semantics: self.options().rewrite.default_semantics,
            };
            if let Err(e) = d.log(&record) {
                guard.restore(before);
                return Err(e);
            }
            d.maybe_checkpoint(&guard.snapshot());
        }
        Ok(result)
    }

    /// The in-memory part of [`Session::execute_write`]: bind and apply
    /// one write statement through the guard. The caller owns atomicity
    /// (snapshot + restore) and durability (WAL append).
    fn apply_write(
        &self,
        guard: &mut CatalogWriteGuard<'_>,
        stmt: &Statement,
    ) -> Result<StatementResult> {
        let bound = self.bind(guard, stmt)?;
        match bound {
            BoundStatement::CreateTable { name, schema } => {
                guard.create_table(Table::new(name.clone(), schema))?;
                Ok(StatementResult::TableCreated { name, rows: 0 })
            }
            BoundStatement::CreateTableAs {
                name,
                plan,
                provenance_attrs,
            } => {
                // The read part takes the same plan-and-run path as any
                // query (session options, statement deadline and shutdown,
                // memory charged to the per-query cap and the server pool)
                // but skips admission: it runs under the catalog write
                // lock. The executor's snapshot is dropped before the
                // mutation below, so make_mut stays in place unless other
                // sessions hold snapshots.
                let planned = self.plan(guard, plan)?;
                let rows = self.run(guard.snapshot(), &planned, Admission::Skip)?;
                // Stored column set loses the source qualifiers.
                let columns: Vec<Column> = planned
                    .schema()
                    .iter()
                    .map(|c| {
                        let mut c = c.clone();
                        c.qualifier = None;
                        c
                    })
                    .collect();
                let mut table = Table::new(name.clone(), Schema::new(columns));
                // Eager provenance: remember which columns are provenance so
                // later provenance queries over this table propagate them
                // as external provenance (paper §1: "store the provenance
                // of a query for later reuse").
                if let Some(attrs) = provenance_attrs {
                    table.set_provenance_columns(attrs)?;
                }
                let n = rows.len();
                // A stored row must not keep a gathered block alive.
                for r in rows {
                    table.push_raw(r.detach());
                }
                guard.create_table(table)?;
                Ok(StatementResult::TableCreated { name, rows: n })
            }
            BoundStatement::CreateView {
                name,
                definition,
                sql,
            } => {
                // Remember the definition's source text so durable
                // checkpoints can persist the view (the AST itself is not
                // serialized).
                guard.create_view_with_sql(name.clone(), definition, sql)?;
                Ok(StatementResult::ViewCreated { name })
            }
            BoundStatement::Insert { table, rows } => {
                // The row expressions run as a `VALUES` node under the
                // statement's context and memory view.
                let arity = guard.table(&table)?.schema().len();
                let values = self.lower_sublinks(guard, PhysicalPlan::Values { rows, arity })?;
                let tuples = self
                    .executor(guard.snapshot(), self.query_context())
                    .run_physical(&values)?;
                let n = guard.table_mut(&table)?.insert_all(tuples)?;
                Ok(StatementResult::Inserted(n))
            }
            BoundStatement::Drop {
                kind,
                name,
                if_exists,
            } => {
                let dropped = match kind {
                    ObjectKind::Table => guard.drop_table(&name, if_exists)?,
                    ObjectKind::View => guard.drop_view(&name, if_exists)?,
                };
                Ok(StatementResult::Dropped(dropped))
            }
            BoundStatement::Delete { table, predicate } => {
                // Evaluate the predicate against a pre-mutation snapshot,
                // then delete through the write guard. Storage rebuilds
                // indexes and keeps the statistics exact in place.
                let doomed: Vec<usize> = match &predicate {
                    None => (0..guard.snapshot().table(&table)?.row_count()).collect(),
                    Some(p) => self
                        .scan_for_write(guard.snapshot(), &table, Some(p), None)?
                        .into_iter()
                        .map(|(i, _)| i)
                        .collect(),
                };
                let n = guard.table_mut(&table)?.delete_rows(&doomed);
                Ok(StatementResult::Deleted(n))
            }
            BoundStatement::Update {
                table,
                assignments,
                predicate,
            } => {
                // The replacement row is a projection of the old one: every
                // column itself, assigned columns their expression (a later
                // assignment to the same column wins).
                let width = guard.snapshot().table(&table)?.schema().len();
                let mut new_row: Vec<ScalarExpr> = (0..width).map(ScalarExpr::Column).collect();
                for (pos, e) in assignments {
                    new_row[pos] = e;
                }
                let updates = self.scan_for_write(
                    guard.snapshot(),
                    &table,
                    predicate.as_ref(),
                    Some(&new_row),
                )?;
                let n = guard.table_mut(&table)?.update_rows(updates)?;
                Ok(StatementResult::Updated(n))
            }
            BoundStatement::Query(_) | BoundStatement::Explain { .. } => {
                unreachable!("queries take the read path")
            }
        }
    }

    /// The scan of `DELETE` / `UPDATE`: pull `table`'s pre-mutation rows
    /// one at a time through the executor's filter/projection body (the
    /// stream cursor's way of driving it — positions are needed, not just
    /// rows), under an executor carrying the session's options and a fresh
    /// statement context (deadline, shutdown), its sublink bodies lowered
    /// by the session's planner. Returns each passing row's position with
    /// its output row.
    fn scan_for_write(
        &self,
        snapshot: Arc<Catalog>,
        table: &str,
        filter: Option<&ScalarExpr>,
        project: Option<&[ScalarExpr]>,
    ) -> Result<Vec<(usize, Tuple)>> {
        let scan = PhysicalPlan::FusedScanProjectFilter {
            table: table.to_string(),
            schema: snapshot.table(table)?.schema().clone(),
            filter: filter.cloned(),
            project: project.map(<[ScalarExpr]>::to_vec),
            est_rows: 0.0,
            dop: 1,
        };
        let executor = self.executor(Arc::clone(&snapshot), self.query_context());
        executor.enter_statement(&self.lower_sublinks(&snapshot, scan)?);
        let pipe = Pipe::compile(&executor, filter, project);
        let mut hits = Vec::new();
        for (i, row) in executor.catalog().table(table)?.rows().iter().enumerate() {
            // Masked cancellation check per 1024 scanned rows.
            if i % 1024 == 0 {
                executor.check_cancelled()?;
            }
            if let Some(out) = pipe.row(&executor, row)? {
                hits.push((i, out));
            }
        }
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use crate::session::tests::seeded;
    use crate::{PermServer, SessionOptions, StatementResult};
    use perm_types::{CancelReason, PermError, Tuple, Value};

    #[test]
    fn create_insert_select_roundtrip() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int NOT NULL, y text)")
            .unwrap();
        let r = db
            .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        assert_eq!(r, StatementResult::Inserted(2));
        let rows = db.query("SELECT x, y FROM t ORDER BY x DESC").unwrap();
        assert_eq!(rows.row(0), &[Value::Int(2), Value::text("b")]);
    }

    #[test]
    fn insert_with_expression_values() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.execute("INSERT INTO t VALUES (1 + 2 * 3)").unwrap();
        let rows = db.query("SELECT x FROM t").unwrap();
        assert_eq!(rows.row(0), &[Value::Int(7)]);
    }

    #[test]
    fn insert_is_atomic() {
        // One bad row in a multi-row INSERT must leave no trace — the
        // property WAL recovery relies on (logged ⇔ fully applied).
        let (_, session) = seeded();
        let err = session
            .execute("INSERT INTO t VALUES (7, 'g'), ('oops', 'h')")
            .unwrap_err();
        assert_eq!(err.kind(), "catalog", "binder rejects the mistyped row");
        assert_eq!(session.query("SELECT x FROM t").unwrap().row_count(), 3);
    }

    #[test]
    fn create_table_as_materializes() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let r = db
            .execute("CREATE TABLE big AS SELECT x * 10 AS x10 FROM t WHERE x > 1")
            .unwrap();
        assert_eq!(
            r,
            StatementResult::TableCreated {
                name: "big".into(),
                rows: 2
            }
        );
        let rows = db.query("SELECT x10 FROM big ORDER BY x10").unwrap();
        assert_eq!(rows.row(0), &[Value::Int(20)]);
    }

    #[test]
    fn create_table_as_runs_under_the_sessions_memory_cap() {
        // The read part of CREATE TABLE AS takes the same plan-and-run
        // path as a SELECT: a per-query cap too small for the provenance
        // join fails the eager materialization with the same typed error,
        // atomically, and every reservation drains.
        let server = PermServer::new();
        let loader = server.session();
        loader.execute("CREATE TABLE big (x int, y int)").unwrap();
        {
            let mut w = loader.catalog_write();
            let t = w.table_mut("big").unwrap();
            for i in 0..1_000 {
                t.push_raw(Tuple::new(vec![Value::Int(i % 97), Value::Int(i)]));
            }
        }
        let capped = server.session_with_options(SessionOptions::default().with_memory_budget(16));
        let join = "SELECT PROVENANCE a.y, b.y FROM big a JOIN big b ON a.x = b.x";
        let plain = capped.query(join).unwrap_err();
        assert!(
            matches!(plain, PermError::ResourceExhausted { .. }),
            "{plain}"
        );
        let eager = capped
            .execute(&format!("CREATE TABLE eager AS {join}"))
            .unwrap_err();
        assert_eq!(eager, plain, "same typed error as the plain query");
        assert!(
            capped.snapshot().table("eager").is_err(),
            "no table created"
        );
        assert_eq!(server.memory_pool().used(), 0, "reservations drained");
        // Uncapped, the same statement materializes.
        assert!(loader
            .execute(&format!("CREATE TABLE eager AS {join}"))
            .is_ok());
    }

    #[test]
    fn views_create_and_drop() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.execute("CREATE VIEW v AS SELECT x FROM t").unwrap();
        assert!(db.query("SELECT * FROM v").unwrap().is_empty());
        assert_eq!(
            db.execute("DROP VIEW v").unwrap(),
            StatementResult::Dropped(true)
        );
        assert!(db.execute("SELECT * FROM v").is_err());
        assert_eq!(
            db.execute("DROP TABLE IF EXISTS nope").unwrap(),
            StatementResult::Dropped(false)
        );
    }

    #[test]
    fn delete_and_update_statements_execute() {
        let db = PermServer::new().session();
        db.run_script(
            "CREATE TABLE t (x int NOT NULL, y text);
             INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');",
        )
        .unwrap();
        assert_eq!(
            db.execute("DELETE FROM t WHERE x % 2 = 0").unwrap(),
            StatementResult::Deleted(2)
        );
        assert_eq!(
            db.execute("UPDATE t SET y = y || '!' WHERE x = 3").unwrap(),
            StatementResult::Updated(1)
        );
        let rows = db.query("SELECT x, y FROM t ORDER BY x").unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.row(1), &[Value::Int(3), Value::text("c!")]);
        // Unconditional DELETE empties the table.
        assert_eq!(
            db.execute("DELETE FROM t").unwrap(),
            StatementResult::Deleted(2)
        );
        assert!(db.query("SELECT * FROM t").unwrap().is_empty());
    }

    /// `t(x, label)` = (1, a), (2, b), (3, c) and `s(y)` = 2, 3, 5.
    fn two_tables() -> crate::Session {
        let db = PermServer::new().session();
        db.run_script(
            "CREATE TABLE t (x int NOT NULL, label text);
             INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');
             CREATE TABLE s (y int);
             INSERT INTO s VALUES (2), (3), (5);",
        )
        .unwrap();
        db
    }

    fn ints(db: &crate::Session, sql: &str) -> Vec<i64> {
        db.query(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("{sql}: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn update_and_delete_accept_the_target_tables_qualifier() {
        // The target binds like a FROM-clause scan of it: its own name
        // qualifies its columns, in the statement and in its sublinks.
        let db = two_tables();
        assert_eq!(
            db.execute("UPDATE t SET x = t.x + 1").unwrap(),
            StatementResult::Updated(3)
        );
        assert_eq!(
            db.execute("DELETE FROM t WHERE t.x = 2").unwrap(),
            StatementResult::Deleted(1)
        );
        assert_eq!(ints(&db, "SELECT x FROM t ORDER BY x"), [3, 4]);
        assert_eq!(
            db.execute("DELETE FROM s WHERE EXISTS (SELECT 1 FROM t WHERE t.x = s.y)")
                .unwrap(),
            StatementResult::Deleted(1)
        );
        assert_eq!(ints(&db, "SELECT y FROM s ORDER BY y"), [2, 5]);
    }

    #[test]
    fn write_statements_run_their_sublinks() {
        // Each write statement's sublink bodies are lowered by the
        // session's planner with the statement; pin the rows each one
        // leaves behind.
        let cases: [(&str, StatementResult, &str, &[i64]); 5] = [
            (
                "INSERT INTO s VALUES ((SELECT max(x) FROM t))",
                StatementResult::Inserted(1),
                "SELECT y FROM s ORDER BY y",
                &[2, 3, 3, 5],
            ),
            (
                "UPDATE s SET y = (SELECT max(x) FROM t)",
                StatementResult::Updated(3),
                "SELECT y FROM s ORDER BY y",
                &[3, 3, 3],
            ),
            (
                // Correlated: `x` is the row of `t` being updated.
                "UPDATE t SET x = (SELECT count(*) FROM s WHERE s.y > x)",
                StatementResult::Updated(3),
                "SELECT x FROM t ORDER BY label",
                &[3, 2, 1],
            ),
            (
                "DELETE FROM s WHERE y IN (SELECT x FROM t)",
                StatementResult::Deleted(2),
                "SELECT y FROM s ORDER BY y",
                &[5],
            ),
            (
                // Correlated: `y` is the row of `s` being tested.
                "DELETE FROM s WHERE NOT EXISTS (SELECT 1 FROM t WHERE x + 1 = y)",
                StatementResult::Deleted(1),
                "SELECT y FROM s ORDER BY y",
                &[2, 3],
            ),
        ];
        for (dml, result, check, rows) in cases {
            let db = two_tables();
            assert_eq!(db.execute(dml).unwrap(), result, "{dml}");
            assert_eq!(ints(&db, check), rows, "{dml}");
        }
    }

    #[test]
    fn update_and_delete_observe_the_statement_deadline() {
        // The DML scans run under the session's statement context like any
        // query: a 1 ms deadline cancels them mid-scan, atomically.
        let server = PermServer::new();
        let loader = server.session();
        loader.execute("CREATE TABLE big (x int, y int)").unwrap();
        {
            let mut w = loader.catalog_write();
            let t = w.table_mut("big").unwrap();
            for i in 0..300_000 {
                t.push_raw(Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]));
            }
        }
        let before = loader.query("SELECT sum(y), count(*) FROM big").unwrap();
        let timed =
            server.session_with_options(SessionOptions::default().with_statement_timeout_ms(1));
        for dml in [
            "UPDATE big SET y = y + 1 WHERE x % 2 = 0",
            "DELETE FROM big WHERE x % 2 = 0",
        ] {
            let err = timed.execute(dml).unwrap_err();
            assert!(
                matches!(
                    err,
                    PermError::Cancelled {
                        reason: CancelReason::DeadlineExceeded,
                        ..
                    }
                ),
                "{dml}: {err}"
            );
            let after = loader.query("SELECT sum(y), count(*) FROM big").unwrap();
            assert_eq!(after, before, "{dml}: table must be unchanged");
        }
    }

    #[test]
    fn dml_keeps_planner_statistics_fresh() {
        // The cost model reads Table::stats through the unified
        // estimator; DELETE/UPDATE must invalidate the cache so a plan
        // built after the DML sees the new row counts.
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.table("t").unwrap().stats().row_count, 50);
        db.execute("DELETE FROM t WHERE x >= 10").unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.table("t").unwrap().stats().row_count, 10);
        db.execute("UPDATE t SET x = 0 WHERE x < 5").unwrap();
        let snap = db.snapshot();
        let stats = snap.table("t").unwrap().stats();
        assert_eq!(stats.row_count, 10);
        assert_eq!(stats.columns[0].n_distinct, 6, "0 and 5..9");
    }

    #[test]
    fn catalog_write_guard_allows_direct_loads() {
        let db = PermServer::new().session();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.catalog_write()
            .table_mut("t")
            .unwrap()
            .insert(Tuple::new(vec![Value::Int(7)]))
            .unwrap();
        assert_eq!(db.query("SELECT x FROM t").unwrap().row_count(), 1);
    }
}
