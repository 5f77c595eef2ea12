//! [`Prepared`]: one query's plan, built once and executed many times.

use std::sync::Arc;

use perm_algebra::LogicalPlan;
use perm_exec::PhysicalPlan;
use perm_types::{Result, Schema};

use crate::result::{QueryResult, RowStream};
use crate::session::{Admission, Planned, Session};

/// A prepared statement: the parsed, provenance-rewritten, optimized plan
/// of one query, cached for repeated execution.
///
/// [`Prepared::execute`] skips parse, analysis, the provenance rewrite and
/// optimization entirely — each call only snapshots the catalog and runs
/// the cached plan, which is the hot path when the same provenance query
/// is asked many times (possibly from many threads; `Prepared` is `Send +
/// Sync` and cheap to clone).
///
/// Execution always reads the *current* catalog, so data changes between
/// calls are visible. Schema changes to a scanned table invalidate the
/// plan: execution compares the table's column names and types against
/// the plan's and fails with a schema-mismatch error rather than
/// returning wrong rows; re-`prepare` after DDL.
#[derive(Clone)]
pub struct Prepared {
    session: Session,
    sql: String,
    planned: Arc<Planned>,
}

impl Prepared {
    pub(crate) fn new(session: Session, sql: &str, planned: Planned) -> Prepared {
        Prepared {
            session,
            sql: sql.to_string(),
            planned: Arc::new(planned),
        }
    }

    /// The SQL this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        self.planned.schema()
    }

    /// The cached optimized logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.planned.optimized
    }

    /// The cached physical execution plan.
    pub fn physical_plan(&self) -> &PhysicalPlan {
        &self.planned.physical
    }

    /// Run the cached physical plan against the current catalog,
    /// materializing the result. Every execution is individually
    /// admitted through the server's governor.
    pub fn execute(&self) -> Result<QueryResult> {
        let rows = self
            .session
            .run(self.session.snapshot(), &self.planned, Admission::Queue)?;
        Ok(QueryResult::new(self.schema(), rows))
    }

    /// Run the cached plan cursor-style (see [`Session::query_stream`]).
    pub fn execute_stream(&self) -> Result<RowStream> {
        self.session.stream(self.session.snapshot(), &self.planned)
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.sql)
            .field("columns", &self.schema().names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::session::tests::seeded;

    #[test]
    fn prepared_reuse_matches_one_shot_query() {
        let (_, session) = seeded();
        let sql = "SELECT PROVENANCE x, y FROM t WHERE x >= 2";
        let prepared = session.prepare(sql).unwrap();
        let one_shot = session.query(sql).unwrap();
        assert_eq!(prepared.execute().unwrap(), one_shot);
        assert_eq!(prepared.execute().unwrap(), one_shot, "re-execution");
        assert_eq!(
            prepared.schema().names(),
            vec!["x", "y", "prov_public_t_x", "prov_public_t_y"]
        );
    }

    #[test]
    fn prepared_sees_data_changes_but_fails_on_schema_change() {
        let (_, session) = seeded();
        let prepared = session.prepare("SELECT x FROM t").unwrap();
        assert_eq!(prepared.execute().unwrap().row_count(), 3);
        session.execute("INSERT INTO t VALUES (9, 'z')").unwrap();
        assert_eq!(prepared.execute().unwrap().row_count(), 4, "fresh data");
        session.execute("DROP TABLE t").unwrap();
        session.execute("CREATE TABLE t (x int)").unwrap();
        let err = prepared.execute().unwrap_err();
        assert!(err.message().contains("changed schema"), "{err}");
    }

    #[test]
    fn prepared_fails_on_same_arity_schema_change() {
        // A dropped-and-recreated table with the *same* column count but
        // different names/types must error, not return mislabeled rows.
        let (_, session) = seeded();
        let prepared = session.prepare("SELECT x FROM t").unwrap();
        session.execute("DROP TABLE t").unwrap();
        session.execute("CREATE TABLE t (a text, b text)").unwrap();
        session.execute("INSERT INTO t VALUES ('u', 'v')").unwrap();
        let err = prepared.execute().unwrap_err();
        assert!(err.message().contains("changed schema"), "{err}");
        let err = prepared.execute_stream().unwrap_err();
        assert!(err.message().contains("changed schema"), "{err}");
    }

    #[test]
    fn prepare_rejects_ddl() {
        let (_, session) = seeded();
        let err = session.prepare("DROP TABLE t").unwrap_err();
        assert_eq!(err.kind(), "analysis");
    }
}
