//! The Figure 3 stage trace: run a query while recording the artifact each
//! pipeline stage produces.
//!
//! Figure 3 of the paper shows Perm's architecture: *Parser & Analyzer* →
//! *Provenance Rewriter* → *Planner* → *Executor*, with view unfolding
//! during analysis and the provenance rewrite in between. [`StageTrace`]
//! materializes these stages for one statement, which is what the demo's
//! "rewrite analysis" part walks through. Since the two-phase optimizer
//! landed, the Planner stage is split in two: the logical pass (rule
//! rewrites, column pruning, join reordering) and the *Physical Planner*
//! (cost-based operator selection), each with its own artifact.

use perm_algebra::{deparse, plan_tree, plan_tree_with_schema, LogicalPlan};
use perm_exec::{physical_tree, PhysicalPlan};
use perm_sql::{parse_statement, Query, QueryBody, Select, Statement, TableRef};
use perm_types::{PermError, Result};

use crate::result::QueryResult;
use crate::session::{Admission, Session};

/// One pipeline stage with a human-readable artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name as in Figure 3.
    pub name: &'static str,
    /// What the stage did (Figure 3's right-hand annotations).
    pub description: &'static str,
    /// Rendered artifact (SQL text, algebra tree, or result table).
    pub artifact: String,
}

/// The full trace of one query through the Figure 3 pipeline.
#[derive(Debug, Clone)]
pub struct StageTrace {
    /// The input SQL.
    pub sql: String,
    /// The analyzed plan of the *original* query (provenance clauses
    /// stripped) — the browser's marker 3.
    pub original_plan: LogicalPlan,
    /// The plan after the provenance rewrite (identical to
    /// `original_plan` if the query requests no provenance) — marker 4.
    pub rewritten_plan: LogicalPlan,
    /// The optimized logical plan.
    pub optimized_plan: LogicalPlan,
    /// The physical execution plan (cost-based operator selection) the
    /// executor dispatches on.
    pub physical_plan: PhysicalPlan,
    /// The executed result.
    pub result: QueryResult,
}

impl StageTrace {
    /// Run `sql` through the pipeline of `session`, capturing every stage.
    pub fn run(session: &Session, sql: &str) -> Result<StageTrace> {
        let stmt = parse_statement(sql)?;
        let Statement::Query(query) = &stmt else {
            return Err(PermError::Analysis(
                "stage traces are recorded for queries only".into(),
            ));
        };

        // One snapshot for the whole trace: every stage (both binds and
        // the execution) sees the same catalog even under concurrent DDL.
        let snapshot = session.snapshot();

        // Stage 1 artifact: the original (provenance-free) analyzed plan.
        let stripped = Statement::Query(strip_provenance_query(query));
        let original_plan = session.bind_query(&snapshot, &stripped)?;

        // Stage 2: analyze *with* the rewriter attached.
        let rewritten_plan = session.bind_query(&snapshot, &stmt)?;

        // Stages 3–5: the session's own plan-and-run path, so the trace
        // shows the plans that actually executed.
        let planned = session.plan(&snapshot, rewritten_plan.clone())?;
        let rows = session.run(snapshot, &planned, Admission::Queue)?;
        let result = QueryResult::new(planned.schema(), rows);

        Ok(StageTrace {
            sql: sql.to_string(),
            original_plan,
            rewritten_plan,
            optimized_plan: planned.optimized,
            physical_plan: planned.physical,
            result,
        })
    }

    /// The rewritten query as SQL (the browser's marker 2).
    pub fn rewritten_sql(&self) -> String {
        deparse(&self.rewritten_plan)
    }

    /// The Figure 3 stages (with the Planner split into its logical and
    /// physical phases) and their artifacts.
    pub fn stages(&self) -> [Stage; 5] {
        [
            Stage {
                name: "Parser & Analyzer",
                description: "syntactic and semantic analysis, view unfolding",
                artifact: plan_tree(&self.original_plan),
            },
            Stage {
                name: "Provenance Rewriter",
                description: "provenance rewrite",
                // Schema annotations show where the provenance attributes
                // enter the plan.
                artifact: plan_tree_with_schema(&self.rewritten_plan),
            },
            Stage {
                name: "Planner",
                description: "optimize and transform into plan",
                artifact: plan_tree(&self.optimized_plan),
            },
            Stage {
                name: "Physical Planner",
                description: "cost-based operator selection",
                artifact: physical_tree(&self.physical_plan),
            },
            Stage {
                name: "Executor",
                description: "execute plan and return results",
                artifact: self.result.to_table(),
            },
        ]
    }

    /// Render the whole trace as text (the `fig3` harness output).
    pub fn render(&self) -> String {
        let mut out = format!("input: {}\n\n", self.sql);
        for s in self.stages() {
            out.push_str(&format!(
                "== {} — {} ==\n{}\n",
                s.name, s.description, s.artifact
            ));
        }
        out
    }
}

/// Remove every `PROVENANCE` clause from a query (recursively), yielding
/// the *original* query q whose algebra tree the browser shows next to q+.
pub fn strip_provenance_query(q: &Query) -> Query {
    let mut q = q.clone();
    strip_body(&mut q.body);
    q
}

fn strip_body(body: &mut QueryBody) {
    match body {
        QueryBody::Select(s) => strip_select(s),
        QueryBody::SetOp { left, right, .. } => {
            strip_body(left);
            strip_body(right);
        }
    }
}

fn strip_select(s: &mut Select) {
    s.provenance = None;
    for item in &mut s.from {
        strip_table_ref(item);
    }
}

fn strip_table_ref(t: &mut TableRef) {
    match t {
        TableRef::Relation { .. } => {}
        TableRef::Subquery { query, .. } => {
            strip_body(&mut query.body);
        }
        TableRef::Join { left, right, .. } => {
            strip_table_ref(left);
            strip_table_ref(right);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::forum_db;
    use crate::options::SessionOptions;

    #[test]
    fn trace_has_figure_3_stages_plus_physical_planner() {
        let db = forum_db();
        let trace = StageTrace::run(&db, "SELECT PROVENANCE mid FROM messages").unwrap();
        let stages = trace.stages();
        assert_eq!(
            stages.iter().map(|s| s.name).collect::<Vec<_>>(),
            vec![
                "Parser & Analyzer",
                "Provenance Rewriter",
                "Planner",
                "Physical Planner",
                "Executor"
            ]
        );
        // The physical stage shows chosen operators, not logical ones.
        assert!(
            stages[3].artifact.contains("Scan(messages)"),
            "{}",
            stages[3].artifact
        );
    }

    #[test]
    fn trace_shows_the_plan_that_ran() {
        // The displayed physical plan is lowered under the session's
        // options (not the planner defaults): with a parallel threshold
        // of one row it equals what `prepare` builds, and the scan runs
        // at DOP 2, which the default threshold never picks for the
        // demo's tables.
        let session = forum_db().with_options(
            SessionOptions::default()
                .with_max_parallelism(2)
                .with_parallel_row_threshold(1),
        );
        let sql = "SELECT PROVENANCE mid, text FROM messages WHERE mid > 1";
        let trace = StageTrace::run(&session, sql).unwrap();
        let shown = physical_tree(&trace.physical_plan);
        let prepared = session.prepare(sql).unwrap();
        assert_eq!(shown, physical_tree(prepared.physical_plan()));
        assert!(shown.contains("[dop=2]"), "{shown}");
    }

    #[test]
    fn original_plan_is_provenance_free() {
        let db = forum_db();
        let trace = StageTrace::run(&db, "SELECT PROVENANCE mid FROM messages").unwrap();
        assert_eq!(trace.original_plan.arity(), 1, "just `mid`");
        assert_eq!(trace.rewritten_plan.arity(), 4, "mid + 3 provenance attrs");
    }

    #[test]
    fn non_provenance_queries_trace_identically() {
        let db = forum_db();
        let trace = StageTrace::run(&db, "SELECT mid FROM messages").unwrap();
        assert_eq!(trace.original_plan, trace.rewritten_plan);
    }

    #[test]
    fn ddl_is_rejected() {
        let db = forum_db();
        assert!(StageTrace::run(&db, "CREATE TABLE z (x int)").is_err());
    }

    #[test]
    fn rendered_trace_mentions_every_stage() {
        let db = forum_db();
        let trace = StageTrace::run(&db, "SELECT PROVENANCE mid FROM messages").unwrap();
        let text = trace.render();
        assert!(text.contains("Provenance Rewriter"), "{text}");
        assert!(text.contains("prov_public_messages_mid"), "{text}");
    }
}
