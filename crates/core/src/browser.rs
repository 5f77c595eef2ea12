//! The Perm-browser panels (paper Figure 4).
//!
//! The demo client shows, for one query: (1) the query input, (2) the
//! rewritten query as SQL, (3) the algebra tree of the original query,
//! (4) the algebra tree of the rewritten query and (5) the query result.
//! [`BrowserPanels`] produces exactly these five artifacts from the same
//! engine APIs; `examples/perm_browser.rs` wraps them in an interactive
//! terminal client.

use perm_types::Result;

use crate::pipeline::StageTrace;
use crate::result::QueryResult;
use crate::session::Session;

/// The five Figure 4 panels.
#[derive(Debug, Clone)]
pub struct BrowserPanels {
    /// Marker 1: the query as typed.
    pub input: String,
    /// Marker 2: the rewritten query rendered as SQL.
    pub rewritten_sql: String,
    /// Marker 3: algebra tree of the original query.
    pub original_tree: String,
    /// Marker 4: algebra tree of the rewritten query.
    pub rewritten_tree: String,
    /// Marker 5: the result table.
    pub results: QueryResult,
}

impl BrowserPanels {
    /// Execute `sql` through `session` and capture all five panels (one
    /// browser per session can run against a shared catalog). The trees
    /// are the trace's own stage artifacts.
    pub fn capture(session: &Session, sql: &str) -> Result<BrowserPanels> {
        let trace = StageTrace::run(session, sql)?;
        let [original, rewritten, ..] = trace.stages();
        Ok(BrowserPanels {
            input: sql.to_string(),
            rewritten_sql: trace.rewritten_sql(),
            original_tree: original.artifact,
            rewritten_tree: rewritten.artifact,
            results: trace.result,
        })
    }

    /// Render all panels as text (used by the harness and the example).
    pub fn render(&self) -> String {
        format!(
            "[1] query\n{}\n\n[2] rewritten SQL\n{}\n\n[3] original algebra tree\n{}\n\
             [4] rewritten algebra tree\n{}\n[5] results\n{}",
            self.input,
            self.rewritten_sql,
            self.original_tree,
            self.rewritten_tree,
            self.results.to_table()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{add_figure4_tables, forum_db};
    use perm_types::Value;

    #[test]
    fn figure4_marker5_sample_output() {
        // Figure 4's marker 5 shows:
        //  i | prov_public_s_i | prov_public_r_i
        // ---+-----------------+----------------
        //  1 |               1 |               1
        //  2 |               2 |               2
        let db = forum_db();
        add_figure4_tables(&db);
        let p = BrowserPanels::capture(&db, "SELECT PROVENANCE s.i FROM s JOIN r ON s.i = r.i")
            .unwrap();
        assert_eq!(
            p.results.columns,
            vec!["i", "prov_public_s_i", "prov_public_r_i"]
        );
        let mut rows: Vec<Vec<Value>> =
            p.results.rows.iter().map(|t| t.values().to_vec()).collect();
        rows.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(2), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn all_five_panels_are_populated() {
        let db = forum_db();
        let p = BrowserPanels::capture(&db, "SELECT PROVENANCE mid FROM messages").unwrap();
        assert!(
            p.rewritten_sql.contains("prov_public_messages_mid"),
            "{}",
            p.rewritten_sql
        );
        assert!(p.original_tree.contains("Scan(messages)"));
        assert!(p.rewritten_tree.contains("Project"));
        assert_eq!(p.results.row_count(), 2);
        let rendered = p.render();
        for marker in ["[1]", "[2]", "[3]", "[4]", "[5]"] {
            assert!(rendered.contains(marker), "{rendered}");
        }
    }

    #[test]
    fn rewritten_sql_is_executable() {
        // Marker 2's point: the rewritten query is ordinary SQL. Running it
        // must reproduce the provenance result.
        let db = forum_db();
        let p = BrowserPanels::capture(&db, "SELECT PROVENANCE mid FROM messages").unwrap();
        let re_run = db.query(&p.rewritten_sql).unwrap();
        assert_eq!(re_run.row_count(), p.results.row_count());
        assert_eq!(re_run.rows, p.results.rows);
    }
}
