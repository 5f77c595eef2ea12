//! Golden reproductions of every figure in the paper.
//!
//! * Figure 1 — the example database and queries q1–q3.
//! * Figure 2 — the provenance of q1, row for row, NULL for NULL.
//! * Figure 3 — the pipeline stages.
//! * Figure 4 — the five browser panels, including the marker-5 sample
//!   output `i | prov_public_s_i | prov_public_r_i`.

use perm_core::fixtures::{
    add_figure4_tables, figure2_columns, figure2_expected, forum_db, sorted_by_first, Q1, Q3,
};
use perm_core::{BrowserPanels, StageTrace, Value};

// ----------------------------------------------------------------------
// Figure 1
// ----------------------------------------------------------------------

#[test]
fn fig1_database_contents() {
    let db = forum_db();
    let messages = db.query("SELECT * FROM messages ORDER BY mid").unwrap();
    assert_eq!(messages.columns, vec!["mid", "text", "uid"]);
    assert_eq!(
        messages.row(0),
        &[Value::Int(1), Value::text("lorem ipsum ..."), Value::Int(3)]
    );
    assert_eq!(
        messages.row(1),
        &[Value::Int(4), Value::text("hi there ..."), Value::Int(2)]
    );
    let users = db.query("SELECT * FROM users ORDER BY uid").unwrap();
    assert_eq!(users.row(2), &[Value::Int(3), Value::text("Gertrud")]);
    let imports = db.query("SELECT * FROM imports ORDER BY mid").unwrap();
    assert_eq!(
        imports.row(0),
        &[
            Value::Int(2),
            Value::text("hello ..."),
            Value::text("superForum")
        ]
    );
    let approved = db
        .query("SELECT * FROM approved ORDER BY mid, uid")
        .unwrap();
    assert_eq!(approved.row_count(), 4);
}

#[test]
fn fig1_q1_result() {
    let db = forum_db();
    let r = db.query(&format!("{Q1} ORDER BY 1")).unwrap();
    assert_eq!(r.row_count(), 4);
    assert_eq!(r.row(0)[0], Value::Int(1));
    assert_eq!(r.row(3)[0], Value::Int(4));
}

#[test]
fn fig1_q2_view_equals_q1() {
    let db = forum_db();
    let direct = db.query(&format!("{Q1} ORDER BY 1, 2")).unwrap();
    let through_view = db.query("SELECT * FROM v1 ORDER BY 1, 2").unwrap();
    assert_eq!(direct.rows, through_view.rows);
}

#[test]
fn fig1_q3_result() {
    // "q3 outputs the text of each message together with the number of
    // users that approved this message (messages without any approval are
    // omitted from the result)."
    let db = forum_db();
    let r = db.query(&format!("{Q3} ORDER BY count(*)")).unwrap();
    assert_eq!(r.columns, vec!["count", "text"]);
    assert_eq!(r.row(0), &[Value::Int(1), Value::text("hello ...")]);
    assert_eq!(r.row(1), &[Value::Int(3), Value::text("hi there ...")]);
    // No row for message 1 (never approved).
    assert_eq!(r.row_count(), 2);
}

// ----------------------------------------------------------------------
// Figure 2: the provenance of q1, exactly
// ----------------------------------------------------------------------

#[test]
fn fig2_q1_provenance_exact() {
    let db = forum_db();
    let r = db
        .query("SELECT PROVENANCE mId, text FROM messages UNION SELECT mId, text FROM imports")
        .unwrap_or_else(|e| {
            // A set operation cannot carry PROVENANCE directly; the paper's
            // usage wraps it. Verify the wrapped form instead.
            panic!("direct form failed ({e}); the wrapped form is tested below")
        });
    // `SELECT PROVENANCE` on the first branch applies to that select only;
    // the canonical way is the wrapped form — both are checked.
    let _ = r;

    let r = db
        .query(&format!("SELECT PROVENANCE * FROM ({Q1}) q1"))
        .unwrap();
    assert_eq!(r.columns, figure2_columns());
    assert_eq!(sorted_by_first(&r), figure2_expected());
}

#[test]
fn fig2_replication_rule_via_q3() {
    // "If there is more than one contributing tuple from one base relation,
    // the original result tuple has to be replicated." Message 4 has three
    // approvers: its q3 result row must appear three times in the
    // provenance, once per approved-witness.
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
             GROUP BY v1.mId, text",
        )
        .unwrap();
    let hi_rows: Vec<_> = r
        .rows
        .iter()
        .filter(|t| t.get(1) == &Value::text("hi there ..."))
        .collect();
    assert_eq!(hi_rows.len(), 3, "one provenance row per approver");
    // Each carries a distinct approved witness.
    let uid_col = r.column_index("prov_public_approved_uid").unwrap();
    let mut uids: Vec<i64> = hi_rows
        .iter()
        .map(|t| match t.get(uid_col) {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    uids.sort_unstable();
    assert_eq!(uids, vec![1, 2, 3]);
}

#[test]
fn fig2_provenance_schema_order() {
    // Original result attributes first, then provenance attributes in
    // base-relation order (messages before imports), per the schema listing
    // in §2.1.
    let db = forum_db();
    let r = db
        .query(&format!("SELECT PROVENANCE * FROM ({Q1}) q1"))
        .unwrap();
    let msg = r.column_index("prov_public_messages_mid").unwrap();
    let imp = r.column_index("prov_public_imports_mid").unwrap();
    assert!(msg < imp);
    assert!(r.column_index("mid").unwrap() < msg);
}

// ----------------------------------------------------------------------
// Figure 3: pipeline stages
// ----------------------------------------------------------------------

#[test]
fn fig3_pipeline_stages() {
    let db = forum_db();
    let trace = StageTrace::run(&db, "SELECT PROVENANCE text FROM messages WHERE mid > 1").unwrap();
    let stages = trace.stages();
    assert_eq!(
        stages.iter().map(|s| s.name).collect::<Vec<_>>(),
        vec![
            "Parser & Analyzer",
            "Provenance Rewriter",
            "Planner",
            "Physical Planner",
            "Executor"
        ],
        "Figure 3's stage order (Planner split into logical + physical)"
    );
    assert_eq!(
        stages.iter().map(|s| s.description).collect::<Vec<_>>(),
        vec![
            "syntactic and semantic analysis, view unfolding",
            "provenance rewrite",
            "optimize and transform into plan",
            "cost-based operator selection",
            "execute plan and return results"
        ]
    );
    // The rewriter stage introduces the provenance attributes...
    assert!(!stages[0].artifact.contains("prov_public"));
    assert!(stages[1].artifact.contains("prov_public_messages_mid"));
    // ...the physical stage shows the chosen operators...
    assert!(
        stages[3].artifact.contains("Scan(messages)"),
        "{}",
        stages[3].artifact
    );
    // ...and the executor stage shows the result rows.
    assert!(stages[4].artifact.contains("hi there ..."));
}

#[test]
fn fig3_view_unfolding_happens_in_analysis() {
    let db = forum_db();
    let trace = StageTrace::run(&db, "SELECT PROVENANCE text FROM v1").unwrap();
    // The original plan already contains the unfolded view body.
    let tree = perm_algebra::plan_tree(&trace.original_plan);
    assert!(tree.contains("Scan(messages)"), "{tree}");
    assert!(tree.contains("Scan(imports)"), "{tree}");
}

// ----------------------------------------------------------------------
// Figure 4: browser panels
// ----------------------------------------------------------------------

#[test]
fn fig4_browser_panels() {
    let db = forum_db();
    add_figure4_tables(&db);
    let p =
        BrowserPanels::capture(&db, "SELECT PROVENANCE s.i FROM s JOIN r ON s.i = r.i").unwrap();

    // Marker 5: the exact sample output of the figure.
    assert_eq!(
        p.results.columns,
        vec!["i", "prov_public_s_i", "prov_public_r_i"]
    );
    let rows = sorted_by_first(&p.results);
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(1), Value::Int(1)],
            vec![Value::Int(2), Value::Int(2), Value::Int(2)],
        ]
    );

    // Marker 2: the rewritten SQL is ordinary, executable SQL.
    let re_run = db.query(&p.rewritten_sql).unwrap();
    assert_eq!(sorted_by_first(&re_run), rows);

    // Markers 3 and 4: trees differ exactly by the provenance projections.
    assert!(p.original_tree.contains("Scan(s)"));
    assert!(!p.original_tree.contains("prov_public"));
    assert!(p.rewritten_tree.contains("prov_public_s_i"));
    assert!(p.rewritten_tree.contains("prov_public_r_i"));
}

#[test]
fn fig4_panels_for_the_demo_queries() {
    // The demo's "query execution" part runs the paper's example queries;
    // every one of them must produce all five panels without error.
    let db = forum_db();
    for sql in [
        "SELECT PROVENANCE mId, text FROM messages",
        &format!("SELECT PROVENANCE * FROM ({Q1}) q1"),
        perm_core::fixtures::SEC24_PROVENANCE_AGG,
    ] {
        let p = BrowserPanels::capture(&db, sql)
            .unwrap_or_else(|e| panic!("browser failed on {sql:?}: {e}"));
        assert!(!p.results.columns.is_empty());
        assert!(!p.rewritten_sql.is_empty());
    }
}

#[test]
fn fig3_fig4_show_sublink_bodies() {
    // A sublink's body belongs to its statement: the original algebra
    // tree (marker 3) and the Physical Planner stage both draw it as a
    // `SubPlan` section after the main tree.
    let db = forum_db();
    let sql = "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)";
    let panels = BrowserPanels::capture(&db, sql).unwrap();
    let [.., physical, _] = StageTrace::run(&db, sql).unwrap().stages();
    assert_eq!(physical.name, "Physical Planner");
    for tree in [&panels.original_tree, &physical.artifact] {
        let (main, section) = tree
            .split_once("SubPlan 1: (#0 IN <subquery>) [once]\n")
            .unwrap();
        assert!(
            main.contains("Scan(messages)") && !main.contains("approved"),
            "{tree}"
        );
        assert!(section.contains("Scan(approved)"), "{tree}");
    }
}
