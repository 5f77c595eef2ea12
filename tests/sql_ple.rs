//! SQL-PLE end-to-end tests: the language extension of paper §2.4 and the
//! verbatim listings it contains.

use perm_core::fixtures::{
    forum_db, SEC24_BASERELATION, SEC24_PROVENANCE_AGG, SEC24_QUERY_PROVENANCE,
};
use perm_core::Value;

// ----------------------------------------------------------------------
// The §2.4 listings
// ----------------------------------------------------------------------

#[test]
fn sec24_provenance_on_contribution_influence() {
    // First listing: provenance of the aggregation over v1 ⋈ approved.
    let db = forum_db();
    let r = db.query(SEC24_PROVENANCE_AGG).unwrap();
    // Two result groups (messages 2 and 4), replicated per witness:
    // message 2 has 1 approval, message 4 has 3 -> but each witness row
    // also carries v1's contributing tuple, which is unique per message.
    assert_eq!(r.row_count(), 4);
    // All provenance attribute families are present.
    for col in [
        "prov_public_messages_mid",
        "prov_public_imports_mid",
        "prov_public_approved_uid",
    ] {
        assert!(
            r.column_index(col).is_some(),
            "{col} missing: {:?}",
            r.columns
        );
    }
}

#[test]
fn sec24_querying_provenance_with_full_sql() {
    // Second listing: filter the provenance of the aggregation by
    // count > 5 AND origin = 'superForum'. With the Figure 1 data no
    // message has more than 3 approvals, so the result is empty — the
    // point is that the composition is legal and executable.
    let db = forum_db();
    let r = db.query(SEC24_QUERY_PROVENANCE).unwrap();
    assert_eq!(r.columns, vec!["text", "prov_public_imports_origin"]);
    assert!(r.is_empty());

    // Lower the threshold to 0: now the superForum-imported message 2
    // (1 approval) qualifies.
    let relaxed = SEC24_QUERY_PROVENANCE.replace("count > 5", "count > 0");
    let r = db.query(&relaxed).unwrap();
    assert_eq!(r.row_count(), 1);
    assert_eq!(
        r.row(0),
        &[Value::text("hello ..."), Value::text("superForum")]
    );
}

#[test]
fn sec24_baserelation_stops_rewriting() {
    let db = forum_db();
    let r = db.query(SEC24_BASERELATION).unwrap();
    // v1 is treated like a base relation: provenance attributes derive
    // from v1 itself, not from messages/imports.
    assert_eq!(
        r.columns,
        vec!["text", "prov_public_v1_mid", "prov_public_v1_text"]
    );
    // Only message 4 has mid > 3.
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.row(0)[1], Value::Int(4));
}

// ----------------------------------------------------------------------
// External provenance
// ----------------------------------------------------------------------

#[test]
fn external_provenance_from_another_pms() {
    // A table carrying provenance produced elsewhere (manually, or by
    // another PMS): declare its provenance columns in the FROM clause and
    // the rules propagate them untouched.
    let db = forum_db();
    db.run_script(
        "CREATE TABLE curated (mid int, quality text, src_system text, src_key int);
         INSERT INTO curated VALUES (1, 'good', 'legacy-pms', 101),
                                    (4, 'poor', 'legacy-pms', 104);",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT PROVENANCE quality FROM curated PROVENANCE (src_system, src_key) \
             WHERE mid = 4",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["quality", "src_system", "src_key"]);
    assert_eq!(
        r.row(0),
        &[
            Value::text("poor"),
            Value::text("legacy-pms"),
            Value::Int(104)
        ]
    );
}

#[test]
fn external_provenance_mixes_with_computed_provenance() {
    // A join of an externally-annotated table with an ordinary table:
    // the ordinary side gets computed provenance, the external side keeps
    // its own annotations.
    let db = forum_db();
    db.run_script(
        "CREATE TABLE tagged (mid int, tag text, origin_note text);
         INSERT INTO tagged VALUES (4, 'hot', 'import-batch-7');",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT PROVENANCE m.text, t.tag \
             FROM messages m JOIN tagged t PROVENANCE (origin_note) ON m.mid = t.mid",
        )
        .unwrap();
    assert!(r.column_index("prov_public_messages_mid").is_some());
    assert!(r.column_index("origin_note").is_some());
    assert!(
        r.column_index("prov_public_tagged_mid").is_none(),
        "external side must not be duplicated"
    );
    assert_eq!(r.row_count(), 1);
}

// ----------------------------------------------------------------------
// Contribution semantics selection
// ----------------------------------------------------------------------

#[test]
fn on_contribution_variants_all_run() {
    let db = forum_db();
    for sem in [
        "INFLUENCE",
        "COPY",
        "COPY PARTIAL",
        "COPY COMPLETE",
        "LINEAGE",
    ] {
        let sql =
            format!("SELECT PROVENANCE ON CONTRIBUTION ({sem}) text FROM messages WHERE mid = 4");
        let r = db
            .query(&sql)
            .unwrap_or_else(|e| panic!("{sem} failed: {e}"));
        assert_eq!(r.row_count(), 1, "{sem}");
        assert_eq!(r.columns.len(), 4, "{sem}");
    }
}

#[test]
fn provenance_composes_with_views_and_storage() {
    // "a user cannot just receive provenance information, but also query
    // provenance information, store it as a view, etc."
    let db = forum_db();
    db.execute("CREATE VIEW msg_prov AS SELECT PROVENANCE mid, text FROM messages")
        .unwrap();
    let r = db
        .query("SELECT count(*) FROM msg_prov WHERE prov_public_messages_uid = 2")
        .unwrap();
    assert_eq!(r.row(0), &[Value::Int(1)]);
}

#[test]
fn provenance_of_provenance_view() {
    // Computing provenance *through* a provenance view rewrites all the
    // way to the base relations.
    let db = forum_db();
    db.execute("CREATE VIEW mp AS SELECT PROVENANCE mid FROM messages")
        .unwrap();
    let r = db.query("SELECT PROVENANCE mid FROM mp").unwrap();
    // The view's own provenance columns are part of its output, and the
    // rewrite adds fresh provenance for the base access underneath.
    assert!(r.columns.iter().filter(|c| c.starts_with("prov_")).count() >= 3);
}

// ----------------------------------------------------------------------
// Error surfaces
// ----------------------------------------------------------------------

#[test]
fn provenance_in_plain_context_errors_helpfully() {
    let db = forum_db();
    let err = db
        .query("SELECT PROVENANCE mid FROM messages LIMIT 1")
        .map(|_| ())
        .err();
    // LIMIT outside the provenance select is applied after the rewrite —
    // this is legal.
    assert!(err.is_none(), "top-level LIMIT after PROVENANCE is fine");

    let err = db
        .query("SELECT PROVENANCE * FROM (SELECT mid FROM messages LIMIT 1) q")
        .unwrap_err();
    assert_eq!(err.kind(), "rewrite");
}

#[test]
fn unknown_contribution_semantics_is_a_parse_error() {
    let db = forum_db();
    let err = db
        .query("SELECT PROVENANCE ON CONTRIBUTION (WHY) mid FROM messages")
        .unwrap_err();
    assert_eq!(err.kind(), "parse");
}

#[test]
fn baserelation_on_base_table_is_allowed() {
    // Redundant but legal: a base table treated as a base relation.
    let db = forum_db();
    let r = db
        .query("SELECT PROVENANCE mid FROM messages BASERELATION")
        .unwrap();
    assert_eq!(
        r.columns,
        vec![
            "mid",
            "prov_public_messages_mid",
            "prov_public_messages_text",
            "prov_public_messages_uid"
        ]
    );
}
