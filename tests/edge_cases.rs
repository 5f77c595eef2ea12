//! Edge cases and failure injection: empty inputs, NULL-heavy data, deep
//! nesting, degenerate provenance queries, and error paths that must stay
//! clean errors rather than panics.

use perm_core::fixtures::forum_db;
use perm_core::{PermServer, Tuple, Value};

// ----------------------------------------------------------------------
// Empty inputs
// ----------------------------------------------------------------------

#[test]
fn provenance_of_empty_table() {
    let db = PermServer::new().session();
    db.execute("CREATE TABLE empty (x int, y text)").unwrap();
    let r = db.query("SELECT PROVENANCE x, y FROM empty").unwrap();
    assert_eq!(r.columns.len(), 4);
    assert!(r.is_empty());
}

#[test]
fn provenance_of_global_aggregate_over_empty_table() {
    // count(*) over empty input yields one row with zero; the outer
    // join-back pads its provenance with NULLs.
    let db = PermServer::new().session();
    db.execute("CREATE TABLE empty (x int)").unwrap();
    let r = db.query("SELECT PROVENANCE count(*) FROM empty").unwrap();
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.row(0)[0], Value::Int(0));
    assert!(r.row(0)[1].is_null(), "no witnesses for the empty input");
}

#[test]
fn provenance_of_constant_query_has_no_attributes() {
    // A query touching no base relation has an empty provenance attribute
    // list P — the result is just the original result.
    let db = forum_db();
    let r = db.query("SELECT PROVENANCE 1 + 1 AS two").unwrap();
    assert_eq!(r.columns, vec!["two"]);
    assert_eq!(r.row(0), &[Value::Int(2)]);
}

#[test]
fn empty_union_branches() {
    let db = PermServer::new().session();
    db.run_script("CREATE TABLE a (x int); CREATE TABLE b (x int);")
        .unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    let r = db
        .query("SELECT PROVENANCE * FROM (SELECT x FROM a UNION SELECT x FROM b) u")
        .unwrap();
    assert_eq!(r.row_count(), 1);
    // b's provenance attribute exists but is NULL.
    assert!(r.row(0)[2].is_null());
}

// ----------------------------------------------------------------------
// NULL-heavy data
// ----------------------------------------------------------------------

#[test]
fn group_by_null_groups_get_provenance_via_null_safe_join() {
    // The join-back uses IS NOT DISTINCT FROM precisely so NULL groups
    // find their witnesses.
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE t (k int, v int);
         INSERT INTO t VALUES (NULL, 1), (NULL, 2), (7, 3);",
    )
    .unwrap();
    let r = db
        .query("SELECT PROVENANCE k, count(*) FROM t GROUP BY k")
        .unwrap();
    // NULL group: 2 witnesses; group 7: 1 witness.
    let null_rows: Vec<_> = r.rows.iter().filter(|t| t.get(0).is_null()).collect();
    assert_eq!(null_rows.len(), 2);
    for row in null_rows {
        assert_eq!(row.get(1), &Value::Int(2), "count of the NULL group");
        assert!(row.get(2).is_null(), "witness k is NULL");
        assert!(!row.get(3).is_null(), "witness v is a real value");
    }
}

#[test]
fn all_null_rows_roundtrip_through_provenance() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE n (a int, b text);
         INSERT INTO n VALUES (NULL, NULL), (NULL, NULL);",
    )
    .unwrap();
    let r = db.query("SELECT PROVENANCE a, b FROM n").unwrap();
    assert_eq!(r.row_count(), 2);
    assert!(r.rows.iter().all(|t| t.iter().all(Value::is_null)));
}

#[test]
fn union_distinct_collapses_null_tuples() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE a (x int); CREATE TABLE b (x int);
         INSERT INTO a VALUES (NULL); INSERT INTO b VALUES (NULL);",
    )
    .unwrap();
    let r = db.query("SELECT x FROM a UNION SELECT x FROM b").unwrap();
    assert_eq!(r.row_count(), 1, "SQL set ops treat NULLs as equal");
}

// ----------------------------------------------------------------------
// Deep nesting
// ----------------------------------------------------------------------

#[test]
fn deeply_nested_views_unfold() {
    let db = PermServer::new().session();
    db.execute("CREATE TABLE base (x int)").unwrap();
    db.execute("INSERT INTO base VALUES (1), (2)").unwrap();
    db.execute("CREATE VIEW v0 AS SELECT x FROM base").unwrap();
    for i in 1..20 {
        db.execute(&format!("CREATE VIEW v{i} AS SELECT x FROM v{}", i - 1))
            .unwrap();
    }
    let r = db.query("SELECT PROVENANCE x FROM v19").unwrap();
    assert_eq!(r.columns, vec!["x", "prov_public_base_x"]);
    assert_eq!(r.row_count(), 2);
}

#[test]
fn deeply_nested_subqueries() {
    let db = forum_db();
    let mut sql = "SELECT mid FROM messages".to_string();
    for i in 0..15 {
        sql = format!("SELECT mid FROM ({sql}) s{i}");
    }
    let r = db.query(&sql).unwrap();
    assert_eq!(r.row_count(), 2);
}

#[test]
fn provenance_inside_provenance_inside_sql() {
    // Nested SELECT PROVENANCE at two levels.
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE * FROM \
             (SELECT PROVENANCE mid FROM messages) inner_p BASERELATION",
        )
        .unwrap();
    // The inner rewrite adds 3 prov attrs; the outer, stopped by
    // BASERELATION, duplicates inner_p's 4 columns.
    assert_eq!(r.columns.len(), 8);
    assert!(r.columns[4].starts_with("prov_public_inner_p_"));
}

// ----------------------------------------------------------------------
// Degenerate / hostile inputs stay clean errors
// ----------------------------------------------------------------------

#[test]
fn hostile_inputs_error_cleanly() {
    let db = forum_db();
    for sql in [
        "",                                                // empty
        ";;;",                                             // just separators (script-only)
        "SELECT",                                          // truncated
        "SELECT * FROM",                                   // truncated FROM
        "SELECT * FROM messages WHERE",                    // truncated WHERE
        "SELECT * FROM messages GROUP BY",                 // truncated GROUP BY
        "SELECT (((((",                                    // unbalanced
        "INSERT INTO messages VALUES",                     // truncated VALUES
        "CREATE TABLE",                                    // truncated DDL
        "SELECT 'unterminated",                            // bad string literal
        "SELECT 9999999999999999999999999",                // overflowing int
        "SELECT * FROM messages ORDER BY 99",              // bad position
        "SELECT count(*) FROM messages GROUP BY count(*)", // agg in GROUP BY
    ] {
        let result = db.execute(sql);
        assert!(result.is_err(), "{sql:?} should fail cleanly");
    }
    // Session still healthy.
    assert_eq!(db.query("SELECT 1").unwrap().row(0), &[Value::Int(1)]);
}

#[test]
fn self_referencing_view_is_impossible_to_create() {
    let db = PermServer::new().session();
    // The definition is validated at CREATE VIEW time, when `v` does not
    // exist yet.
    let err = db.execute("CREATE VIEW v AS SELECT x FROM v").unwrap_err();
    assert_eq!(err.kind(), "analysis");
}

#[test]
fn limit_zero_and_large_offset() {
    let db = forum_db();
    assert!(db
        .query("SELECT mid FROM messages LIMIT 0")
        .unwrap()
        .is_empty());
    assert!(db
        .query("SELECT mid FROM messages OFFSET 100")
        .unwrap()
        .is_empty());
}

#[test]
fn limit_stops_before_a_row_error_whether_materialized_or_streamed() {
    // `messages` holds mid 1, then mid 4: the second row divides by zero,
    // but `LIMIT 1` never reaches it, in either consumer.
    let db = forum_db();
    for sql in [
        "SELECT 10 / (mid - 4) FROM messages LIMIT 1",
        "SELECT PROVENANCE 10 / (mid - 4) FROM messages LIMIT 1",
    ] {
        let materialized = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let streamed: Vec<Tuple> = db
            .query_stream(sql)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("{sql} streamed: {e}"));
        assert_eq!(materialized.row_count(), 1, "{sql}");
        assert_eq!(materialized.row(0)[0], Value::Int(-3), "{sql}");
        assert_eq!(materialized.rows, streamed, "{sql}");
    }
}

#[test]
fn duplicate_output_names_are_allowed() {
    // SQL permits duplicate output column names; they become ambiguous
    // only when referenced from an enclosing query.
    let db = forum_db();
    let r = db.query("SELECT mid, mid FROM messages").unwrap();
    assert_eq!(r.columns, vec!["mid", "mid"]);
    let err = db
        .query("SELECT mid FROM (SELECT mid, mid FROM messages) d")
        .unwrap_err();
    assert!(err.message().contains("ambiguous"));
}

#[test]
fn wide_provenance_schema_from_many_joins() {
    // Six-way self-join: 3 original + 6 relations × 3 attrs = 21 columns.
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE m1.mid, m1.text, m1.uid FROM messages m1 \
             JOIN messages m2 ON m1.mid = m2.mid \
             JOIN messages m3 ON m2.mid = m3.mid \
             JOIN messages m4 ON m3.mid = m4.mid \
             JOIN messages m5 ON m4.mid = m5.mid \
             JOIN messages m6 ON m5.mid = m6.mid",
        )
        .unwrap();
    assert_eq!(r.columns.len(), 3 + 6 * 3);
    assert_eq!(r.row_count(), 2);
    // All six provenance groups carry the same witness values per row.
    let mids: Vec<usize> = r
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| *c == "prov_public_messages_mid")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(mids.len(), 6);
    for row in &r.rows {
        let first = row.get(mids[0]);
        assert!(mids.iter().all(|&i| row.get(i) == first));
    }
}

#[test]
fn type_errors_are_analysis_time_not_runtime() {
    let db = forum_db();
    for sql in [
        "SELECT mid + text FROM messages",
        "SELECT * FROM messages WHERE text",
        "SELECT upper(mid) FROM messages",
        "SELECT mid FROM messages WHERE mid LIKE 'x%'",
        "SELECT sum(text) FROM messages",
    ] {
        let err = db.query(sql).unwrap_err();
        assert_eq!(err.kind(), "analysis", "{sql:?} -> {err}");
    }
}

#[test]
fn insert_type_and_null_violations() {
    let db = PermServer::new().session();
    db.execute("CREATE TABLE t (a int NOT NULL, b int)")
        .unwrap();
    assert!(db.execute("INSERT INTO t VALUES (NULL, 1)").is_err());
    assert!(db.execute("INSERT INTO t VALUES ('abc', 1)").is_err());
    assert!(db.execute("INSERT INTO t (a) VALUES (1, 2)").is_err());
    db.execute("INSERT INTO t (b, a) VALUES (NULL, 5)").unwrap();
    assert_eq!(
        db.query("SELECT a, b FROM t").unwrap().row(0),
        &[Value::Int(5), Value::Null]
    );
}

#[test]
fn identifier_case_and_quoting_behaviour() {
    let db = PermServer::new().session();
    db.execute("CREATE TABLE MixedCase (SomeCol int)").unwrap();
    // Unquoted identifiers fold to lower case everywhere.
    db.execute("INSERT INTO mixedcase VALUES (1)").unwrap();
    let r = db.query("SELECT SOMECOL FROM MIXEDCASE").unwrap();
    assert_eq!(r.columns, vec!["somecol"]);
}

#[test]
fn text_values_with_quotes_and_unicode() {
    let db = PermServer::new().session();
    db.execute("CREATE TABLE t (s text)").unwrap();
    db.execute("INSERT INTO t VALUES ('it''s'), ('naïve — ☃')")
        .unwrap();
    let r = db
        .query("SELECT PROVENANCE s FROM t WHERE s LIKE '%☃'")
        .unwrap();
    assert_eq!(r.row(0)[0], Value::text("naïve — ☃"));
    // The deparsed rewritten SQL survives the quotes too.
    let p = perm_core::BrowserPanels::capture(&db, "SELECT PROVENANCE s FROM t WHERE s = 'it''s'")
        .unwrap();
    let re = db.query(&p.rewritten_sql).unwrap();
    assert_eq!(re.rows, p.results.rows);
}
