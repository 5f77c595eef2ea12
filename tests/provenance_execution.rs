//! Execution-level provenance correctness on operator shapes not covered
//! by the figure tests: DISTINCT, INTERSECT, nested set operations,
//! outer joins, sublinks, and witness multiplicities.

use perm_core::fixtures::forum_db;
use perm_core::{PermServer, Session, Value};

fn i(v: i64) -> Value {
    Value::Int(v)
}

fn db_ab() -> Session {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE a (x int); CREATE TABLE b (x int);
         INSERT INTO a VALUES (1), (2), (2), (3);
         INSERT INTO b VALUES (2), (3), (3), (4);",
    )
    .unwrap();
    db
}

// ----------------------------------------------------------------------
// DISTINCT
// ----------------------------------------------------------------------

#[test]
fn distinct_provenance_keeps_one_row_per_distinct_witness() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE t (x int, tag text);
         INSERT INTO t VALUES (1, 'a'), (1, 'b'), (2, 'c');",
    )
    .unwrap();
    // DISTINCT x has two result tuples; x=1 has two witnesses with
    // different tags -> two provenance rows for x=1.
    let r = db.query("SELECT PROVENANCE DISTINCT x FROM t").unwrap();
    assert_eq!(r.row_count(), 3);
    let x1_rows: Vec<_> = r.rows.iter().filter(|t| t.get(0) == &i(1)).collect();
    assert_eq!(x1_rows.len(), 2);
    let tags: Vec<&Value> = x1_rows.iter().map(|t| t.get(2)).collect();
    assert_ne!(tags[0], tags[1], "distinct witnesses");
}

#[test]
fn distinct_provenance_dedups_identical_witness_pairs() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE t (x int);
         INSERT INTO t VALUES (1), (1);",
    )
    .unwrap();
    // Two value-identical rows are indistinguishable witnesses in the
    // relational representation: one provenance row remains.
    let r = db.query("SELECT PROVENANCE DISTINCT x FROM t").unwrap();
    assert_eq!(r.row_count(), 1);
}

// ----------------------------------------------------------------------
// INTERSECT / nested set operations
// ----------------------------------------------------------------------

#[test]
fn intersect_provenance_pairs_witnesses_from_both_sides() {
    let db = db_ab();
    let r = db
        .query("SELECT PROVENANCE * FROM (SELECT x FROM a INTERSECT SELECT x FROM b) s")
        .unwrap();
    // Result tuples: {2, 3}. Witness pairs: 2 -> (two a-copies? no: a has
    // 2 twice) x (one b-copy) = 2 rows; 3 -> 1 a-copy x 2 b-copies = 2.
    assert_eq!(r.columns, vec!["x", "prov_public_a_x", "prov_public_b_x"]);
    let rows_for = |v: i64| r.rows.iter().filter(|t| t.get(0) == &i(v)).count();
    assert_eq!(rows_for(2), 2, "2 a-witnesses × 1 b-witness");
    assert_eq!(rows_for(3), 2, "1 a-witness × 2 b-witnesses");
    // Every row's witnesses equal the result value.
    for row in &r.rows {
        assert_eq!(row.get(0), row.get(1));
        assert_eq!(row.get(0), row.get(2));
    }
}

#[test]
fn except_provenance_multiplicity() {
    let db = db_ab();
    let r = db
        .query("SELECT PROVENANCE * FROM (SELECT x FROM a EXCEPT SELECT x FROM b) s")
        .unwrap();
    // a - b = {1}; witnesses: the single a-row with value 1.
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.row(0)[0], i(1));
    assert_eq!(r.row(0)[1], i(1));
    assert!(r.row(0)[2].is_null());
}

#[test]
fn nested_set_operations_rewrite_through() {
    let db = db_ab();
    db.run_script("CREATE TABLE c (x int); INSERT INTO c VALUES (3), (5);")
        .unwrap();
    let r = db
        .query(
            "SELECT PROVENANCE * FROM \
             ((SELECT x FROM a UNION SELECT x FROM b) INTERSECT SELECT x FROM c) s",
        )
        .unwrap();
    // (a ∪ b) ∩ c = {3}. Provenance covers all three relations.
    assert_eq!(
        r.columns,
        vec!["x", "prov_public_a_x", "prov_public_b_x", "prov_public_c_x"]
    );
    assert!(r.rows.iter().all(|t| t.get(0) == &i(3)));
    // Union side: 3 has one a-witness and two b-witnesses (rows 3,3) —
    // after set-union dedup of identical pairs: a:1 + b:1 rows, each
    // paired with c's single 3 -> 2 rows.
    assert_eq!(r.row_count(), 2);
}

#[test]
fn union_all_provenance_keeps_duplicates() {
    let db = db_ab();
    let r = db
        .query("SELECT PROVENANCE * FROM (SELECT x FROM a UNION ALL SELECT x FROM b) s")
        .unwrap();
    assert_eq!(r.row_count(), 8, "4 + 4 rows, one witness each");
}

// ----------------------------------------------------------------------
// Outer joins
// ----------------------------------------------------------------------

#[test]
fn left_join_provenance_pads_unmatched_side() {
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE m.mid FROM messages m \
             LEFT JOIN approved a ON m.mid = a.mid",
        )
        .unwrap();
    // Message 1 has no approvals: its approved provenance is NULL.
    let m1: Vec<_> = r.rows.iter().filter(|t| t.get(0) == &i(1)).collect();
    assert_eq!(m1.len(), 1);
    let uid_col = r.column_index("prov_public_approved_uid").unwrap();
    assert!(m1[0].get(uid_col).is_null());
    // Message 4 has three approvals -> three witness rows, all non-NULL.
    let m4: Vec<_> = r.rows.iter().filter(|t| t.get(0) == &i(4)).collect();
    assert_eq!(m4.len(), 3);
    assert!(m4.iter().all(|t| !t.get(uid_col).is_null()));
}

#[test]
fn full_join_provenance_pads_both_directions() {
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE m.mid, i.mid FROM messages m \
             FULL JOIN imports i ON m.mid = i.mid",
        )
        .unwrap();
    assert_eq!(r.row_count(), 4);
    let mm = r.column_index("prov_public_messages_mid").unwrap();
    let im = r.column_index("prov_public_imports_mid").unwrap();
    for row in &r.rows {
        assert!(
            row.get(mm).is_null() != row.get(im).is_null(),
            "disjoint keys: exactly one side contributes per row"
        );
    }
}

// ----------------------------------------------------------------------
// Sublinks at execution level
// ----------------------------------------------------------------------

#[test]
fn in_sublink_provenance_replicates_per_subquery_witness() {
    let db = forum_db();
    // mid 4 appears 3 times in approved: the IN unnesting replicates the
    // outer tuple once per matching witness.
    let r = db
        .query(
            "SELECT PROVENANCE text FROM messages \
             WHERE mid IN (SELECT mid FROM approved)",
        )
        .unwrap();
    assert_eq!(r.row_count(), 3);
    let uid_col = r.column_index("prov_public_approved_uid").unwrap();
    let mut uids: Vec<&Value> = r.rows.iter().map(|t| t.get(uid_col)).collect();
    uids.sort_by(|a, b| a.sort_cmp(b));
    assert_eq!(uids, vec![&i(1), &i(2), &i(3)]);
}

#[test]
fn exists_sublink_provenance_cross_joins_witnesses() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE t (x int); CREATE TABLE w (y int);
         INSERT INTO t VALUES (1), (2);
         INSERT INTO w VALUES (10), (20), (30);",
    )
    .unwrap();
    let r = db
        .query("SELECT PROVENANCE x FROM t WHERE EXISTS (SELECT 1 FROM w)")
        .unwrap();
    assert_eq!(r.row_count(), 6, "2 outer × 3 subquery witnesses");

    // Empty subquery: filter semantics — no rows, regardless of t.
    db.execute("CREATE TABLE empty_w (y int)").unwrap();
    let r = db
        .query("SELECT PROVENANCE x FROM t WHERE EXISTS (SELECT 1 FROM empty_w)")
        .unwrap();
    assert!(r.is_empty());
}

#[test]
fn not_exists_provenance_keeps_rows_with_null_padding() {
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE mid FROM messages \
             WHERE mid NOT IN (SELECT mid FROM approved)",
        )
        .unwrap();
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.row(0)[0], i(1));
    let pad = r.column_index("prov_public_approved_mid").unwrap();
    assert!(r.row(0)[pad].is_null());
}

// ----------------------------------------------------------------------
// Provenance through ORDER BY
// ----------------------------------------------------------------------

#[test]
fn sort_inside_provenance_subquery_is_preserved_in_rewrite() {
    let db = forum_db();
    // ORDER BY belongs to the enclosing query; the provenance subselect's
    // witnesses must not disturb it.
    let r = db
        .query("SELECT PROVENANCE mid, text FROM messages ORDER BY mid DESC")
        .unwrap();
    assert_eq!(r.row(0)[0], i(4));
    assert_eq!(r.row(1)[0], i(1));
}

// ----------------------------------------------------------------------
// Aggregation corner shapes
// ----------------------------------------------------------------------

#[test]
fn group_by_expression_provenance() {
    // Grouping on an expression: the join-back evaluates the same
    // expression over the rewritten input.
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE t (x int);
         INSERT INTO t VALUES (1), (2), (3), (4);",
    )
    .unwrap();
    let r = db
        .query("SELECT PROVENANCE x % 2 AS parity, count(*) FROM t GROUP BY x % 2")
        .unwrap();
    // Two groups of two; 4 witness rows total.
    assert_eq!(r.row_count(), 4);
    let px = r.column_index("prov_public_t_x").unwrap();
    for row in &r.rows {
        let (parity, witness) = (row.get(0), row.get(px));
        let (Value::Int(p), Value::Int(w)) = (parity, witness) else {
            panic!("unexpected {row:?}");
        };
        assert_eq!(w % 2, *p, "witness belongs to its group");
    }
}

#[test]
fn having_filters_witnesses_with_their_groups() {
    let db = forum_db();
    let r = db
        .query(
            "SELECT PROVENANCE mid, count(*) FROM approved GROUP BY mid \
             HAVING count(*) > 1",
        )
        .unwrap();
    // Only the mid=4 group (3 approvals) survives, with its 3 witnesses.
    assert_eq!(r.row_count(), 3);
    assert!(r.rows.iter().all(|t| t.get(0) == &i(4)));
}

#[test]
fn distinct_aggregate_provenance_keeps_all_witnesses() {
    // count(DISTINCT uid) collapses the aggregate value, but every input
    // row of the group is still a witness under PI-CS.
    let db = forum_db();
    let r = db
        .query("SELECT PROVENANCE mid, count(DISTINCT uid) FROM approved GROUP BY mid")
        .unwrap();
    assert_eq!(r.row_count(), 4, "one row per approved tuple");
}

#[test]
fn min_max_provenance_includes_non_extremal_witnesses() {
    // PI-CS: all tuples of the group influence min/max, not just the
    // extremal one.
    let db = forum_db();
    let r = db
        .query("SELECT PROVENANCE max(uid) FROM approved")
        .unwrap();
    assert_eq!(r.row_count(), 4);
    assert!(r.rows.iter().all(|t| t.get(0) == &i(3)));
}
