//! Contribution-semantics tests: INFLUENCE (PI-CS) vs COPY (Copy-CS /
//! Where-provenance) vs LINEAGE (Cui-Widom), on queries where they differ.

use perm_core::fixtures::forum_db;
use perm_core::{Session, Value};

fn db_with_diff() -> Session {
    // l = {1, 2, 3}, r = {2, 3, 4}: l EXCEPT r = {1}.
    let db = forum_db();
    db.run_script(
        "CREATE TABLE l (x int);
         CREATE TABLE r (x int);
         INSERT INTO l VALUES (1), (2), (3);
         INSERT INTO r VALUES (2), (3), (4);",
    )
    .unwrap();
    db
}

// ----------------------------------------------------------------------
// INFLUENCE vs LINEAGE on set difference
// ----------------------------------------------------------------------

#[test]
fn influence_difference_ignores_right_side() {
    let db = db_with_diff();
    let r = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) * FROM \
             (SELECT x FROM l EXCEPT SELECT x FROM r) d",
        )
        .unwrap();
    assert_eq!(r.row_count(), 1);
    let lcol = r.column_index("prov_public_l_x").unwrap();
    let rcol = r.column_index("prov_public_r_x").unwrap();
    assert_eq!(r.row(0)[lcol], Value::Int(1), "left witness recorded");
    assert!(r.row(0)[rcol].is_null(), "right side contributes nothing");
}

#[test]
fn lineage_difference_reports_whole_right_side() {
    // Cui-Widom: D(t) for t in l - r is ({t's l-witnesses}, r) — the whole
    // right input contributes. One output row per (left witness, right
    // tuple) pair.
    let db = db_with_diff();
    let r = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (LINEAGE) * FROM \
             (SELECT x FROM l EXCEPT SELECT x FROM r) d",
        )
        .unwrap();
    assert_eq!(r.row_count(), 3, "one row per tuple of r");
    let rcol = r.column_index("prov_public_r_x").unwrap();
    let mut right_witnesses: Vec<i64> = r
        .rows
        .iter()
        .map(|t| match t.get(rcol) {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    right_witnesses.sort_unstable();
    assert_eq!(right_witnesses, vec![2, 3, 4]);
}

#[test]
fn lineage_difference_with_empty_right_side() {
    let db = forum_db();
    db.run_script(
        "CREATE TABLE l2 (x int);
         CREATE TABLE r2 (x int);
         INSERT INTO l2 VALUES (7);",
    )
    .unwrap();
    let r = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (LINEAGE) * FROM \
             (SELECT x FROM l2 EXCEPT SELECT x FROM r2) d",
        )
        .unwrap();
    // Left-outer semantics: the result row survives with NULL right
    // provenance.
    assert_eq!(r.row_count(), 1);
    let rcol = r.column_index("prov_public_r2_x").unwrap();
    assert!(r.row(0)[rcol].is_null());
}

// ----------------------------------------------------------------------
// COPY (Where-provenance)
// ----------------------------------------------------------------------

#[test]
fn copy_partial_keeps_only_copied_attributes() {
    let db = forum_db();
    // Only `text` is copied into the result; under COPY the mid/uid
    // provenance attributes are NULL.
    let r = db
        .query("SELECT PROVENANCE ON CONTRIBUTION (COPY) text FROM messages WHERE mid = 4")
        .unwrap();
    let tcol = r.column_index("prov_public_messages_text").unwrap();
    let mcol = r.column_index("prov_public_messages_mid").unwrap();
    let ucol = r.column_index("prov_public_messages_uid").unwrap();
    assert_eq!(r.row(0)[tcol], Value::text("hi there ..."));
    assert!(r.row(0)[mcol].is_null());
    assert!(r.row(0)[ucol].is_null());
}

#[test]
fn influence_keeps_all_attributes_where_copy_does_not() {
    let db = forum_db();
    let r = db
        .query("SELECT PROVENANCE text FROM messages WHERE mid = 4")
        .unwrap();
    let mcol = r.column_index("prov_public_messages_mid").unwrap();
    assert_eq!(
        r.row(0)[mcol],
        Value::Int(4),
        "influence keeps non-copied attrs"
    );
}

#[test]
fn copy_sees_through_computed_columns() {
    let db = forum_db();
    // `mid + 0` is a computation, not a copy: nothing is copied from
    // messages, so all provenance attributes are NULL under COPY.
    let r = db
        .query("SELECT PROVENANCE ON CONTRIBUTION (COPY) mid + 0 AS m FROM messages WHERE mid = 4")
        .unwrap();
    for c in [
        "prov_public_messages_mid",
        "prov_public_messages_text",
        "prov_public_messages_uid",
    ] {
        let i = r.column_index(c).unwrap();
        assert!(r.row(0)[i].is_null(), "{c} must be NULL under COPY");
    }
}

#[test]
fn copy_complete_requires_every_attribute() {
    let db = forum_db();
    // approved has two columns; selecting both copies the whole tuple.
    let complete = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) uid, mid \
             FROM approved WHERE mid = 2",
        )
        .unwrap();
    let ucol = complete.column_index("prov_public_approved_uid").unwrap();
    assert_eq!(complete.row(0)[ucol], Value::Int(2));

    // Selecting only one column: COMPLETE nulls the whole relation,
    // PARTIAL keeps the copied attribute.
    let partial = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) uid \
             FROM approved WHERE mid = 2",
        )
        .unwrap();
    let ucol = partial.column_index("prov_public_approved_uid").unwrap();
    let mcol = partial.column_index("prov_public_approved_mid").unwrap();
    assert_eq!(partial.row(0)[ucol], Value::Int(2));
    assert!(partial.row(0)[mcol].is_null());

    let complete = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) uid \
             FROM approved WHERE mid = 2",
        )
        .unwrap();
    let ucol = complete.column_index("prov_public_approved_uid").unwrap();
    assert!(complete.row(0)[ucol].is_null());
}

#[test]
fn copy_through_case_is_a_static_union() {
    let db = forum_db();
    // CASE copies from `text` in one branch; the static copy map keeps
    // text's provenance for all rows (documented approximation).
    let r = db
        .query(
            "SELECT PROVENANCE ON CONTRIBUTION (COPY) \
             CASE WHEN mid > 2 THEN text ELSE 'fixed' END AS c \
             FROM messages",
        )
        .unwrap();
    let tcol = r.column_index("prov_public_messages_text").unwrap();
    assert!(r.rows.iter().any(|row| !row.get(tcol).is_null()));
}

// ----------------------------------------------------------------------
// Same query, all three semantics: join + aggregation agreement
// ----------------------------------------------------------------------

#[test]
fn all_semantics_agree_on_original_columns() {
    let db = forum_db();
    let mut counts = Vec::new();
    for sem in ["INFLUENCE", "COPY", "LINEAGE"] {
        let r = db
            .query(&format!(
                "SELECT PROVENANCE ON CONTRIBUTION ({sem}) count(*), text \
                 FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId"
            ))
            .unwrap();
        // The original result columns are identical across semantics.
        let mut originals: Vec<(Value, Value)> = r
            .rows
            .iter()
            .map(|t| (t.get(0).clone(), t.get(1).clone()))
            .collect();
        originals.sort_by(|a, b| a.1.sort_cmp(&b.1).then(a.0.sort_cmp(&b.0)));
        originals.dedup();
        counts.push(originals);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}
