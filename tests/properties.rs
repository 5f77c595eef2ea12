//! Property-based tests of the provenance rewrite invariants.
//!
//! The properties pin the *semantic contract* of PI-CS provenance on
//! randomly generated databases:
//!
//! 1. projecting a provenance result onto the original attributes yields
//!    exactly the original query's result (as a set);
//! 2. every witness recorded for a selection satisfies the selection
//!    predicate;
//! 3. the aggregation rewrite records exactly `count(*)` witnesses per
//!    group;
//! 4. union provenance rows carry exactly one non-NULL witness side;
//! 5. `COPY` provenance is a NULL-masked version of `INFLUENCE`
//!    provenance.

use std::collections::HashSet;

use proptest::prelude::*;

use perm_core::{PermServer, Session, Value};

/// Build a database with tables `t(a, b)` and `u(a)` from generated rows.
fn db_from(t_rows: &[(i64, i64)], u_rows: &[i64]) -> Session {
    let db = PermServer::new().session();
    db.run_script("CREATE TABLE t (a int, b int); CREATE TABLE u (a int);")
        .unwrap();
    for (a, b) in t_rows {
        db.execute(&format!("INSERT INTO t VALUES ({a}, {b})"))
            .unwrap();
    }
    for a in u_rows {
        db.execute(&format!("INSERT INTO u VALUES ({a})")).unwrap();
    }
    db
}

fn value_set(rows: &[perm_core::Tuple], cols: std::ops::Range<usize>) -> HashSet<Vec<Value>> {
    rows.iter()
        .map(|t| cols.clone().map(|i| t.get(i).clone()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1 + 2: filters.
    #[test]
    fn filter_provenance_is_sound_and_complete(
        rows in prop::collection::vec((-20i64..20, -20i64..20), 0..40),
        threshold in -25i64..25,
    ) {
        let db = db_from(&rows, &[]);
        let original = db
            .query(&format!("SELECT a, b FROM t WHERE a > {threshold}"))
            .unwrap();
        let prov = db
            .query(&format!("SELECT PROVENANCE a, b FROM t WHERE a > {threshold}"))
            .unwrap();

        // Same cardinality (a base-table filter neither replicates nor
        // drops) and identical original part.
        prop_assert_eq!(original.row_count(), prov.row_count());
        prop_assert_eq!(
            value_set(&original.rows, 0..2),
            value_set(&prov.rows, 0..2)
        );

        // Every witness satisfies the predicate and equals its result row
        // (identity projection).
        for r in &prov.rows {
            let (a, pa, pb) = (r.get(0), r.get(2), r.get(3));
            prop_assert_eq!(a, pa);
            prop_assert_eq!(r.get(1), pb);
            match pa {
                Value::Int(v) => prop_assert!(*v > threshold),
                other => prop_assert!(false, "unexpected witness {:?}", other),
            }
        }
    }

    /// Property 3: aggregation witnesses.
    #[test]
    fn aggregation_records_one_witness_per_input_row(
        rows in prop::collection::vec((-5i64..5, -20i64..20), 0..40),
    ) {
        let db = db_from(&rows, &[]);
        let prov = db
            .query("SELECT PROVENANCE a, count(*) FROM t GROUP BY a")
            .unwrap();
        // Each input row is a witness of exactly its own group: the number
        // of provenance rows for group g equals g's count(*).
        let mut per_group: std::collections::HashMap<Value, (i64, i64)> =
            std::collections::HashMap::new();
        for r in &prov.rows {
            let g = r.get(0).clone();
            let count = match r.get(1) {
                Value::Int(c) => *c,
                other => panic!("count is {other:?}"),
            };
            let e = per_group.entry(g).or_insert((count, 0));
            prop_assert_eq!(e.0, count, "count consistent within group");
            e.1 += 1;
        }
        for (g, (count, witnesses)) in per_group {
            prop_assert_eq!(
                count, witnesses,
                "group {:?}: count(*) = {} but {} witness rows", g, count, witnesses
            );
        }
        // Total witness rows == total input rows (every row contributes to
        // exactly one group).
        prop_assert_eq!(prov.row_count(), rows.len());
    }

    /// Property 1 for aggregation: original result preserved.
    #[test]
    fn aggregation_provenance_preserves_original_result(
        rows in prop::collection::vec((-5i64..5, -20i64..20), 1..40),
    ) {
        let db = db_from(&rows, &[]);
        let original = db.query("SELECT a, count(*) FROM t GROUP BY a").unwrap();
        let prov = db
            .query("SELECT PROVENANCE a, count(*) FROM t GROUP BY a")
            .unwrap();
        prop_assert_eq!(
            value_set(&original.rows, 0..2),
            value_set(&prov.rows, 0..2)
        );
    }

    /// Property 4: union witness sides are exclusive.
    #[test]
    fn union_provenance_has_exactly_one_witness_side(
        t_rows in prop::collection::vec((-10i64..10, 0i64..2), 0..25),
        u_rows in prop::collection::vec(-10i64..10, 0..25),
    ) {
        let db = db_from(&t_rows, &u_rows);
        let prov = db
            .query(
                "SELECT PROVENANCE * FROM \
                 (SELECT a FROM t UNION SELECT a FROM u) un",
            )
            .unwrap();
        // Columns: a, prov_t_a, prov_t_b, prov_u_a.
        prop_assert_eq!(prov.columns.len(), 4);
        for r in &prov.rows {
            let t_side = !r.get(1).is_null();
            let u_side = !r.get(3).is_null();
            prop_assert!(
                t_side != u_side,
                "exactly one branch contributes per witness row: {:?}", r
            );
            // The witness value matches the result value.
            let w = if t_side { r.get(1) } else { r.get(3) };
            prop_assert_eq!(r.get(0), w);
        }
        // Set-level completeness: original result = distinct originals.
        let original = db
            .query("SELECT a FROM t UNION SELECT a FROM u")
            .unwrap();
        prop_assert_eq!(
            value_set(&original.rows, 0..1),
            value_set(&prov.rows, 0..1)
        );
    }

    /// Property 5: COPY is a NULL-mask of INFLUENCE.
    #[test]
    fn copy_is_a_mask_of_influence(
        rows in prop::collection::vec((-10i64..10, -10i64..10), 0..25),
    ) {
        let db = db_from(&rows, &[]);
        let influence = db
            .query("SELECT PROVENANCE a FROM t")
            .unwrap();
        let copy = db
            .query("SELECT PROVENANCE ON CONTRIBUTION (COPY) a FROM t")
            .unwrap();
        prop_assert_eq!(influence.row_count(), copy.row_count());
        prop_assert_eq!(&influence.columns, &copy.columns);
        // Row order is deterministic (same plan shape modulo the final
        // NULL-mask projection), so compare pairwise.
        for (i, c) in influence.rows.iter().zip(&copy.rows) {
            for (vi, vc) in i.values().iter().zip(c.values()) {
                prop_assert!(
                    vc.is_null() || vc == vi,
                    "copy value {:?} must be NULL or equal influence value {:?}", vc, vi
                );
            }
        }
    }

    /// The rewritten SQL (browser marker 2) re-executes to the same result
    /// for random filters.
    #[test]
    fn deparsed_provenance_sql_is_equivalent(
        rows in prop::collection::vec((-10i64..10, -10i64..10), 0..20),
        threshold in -12i64..12,
    ) {
        let db = db_from(&rows, &[]);
        let sql = format!("SELECT PROVENANCE a, b FROM t WHERE b <= {threshold}");
        let panels = perm_core::BrowserPanels::capture(&db, &sql).unwrap();
        let re_run = db.query(&panels.rewritten_sql).unwrap();
        prop_assert_eq!(
            value_set(&panels.results.rows, 0..4),
            value_set(&re_run.rows, 0..4)
        );
    }
}
