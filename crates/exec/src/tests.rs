//! End-to-end execution tests: SQL → bind → optimize → execute over the
//! paper's Figure 1 forum database (without provenance — that layer is
//! exercised in `perm-core`).

use perm_algebra::{bind_statement, BoundStatement};
use perm_sql::parse_statement;
use perm_storage::{Catalog, Table};
use perm_types::{Column, DataType, Result, Schema, Tuple, Value};

use std::sync::Arc;

use crate::{optimize, CatalogAdapter, Executor, PhysicalPlanner};

fn i(v: i64) -> Value {
    Value::Int(v)
}
fn t(s: &str) -> Value {
    Value::text(s)
}
const NULL: Value = Value::Null;

/// An executor over a snapshot of `cat` (tests mutate catalogs in place,
/// so each execution snapshots explicitly).
fn executor(cat: &Catalog) -> Executor {
    Executor::new(Arc::new(cat.clone()))
}

/// Lower `plan` on `cat` with the default planner settings and run it.
fn run_plan(cat: &Catalog, plan: &perm_algebra::LogicalPlan) -> Result<Vec<Tuple>> {
    executor(cat).run_physical(&PhysicalPlanner::new(cat).plan(plan))
}

/// The nested-loop reference: `plan` lowered with every join a nested
/// loop, then run.
fn run_nlj(cat: &Catalog, plan: &perm_algebra::LogicalPlan) -> Result<Vec<Tuple>> {
    executor(cat).run_physical(&PhysicalPlanner::new(cat).nested_loop_only(true).plan(plan))
}

/// The Figure 1 example database, rows verbatim from the paper.
fn forum_catalog() -> Catalog {
    let mut cat = Catalog::new();

    let mut messages = Table::new(
        "messages",
        Schema::new(vec![
            Column::new("mid", DataType::Int).not_null(),
            Column::new("text", DataType::Text),
            Column::new("uid", DataType::Int),
        ]),
    );
    messages
        .insert_all([
            Tuple::new(vec![i(1), t("lorem ipsum ..."), i(3)]),
            Tuple::new(vec![i(4), t("hi there ..."), i(2)]),
        ])
        .unwrap();
    cat.create_table(messages).unwrap();

    let mut users = Table::new(
        "users",
        Schema::new(vec![
            Column::new("uid", DataType::Int).not_null(),
            Column::new("name", DataType::Text),
        ]),
    );
    users
        .insert_all([
            Tuple::new(vec![i(1), t("Bert")]),
            Tuple::new(vec![i(2), t("Gert")]),
            Tuple::new(vec![i(3), t("Gertrud")]),
        ])
        .unwrap();
    cat.create_table(users).unwrap();

    let mut imports = Table::new(
        "imports",
        Schema::new(vec![
            Column::new("mid", DataType::Int).not_null(),
            Column::new("text", DataType::Text),
            Column::new("origin", DataType::Text),
        ]),
    );
    imports
        .insert_all([
            Tuple::new(vec![i(2), t("hello ..."), t("superForum")]),
            Tuple::new(vec![i(3), t("I don't ..."), t("HiBoard")]),
        ])
        .unwrap();
    cat.create_table(imports).unwrap();

    let mut approved = Table::new(
        "approved",
        Schema::new(vec![
            Column::new("uid", DataType::Int).not_null(),
            Column::new("mid", DataType::Int).not_null(),
        ]),
    );
    approved
        .insert_all([
            Tuple::new(vec![i(2), i(2)]),
            Tuple::new(vec![i(1), i(4)]),
            Tuple::new(vec![i(2), i(4)]),
            Tuple::new(vec![i(3), i(4)]),
        ])
        .unwrap();
    cat.create_table(approved).unwrap();

    // q2: CREATE VIEW v1 AS q1.
    let q1 =
        match parse_statement("SELECT mid, text FROM messages UNION SELECT mid, text FROM imports")
            .unwrap()
        {
            perm_sql::Statement::Query(q) => q,
            _ => unreachable!(),
        };
    cat.create_view("v1", q1).unwrap();

    cat
}

fn run_on(cat: &Catalog, sql: &str) -> Result<Vec<Tuple>> {
    let stmt = parse_statement(sql)?;
    let adapter = CatalogAdapter(cat);
    let plan = match bind_statement(&stmt, &adapter, None)? {
        BoundStatement::Query(p) => p,
        other => panic!("expected query, got {other:?}"),
    };
    let plan = optimize(plan);
    run_plan(cat, &plan)
}

fn run(sql: &str) -> Vec<Tuple> {
    let cat = forum_catalog();
    run_on(&cat, sql).unwrap_or_else(|e| panic!("execution of {sql:?} failed: {e}"))
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let o = x.sort_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

// ----------------------------------------------------------------------
// Scans, filters, projections
// ----------------------------------------------------------------------

#[test]
fn scan_returns_all_rows() {
    assert_eq!(run("SELECT * FROM users").len(), 3);
}

#[test]
fn filter_and_project() {
    let rows = run("SELECT name FROM users WHERE uid >= 2 ORDER BY name");
    assert_eq!(
        rows,
        vec![Tuple::new(vec![t("Gert")]), Tuple::new(vec![t("Gertrud")]),]
    );
}

#[test]
fn expressions_in_select_list() {
    let rows = run("SELECT uid * 10 + 1 FROM users WHERE name = 'Bert'");
    assert_eq!(rows, vec![Tuple::new(vec![i(11)])]);
}

#[test]
fn three_valued_logic_filters_out_unknown() {
    // messages.uid vs NULL comparison yields unknown -> row dropped.
    let rows = run("SELECT mid FROM messages WHERE uid > NULL");
    assert!(rows.is_empty());
}

#[test]
fn is_null_and_coalesce() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE n (x int)");
    run_stmt(&mut cat, "INSERT INTO n VALUES (1), (NULL)");
    let rows = run_on(&cat, "SELECT coalesce(x, -1) FROM n WHERE x IS NULL").unwrap();
    assert_eq!(rows, vec![Tuple::new(vec![i(-1)])]);
}

/// Helper: apply a DDL/DML statement to the catalog (mirrors what the core
/// crate's write path does; kept local so exec tests stay self-contained).
fn run_stmt(cat: &mut Catalog, sql: &str) {
    let stmt = parse_statement(sql).unwrap();
    let adapter = CatalogAdapter(cat);
    let bound = bind_statement(&stmt, &adapter, None).unwrap();
    match bound {
        BoundStatement::CreateTable { name, schema } => {
            cat.create_table(Table::new(name, schema)).unwrap();
        }
        BoundStatement::Insert { table, rows } => {
            let exec_rows: Vec<Tuple> = {
                let executor = executor(cat);
                rows.iter()
                    .map(|row| {
                        let empty = Tuple::empty();
                        let env = crate::eval::Env::new(&empty, &[]);
                        Tuple::new(
                            row.iter()
                                .map(|e| crate::eval::eval(&executor, e, &env).unwrap())
                                .collect(),
                        )
                    })
                    .collect()
            };
            let table = cat.table_mut(&table).unwrap();
            table.insert_all(exec_rows).unwrap();
        }
        other => panic!("unsupported in run_stmt: {other:?}"),
    }
}

#[test]
fn case_expressions_execute() {
    let rows =
        run("SELECT name, CASE WHEN uid < 2 THEN 'low' ELSE 'high' END FROM users ORDER BY uid");
    assert_eq!(rows[0], Tuple::new(vec![t("Bert"), t("low")]));
    assert_eq!(rows[2], Tuple::new(vec![t("Gertrud"), t("high")]));
}

#[test]
fn scalar_functions_execute() {
    let rows = run("SELECT upper(name), length(name) FROM users WHERE uid = 1");
    assert_eq!(rows, vec![Tuple::new(vec![t("BERT"), i(4)])]);
}

#[test]
fn like_and_concat() {
    let rows = run("SELECT origin || '!' FROM imports WHERE origin LIKE 'super%'");
    assert_eq!(rows, vec![Tuple::new(vec![t("superForum!")])]);
}

#[test]
fn division_by_zero_is_an_execution_error() {
    let cat = forum_catalog();
    let err = run_on(&cat, "SELECT 1 / 0").unwrap_err();
    assert_eq!(err.kind(), "value");
}

// ----------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------

#[test]
fn inner_join_hash_path() {
    let rows = run(
        "SELECT u.name, a.mid FROM users u JOIN approved a ON u.uid = a.uid \
         ORDER BY a.mid, u.name",
    );
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0], Tuple::new(vec![t("Gert"), i(2)]));
}

#[test]
fn left_join_pads_nulls() {
    let rows = run(
        "SELECT m.mid, a.uid FROM messages m LEFT JOIN approved a ON m.mid = a.mid \
         ORDER BY m.mid, a.uid",
    );
    // mid 1 has no approvals -> one padded row; mid 4 has three.
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0], Tuple::new(vec![i(1), NULL]));
    assert_eq!(rows[1], Tuple::new(vec![i(4), i(1)]));
}

#[test]
fn right_join_works_via_normalization() {
    let rows = run(
        "SELECT m.mid, a.uid, a.mid FROM approved a RIGHT JOIN messages m ON m.mid = a.mid \
         ORDER BY m.mid, a.uid",
    );
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[0], Tuple::new(vec![i(1), NULL, NULL]));
}

#[test]
fn full_join_pads_both_sides() {
    let rows = run("SELECT m.mid, i.mid FROM messages m FULL JOIN imports i ON m.mid = i.mid");
    // No overlap between {1,4} and {2,3}: 4 rows, all half-padded.
    assert_eq!(rows.len(), 4);
    assert!(rows
        .iter()
        .all(|r| r.get(0).is_null() != r.get(1).is_null()));
}

#[test]
fn non_equi_join_uses_nested_loop() {
    let rows = run("SELECT u1.uid, u2.uid FROM users u1 JOIN users u2 ON u1.uid < u2.uid");
    assert_eq!(rows.len(), 3); // (1,2) (1,3) (2,3)
}

#[test]
fn null_keys_do_not_match_under_plain_equality() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE l (x int)");
    run_stmt(&mut cat, "CREATE TABLE r (x int)");
    run_stmt(&mut cat, "INSERT INTO l VALUES (NULL), (1)");
    run_stmt(&mut cat, "INSERT INTO r VALUES (NULL), (1)");
    let rows = run_on(&cat, "SELECT * FROM l JOIN r ON l.x = r.x").unwrap();
    assert_eq!(rows.len(), 1, "only the 1=1 pair matches");
    // NULL-safe comparison *does* match the NULL pair.
    let rows = run_on(
        &cat,
        "SELECT * FROM l JOIN r ON l.x IS NOT DISTINCT FROM r.x",
    )
    .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn cross_join_cardinality() {
    let rows = run("SELECT * FROM users, imports");
    assert_eq!(rows.len(), 6);
}

// ----------------------------------------------------------------------
// Aggregation
// ----------------------------------------------------------------------

#[test]
fn q3_of_the_paper() {
    // q3: text of each message with the number of approving users.
    let rows = run(
        "SELECT count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) \
         GROUP BY v1.mId, text ORDER BY 2",
    );
    assert_eq!(
        rows,
        vec![
            Tuple::new(vec![i(1), t("hello ...")]),
            Tuple::new(vec![i(3), t("hi there ...")]),
        ]
    );
}

#[test]
fn aggregate_functions() {
    let rows =
        run("SELECT count(*), count(uid), sum(uid), min(uid), max(uid), avg(uid) FROM approved");
    assert_eq!(
        rows,
        vec![Tuple::new(vec![
            i(4),
            i(4),
            i(8),
            i(1),
            i(3),
            Value::Float(2.0)
        ])]
    );
}

#[test]
fn count_skips_nulls_but_count_star_does_not() {
    let rows = run("SELECT count(*), count(a.uid) FROM messages LEFT JOIN approved a ON messages.mid = a.mid AND a.uid > 99");
    // LEFT JOIN pads a.uid with NULL for both messages.
    assert_eq!(rows, vec![Tuple::new(vec![i(2), i(0)])]);
}

#[test]
fn distinct_aggregate() {
    let rows = run("SELECT count(DISTINCT mid), count(mid) FROM approved");
    assert_eq!(rows, vec![Tuple::new(vec![i(2), i(4)])]);
}

#[test]
fn global_aggregate_on_empty_input() {
    let rows = run("SELECT count(*), sum(uid), min(uid) FROM users WHERE uid > 100");
    assert_eq!(rows, vec![Tuple::new(vec![i(0), NULL, NULL])]);
}

#[test]
fn grouped_aggregate_on_empty_input_has_no_rows() {
    let rows = run("SELECT uid, count(*) FROM users WHERE uid > 100 GROUP BY uid");
    assert!(rows.is_empty());
}

#[test]
fn group_by_treats_nulls_as_one_group() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE g (k int, v int)");
    run_stmt(
        &mut cat,
        "INSERT INTO g VALUES (NULL, 1), (NULL, 2), (1, 3)",
    );
    let rows = run_on(&cat, "SELECT k, count(*) FROM g GROUP BY k ORDER BY k").unwrap();
    assert_eq!(
        rows,
        vec![
            Tuple::new(vec![i(1), i(1)]),
            Tuple::new(vec![NULL, i(2)]), // NULLs sort last
        ]
    );
}

#[test]
fn having_filters_groups() {
    let rows = run("SELECT mid, count(*) FROM approved GROUP BY mid HAVING count(*) > 1");
    assert_eq!(rows, vec![Tuple::new(vec![i(4), i(3)])]);
}

#[test]
fn avg_of_ints_is_float() {
    let rows = run("SELECT avg(mid) FROM approved");
    assert_eq!(rows, vec![Tuple::new(vec![Value::Float(3.5)])]);
}

#[test]
fn sum_of_large_integers_is_exact() {
    // 2^53 + 1 is not representable in f64: an f64 accumulator would
    // silently return 2^53. The i128 accumulator keeps integer sums exact.
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE big (x int)");
    run_stmt(
        &mut cat,
        "INSERT INTO big VALUES (9007199254740993), (5), (-5)",
    );
    let rows = run_on(&cat, "SELECT sum(x) FROM big").unwrap();
    assert_eq!(rows, vec![Tuple::new(vec![i(9_007_199_254_740_993)])]);
}

#[test]
fn sum_cancelling_extremes_is_exact() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE big (x int)");
    run_stmt(
        &mut cat,
        "INSERT INTO big VALUES (9223372036854775807), (9223372036854775807), (-9223372036854775807)",
    );
    // Exceeds i64 mid-stream, but the final value fits: stays exact Int.
    let rows = run_on(&cat, "SELECT sum(x) FROM big").unwrap();
    assert_eq!(rows, vec![Tuple::new(vec![i(i64::MAX)])]);
}

#[test]
fn sum_overflowing_i64_promotes_to_float() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE big (x int)");
    run_stmt(
        &mut cat,
        "INSERT INTO big VALUES (9223372036854775807), (9223372036854775807)",
    );
    let rows = run_on(&cat, "SELECT sum(x) FROM big").unwrap();
    let expected = 2.0 * i64::MAX as f64;
    assert_eq!(rows, vec![Tuple::new(vec![Value::Float(expected)])]);
}

// ----------------------------------------------------------------------
// Set operations
// ----------------------------------------------------------------------

#[test]
fn q1_of_the_paper() {
    let rows = sorted(run(
        "SELECT mId, text FROM messages UNION SELECT mId, text FROM imports",
    ));
    assert_eq!(
        rows,
        vec![
            Tuple::new(vec![i(1), t("lorem ipsum ...")]),
            Tuple::new(vec![i(2), t("hello ...")]),
            Tuple::new(vec![i(3), t("I don't ...")]),
            Tuple::new(vec![i(4), t("hi there ...")]),
        ]
    );
}

#[test]
fn union_dedups_but_union_all_does_not() {
    let d = run("SELECT uid FROM approved UNION SELECT uid FROM approved");
    assert_eq!(d.len(), 3);
    let a = run("SELECT uid FROM approved UNION ALL SELECT uid FROM approved");
    assert_eq!(a.len(), 8);
}

#[test]
fn intersect_and_except() {
    let inter = run("SELECT uid FROM users INTERSECT SELECT uid FROM approved");
    assert_eq!(
        sorted(inter),
        vec![
            Tuple::new(vec![i(1)]),
            Tuple::new(vec![i(2)]),
            Tuple::new(vec![i(3)])
        ]
    );
    let exc = run("SELECT mid FROM messages EXCEPT SELECT mid FROM approved");
    assert_eq!(exc, vec![Tuple::new(vec![i(1)])]);
}

#[test]
fn bag_semantics_of_intersect_except_all() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE b1 (x int)");
    run_stmt(&mut cat, "CREATE TABLE b2 (x int)");
    run_stmt(&mut cat, "INSERT INTO b1 VALUES (1), (1), (1), (2)");
    run_stmt(&mut cat, "INSERT INTO b2 VALUES (1), (1), (3)");
    let inter = run_on(&cat, "SELECT x FROM b1 INTERSECT ALL SELECT x FROM b2").unwrap();
    assert_eq!(inter.len(), 2, "min(3,2) copies of 1");
    let exc = run_on(&cat, "SELECT x FROM b1 EXCEPT ALL SELECT x FROM b2").unwrap();
    assert_eq!(
        sorted(exc),
        vec![Tuple::new(vec![i(1)]), Tuple::new(vec![i(2)])]
    );
}

#[test]
fn union_with_type_coercion() {
    let rows = sorted(run("SELECT uid FROM users UNION SELECT 2.5"));
    assert_eq!(rows.len(), 4);
    assert_eq!(rows[2], Tuple::new(vec![Value::Float(2.5)]));
}

// ----------------------------------------------------------------------
// Sorting / limits / distinct
// ----------------------------------------------------------------------

#[test]
fn order_by_desc_with_limit_offset() {
    let rows = run("SELECT uid FROM users ORDER BY uid DESC LIMIT 2 OFFSET 1");
    assert_eq!(rows, vec![Tuple::new(vec![i(2)]), Tuple::new(vec![i(1)])]);
}

#[test]
fn nulls_sort_last() {
    let rows =
        run("SELECT a.uid FROM messages m LEFT JOIN approved a ON m.mid = a.mid ORDER BY a.uid");
    assert!(rows.last().unwrap().get(0).is_null());
}

#[test]
fn select_distinct() {
    let rows = run("SELECT DISTINCT uid FROM approved");
    assert_eq!(rows.len(), 3);
}

// ----------------------------------------------------------------------
// Subqueries and sublinks
// ----------------------------------------------------------------------

#[test]
fn derived_table_executes() {
    let rows =
        run("SELECT s.c FROM (SELECT count(*) AS c FROM approved GROUP BY mid) s ORDER BY s.c");
    assert_eq!(rows, vec![Tuple::new(vec![i(1)]), Tuple::new(vec![i(3)])]);
}

#[test]
fn view_unfolds_and_executes() {
    let rows = run("SELECT count(*) FROM v1");
    assert_eq!(rows, vec![Tuple::new(vec![i(4)])]);
}

#[test]
fn uncorrelated_in_sublink() {
    let rows = run("SELECT mid FROM messages WHERE mid IN (SELECT mid FROM approved)");
    assert_eq!(rows, vec![Tuple::new(vec![i(4)])]);
}

#[test]
fn not_in_with_nulls_is_three_valued() {
    let mut cat = forum_catalog();
    run_stmt(&mut cat, "CREATE TABLE withnull (x int)");
    run_stmt(&mut cat, "INSERT INTO withnull VALUES (4), (NULL)");
    // NOT IN over a set containing NULL filters everything (unknown).
    let rows = run_on(
        &cat,
        "SELECT mid FROM messages WHERE mid NOT IN (SELECT x FROM withnull)",
    )
    .unwrap();
    assert!(rows.is_empty());
}

#[test]
fn correlated_exists() {
    let rows = run("SELECT name FROM users u WHERE EXISTS \
         (SELECT 1 FROM approved a WHERE a.uid = u.uid) ORDER BY name");
    assert_eq!(rows.len(), 3);
}

#[test]
fn correlated_not_exists() {
    let rows = run("SELECT m.mid FROM messages m WHERE NOT EXISTS \
         (SELECT 1 FROM approved a WHERE a.mid = m.mid)");
    assert_eq!(rows, vec![Tuple::new(vec![i(1)])]);
}

#[test]
fn scalar_subquery_as_value() {
    let rows = run("SELECT name FROM users WHERE uid = (SELECT max(uid) FROM approved)");
    assert_eq!(rows, vec![Tuple::new(vec![t("Gertrud")])]);
}

#[test]
fn scalar_subquery_with_multiple_rows_errors() {
    let cat = forum_catalog();
    let err = run_on(&cat, "SELECT (SELECT uid FROM users) FROM messages").unwrap_err();
    assert_eq!(err.kind(), "execution");
}

#[test]
fn correlated_scalar_subquery() {
    let rows = run(
        "SELECT m.mid, (SELECT count(*) FROM approved a WHERE a.mid = m.mid) FROM messages m \
         ORDER BY m.mid",
    );
    assert_eq!(
        rows,
        vec![Tuple::new(vec![i(1), i(0)]), Tuple::new(vec![i(4), i(3)]),]
    );
}

// ----------------------------------------------------------------------
// Index acceleration
// ----------------------------------------------------------------------

#[test]
fn index_point_lookup_matches_full_scan() {
    let mut cat = forum_catalog();
    cat.table_mut("approved").unwrap().create_index(1).unwrap();
    let indexed = run_on(&cat, "SELECT uid FROM approved WHERE mid = 4").unwrap();
    let plain = run_on(&forum_catalog(), "SELECT uid FROM approved WHERE mid = 4").unwrap();
    assert_eq!(sorted(indexed), sorted(plain));
}

#[test]
fn index_with_residual_predicate() {
    let mut cat = forum_catalog();
    cat.table_mut("approved").unwrap().create_index(1).unwrap();
    let rows = run_on(&cat, "SELECT uid FROM approved WHERE mid = 4 AND uid > 1").unwrap();
    assert_eq!(
        sorted(rows),
        vec![Tuple::new(vec![i(2)]), Tuple::new(vec![i(3)])]
    );
}

/// Grow the forum tables so the planner's cost model has a real size
/// imbalance to work with (`users` stays tiny, `approved` gets big).
fn scaled_catalog() -> Catalog {
    let mut cat = forum_catalog();
    let approved = cat.table_mut("approved").unwrap();
    for i in 0..500 {
        approved
            .insert(Tuple::new(vec![Value::Int(i % 3 + 1), Value::Int(i)]))
            .unwrap();
    }
    cat
}

#[test]
fn index_nl_join_agrees_with_hash_join() {
    // Same logical join, once with an index on the inner join column
    // (the planner picks IndexNLJoin for the small outer) and once
    // without (hash join). Results must be identical multisets.
    use crate::physical::{plan_physical, PhysicalPlan};
    use perm_algebra::plan::{JoinType, LogicalPlan};
    use perm_algebra::ScalarExpr;

    let scan = |cat: &Catalog, name: &str| LogicalPlan::Scan {
        table: name.into(),
        schema: cat.table(name).unwrap().schema().clone(),
        provenance_cols: vec![],
    };

    for kind in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        let mut indexed = scaled_catalog();
        indexed
            .table_mut("approved")
            .unwrap()
            .create_index(1)
            .unwrap();
        let plain = scaled_catalog();

        // messages(mid, text, uid) ⋈ approved(uid, mid) on mid: a tiny
        // outer probing a big inner on a near-unique indexed key — the
        // shape where the index nested-loop wins.
        let plan = |cat: &Catalog| {
            LogicalPlan::join(
                scan(cat, "messages"),
                scan(cat, "approved"),
                kind,
                Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(4))),
            )
            .unwrap()
        };

        let p_indexed = plan(&indexed);
        let p_plain = plan(&plain);
        assert!(
            matches!(
                plan_physical(&indexed, &p_indexed),
                PhysicalPlan::IndexNLJoin { .. }
            ),
            "{kind:?}: small outer over indexed inner should pick IndexNLJoin"
        );
        assert!(
            matches!(
                plan_physical(&plain, &p_plain),
                PhysicalPlan::HashJoin { .. }
            ),
            "{kind:?}: without the index the hash join must be chosen"
        );

        let via_index = run_plan(&indexed, &p_indexed).unwrap();
        let via_hash = run_plan(&plain, &p_plain).unwrap();
        assert_eq!(sorted(via_index), sorted(via_hash), "{kind:?}");
    }
}

#[test]
fn index_nl_join_with_residual_and_projection() {
    let mut cat = scaled_catalog();
    cat.table_mut("approved").unwrap().create_index(1).unwrap();
    // Multi-conjunct ON: the key probes the index, `a.uid > 1` becomes a
    // fused filter or residual; the SELECT list narrows the output.
    let sql = "SELECT m.text, a.uid FROM messages m JOIN approved a \
               ON m.mid = a.mid AND a.uid > 1";
    let with_index = run_on(&cat, sql).unwrap();
    let without = run_on(&scaled_catalog(), sql).unwrap();
    assert!(!with_index.is_empty());
    assert_eq!(sorted(with_index), sorted(without));
}

// ----------------------------------------------------------------------
// Values / no-FROM selects
// ----------------------------------------------------------------------

#[test]
fn select_without_from() {
    let rows = run("SELECT 1 + 1, 'x' || 'y', NOT false");
    assert_eq!(
        rows,
        vec![Tuple::new(vec![i(2), t("xy"), Value::Bool(true)])]
    );
}

#[test]
fn between_desugars_and_executes() {
    let rows = run("SELECT uid FROM users WHERE uid BETWEEN 2 AND 3 ORDER BY uid");
    assert_eq!(rows, vec![Tuple::new(vec![i(2)]), Tuple::new(vec![i(3)])]);
}

// ----------------------------------------------------------------------
// Semi / anti joins (plan-API operators used by sublink unnesting)
// ----------------------------------------------------------------------

mod semi_anti {
    use super::*;
    use perm_algebra::expr::{BinOp, ScalarExpr};
    use perm_algebra::plan::{JoinType, LogicalPlan};

    fn scan(cat: &Catalog, name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: cat.table(name).unwrap().schema().clone(),
            provenance_cols: vec![],
        }
    }

    fn join_on_uid(cat: &Catalog, kind: JoinType, null_safe: bool) -> LogicalPlan {
        // users(uid, name) ⋈ approved(uid, mid) on uid.
        let op = if null_safe {
            BinOp::NotDistinctFrom
        } else {
            BinOp::Eq
        };
        LogicalPlan::join(
            scan(cat, "users"),
            scan(cat, "approved"),
            kind,
            Some(ScalarExpr::binary(
                op,
                ScalarExpr::Column(0),
                ScalarExpr::Column(2),
            )),
        )
        .unwrap()
    }

    #[test]
    fn semi_join_keeps_each_matching_left_row_once() {
        let cat = forum_catalog();
        for null_safe in [false, true] {
            let plan = join_on_uid(&cat, JoinType::Semi, null_safe);
            let rows = run_plan(&cat, &plan).unwrap();
            // users 1, 2 and 3 all appear in approved; user 2 twice but
            // the semi join emits each left row once.
            assert_eq!(rows.len(), 3, "null_safe={null_safe}");
            assert_eq!(rows[0].len(), 2, "left schema only");
        }
    }

    #[test]
    fn anti_join_keeps_non_matching_left_rows() {
        let mut cat = forum_catalog();
        cat.table_mut("users")
            .unwrap()
            .insert(Tuple::new(vec![Value::Int(99), Value::text("Norbert")]))
            .unwrap();
        let plan = join_on_uid(&cat, JoinType::Anti, false);
        let rows = run_plan(&cat, &plan).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(1), &Value::text("Norbert"));
    }

    #[test]
    fn semi_anti_agree_between_hash_and_nested_loop() {
        let cat = forum_catalog();
        for kind in [JoinType::Semi, JoinType::Anti] {
            let plan = join_on_uid(&cat, kind, false);
            let hash = run_plan(&cat, &plan).unwrap();
            let nlj = run_nlj(&cat, &plan).unwrap();
            assert_eq!(sorted(hash), sorted(nlj), "{kind:?}");
        }
    }

    #[test]
    fn full_join_with_residual_predicate() {
        let cat = forum_catalog();
        // Equi key plus a residual conjunct that rejects user 2: their
        // rows fall out of the matched set and both sides get padded.
        let cond = ScalarExpr::conjunction(vec![
            ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2)),
            ScalarExpr::binary(
                BinOp::NotEq,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(2)),
            ),
        ]);
        let plan = LogicalPlan::join(
            scan(&cat, "users"),
            scan(&cat, "approved"),
            JoinType::Full,
            Some(cond),
        )
        .unwrap();
        let hash = run_plan(&cat, &plan).unwrap();
        let nlj = run_nlj(&cat, &plan).unwrap();
        assert_eq!(sorted(hash.clone()), sorted(nlj));
        // users 1 and 3 match once each; user 2 is left-padded; approved's
        // two uid=2 rows are right-padded.
        assert_eq!(hash.len(), 2 + 1 + 2);
    }

    #[test]
    fn all_join_kinds_agree_between_hash_and_nested_loop() {
        let cat = forum_catalog();
        for kind in [JoinType::Inner, JoinType::Left, JoinType::Full] {
            for null_safe in [false, true] {
                let plan = join_on_uid(&cat, kind, null_safe);
                let hash = run_plan(&cat, &plan).unwrap();
                let nlj = run_nlj(&cat, &plan).unwrap();
                assert_eq!(sorted(hash), sorted(nlj), "{kind:?} null_safe={null_safe}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Morsel-driven parallel execution
// ----------------------------------------------------------------------
//
// Every parallel operator is designed to reproduce its serial output
// *exactly* — same rows, same order, same errors — so these tests
// compare with `assert_eq!` on the raw row vectors, not sorted
// multisets. Parallelism is forced through the physical planner (DOP
// cap + a row threshold of 2), and each helper asserts the lowered
// plan really contains a `dop > 1` node so a silently-serial plan cannot
// pass the test vacuously.

mod parallel_exec {
    use super::*;
    use crate::physical::PhysicalPlan;

    /// Bind + optimize a query against `cat`.
    fn bound(cat: &Catalog, sql: &str) -> perm_algebra::LogicalPlan {
        let stmt = parse_statement(sql).unwrap();
        let adapter = CatalogAdapter(cat);
        let plan = match bind_statement(&stmt, &adapter, None).unwrap() {
            BoundStatement::Query(p) => p,
            other => panic!("expected query, got {other:?}"),
        };
        optimize(plan)
    }

    /// `plan` lowered on `cat` at DOP cap `dop` with a row threshold of 2.
    fn lower(cat: &Catalog, plan: &perm_algebra::LogicalPlan, dop: usize) -> PhysicalPlan {
        PhysicalPlanner::new(cat)
            .max_parallelism(dop)
            .parallel_threshold(2)
            .plan(plan)
    }

    /// Lower `plan` at DOP cap `dop` ([`lower`]) and run it.
    fn run_at(cat: &Catalog, plan: &perm_algebra::LogicalPlan, dop: usize) -> Result<Vec<Tuple>> {
        executor(cat).run_physical(&lower(cat, plan, dop))
    }

    /// Lower `plan` at DOP cap `dop` ([`lower`]) and stream it.
    fn stream_at(
        cat: &Catalog,
        plan: &perm_algebra::LogicalPlan,
        dop: usize,
    ) -> crate::TupleStream {
        executor(cat)
            .into_stream_physical(&lower(cat, plan, dop))
            .unwrap()
    }

    fn max_dop(p: &PhysicalPlan) -> usize {
        p.children()
            .into_iter()
            .map(max_dop)
            .max()
            .unwrap_or(1)
            .max(p.dop())
    }

    /// A catalog with enough rows that morsel scheduling really splits:
    /// `numbers(n, k, s)` (n unique, k = n % 17) and `other(k, m)`
    /// (k = i % 23, indexed).
    fn numbers_catalog(n_rows: usize) -> Catalog {
        let mut cat = Catalog::new();
        let mut numbers = Table::new(
            "numbers",
            Schema::new(vec![
                Column::new("n", DataType::Int).not_null(),
                Column::new("k", DataType::Int),
                Column::new("s", DataType::Text),
            ]),
        );
        for x in 0..n_rows as i64 {
            numbers
                .insert(Tuple::new(vec![
                    i(x),
                    i(x % 17),
                    t(&format!("row{}", x % 11)),
                ]))
                .unwrap();
        }
        cat.create_table(numbers).unwrap();

        let mut other = Table::new(
            "other",
            Schema::new(vec![
                Column::new("k", DataType::Int).not_null(),
                Column::new("m", DataType::Int),
            ]),
        );
        for x in 0..(n_rows / 2) as i64 {
            other.insert(Tuple::new(vec![i(x % 23), i(x)])).unwrap();
        }
        other.create_index(0).unwrap();
        other.create_index(1).unwrap();
        cat.create_table(other).unwrap();
        cat
    }

    /// Run `sql` serial and at DOP `dop` (forced, threshold 2); assert
    /// the parallel lowering actually parallelized something and that
    /// the outputs agree exactly, order included.
    fn assert_parallel_matches_serial(cat: &Catalog, sql: &str, dop: usize) {
        let plan = bound(cat, sql);
        let serial = run_at(cat, &plan, 1).unwrap();
        let physical = lower(cat, &plan, dop);
        assert!(
            max_dop(&physical) > 1,
            "expected a parallel operator for {sql:?}:\n{}",
            crate::physical_tree(&physical)
        );
        let parallel = executor(cat).run_physical(&physical).unwrap();
        assert_eq!(serial, parallel, "parallel diverges for {sql:?}");
        assert!(!serial.is_empty(), "vacuous test for {sql:?}");
    }

    #[test]
    fn parallel_scan_filter_project_matches_serial() {
        let cat = numbers_catalog(5000);
        for dop in [2, 4] {
            assert_parallel_matches_serial(
                &cat,
                "SELECT n * 2, upper(s) FROM numbers WHERE n % 3 = 0 AND k < 11",
                dop,
            );
        }
    }

    #[test]
    fn parallel_hash_join_matches_serial() {
        let cat = numbers_catalog(4000);
        assert_parallel_matches_serial(
            &cat,
            "SELECT n, m FROM numbers JOIN other ON numbers.k = other.k WHERE m % 2 = 0",
            4,
        );
    }

    #[test]
    fn parallel_left_join_preserves_null_padding() {
        let cat = numbers_catalog(4000);
        // k in 0..17 on the left, 0..23 on the right with a filter that
        // empties some keys: unmatched left rows are null-padded.
        assert_parallel_matches_serial(
            &cat,
            "SELECT n, m FROM numbers LEFT JOIN other ON numbers.k = other.k AND other.m < 40",
            4,
        );
    }

    #[test]
    fn parallel_index_nl_join_matches_serial() {
        let cat = numbers_catalog(4000);
        // Small outer (filtered numbers) probing the unique indexed
        // `other.m`: the planner picks the index nested-loop strategy;
        // force a parallel probe and compare.
        let sql = "SELECT numbers.k, m FROM numbers JOIN other ON numbers.n = other.m \
                   WHERE numbers.n < 300";
        let plan = bound(&cat, sql);
        let physical = lower(&cat, &plan, 4);
        fn has_inlj(p: &PhysicalPlan) -> bool {
            matches!(p, PhysicalPlan::IndexNLJoin { dop, .. } if *dop > 1)
                || p.children().into_iter().any(has_inlj)
        }
        assert!(
            has_inlj(&physical),
            "expected a parallel IndexNLJoin:\n{}",
            crate::physical_tree(&physical)
        );
        let serial = run_at(&cat, &plan, 1).unwrap();
        assert_eq!(serial, executor(&cat).run_physical(&physical).unwrap());
    }

    #[test]
    fn parallel_aggregate_matches_serial_including_group_order() {
        let cat = numbers_catalog(5000);
        assert_parallel_matches_serial(
            &cat,
            "SELECT k, count(*), sum(n), min(s), max(n), avg(n) FROM numbers GROUP BY k",
            4,
        );
    }

    #[test]
    fn distinct_aggregates_stay_serial() {
        let cat = numbers_catalog(5000);
        let plan = bound(&cat, "SELECT k, count(DISTINCT s) FROM numbers GROUP BY k");
        let physical = lower(&cat, &plan, 4);
        fn agg_dop(p: &PhysicalPlan) -> usize {
            match p {
                PhysicalPlan::HashAggregate { dop, .. } => *dop,
                _ => p.children().into_iter().map(agg_dop).max().unwrap_or(1),
            }
        }
        assert_eq!(agg_dop(&physical), 1, "DISTINCT aggregation must be serial");
        // Still correct end to end (the scan below may parallelize).
        let serial = run_at(&cat, &plan, 1).unwrap();
        assert_eq!(serial, executor(&cat).run_physical(&physical).unwrap());
    }

    #[test]
    fn parallel_distinct_matches_serial_first_occurrence_order() {
        let cat = numbers_catalog(5000);
        assert_parallel_matches_serial(&cat, "SELECT DISTINCT k, s FROM numbers", 4);
    }

    #[test]
    fn parallel_setops_match_serial() {
        let cat = numbers_catalog(4000);
        for sql in [
            "SELECT k FROM numbers UNION SELECT k FROM other",
            "SELECT k FROM numbers INTERSECT SELECT k FROM other",
            "SELECT n FROM numbers EXCEPT SELECT m FROM other",
        ] {
            assert_parallel_matches_serial(&cat, sql, 4);
        }
    }

    #[test]
    fn parallel_bag_setops_match_serial() {
        use perm_algebra::plan::SetOpType;
        let cat = numbers_catalog(4000);
        let scan_k = bound(&cat, "SELECT k FROM numbers");
        let scan_other_k = bound(&cat, "SELECT k FROM other");
        for op in [SetOpType::Intersect, SetOpType::Except] {
            let plan = perm_algebra::LogicalPlan::SetOp {
                op,
                all: true,
                left: Box::new(scan_k.clone()),
                right: Box::new(scan_other_k.clone()),
                schema: scan_k.schema().clone(),
            };
            let serial = run_at(&cat, &plan, 1).unwrap();
            let parallel = run_at(&cat, &plan, 4).unwrap();
            assert_eq!(serial, parallel, "{op:?} ALL diverges");
            assert!(!serial.is_empty());
        }
    }

    #[test]
    fn parallel_sort_is_stable_like_serial() {
        let cat = numbers_catalog(5000);
        // k has heavy duplication: ties must keep input order exactly as
        // the serial stable sort does.
        assert_parallel_matches_serial(&cat, "SELECT k, n FROM numbers ORDER BY k DESC", 4);
        assert_parallel_matches_serial(
            &cat,
            "SELECT s, n FROM numbers WHERE n % 2 = 0 ORDER BY s",
            3,
        );
    }

    #[test]
    fn worker_error_matches_serial_error() {
        let cat = numbers_catalog(6000);
        // Division by zero fires mid-table (n = 4321), inside whichever
        // worker claims that morsel; the surfaced error must be the one
        // serial execution raises.
        let sql = "SELECT 10 / (4321 - n) FROM numbers";
        let plan = bound(&cat, sql);
        let serial = run_at(&cat, &plan, 1).unwrap_err();
        let parallel = run_at(&cat, &plan, 4).unwrap_err();
        assert_eq!(serial.to_string(), parallel.to_string());
    }

    #[test]
    fn explain_tree_renders_dop() {
        let cat = numbers_catalog(5000);
        let plan = bound(&cat, "SELECT n * 2 FROM numbers WHERE k = 3");
        let physical = crate::PhysicalPlanner::new(&cat)
            .max_parallelism(4)
            .parallel_threshold(2)
            .plan(&plan);
        let tree = crate::physical_tree(&physical);
        assert!(tree.contains("[dop="), "missing dop annotation:\n{tree}");
        // Serial planning never annotates.
        let serial_tree = crate::physical_tree(
            &crate::PhysicalPlanner::new(&cat)
                .max_parallelism(1)
                .plan(&plan),
        );
        assert!(!serial_tree.contains("[dop="), "{serial_tree}");
    }

    #[test]
    fn sublink_predicates_force_serial_pipelines() {
        let cat = numbers_catalog(5000);
        let plan = bound(
            &cat,
            "SELECT n FROM numbers WHERE k IN (SELECT k FROM other WHERE m < 10)",
        );
        let physical = crate::PhysicalPlanner::new(&cat)
            .max_parallelism(4)
            .parallel_threshold(2)
            .plan(&plan);
        fn scan_with_subquery_dop(p: &PhysicalPlan) -> Option<usize> {
            match p {
                PhysicalPlan::FusedScanProjectFilter {
                    filter: Some(f),
                    dop,
                    ..
                } if f.contains_subquery() => Some(*dop),
                _ => p.children().into_iter().find_map(scan_with_subquery_dop),
            }
        }
        if let Some(dop) = scan_with_subquery_dop(&physical) {
            assert_eq!(dop, 1, "sublink filter must stay serial");
        }
        // And execution agrees with serial regardless of lowering shape.
        let serial = run_at(&cat, &plan, 1).unwrap();
        let parallel = run_at(&cat, &plan, 4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_stream_yields_serial_order_and_limit_short_circuits() {
        let cat = numbers_catalog(12000);
        let sql = "SELECT n * 3 FROM numbers WHERE n % 2 = 0";
        let plan = bound(&cat, sql);
        let serial = run_at(&cat, &plan, 1).unwrap();
        let stream = stream_at(&cat, &plan, 4);
        let streamed: Vec<Tuple> = stream.map(|r| r.unwrap()).collect();
        assert_eq!(
            serial, streamed,
            "windowed morsels must preserve scan order"
        );

        // LIMIT over a parallel scan stops after a few chunks.
        let plan = bound(&cat, "SELECT n * 3 FROM numbers WHERE n % 2 = 0 LIMIT 5");
        let mut stream = stream_at(&cat, &plan, 4);
        let got: Vec<Tuple> = stream.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 5);
        assert!(
            stream.rows_scanned() < 12000,
            "LIMIT pulled {} scan rows",
            stream.rows_scanned()
        );
    }

    #[test]
    fn limit_never_raises_an_error_past_its_rows() {
        // `LIMIT 2` reads ahead in doubling chunks; the one that holds its
        // two rows (6000, 6500) runs on to row 7000, which divides by
        // zero. A row-at-a-time executor never gets there, so neither
        // consumer may fail — serial, or parallel, where that chunk is two
        // morsels and the second holds both 6500 and the error.
        let cat = numbers_catalog(12000);
        let plan = bound(
            &cat,
            "SELECT n FROM numbers WHERE (n = 6000 OR n >= 6500) AND 10 / (n - 7000) < 100 LIMIT 2",
        );
        let expected: Vec<Tuple> = [6000, 6500].map(|n| Tuple::new(vec![Value::Int(n)])).into();
        for dop in [1, 4] {
            assert_eq!(run_at(&cat, &plan, dop).unwrap(), expected, "dop {dop}");
            let streamed: Result<Vec<Tuple>> = stream_at(&cat, &plan, dop).collect();
            assert_eq!(streamed.unwrap(), expected, "streamed at dop {dop}");
        }
    }

    #[test]
    fn filter_pushes_through_distinct_into_union_branches() {
        // The prov_setop_view shape: Filter over Distinct over UnionAll
        // must end with the filter fused into both branch scans.
        let cat = numbers_catalog(200);
        let plan = bound(
            &cat,
            "SELECT * FROM (SELECT k FROM numbers UNION SELECT k FROM other) u WHERE k > 5",
        );
        let physical = crate::PhysicalPlanner::new(&cat)
            .max_parallelism(1)
            .plan(&plan);
        let tree = crate::physical_tree(&physical);
        assert!(
            !tree.contains("Filter "),
            "filter should fuse into the scans:\n{tree}"
        );
        assert_eq!(tree.matches("filter=").count(), 2, "{tree}");
    }
}
