//! Binder tests over a mock catalog shaped like the paper's Figure 1
//! database.

use super::*;
use crate::catalog::BaseTableMeta;
use perm_sql::parse_statement;
use std::collections::HashMap;

/// A mock catalog with the Figure 1 tables and view v1.
struct MockCatalog {
    tables: HashMap<String, BaseTableMeta>,
    views: HashMap<String, Query>,
}

impl MockCatalog {
    fn forum() -> MockCatalog {
        let mut tables = HashMap::new();
        let table = |cols: &[(&str, DataType)]| BaseTableMeta {
            schema: Schema::new(
                cols.iter()
                    .map(|(n, t)| Column::new(*n, *t))
                    .collect::<Vec<_>>(),
            ),
            provenance_cols: vec![],
        };
        tables.insert(
            "messages".into(),
            table(&[
                ("mid", DataType::Int),
                ("text", DataType::Text),
                ("uid", DataType::Int),
            ]),
        );
        tables.insert(
            "users".into(),
            table(&[("uid", DataType::Int), ("name", DataType::Text)]),
        );
        tables.insert(
            "imports".into(),
            table(&[
                ("mid", DataType::Int),
                ("text", DataType::Text),
                ("origin", DataType::Text),
            ]),
        );
        tables.insert(
            "approved".into(),
            table(&[("uid", DataType::Int), ("mid", DataType::Int)]),
        );
        let mut views = HashMap::new();
        let q1 = match parse_statement(
            "SELECT mid, text FROM messages UNION SELECT mid, text FROM imports",
        )
        .unwrap()
        {
            Statement::Query(q) => q,
            _ => unreachable!(),
        };
        views.insert("v1".into(), q1);
        MockCatalog { tables, views }
    }
}

impl CatalogProvider for MockCatalog {
    fn base_table(&self, name: &str) -> Option<BaseTableMeta> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }

    fn view_definition(&self, name: &str) -> Option<Query> {
        self.views.get(&name.to_ascii_lowercase()).cloned()
    }
}

fn bind(sql: &str) -> Result<LogicalPlan> {
    let cat = MockCatalog::forum();
    let stmt = parse_statement(sql)?;
    match bind_statement(&stmt, &cat, None)? {
        BoundStatement::Query(p) => Ok(p),
        other => panic!("expected query, got {other:?}"),
    }
}

fn bind_ok(sql: &str) -> LogicalPlan {
    bind(sql).unwrap_or_else(|e| panic!("bind of {sql:?} failed: {e}"))
}

// ----------------------------------------------------------------------
// Basic shapes
// ----------------------------------------------------------------------

#[test]
fn select_star_projects_all_columns() {
    let p = bind_ok("SELECT * FROM messages");
    assert_eq!(p.arity(), 3);
    assert_eq!(p.schema().names(), vec!["mid", "text", "uid"]);
    assert!(matches!(p, LogicalPlan::Project { .. }));
}

#[test]
fn aliases_requalify_columns() {
    let p = bind_ok("SELECT m.mid FROM messages m");
    assert_eq!(p.schema().names(), vec!["mid"]);
    // Alias resolution works; the original name does not.
    assert!(bind("SELECT messages.mid FROM messages m").is_err());
}

#[test]
fn missing_table_and_column_errors() {
    assert!(bind("SELECT * FROM nonexistent").is_err());
    let err = bind("SELECT nope FROM messages").unwrap_err();
    assert_eq!(err.kind(), "analysis");
    assert!(err.message().contains("nope"));
}

#[test]
fn ambiguous_column_is_an_error() {
    // Both messages and approved have `mid` and `uid`.
    let err = bind("SELECT mid FROM messages, approved").unwrap_err();
    assert!(err.message().contains("ambiguous"), "{err}");
}

#[test]
fn where_clause_must_be_boolean() {
    let err = bind("SELECT mid FROM messages WHERE mid + 1").unwrap_err();
    assert!(err.message().contains("boolean"), "{err}");
}

#[test]
fn comparison_type_mismatch_is_caught() {
    assert!(bind("SELECT mid FROM messages WHERE mid = text").is_err());
}

#[test]
fn select_without_from_uses_one_empty_row() {
    let p = bind_ok("SELECT 1 + 2 AS three");
    assert_eq!(p.schema().names(), vec!["three"]);
    match &p {
        LogicalPlan::Project { input, .. } => {
            assert!(matches!(**input, LogicalPlan::Values { .. }));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn output_naming_rules() {
    let p = bind_ok("SELECT mid, mid AS m2, count(*) FROM messages GROUP BY mid");
    assert_eq!(p.schema().names(), vec!["mid", "m2", "count"]);
    let p2 = bind_ok("SELECT 1 + 1 FROM messages");
    assert_eq!(p2.schema().names(), vec!["?column?"]);
    let p3 = bind_ok("SELECT upper(text) FROM messages");
    assert_eq!(p3.schema().names(), vec!["upper"]);
}

// ----------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------

#[test]
fn inner_join_binds_condition_positionally() {
    let p = bind_ok("SELECT name FROM users u JOIN approved a ON u.uid = a.uid");
    fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
        if matches!(p, LogicalPlan::Join { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find_join)
    }
    let j = find_join(&p).expect("join node");
    match j {
        LogicalPlan::Join {
            kind, condition, ..
        } => {
            assert_eq!(*kind, JoinType::Inner);
            let cond = condition.as_ref().unwrap();
            // u.uid is position 0, a.uid is position 2 (users has 2 cols).
            assert_eq!(cond.referenced_columns(), vec![0, 2]);
        }
        _ => unreachable!(),
    }
}

#[test]
fn right_join_normalizes_to_left_with_reorder() {
    let p = bind_ok("SELECT * FROM users u RIGHT JOIN approved a ON u.uid = a.uid");
    // Schema order must still be users-then-approved.
    assert_eq!(p.schema().names(), vec!["uid", "name", "uid", "mid"]);
    // users' side (the padded side) must be nullable.
    assert!(p.schema().column(0).nullable);
    // And somewhere inside there is a Left join with approved on the left.
    let tree = crate::printer::plan_tree(&p);
    assert!(tree.contains("LeftJoin"), "{tree}");
}

#[test]
fn left_join_marks_right_side_nullable() {
    let p = bind_ok("SELECT * FROM users u LEFT JOIN approved a ON u.uid = a.uid");
    assert!(!p.schema().column(0).nullable || p.schema().column(0).nullable); // users keeps declared nullability
    assert!(p.schema().column(2).nullable);
    assert!(p.schema().column(3).nullable);
}

#[test]
fn cross_join_via_comma() {
    let p = bind_ok("SELECT * FROM users, approved");
    assert_eq!(p.arity(), 4);
}

// ----------------------------------------------------------------------
// Views
// ----------------------------------------------------------------------

#[test]
fn view_is_unfolded_and_requalified() {
    let p = bind_ok("SELECT v1.mid FROM v1");
    assert_eq!(p.schema().names(), vec!["mid"]);
    // The view body (a UNION) must be present in the plan.
    let tree = crate::printer::plan_tree(&p);
    assert!(tree.contains("Union"), "{tree}");
    assert!(tree.contains("Scan(messages)"), "{tree}");
    assert!(tree.contains("Scan(imports)"), "{tree}");
}

#[test]
fn view_alias_is_visible() {
    let p = bind_ok("SELECT w.text FROM v1 w");
    assert_eq!(p.schema().names(), vec!["text"]);
}

#[test]
fn q3_binds_the_paper_aggregation() {
    // q3 of Figure 1.
    let p = bind_ok(
        "SELECT count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) \
         GROUP BY v1.mId, text",
    );
    assert_eq!(p.schema().names(), vec!["count", "text"]);
}

// ----------------------------------------------------------------------
// Aggregation
// ----------------------------------------------------------------------

#[test]
fn aggregate_node_shape() {
    let p = bind_ok("SELECT uid, count(*), sum(mid) FROM approved GROUP BY uid");
    fn find_agg(p: &LogicalPlan) -> Option<&LogicalPlan> {
        if matches!(p, LogicalPlan::Aggregate { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find_agg)
    }
    match find_agg(&p).expect("aggregate node") {
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            schema,
            ..
        } => {
            assert_eq!(group_by.len(), 1);
            assert_eq!(aggs.len(), 2);
            assert_eq!(schema.names(), vec!["uid", "count", "sum"]);
        }
        _ => unreachable!(),
    }
}

#[test]
fn having_filters_above_aggregate() {
    let p = bind_ok("SELECT uid FROM approved GROUP BY uid HAVING count(*) > 1");
    let tree = crate::printer::plan_tree(&p);
    // Filter must sit between Project and Aggregate.
    let filter_pos = tree.find("Filter").expect("filter in tree");
    let agg_pos = tree.find("Aggregate").expect("aggregate in tree");
    assert!(filter_pos < agg_pos, "{tree}");
}

#[test]
fn shared_aggregate_is_deduplicated() {
    let p = bind_ok("SELECT uid, count(*) FROM approved GROUP BY uid HAVING count(*) > 1");
    fn find_agg(p: &LogicalPlan) -> Option<&LogicalPlan> {
        if matches!(p, LogicalPlan::Aggregate { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find_agg)
    }
    match find_agg(&p).expect("aggregate") {
        LogicalPlan::Aggregate { aggs, .. } => assert_eq!(aggs.len(), 1),
        _ => unreachable!(),
    }
}

#[test]
fn non_grouped_column_becomes_any_value() {
    // The paper's §2.4 query selects `text` while grouping on v1.mId only;
    // we follow SQLite's leniency with an implicit any_value.
    let p = bind_ok("SELECT count(*), text FROM messages GROUP BY mid");
    fn find_agg(p: &LogicalPlan) -> Option<&LogicalPlan> {
        if matches!(p, LogicalPlan::Aggregate { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find_agg)
    }
    match find_agg(&p).expect("aggregate") {
        LogicalPlan::Aggregate { aggs, .. } => {
            assert_eq!(aggs.len(), 2);
            assert_eq!(aggs[1].func, AggFunc::AnyValue);
        }
        _ => unreachable!(),
    }
}

#[test]
fn having_without_group_by_or_aggregate_is_rejected() {
    assert!(bind("SELECT mid FROM messages HAVING mid > 1").is_err());
}

#[test]
fn nested_aggregates_are_rejected() {
    assert!(bind("SELECT count(sum(mid)) FROM messages").is_err());
}

#[test]
fn global_aggregate_without_group_by() {
    let p = bind_ok("SELECT count(*) FROM messages");
    assert_eq!(p.schema().names(), vec!["count"]);
}

#[test]
fn group_by_expression_matches_select_item() {
    let p = bind_ok("SELECT mid + 1 FROM messages GROUP BY mid + 1");
    assert_eq!(p.arity(), 1);
}

// ----------------------------------------------------------------------
// Set operations
// ----------------------------------------------------------------------

#[test]
fn union_checks_arity() {
    let err = bind("SELECT mid FROM messages UNION SELECT mid, text FROM imports").unwrap_err();
    assert!(err.message().contains("same number of columns"));
}

#[test]
fn union_unifies_types_with_casts() {
    // Int union Float -> Float on both sides.
    let p = bind_ok("SELECT mid FROM messages UNION SELECT 2.5");
    assert_eq!(p.schema().column(0).ty, DataType::Float);
}

#[test]
fn union_incompatible_types_error() {
    assert!(bind("SELECT mid FROM messages UNION SELECT text FROM messages").is_err());
}

#[test]
fn q1_binds_with_set_op() {
    let p = bind_ok("SELECT mId, text FROM messages UNION SELECT mId, text FROM imports");
    assert!(matches!(
        p,
        LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: false,
            ..
        }
    ));
    assert_eq!(p.schema().names(), vec!["mid", "text"]);
}

// ----------------------------------------------------------------------
// ORDER BY / LIMIT
// ----------------------------------------------------------------------

#[test]
fn order_by_position_and_name() {
    let p = bind_ok("SELECT mid, text FROM messages ORDER BY 2 DESC, mid");
    match &p {
        LogicalPlan::Sort { keys, .. } => {
            assert_eq!(keys.len(), 2);
            assert_eq!(keys[0].expr, ScalarExpr::Column(1));
            assert!(keys[0].desc);
            assert_eq!(keys[1].expr, ScalarExpr::Column(0));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn order_by_position_out_of_range() {
    assert!(bind("SELECT mid FROM messages ORDER BY 3").is_err());
    assert!(bind("SELECT mid FROM messages ORDER BY 0").is_err());
}

#[test]
fn limit_offset_node() {
    let p = bind_ok("SELECT mid FROM messages LIMIT 5 OFFSET 2");
    match &p {
        LogicalPlan::Limit { limit, offset, .. } => {
            assert_eq!(*limit, Some(5));
            assert_eq!(*offset, 2);
        }
        other => panic!("unexpected {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Subqueries and sublinks
// ----------------------------------------------------------------------

#[test]
fn derived_table_binding() {
    let p = bind_ok("SELECT s.m FROM (SELECT mid AS m FROM messages) s WHERE s.m > 1");
    assert_eq!(p.schema().names(), vec!["m"]);
}

#[test]
fn uncorrelated_in_subquery() {
    let p = bind_ok("SELECT mid FROM messages WHERE mid IN (SELECT mid FROM approved)");
    let mut found = false;
    p.visit_all_exprs(&mut |e| {
        if let ScalarExpr::Subquery(sq) = e {
            assert_eq!(sq.kind, SubqueryKind::In);
            assert!(sq.outer_refs.is_empty());
            found = true;
        }
    });
    assert!(found);
}

#[test]
fn correlated_exists_subquery() {
    let p = bind_ok(
        "SELECT name FROM users u WHERE EXISTS \
         (SELECT 1 FROM approved a WHERE a.uid = u.uid)",
    );
    let mut correlated = false;
    p.visit_all_exprs(&mut |e| {
        if let ScalarExpr::Subquery(sq) = e {
            correlated |= !sq.outer_refs.is_empty();
        }
    });
    assert!(correlated, "EXISTS over u.uid must be marked correlated");
}

#[test]
fn outer_references_pass_through_each_enclosing_sublink() {
    // `u.uid` two levels up reaches the inner body through the middle
    // body's own parameter; the uncorrelated IN inside the correlated
    // body stays uncorrelated, so its hashed value set is cached.
    let p = bind_ok(
        "SELECT name FROM users u WHERE EXISTS (SELECT 1 FROM approved a \
         WHERE a.uid = u.uid \
         AND EXISTS (SELECT 1 FROM messages m WHERE m.mid = a.mid AND m.uid = u.uid) \
         AND a.mid IN (SELECT mid FROM imports))",
    );
    let mut refs = Vec::new();
    p.visit_all_exprs(&mut |e| {
        e.visit(&mut |n| {
            if let ScalarExpr::Subquery(sq) = n {
                refs.push((sq.kind, sq.outer_refs.clone()));
            }
        })
    });
    let param0 = ScalarExpr::Param {
        index: 0,
        ty: DataType::Int,
    };
    assert_eq!(
        refs,
        vec![
            (SubqueryKind::Exists, vec![ScalarExpr::Column(0)]),
            (SubqueryKind::Exists, vec![ScalarExpr::Column(1), param0]),
            (SubqueryKind::In, vec![]),
        ]
    );
}

#[test]
fn scalar_subquery_must_have_one_column() {
    assert!(bind("SELECT (SELECT mid, text FROM messages) FROM users").is_err());
    assert!(bind("SELECT mid FROM messages WHERE mid IN (SELECT mid, uid FROM approved)").is_err());
}

#[test]
fn in_subquery_in_select_list() {
    let p = bind_ok("SELECT mid IN (SELECT mid FROM approved) AS appr FROM messages");
    assert_eq!(p.schema().names(), vec!["appr"]);
    assert_eq!(p.schema().column(0).ty, DataType::Bool);
}

// ----------------------------------------------------------------------
// SQL-PLE boundaries
// ----------------------------------------------------------------------

#[test]
fn baserelation_wraps_in_boundary() {
    // Bind a non-provenance query so no rewriter is needed.
    let p = bind_ok("SELECT text FROM v1 BASERELATION");
    let tree = crate::printer::plan_tree(&p);
    assert!(tree.contains("BaseRelation(v1)"), "{tree}");
}

#[test]
fn provenance_attrs_modifier_resolves_names() {
    let p = bind_ok("SELECT * FROM imports PROVENANCE (origin)");
    fn find_boundary(p: &LogicalPlan) -> Option<&LogicalPlan> {
        if matches!(p, LogicalPlan::Boundary { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find_boundary)
    }
    match find_boundary(&p).expect("boundary") {
        LogicalPlan::Boundary {
            kind: BoundaryKind::External { attrs },
            name,
            ..
        } => {
            assert_eq!(name, "imports");
            assert_eq!(attrs, &[2]);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn provenance_attrs_modifier_unknown_name_errors() {
    let err = bind("SELECT * FROM imports PROVENANCE (nope)").unwrap_err();
    assert!(err.message().contains("nope"));
}

#[test]
fn select_provenance_without_rewriter_is_an_error() {
    let err = bind("SELECT PROVENANCE mid FROM messages").unwrap_err();
    assert_eq!(err.kind(), "rewrite");
}

// ----------------------------------------------------------------------
// Statements
// ----------------------------------------------------------------------

#[test]
fn bind_create_table() {
    let cat = MockCatalog::forum();
    let stmt = parse_statement("CREATE TABLE t (a int NOT NULL, b text)").unwrap();
    match bind_statement(&stmt, &cat, None).unwrap() {
        BoundStatement::CreateTable { name, schema } => {
            assert_eq!(name, "t");
            assert!(!schema.column(0).nullable);
            assert!(schema.column(1).nullable);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn bind_insert_reorders_columns_and_pads_nulls() {
    let cat = MockCatalog::forum();
    let stmt = parse_statement("INSERT INTO messages (text, mid) VALUES ('hi', 9)").unwrap();
    match bind_statement(&stmt, &cat, None).unwrap() {
        BoundStatement::Insert { rows, .. } => {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0][0], ScalarExpr::Literal(Value::Int(9)));
            assert_eq!(rows[0][1], ScalarExpr::Literal(Value::text("hi")));
            assert_eq!(rows[0][2], ScalarExpr::Literal(Value::Null));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn bind_insert_arity_mismatch() {
    let cat = MockCatalog::forum();
    let stmt = parse_statement("INSERT INTO messages (text, mid) VALUES ('hi')").unwrap();
    assert!(bind_statement(&stmt, &cat, None).is_err());
}

#[test]
fn bind_create_view_validates_definition() {
    let cat = MockCatalog::forum();
    let good = parse_statement("CREATE VIEW ok AS SELECT mid FROM messages").unwrap();
    assert!(bind_statement(&good, &cat, None).is_ok());
    let bad = parse_statement("CREATE VIEW bad AS SELECT nope FROM messages").unwrap();
    assert!(bind_statement(&bad, &cat, None).is_err());
}
