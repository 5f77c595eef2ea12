//! Parser tests, including the SQL-PLE extension and the paper's queries.

use super::*;

fn parse_ok(sql: &str) -> Statement {
    parse_statement(sql).unwrap_or_else(|e| panic!("parse of {sql:?} failed: {e}"))
}

fn query_of(stmt: Statement) -> Query {
    match stmt {
        Statement::Query(q) => q,
        other => panic!("expected query, got {other:?}"),
    }
}

fn select_of(q: &Query) -> &Select {
    match &q.body {
        QueryBody::Select(s) => s,
        other => panic!("expected select core, got {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Basic SELECT
// ----------------------------------------------------------------------

#[test]
fn select_star() {
    let q = query_of(parse_ok("SELECT * FROM messages"));
    let s = select_of(&q);
    assert_eq!(s.items, vec![SelectItem::Wildcard]);
    assert_eq!(s.from.len(), 1);
}

#[test]
fn select_columns_with_aliases() {
    let q = query_of(parse_ok(
        "SELECT mId, text AS body, uId author FROM messages m",
    ));
    let s = select_of(&q);
    assert_eq!(s.items.len(), 3);
    match &s.items[1] {
        SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("body")),
        other => panic!("unexpected {other:?}"),
    }
    match &s.items[2] {
        SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("author")),
        other => panic!("unexpected {other:?}"),
    }
    match &s.from[0] {
        TableRef::Relation { name, alias, .. } => {
            assert_eq!(name, "messages");
            assert_eq!(alias.as_deref(), Some("m"));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn qualified_wildcard() {
    let q = query_of(parse_ok("SELECT v1.* FROM v1"));
    assert_eq!(
        select_of(&q).items,
        vec![SelectItem::QualifiedWildcard("v1".into())]
    );
}

#[test]
fn identifiers_fold_to_lowercase() {
    let q = query_of(parse_ok("SELECT MId FROM Messages"));
    match &select_of(&q).items[0] {
        SelectItem::Expr { expr, .. } => assert_eq!(*expr, Expr::col("mid")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn where_group_having_order_limit() {
    let q = query_of(parse_ok(
        "SELECT uid, count(*) FROM approved WHERE mid > 1 \
         GROUP BY uid HAVING count(*) > 1 ORDER BY uid DESC LIMIT 10 OFFSET 2",
    ));
    let s = select_of(&q);
    assert!(s.where_clause.is_some());
    assert_eq!(s.group_by.len(), 1);
    assert!(s.having.is_some());
    assert_eq!(q.order_by.len(), 1);
    assert!(q.order_by[0].desc);
    assert_eq!(q.limit, Some(10));
    assert_eq!(q.offset, Some(2));
}

#[test]
fn select_distinct() {
    let q = query_of(parse_ok("SELECT DISTINCT uid FROM approved"));
    assert!(select_of(&q).distinct);
}

#[test]
fn select_without_from() {
    let q = query_of(parse_ok("SELECT 1 + 2"));
    assert!(select_of(&q).from.is_empty());
}

// ----------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------

#[test]
fn join_kinds() {
    for (sql, kind) in [
        ("a JOIN b ON a.x = b.x", JoinKind::Inner),
        ("a INNER JOIN b ON a.x = b.x", JoinKind::Inner),
        ("a LEFT JOIN b ON a.x = b.x", JoinKind::Left),
        ("a LEFT OUTER JOIN b ON a.x = b.x", JoinKind::Left),
        ("a RIGHT JOIN b ON a.x = b.x", JoinKind::Right),
        ("a FULL OUTER JOIN b ON a.x = b.x", JoinKind::Full),
    ] {
        let q = query_of(parse_ok(&format!("SELECT * FROM {sql}")));
        match &select_of(&q).from[0] {
            TableRef::Join { kind: k, on, .. } => {
                assert_eq!(*k, kind, "{sql}");
                assert!(on.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn cross_join_has_no_condition() {
    let q = query_of(parse_ok("SELECT * FROM a CROSS JOIN b"));
    match &select_of(&q).from[0] {
        TableRef::Join { kind, on, .. } => {
            assert_eq!(*kind, JoinKind::Cross);
            assert!(on.is_none());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn join_is_left_associative() {
    let q = query_of(parse_ok(
        "SELECT * FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y",
    ));
    match &select_of(&q).from[0] {
        TableRef::Join { left, right, .. } => {
            assert!(matches!(**left, TableRef::Join { .. }));
            assert!(matches!(**right, TableRef::Relation { .. }));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn comma_separated_from_items() {
    let q = query_of(parse_ok("SELECT * FROM a, b, c"));
    assert_eq!(select_of(&q).from.len(), 3);
}

#[test]
fn derived_table_requires_alias() {
    assert!(parse_statement("SELECT * FROM (SELECT 1)").is_err());
    let q = query_of(parse_ok("SELECT * FROM (SELECT 1) AS t"));
    match &select_of(&q).from[0] {
        TableRef::Subquery { alias, .. } => assert_eq!(alias, "t"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn parenthesized_join_tree() {
    let q = query_of(parse_ok(
        "SELECT * FROM (a JOIN b ON a.x = b.x) JOIN c ON c.y = a.x",
    ));
    match &select_of(&q).from[0] {
        TableRef::Join { left, .. } => assert!(matches!(**left, TableRef::Join { .. })),
        other => panic!("unexpected {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Set operations
// ----------------------------------------------------------------------

#[test]
fn union_of_selects_q1() {
    // q1 from Figure 1 of the paper.
    let q = query_of(parse_ok(
        "SELECT mId, text FROM messages UNION SELECT mId, text FROM imports",
    ));
    match &q.body {
        QueryBody::SetOp { op, all, .. } => {
            assert_eq!(*op, SetOpKind::Union);
            assert!(!*all);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn union_all_keeps_duplicates() {
    let q = query_of(parse_ok("SELECT 1 UNION ALL SELECT 2"));
    match &q.body {
        QueryBody::SetOp { all, .. } => assert!(*all),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn intersect_binds_tighter_than_union() {
    let q = query_of(parse_ok("SELECT 1 UNION SELECT 2 INTERSECT SELECT 3"));
    match &q.body {
        QueryBody::SetOp { op, right, .. } => {
            assert_eq!(*op, SetOpKind::Union);
            assert!(matches!(
                **right,
                QueryBody::SetOp {
                    op: SetOpKind::Intersect,
                    ..
                }
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn set_ops_are_left_associative() {
    let q = query_of(parse_ok("SELECT 1 EXCEPT SELECT 2 UNION SELECT 3"));
    match &q.body {
        QueryBody::SetOp { op, left, .. } => {
            assert_eq!(*op, SetOpKind::Union);
            assert!(matches!(
                **left,
                QueryBody::SetOp {
                    op: SetOpKind::Except,
                    ..
                }
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn order_by_applies_to_whole_set_operation() {
    let q = query_of(parse_ok("SELECT 1 AS x UNION SELECT 2 ORDER BY x"));
    assert!(matches!(q.body, QueryBody::SetOp { .. }));
    assert_eq!(q.order_by.len(), 1);
}

// ----------------------------------------------------------------------
// SQL-PLE: the provenance language extension (paper Section 2.4)
// ----------------------------------------------------------------------

#[test]
fn select_provenance() {
    let q = query_of(parse_ok("SELECT PROVENANCE mId, text FROM messages"));
    let clause = q.provenance_clause().expect("provenance clause");
    assert_eq!(clause.semantics, None, "default semantics");
}

#[test]
fn select_provenance_on_contribution_influence() {
    // Verbatim from the paper (modulo whitespace).
    let q = query_of(parse_ok(
        "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text \
         FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId",
    ));
    assert_eq!(
        q.provenance_clause().unwrap().semantics,
        Some(ContributionSemantics::Influence)
    );
}

#[test]
fn contribution_semantics_variants() {
    for (kw, sem) in [
        ("INFLUENCE", ContributionSemantics::Influence),
        ("COPY", ContributionSemantics::Copy(CopyMode::Partial)),
        (
            "COPY PARTIAL",
            ContributionSemantics::Copy(CopyMode::Partial),
        ),
        (
            "COPY COMPLETE",
            ContributionSemantics::Copy(CopyMode::Complete),
        ),
        ("LINEAGE", ContributionSemantics::Lineage),
    ] {
        let q = query_of(parse_ok(&format!(
            "SELECT PROVENANCE ON CONTRIBUTION ({kw}) * FROM t"
        )));
        assert_eq!(q.provenance_clause().unwrap().semantics, Some(sem), "{kw}");
    }
}

#[test]
fn bad_contribution_semantics_is_an_error() {
    assert!(parse_statement("SELECT PROVENANCE ON CONTRIBUTION (WITNESS) * FROM t").is_err());
}

#[test]
fn baserelation_modifier() {
    // Verbatim example from the paper.
    let q = query_of(parse_ok(
        "SELECT PROVENANCE text FROM v1 BASERELATION WHERE count > 3",
    ));
    let s = select_of(&q);
    match &s.from[0] {
        TableRef::Relation {
            name, modifiers, ..
        } => {
            assert_eq!(name, "v1");
            assert!(modifiers.baserelation);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(s.where_clause.is_some());
}

#[test]
fn from_item_provenance_attribute_list() {
    let q = query_of(parse_ok(
        "SELECT PROVENANCE * FROM imported PROVENANCE (src_id, src_origin)",
    ));
    match &select_of(&q).from[0] {
        TableRef::Relation { modifiers, .. } => {
            assert_eq!(
                modifiers.provenance_attrs.as_deref(),
                Some(&["src_id".to_string(), "src_origin".to_string()][..])
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn baserelation_on_subquery() {
    let q = query_of(parse_ok(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages) sub BASERELATION",
    ));
    match &select_of(&q).from[0] {
        TableRef::Subquery {
            alias, modifiers, ..
        } => {
            assert_eq!(alias, "sub");
            assert!(modifiers.baserelation);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn provenance_is_a_plain_identifier_outside_select() {
    // `provenance` must remain usable as a table or column name.
    let q = query_of(parse_ok("SELECT p.x FROM provenance p"));
    match &select_of(&q).from[0] {
        TableRef::Relation { name, .. } => assert_eq!(name, "provenance"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn provenance_subquery_composition() {
    // The paper's "query the provenance" example: an outer query filters a
    // PROVENANCE subquery on count > 5 AND p_origin = 'superForum'.
    let q = query_of(parse_ok(
        "SELECT text, prov_public_imports_origin FROM \
         (SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
          GROUP BY v1.mId) AS prov \
         WHERE count > 5 AND prov_public_imports_origin = 'superForum'",
    ));
    let s = select_of(&q);
    match &s.from[0] {
        TableRef::Subquery { query, .. } => {
            assert!(query.provenance_clause().is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
}

// ----------------------------------------------------------------------
// Expressions
// ----------------------------------------------------------------------

#[test]
fn operator_precedence() {
    let e = parse_expression("1 + 2 * 3").unwrap();
    assert_eq!(
        e,
        Expr::binary(
            BinaryOp::Add,
            Expr::int(1),
            Expr::binary(BinaryOp::Mul, Expr::int(2), Expr::int(3))
        )
    );
}

#[test]
fn and_binds_tighter_than_or() {
    let e = parse_expression("a OR b AND c").unwrap();
    match e {
        Expr::Binary {
            op: BinaryOp::Or,
            right,
            ..
        } => {
            assert!(matches!(
                *right,
                Expr::Binary {
                    op: BinaryOp::And,
                    ..
                }
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn not_has_lower_precedence_than_comparison() {
    let e = parse_expression("NOT x = 1").unwrap();
    match e {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            assert!(matches!(
                *expr,
                Expr::Binary {
                    op: BinaryOp::Eq,
                    ..
                }
            ));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn comparison_operators() {
    for (sql, op) in [
        ("a = b", BinaryOp::Eq),
        ("a <> b", BinaryOp::NotEq),
        ("a != b", BinaryOp::NotEq),
        ("a < b", BinaryOp::Lt),
        ("a <= b", BinaryOp::LtEq),
        ("a > b", BinaryOp::Gt),
        ("a >= b", BinaryOp::GtEq),
    ] {
        match parse_expression(sql).unwrap() {
            Expr::Binary { op: o, .. } => assert_eq!(o, op, "{sql}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn is_null_and_is_not_null() {
    assert_eq!(
        parse_expression("x IS NULL").unwrap(),
        Expr::IsNull {
            expr: Box::new(Expr::col("x")),
            negated: false
        }
    );
    assert_eq!(
        parse_expression("x IS NOT NULL").unwrap(),
        Expr::IsNull {
            expr: Box::new(Expr::col("x")),
            negated: true
        }
    );
}

#[test]
fn is_distinct_from() {
    match parse_expression("a IS DISTINCT FROM b").unwrap() {
        Expr::IsDistinctFrom { negated, .. } => assert!(negated),
        other => panic!("unexpected {other:?}"),
    }
    match parse_expression("a IS NOT DISTINCT FROM b").unwrap() {
        Expr::IsDistinctFrom { negated, .. } => assert!(!negated),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn like_between_in() {
    assert!(matches!(
        parse_expression("t LIKE 'super%'").unwrap(),
        Expr::Like { negated: false, .. }
    ));
    assert!(matches!(
        parse_expression("t NOT LIKE '%x'").unwrap(),
        Expr::Like { negated: true, .. }
    ));
    assert!(matches!(
        parse_expression("x BETWEEN 1 AND 10").unwrap(),
        Expr::Between { negated: false, .. }
    ));
    assert!(matches!(
        parse_expression("x NOT IN (1, 2, 3)").unwrap(),
        Expr::InList { negated: true, .. }
    ));
}

#[test]
fn in_subquery_and_exists() {
    assert!(matches!(
        parse_expression("x IN (SELECT mid FROM approved)").unwrap(),
        Expr::InSubquery { negated: false, .. }
    ));
    assert!(matches!(
        parse_expression("EXISTS (SELECT 1 FROM approved)").unwrap(),
        Expr::Exists { negated: false, .. }
    ));
    // NOT EXISTS arrives via the generic NOT unary.
    match parse_expression("NOT EXISTS (SELECT 1)").unwrap() {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            assert!(matches!(*expr, Expr::Exists { .. }));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn scalar_subquery() {
    assert!(matches!(
        parse_expression("(SELECT max(mid) FROM messages)").unwrap(),
        Expr::ScalarSubquery(_)
    ));
}

#[test]
fn case_expressions() {
    match parse_expression("CASE WHEN x > 0 THEN 'pos' ELSE 'neg' END").unwrap() {
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            assert!(operand.is_none());
            assert_eq!(branches.len(), 1);
            assert!(else_branch.is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
    match parse_expression("CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END").unwrap() {
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            assert!(operand.is_some());
            assert_eq!(branches.len(), 2);
            assert!(else_branch.is_none());
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(parse_expression("CASE END").is_err());
}

#[test]
fn function_calls() {
    assert_eq!(
        parse_expression("count(*)").unwrap(),
        Expr::Function {
            name: "count".into(),
            args: vec![],
            distinct: false,
            star: true
        }
    );
    assert!(matches!(
        parse_expression("sum(DISTINCT x)").unwrap(),
        Expr::Function { distinct: true, .. }
    ));
    match parse_expression("coalesce(a, b, 0)").unwrap() {
        Expr::Function { name, args, .. } => {
            assert_eq!(name, "coalesce");
            assert_eq!(args.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn cast_expression() {
    assert_eq!(
        parse_expression("CAST(x AS int)").unwrap(),
        Expr::Cast {
            expr: Box::new(Expr::col("x")),
            ty: perm_types::DataType::Int
        }
    );
}

#[test]
fn literals() {
    assert_eq!(parse_expression("42").unwrap(), Expr::int(42));
    assert_eq!(
        parse_expression("-3").unwrap(),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::int(3))
        }
    );
    assert_eq!(
        parse_expression("2.5").unwrap(),
        Expr::Literal(Value::Float(2.5))
    );
    assert_eq!(
        parse_expression("'it''s'").unwrap(),
        Expr::Literal(Value::text("it's"))
    );
    assert_eq!(
        parse_expression("TRUE").unwrap(),
        Expr::Literal(Value::Bool(true))
    );
    assert_eq!(
        parse_expression("NULL").unwrap(),
        Expr::Literal(Value::Null)
    );
}

#[test]
fn concat_operator() {
    assert!(matches!(
        parse_expression("a || b").unwrap(),
        Expr::Binary {
            op: BinaryOp::Concat,
            ..
        }
    ));
}

// ----------------------------------------------------------------------
// DDL / DML
// ----------------------------------------------------------------------

#[test]
fn create_table() {
    match parse_ok("CREATE TABLE users (uId int NOT NULL, name text)") {
        Statement::CreateTable { name, columns } => {
            assert_eq!(name, "users");
            assert_eq!(columns.len(), 2);
            assert!(columns[0].not_null);
            assert!(!columns[1].not_null);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn create_view_q2() {
    // q2 from Figure 1: CREATE VIEW v1 AS q1.
    match parse_ok(
        "CREATE VIEW v1 AS SELECT mId, text FROM messages \
         UNION SELECT mId, text FROM imports",
    ) {
        Statement::CreateView { name, query, sql } => {
            assert_eq!(name, "v1");
            assert!(matches!(query.body, QueryBody::SetOp { .. }));
            assert_eq!(
                sql,
                "SELECT mId, text FROM messages UNION SELECT mId, text FROM imports"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn create_table_as_provenance_is_the_eager_path() {
    match parse_ok("CREATE TABLE p AS SELECT PROVENANCE * FROM messages") {
        Statement::CreateTableAs { name, query } => {
            assert_eq!(name, "p");
            assert!(query.provenance_clause().is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn insert_rows() {
    match parse_ok("INSERT INTO users (uid, name) VALUES (1, 'Bert'), (2, 'Gert')") {
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            assert_eq!(table, "users");
            assert_eq!(columns.unwrap().len(), 2);
            assert_eq!(rows.len(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn drop_table_if_exists() {
    match parse_ok("DROP TABLE IF EXISTS t") {
        Statement::Drop {
            kind,
            name,
            if_exists,
        } => {
            assert_eq!(kind, ObjectKind::Table);
            assert_eq!(name, "t");
            assert!(if_exists);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn explain_statement() {
    assert!(matches!(
        parse_ok("EXPLAIN SELECT PROVENANCE * FROM t"),
        Statement::Explain {
            verbose: false,
            verify: false,
            ..
        }
    ));
    assert!(matches!(
        parse_ok("EXPLAIN VERBOSE SELECT * FROM t"),
        Statement::Explain {
            verbose: true,
            verify: false,
            ..
        }
    ));
}

#[test]
fn explain_verify_statement() {
    assert!(matches!(
        parse_ok("EXPLAIN VERIFY SELECT * FROM t"),
        Statement::Explain {
            verbose: false,
            verify: true,
            ..
        }
    ));
    // VERIFY must precede VERBOSE, like PostgreSQL option order.
    assert!(matches!(
        parse_ok("EXPLAIN VERIFY VERBOSE SELECT PROVENANCE * FROM t"),
        Statement::Explain {
            verbose: true,
            verify: true,
            ..
        }
    ));
    // `verify` is not reserved: still fine as an identifier.
    assert!(matches!(
        parse_ok("SELECT verify FROM t"),
        Statement::Query(_)
    ));
}

#[test]
fn delete_statement() {
    match parse_ok("DELETE FROM t WHERE x > 3") {
        Statement::Delete { table, predicate } => {
            assert_eq!(table, "t");
            assert!(predicate.is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
    match parse_ok("DELETE FROM t") {
        Statement::Delete { predicate, .. } => assert!(predicate.is_none()),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn update_statement() {
    match parse_ok("UPDATE t SET x = x + 1, y = 'z' WHERE x < 9") {
        Statement::Update {
            table,
            assignments,
            predicate,
        } => {
            assert_eq!(table, "t");
            assert_eq!(assignments.len(), 2);
            assert_eq!(assignments[0].0, "x");
            assert_eq!(assignments[1].0, "y");
            assert!(predicate.is_some());
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn parse_script_with_semicolons() {
    let stmts =
        parse_statements("CREATE TABLE t (x int); INSERT INTO t VALUES (1);; SELECT * FROM t;")
            .unwrap();
    let texts: Vec<&str> = stmts.iter().map(|(_, text)| *text).collect();
    assert_eq!(
        texts,
        [
            "CREATE TABLE t (x int)",
            "INSERT INTO t VALUES (1)",
            "SELECT * FROM t"
        ]
    );
}

// ----------------------------------------------------------------------
// Errors
// ----------------------------------------------------------------------

#[test]
fn error_messages_carry_position() {
    let err = parse_statement("SELECT 1 +").unwrap_err();
    assert_eq!(err.kind(), "parse");
    assert!(err.message().contains("line 1"), "{err}");
}

#[test]
fn trailing_garbage_is_rejected() {
    assert!(parse_statement("SELECT 1 tail tail").is_err());
    assert!(parse_statement("SELECT * FROM t WHERE").is_err());
}

#[test]
fn unbalanced_parens_are_rejected() {
    assert!(parse_statement("SELECT (1 + 2 FROM t").is_err());
    assert!(parse_statement("SELECT * FROM (SELECT 1 AS x t").is_err());
}

// ----------------------------------------------------------------------
// The full paper query set round-trips through the parser
// ----------------------------------------------------------------------

#[test]
fn all_paper_queries_parse() {
    let queries = [
        // Figure 1.
        "SELECT mId, text FROM messages UNION SELECT mId, text FROM imports",
        "CREATE VIEW v1 AS SELECT mId, text FROM messages UNION SELECT mId, text FROM imports",
        "SELECT count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) GROUP BY v1.mId, text",
        // Section 2.4 examples.
        "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text \
         FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId",
        "SELECT text, p_origin FROM \
         (SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
          GROUP BY v1.mId) AS prov \
         WHERE count > 5 AND p_origin = 'superForum'",
        "SELECT PROVENANCE text FROM v1 BASERELATION WHERE count > 3",
    ];
    for sql in queries {
        parse_ok(sql);
    }
}
