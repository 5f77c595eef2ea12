//! Property test: `parse_statements` hands back each statement's own
//! source text — what a durable server logs and replays — however the
//! script around it is laid out.
//!
//! Scripts are built from a fixed list of statements joined by random
//! whitespace, `--` and `/* */` comments and runs of `;`. For every
//! statement, the returned text must be exactly the statement as
//! written, re-parse through `parse_statement` to the same AST, and for
//! a `CREATE VIEW` the recorded definition text must re-parse to the
//! view's query.

use std::ops::Range;

use proptest::prelude::*;

use perm_sql::{parse_statement, parse_statements, Statement};

/// Statements whose text a deparser would not reproduce: quoted
/// identifiers, literals that re-render differently, comments and `;`
/// inside the statement, non-ASCII text and line breaks.
const STATEMENTS: &[&str] = &[
    "CREATE TABLE \"my table\" (x int NOT NULL, \"Y\" text)",
    "INSERT INTO \"my table\" VALUES (1e300, 'it''s; -- not a comment'), (-2, 'héllo ✓')",
    "CREATE TABLE p AS SELECT 1e16 / 3 AS y",
    "CREATE VIEW w AS SELECT x * 1e16 / 3 AS \"Big Y\" FROM t",
    "CREATE VIEW v1 AS SELECT mid, text FROM messages /* q1 */ UNION SELECT mid, text FROM imports",
    "CREATE TABLE e AS SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) mid FROM m",
    "UPDATE t SET y = y || '!'\n  WHERE x = 2 -- the second row\n  AND y <> ';'",
    "DELETE FROM t WHERE x IN (1, 2)",
    "SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid = 4 ORDER BY text LIMIT 1",
    "EXPLAIN SELECT 1",
    "DROP VIEW IF EXISTS v1",
];

fn whitespace() -> impl Strategy<Value = String> {
    prop::collection::vec(prop_oneof![Just(' '), Just('\n'), Just('\t')], 0..3)
        .prop_map(String::from_iter)
}

/// Whitespace, an optional comment, then a number of `;` drawn from
/// `semicolons`, each followed by whitespace.
fn separator(semicolons: Range<usize>) -> impl Strategy<Value = String> {
    (
        whitespace(),
        0..3usize,
        prop::collection::vec(whitespace(), semicolons),
    )
        .prop_map(|(lead, comment, runs)| {
            let mut s = lead;
            s.push_str(["", "-- a comment; not a statement\n", "/* a; comment */"][comment]);
            for ws in runs {
                s.push(';');
                s.push_str(&ws);
            }
            s
        })
}

/// A script and the indexes into [`STATEMENTS`] it is made of.
fn script() -> impl Strategy<Value = (String, Vec<usize>)> {
    (
        separator(0..3),
        prop::collection::vec((0..STATEMENTS.len(), separator(1..3)), 0..5),
        0..STATEMENTS.len(),
        separator(0..3),
    )
        .prop_map(|(lead, body, last, tail)| {
            let mut sql = lead;
            let mut picks = Vec::new();
            for (i, sep) in body {
                sql.push_str(STATEMENTS[i]);
                sql.push_str(&sep);
                picks.push(i);
            }
            sql.push_str(STATEMENTS[last]);
            sql.push_str(&tail);
            picks.push(last);
            (sql, picks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn each_statement_keeps_its_source_text(case in script()) {
        let (sql, picks) = case;
        let parsed = parse_statements(&sql).unwrap();
        prop_assert_eq!(parsed.len(), picks.len(), "{}", sql);
        for ((stmt, text), &i) in parsed.iter().zip(&picks) {
            prop_assert_eq!(*text, STATEMENTS[i], "{}", sql);
            prop_assert_eq!(&parse_statement(text).unwrap(), stmt);
            if let Statement::CreateView { query, sql: definition, .. } = stmt {
                prop_assert!(text.ends_with(definition.as_str()));
                prop_assert_eq!(
                    parse_statement(definition).unwrap(),
                    Statement::Query(query.clone())
                );
            }
        }
    }
}
