//! Optimizer soundness: the planner's rewrites (boundary elimination,
//! projection merging, filter pushdown, filter merging, column pruning
//! with fan-out at the root) must never change results. Every query shape in the repertoire — and randomly generated
//! filters — is executed both unoptimized and optimized and compared as a
//! bag of rows. The columnar switch must not change results either: the
//! benchmark's statements return the same rows, in the same order, with
//! it on and off.

use std::collections::HashMap;

use proptest::prelude::*;

use perm_algebra::LogicalPlan;
use perm_core::fixtures::{forum_db, Q1, Q3, SEC24_PROVENANCE_AGG};
use perm_core::{PermServer, Session, StatementResult, Tuple};
use perm_exec::{optimize, Executor, PhysicalPlanner};

/// `plan` lowered by the default physical planner and run over a fresh
/// snapshot of `db`, with the columnar switch at `columnar`.
fn execute(db: &Session, plan: &LogicalPlan, columnar: bool) -> perm_core::Result<Vec<Tuple>> {
    let snapshot = db.snapshot();
    let physical = PhysicalPlanner::new(&snapshot).plan(plan);
    Executor::new(snapshot)
        .with_columnar(columnar)
        .run_physical(&physical)
}

/// Execute `sql` with and without the optimizer; return both row bags.
/// The optimizer must hand back the bound plan's columns — order, names
/// and types — whatever it did below the root.
fn both_ways(db: &Session, sql: &str) -> (Vec<Tuple>, Vec<Tuple>) {
    let plan = db.bind_sql(sql).expect("binds");
    let raw = execute(db, &plan, true).expect("raw runs");
    let columns = plan.schema().clone();
    let optimized_plan = optimize(plan);
    assert_eq!(optimized_plan.schema(), &columns, "columns of {sql:?}");
    let optimized = execute(db, &optimized_plan, true).expect("optimized runs");
    (raw, optimized)
}

/// Compare as bags (the optimizer may legally reorder rows of unsorted
/// queries).
fn bag(rows: &[Tuple]) -> HashMap<&Tuple, usize> {
    let mut m = HashMap::new();
    for t in rows {
        *m.entry(t).or_insert(0) += 1;
    }
    m
}

fn assert_equivalent(db: &Session, sql: &str) {
    let (raw, optimized) = both_ways(db, sql);
    assert_eq!(
        bag(&raw),
        bag(&optimized),
        "optimizer changed the result of {sql:?}"
    );
}

#[test]
fn repertoire_of_query_shapes() {
    let db = forum_db();
    db.run_script(
        "CREATE TABLE extra (x int, y int);
         INSERT INTO extra VALUES (1, 10), (2, 20), (NULL, 30);",
    )
    .unwrap();
    let queries: Vec<String> = vec![
        // Plain shapes.
        "SELECT * FROM messages".into(),
        "SELECT mid + 1, upper(text) FROM messages WHERE mid > 1".into(),
        "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE u.uid >= 2"
            .into(),
        "SELECT * FROM messages m LEFT JOIN approved a ON m.mid = a.mid WHERE m.mid > 0".into(),
        "SELECT * FROM users, approved WHERE users.uid = approved.uid AND approved.mid > 2".into(),
        "SELECT count(*), uid FROM approved GROUP BY uid HAVING count(*) >= 1".into(),
        "SELECT DISTINCT uid FROM approved WHERE mid = 4".into(),
        Q1.into(),
        format!("{Q3} ORDER BY 1 DESC"),
        "SELECT mid FROM messages EXCEPT SELECT mid FROM approved".into(),
        "SELECT x FROM extra WHERE x IS NOT NULL ORDER BY x LIMIT 1".into(),
        "SELECT name FROM users u WHERE EXISTS (SELECT 1 FROM approved a WHERE a.uid = u.uid)"
            .into(),
        "SELECT mid FROM messages WHERE mid IN (SELECT mid FROM approved)".into(),
        // Correlated sublinks: a reference two levels up, an EXISTS over
        // a join, and an uncorrelated IN inside a correlated body.
        "SELECT a.mid FROM approved a WHERE EXISTS (SELECT 1 FROM messages m \
         WHERE a.mid = m.mid AND EXISTS (SELECT 1 FROM users u \
         WHERE u.uid = a.uid AND u.uid = m.uid))"
            .into(),
        "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid \
         WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid AND a.uid = u.uid)"
            .into(),
        "SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM approved a \
         WHERE a.uid = u.uid AND a.mid IN (SELECT mid FROM messages WHERE mid > 2))"
            .into(),
        // Provenance shapes (the optimizer sees the rewritten plans).
        "SELECT PROVENANCE mid, text FROM messages WHERE mid > 1".into(),
        format!("SELECT PROVENANCE * FROM ({Q1}) q1"),
        SEC24_PROVENANCE_AGG.into(),
        "SELECT PROVENANCE text FROM v1 BASERELATION".into(),
        "SELECT PROVENANCE m.text FROM messages m JOIN approved a ON m.mid = a.mid".into(),
        "SELECT PROVENANCE ON CONTRIBUTION (COPY) text FROM messages".into(),
        "SELECT PROVENANCE ON CONTRIBUTION (LINEAGE) * FROM \
         (SELECT mid FROM messages EXCEPT SELECT mid FROM imports) d"
            .into(),
        "SELECT PROVENANCE text FROM messages WHERE mid IN (SELECT mid FROM approved)".into(),
        // Multi-join provenance shapes: column pruning + join reordering
        // + strategy selection all fire on these.
        "SELECT PROVENANCE a.mid, m.text, u.name FROM approved a \
         JOIN messages m ON a.mid = m.mid JOIN users u ON m.uid = u.uid"
            .into(),
        "SELECT PROVENANCE m.text FROM messages m JOIN approved a ON m.mid = a.mid \
         JOIN users u ON a.uid = u.uid WHERE u.uid >= 2"
            .into(),
    ];
    for sql in queries {
        assert_equivalent(&db, &sql);
    }
}

/// The PR-4 acceptance shape: `EXPLAIN` on a 3-table provenance query
/// over skewed table sizes shows (a) a join tree reordered away from the
/// FROM order and (b) pruned columns (fused slot projections narrower
/// than the full concatenated width).
#[test]
fn explain_shows_reordered_and_pruned_provenance_plan() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE fact (k int NOT NULL, j int NOT NULL, payload text);
         CREATE TABLE dim (k int NOT NULL, name text);
         CREATE TABLE tiny (j int NOT NULL, tag text);",
    )
    .unwrap();
    {
        let mut cat = db.catalog_write();
        let fact = cat.table_mut("fact").unwrap();
        for i in 0..400 {
            fact.push_raw(Tuple::new(vec![
                perm_core::Value::Int(i % 50),
                perm_core::Value::Int(i % 4),
                perm_core::Value::text(format!("p{i}")),
            ]));
        }
        let dim = cat.table_mut("dim").unwrap();
        for i in 0..50 {
            dim.push_raw(Tuple::new(vec![
                perm_core::Value::Int(i),
                perm_core::Value::text(format!("d{i}")),
            ]));
        }
        let tiny = cat.table_mut("tiny").unwrap();
        for i in 0..4 {
            tiny.push_raw(Tuple::new(vec![
                perm_core::Value::Int(i),
                perm_core::Value::text(format!("t{i}")),
            ]));
        }
    }
    // FROM order puts the big fact table first; the reorderer should
    // start from a smaller relation instead.
    let sql = "EXPLAIN SELECT PROVENANCE f.payload FROM fact f \
               JOIN dim d ON f.k = d.k JOIN tiny t ON f.j = t.j";
    let StatementResult::Explain(tree) = db.execute(sql).unwrap() else {
        panic!("EXPLAIN did not explain");
    };
    let pos = |s: &str| {
        tree.find(s)
            .unwrap_or_else(|| panic!("{s} missing in:\n{tree}"))
    };
    assert!(
        pos("Scan(fact)") > pos("Scan(tiny)") || pos("Scan(fact)") > pos("Scan(dim)"),
        "join tree not reordered:\n{tree}"
    );
    // Pruned columns: some join emits a fused slot projection (the
    // unselected originals were dropped below the top projection).
    assert!(
        tree.contains("project="),
        "no pruned columns visible:\n{tree}"
    );
    // And the result of the same query is sane: one witness per fact row
    // with matching dim and tiny tuples.
    let rows = db
        .query(
            "SELECT PROVENANCE f.payload FROM fact f \
             JOIN dim d ON f.k = d.k JOIN tiny t ON f.j = t.j",
        )
        .unwrap();
    assert_eq!(rows.row_count(), 400);
    // payload + provenance of fact(3) + dim(2) + tiny(2).
    assert_eq!(rows.columns.len(), 1 + 3 + 2 + 2);
}

#[test]
fn boundary_nodes_are_transparent_to_execution() {
    // A BASERELATION boundary outside a provenance context must be a
    // no-op for both the raw and the optimized path.
    let db = forum_db();
    let (raw, optimized) = both_ways(&db, "SELECT text FROM v1 BASERELATION");
    assert_eq!(bag(&raw), bag(&optimized));
    assert_eq!(raw.len(), 4);
}

/// A correlated sublink reads its enclosing row through its outer
/// references, which every optimizer phase remaps with the rest of the
/// plan, and an outer reference from an aggregate scope binds as the same
/// column written directly there. Each query returns its decorrelated
/// form's bag, optimized and not, with the columnar switch on and off.
#[test]
fn correlated_sublinks_return_their_decorrelated_bags() {
    let db = scaled_forum(20, false);
    let count_below = "(SELECT count(*) FROM messages m WHERE m.mid < a.mid)";
    let cases = [
        // A reordering projection under the sublink's scope.
        (
            "SELECT (SELECT count(*) FROM messages m WHERE m.mid < s.x) \
             FROM (SELECT mid AS x, uid FROM approved) s"
                .to_string(),
            format!("SELECT {count_below} FROM approved a"),
        ),
        // HAVING: the reference is a group column of the aggregate.
        (
            "SELECT a.mid, count(*) FROM approved a GROUP BY a.mid \
             HAVING EXISTS (SELECT 1 FROM messages m WHERE m.mid = a.mid + 10)"
                .to_string(),
            "SELECT a.mid, count(*) FROM approved a \
             WHERE EXISTS (SELECT 1 FROM messages m WHERE m.mid = a.mid + 10) GROUP BY a.mid"
                .to_string(),
        ),
        // The select list of an aggregate select.
        (
            format!("SELECT a.mid, {count_below} FROM approved a GROUP BY a.mid"),
            format!("SELECT DISTINCT a.mid, {count_below} FROM approved a"),
        ),
        // A non-grouped column: the lenient implicit any_value, exactly
        // as `a.uid` written in the select list binds.
        (
            "SELECT a.mid, (SELECT count(*) FROM messages m WHERE m.uid = a.uid) \
             FROM approved a GROUP BY a.mid"
                .to_string(),
            "SELECT g.mid, (SELECT count(*) FROM messages m WHERE m.uid = g.uid) \
             FROM (SELECT a.mid, a.uid FROM approved a GROUP BY a.mid) g"
                .to_string(),
        ),
    ];
    let run = |sql: &str, optimized: bool, columnar: bool| -> Vec<Tuple> {
        let plan = db.bind_sql(sql).expect("binds");
        let plan = if optimized { optimize(plan) } else { plan };
        execute(&db, &plan, columnar).unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    for (sql, decorrelated) in &cases {
        let expected = run(decorrelated, false, false);
        assert!(!expected.is_empty(), "vacuous: {decorrelated}");
        for optimized in [false, true] {
            for columnar in [false, true] {
                assert_eq!(
                    bag(&run(sql, optimized, columnar)),
                    bag(&expected),
                    "{sql} optimized={optimized} columnar={columnar}"
                );
            }
        }
    }
}

/// The browser's SQL panel renders a correlated sublink's outer
/// references as the enclosing scope's qualified columns: the SQL
/// re-parses and returns the query's rows.
#[test]
fn correlated_sublinks_deparse_to_sql_that_reruns() {
    let db = forum_db();
    for sql in [
        "SELECT m.mid FROM messages m WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)",
        "SELECT a.mid FROM approved a WHERE EXISTS (SELECT 1 FROM messages m \
         WHERE a.mid = m.mid AND EXISTS (SELECT 1 FROM users u \
         WHERE u.uid = a.uid AND u.uid = m.uid))",
        "SELECT a.mid, (SELECT count(*) FROM messages m WHERE m.mid < a.mid) \
         FROM approved a GROUP BY a.mid",
    ] {
        let panels = perm_core::BrowserPanels::capture(&db, sql).unwrap();
        let rows = db.query(sql).unwrap().rows;
        assert!(!rows.is_empty(), "vacuous: {sql}");
        let reparsed = db
            .query(&panels.rewritten_sql)
            .unwrap_or_else(|e| panic!("{}: {e}", panels.rewritten_sql));
        assert_eq!(
            bag(&reparsed.rows),
            bag(&rows),
            "{sql}\n{}",
            panels.rewritten_sql
        );
    }
}

/// A witness aggregate deparses to the join-back it stands for: the SQL
/// re-parses, and runs (through the optimizer, which collapses it again)
/// to the same rows as the optimized plan it came from.
#[test]
fn witness_aggregates_deparse_to_their_join_back() {
    let db = forum_db();
    for sql in [
        "SELECT PROVENANCE a.mid, count(*) FROM messages m \
         JOIN approved a ON m.mid = a.mid GROUP BY a.mid",
        "SELECT PROVENANCE count(*), max(mid) FROM messages WHERE mid > 100",
        SEC24_PROVENANCE_AGG,
    ] {
        let optimized = optimize(db.bind_sql(sql).expect("binds"));
        let rows = execute(&db, &optimized, true).unwrap();
        let deparsed = perm_algebra::deparse(&optimized);
        assert!(
            !sql.contains("GROUP BY a.mid") || deparsed.contains("LEFT JOIN"),
            "{deparsed}"
        );
        let reparsed = db
            .query(&deparsed)
            .unwrap_or_else(|e| panic!("{deparsed}: {e}"));
        assert_eq!(bag(&reparsed.rows), bag(&rows), "{sql}\n{deparsed}");
    }
}

/// The Figure-1 forum shaped like the benchmark's generator (the same
/// shape `tests/plan_shapes.rs` builds): `scale` messages, `scale / 10`
/// users, `scale / 2` imports, `2 * scale` approvals, optional hash
/// indexes on the join columns, and the view `v1`.
fn scaled_forum(scale: usize, indexes: bool) -> Session {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE messages (mId int NOT NULL, text text, uId int);
         CREATE TABLE users (uId int NOT NULL, name text);
         CREATE TABLE imports (mId int NOT NULL, text text, origin text);
         CREATE TABLE approved (uId int NOT NULL, mId int NOT NULL);",
    )
    .unwrap();
    let users = (scale / 10).max(3);
    let mut script = String::new();
    for u in 0..users {
        script.push_str(&format!("INSERT INTO users VALUES ({u}, 'user{u}');\n"));
    }
    for m in 0..scale {
        script.push_str(&format!(
            "INSERT INTO messages VALUES ({m}, 'message body {m}', {});\n",
            (m * 7) % users
        ));
        for k in 0..[0, 1, 3, 4][m % 4] {
            script.push_str(&format!(
                "INSERT INTO approved VALUES ({}, {m});\n",
                (m + 3 * k) % users
            ));
        }
    }
    for m in 0..scale / 2 {
        script.push_str(&format!(
            "INSERT INTO imports VALUES ({}, 'imported body {m}', 'origin{}');\n",
            scale + m,
            m % 4
        ));
    }
    db.run_script(&script).unwrap();
    if indexes {
        db.create_index("users", "uid").unwrap();
        db.create_index("messages", "mid").unwrap();
        db.create_index("approved", "mid").unwrap();
    }
    db.execute(
        "CREATE VIEW v1 AS SELECT mId, text FROM messages UNION SELECT mId, text FROM imports",
    )
    .unwrap();
    db
}

/// Columnar execution is invisible at SQL level: the `q` and `q+` of
/// every statement the benchmark times (SQL text copied, not imported)
/// return the same rows in the same order with the columnar switch off
/// (the row interpreter everywhere) and on (the default), serial and at
/// a forced DOP 2, materialized and streamed. The forum spans more than
/// one kernel batch, with and without the join-column indexes.
#[test]
fn benchmark_statements_agree_with_columnar_off() {
    const SCALE: usize = 1100;
    let half = SCALE / 10 / 2;
    let pair = |q: &str| {
        (
            q.to_string(),
            q.replacen("SELECT ", "SELECT PROVENANCE ", 1),
        )
    };
    let mut pairs: Vec<(String, String)> = [
        "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid \
         WHERE m.mid % 4 = 0",
        "SELECT a.mid, count(*) FROM messages m JOIN approved a ON m.mid = a.mid GROUP BY a.mid",
        "SELECT mid, text FROM messages UNION SELECT mid, text FROM imports",
        "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)",
        "SELECT count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) \
         GROUP BY v1.mId, text",
        "SELECT mid, text FROM messages WHERE mid % 4 = 0 AND uid >= 10",
        "SELECT mid * 2 + 1, upper(text), length(text) - 5 FROM messages",
        "SELECT mid FROM messages WHERE text LIKE 'message body 1%'",
        "SELECT mid, uid FROM messages WHERE uid IN (1, 2, 3, 5, 8, 13, 21, 34)",
        "SELECT mid, uid FROM messages WHERE mid % 2 = 0 ORDER BY uid * 1000000 + mid LIMIT 50",
        "SELECT mid, text FROM v1 WHERE mid % 3 = 0",
    ]
    .into_iter()
    .map(pair)
    .collect();
    pairs.push(pair(&format!(
        "SELECT a.mid, m.text, u.name FROM approved a \
         JOIN messages m ON a.mid = m.mid JOIN users u ON m.uid = u.uid \
         WHERE u.uid < {half}"
    )));
    pairs.push(pair(&format!(
        "SELECT ua.name, m.text FROM approved a JOIN users ua ON a.uid = ua.uid \
         JOIN messages m ON a.mid = m.mid JOIN users um ON m.uid = um.uid \
         WHERE um.uid < {half}"
    )));
    pairs.push((
        "SELECT text FROM v1 WHERE mid > 3".into(),
        "SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid > 3".into(),
    ));
    for indexes in [false, true] {
        let db = scaled_forum(SCALE, indexes);
        for sql in pairs.iter().flat_map(|(q, prov)| [q, prov]) {
            let run = |columnar: bool, dop: usize, streamed: bool| -> Vec<Tuple> {
                let options = perm_core::SessionOptions::default()
                    .with_columnar(columnar)
                    .with_max_parallelism(dop)
                    .with_parallel_row_threshold(1);
                let session = db.clone().with_options(options);
                if streamed {
                    session
                        .query_stream(sql)
                        .unwrap()
                        .collect::<Result<_, _>>()
                        .unwrap()
                } else {
                    session.query(sql).unwrap().rows
                }
            };
            let reference = run(false, 1, false);
            assert!(!reference.is_empty(), "vacuous: {sql}");
            for dop in [1, 2] {
                for streamed in [false, true] {
                    for columnar in [false, true] {
                        assert_eq!(
                            run(columnar, dop, streamed),
                            reference,
                            "{sql} indexes={indexes} columnar={columnar} dop={dop} \
                             streamed={streamed}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random conjunctive filters over a join: pushdown must be sound.
    #[test]
    fn random_filters_survive_pushdown(
        rows in prop::collection::vec((-8i64..8, -8i64..8), 0..30),
        a_lo in -10i64..10,
        b_hi in -10i64..10,
        use_provenance in any::<bool>(),
    ) {
        let db = PermServer::new().session();
        db.run_script("CREATE TABLE t (a int, b int); CREATE TABLE u (a int, c int);")
            .unwrap();
        for (a, b) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({a}, {b})")).unwrap();
            db.execute(&format!("INSERT INTO u VALUES ({b}, {a})")).unwrap();
        }
        let kw = if use_provenance { "PROVENANCE " } else { "" };
        let sql = format!(
            "SELECT {kw}t.a, u.c FROM t JOIN u ON t.b = u.a \
             WHERE t.a > {a_lo} AND u.c <= {b_hi} AND t.b IS NOT NULL"
        );
        let (raw, optimized) = both_ways(&db, &sql);
        prop_assert_eq!(bag(&raw), bag(&optimized));
    }

    /// Duplicate-heavy select lists over 2–4-way joins: column pruning
    /// carries each base column once and fans the duplicates out at the
    /// root (or under DISTINCT / UNION), so every position must still
    /// show the value — or the NULL of an unmatched outer-join row — it
    /// showed before.
    #[test]
    fn duplicated_columns_survive_pruning(
        rows in prop::collection::vec((-3i64..4, -3i64..4), 1..16),
        picks in prop::collection::vec(0..8usize, 1..7),
        joins in 1..4usize,
        left_join in any::<bool>(),
        shape in 0..6usize,
    ) {
        let db = PermServer::new().session();
        db.run_script(
            "CREATE TABLE a (x int, y int); CREATE TABLE b (x int, y int);
             CREATE TABLE c (x int, y int); CREATE TABLE d (x int, y int);
             CREATE VIEW ab AS SELECT x, y FROM a UNION SELECT x, y FROM b;",
        )
        .unwrap();
        // Each table sees the pairs shifted differently, so every join
        // has matching keys, repeated keys and keys without a partner.
        for (i, (x, y)) in rows.iter().enumerate() {
            db.run_script(&format!(
                "INSERT INTO a VALUES ({x}, {y}); INSERT INTO b VALUES ({y}, {x});
                 INSERT INTO c VALUES ({}, {i}); INSERT INTO d VALUES ({i}, {});",
                x + 1,
                y - 1,
            ))
            .unwrap();
        }
        let join = if left_join { "LEFT JOIN" } else { "JOIN" };
        let from = ["b ON a.y = b.x", "c ON b.y = c.x", "d ON c.y = d.x"][..joins]
            .iter()
            .fold("a".to_string(), |from, next| format!("{from} {join} {next}"));
        // `SELECT a.x, a.x, b.y, a.x …`: any column of a joined table, any
        // number of times, in any order.
        let columns = ["a.x", "a.y", "b.x", "b.y", "c.x", "c.y", "d.x", "d.y"];
        let list = picks
            .iter()
            .map(|&p| columns[p % (2 * (joins + 1))])
            .collect::<Vec<_>>()
            .join(", ");
        let sql = match shape {
            0 => format!("SELECT {list} FROM {from}"),
            1 => format!("SELECT PROVENANCE {list} FROM {from}"),
            2 => format!("SELECT PROVENANCE DISTINCT {list} FROM {from}"),
            3 => format!("SELECT PROVENANCE ab.x, ab.x, c.y FROM ab {join} c ON ab.y = c.x"),
            4 => format!(
                "SELECT q.t, q.t, q.prov_public_a_y FROM \
                 (SELECT PROVENANCE a.x AS t, b.y FROM {from}) q"
            ),
            _ => {
                // Ordered by a provenance attribute first, then by every
                // output column, so that LIMIT cuts a total order.
                let every = (1..=picks.len() + 2 * (joins + 1))
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "SELECT PROVENANCE {list} FROM {from} \
                     ORDER BY prov_public_a_y DESC, {every} LIMIT 5"
                )
            }
        };
        let (raw, optimized) = both_ways(&db, &sql);
        prop_assert_eq!(bag(&raw), bag(&optimized), "{}", sql);
    }

    /// Set-semantics unions and DISTINCT over UNION ALL, plain and under
    /// `SELECT PROVENANCE [DISTINCT]`, over tables with and without
    /// `NOT NULL` columns: DISTINCT moves below the provenance padding
    /// only where the branches cannot share a row, and keeps every first
    /// occurrence in place — so the two results are equal row for row,
    /// order included. Base rows repeat, all-NULL rows sit in both
    /// nullable tables, and one `NOT NULL` column is null-extended by a
    /// LEFT join.
    #[test]
    fn distinct_moves_below_padded_unions(
        rows in prop::collection::vec(
            (proptest::option::of(-2i64..3), proptest::option::of(-2i64..3)),
            1..12,
        ),
        shape in 0..10usize,
    ) {
        let db = PermServer::new().session();
        db.run_script(
            "CREATE TABLE p (k int NOT NULL, v int); CREATE TABLE q (k int NOT NULL, v int);
             CREATE TABLE n1 (k int, v int); CREATE TABLE n2 (k int, v int);
             CREATE TABLE r (k int NOT NULL, w int);
             CREATE VIEW v1 AS SELECT k, v FROM p UNION SELECT k, v FROM q;
             INSERT INTO n1 VALUES (NULL, NULL); INSERT INTO n2 VALUES (NULL, NULL);",
        )
        .unwrap();
        let lit = |x: Option<i64>| x.map_or("NULL".to_string(), |x| x.to_string());
        for (i, (k, v)) in rows.iter().enumerate() {
            let (key, k, v) = (k.unwrap_or(0), lit(*k), lit(*v));
            db.run_script(&format!(
                "INSERT INTO p VALUES ({key}, {v}); INSERT INTO q VALUES ({}, {v});
                 INSERT INTO n1 VALUES ({k}, {v}); INSERT INTO n2 VALUES ({v}, {k});
                 INSERT INTO r VALUES ({}, {i});",
                -key,
                key + 1,
            ))
            .unwrap();
        }
        let sql = [
            "SELECT PROVENANCE k, v FROM p UNION SELECT k, v FROM q",
            "SELECT PROVENANCE DISTINCT * FROM \
             (SELECT k, v FROM p UNION ALL SELECT k, v FROM q) u",
            "SELECT DISTINCT * FROM (SELECT k, v FROM p UNION ALL SELECT k, v FROM n1) u",
            "SELECT PROVENANCE k, v FROM p UNION SELECT k, v FROM q UNION SELECT k, v FROM n1",
            "SELECT PROVENANCE * FROM (SELECT k, v FROM n1 UNION SELECT k, v FROM p) x \
             UNION SELECT k, v FROM q",
            "SELECT PROVENANCE k, v FROM v1 WHERE k >= 0",
            "SELECT PROVENANCE k FROM v1",
            "SELECT PROVENANCE k, v FROM n1 UNION SELECT k, v FROM n2",
            "SELECT PROVENANCE n1.k, n1.v FROM n1 LEFT JOIN r ON n1.k = r.k \
             UNION SELECT k, v FROM n2",
            "SELECT PROVENANCE DISTINCT v FROM \
             (SELECT k, v FROM p UNION SELECT k, v FROM n1) u",
        ][shape];
        let (raw, optimized) = both_ways(&db, sql);
        prop_assert_eq!(raw, optimized, "{}", sql);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Aggregation provenance joins each group back to its witnesses.
    /// When the input's provenance has one row per input row, the
    /// optimizer computes that join-back as one witness-emitting
    /// aggregate; otherwise (a sublink, a nested aggregate, a UNION view)
    /// the join-back stays. Either way the optimized result equals the
    /// unoptimized one as a bag, q+ projected onto q's columns and
    /// de-duplicated is q, and a filter on a provenance attribute above
    /// the aggregate does not change any group's count.
    #[test]
    fn aggregation_provenance_in_one_pass(
        rows in prop::collection::vec(
            (proptest::option::of(-2i64..3), proptest::option::of(-3i64..4), 0i64..3),
            0..12,
        ),
        lit in -3i64..4,
        shape in 0..14usize,
    ) {
        let db = PermServer::new().session();
        db.run_script(
            "CREATE TABLE g (k int, v int, w int NOT NULL); CREATE TABLE h (k int, z int);
             CREATE TABLE e (x int);
             CREATE VIEW u1 AS SELECT k, v FROM g UNION SELECT k, z FROM h;",
        )
        .unwrap();
        let value = |x: Option<i64>| x.map_or("NULL".to_string(), |x| x.to_string());
        for (k, v, w) in &rows {
            db.run_script(&format!(
                "INSERT INTO g VALUES ({}, {}, {w}); INSERT INTO h VALUES ({}, {w});",
                value(*k),
                value(*v),
                value(v.map(|v| v % 2)),
            ))
            .unwrap();
        }
        // (q, the SQL-PLE prefix of q+, whether the plan must emit
        // witnesses from one aggregate).
        let (q, prefix, one_pass) = [
            ("SELECT k, count(*), sum(v) FROM g GROUP BY k", "PROVENANCE", true),
            (
                "SELECT k, w, count(DISTINCT v), min(v), max(v), avg(v) FROM g GROUP BY k, w",
                "PROVENANCE",
                true,
            ),
            ("SELECT k, count(*) FROM g GROUP BY k HAVING count(*) > 1", "PROVENANCE", true),
            ("SELECT count(*), sum(x) FROM e", "PROVENANCE", true),
            ("SELECT count(*), max(v) FROM g WHERE v > 2", "PROVENANCE", true),
            (
                "SELECT g.k, count(h.z) FROM g LEFT JOIN h ON g.k = h.k GROUP BY g.k",
                "PROVENANCE",
                true,
            ),
            (
                "SELECT k, count(*) FROM g WHERE k IN (SELECT k FROM h) GROUP BY k",
                "PROVENANCE",
                false,
            ),
            (
                "SELECT c, count(*) FROM (SELECT k, count(*) AS c FROM g GROUP BY k) s GROUP BY c",
                "PROVENANCE",
                true, // the inner aggregate's join-back; the outer one falls back
            ),
            ("SELECT k, count(*) FROM u1 GROUP BY k", "PROVENANCE", false),
            ("SELECT k, count(*) FROM g GROUP BY k", "PROVENANCE ON CONTRIBUTION (COPY)", true),
            (
                "SELECT k, sum(w) FROM g GROUP BY k",
                "PROVENANCE ON CONTRIBUTION (INFLUENCE)",
                true,
            ),
            ("SELECT k + w, count(*) FROM g GROUP BY k + w", "PROVENANCE", true),
            ("SELECT k, count(*) FROM g GROUP BY k", "PROVENANCE", true),
            ("SELECT k, count(*) FROM g GROUP BY k", "PROVENANCE", true),
        ][shape];
        let prov = q.replacen("SELECT ", &format!("SELECT {prefix} "), 1);
        let plain = db.query(q).unwrap();
        let n = plain.columns.len();
        let counts: HashMap<Tuple, Tuple> = plain
            .rows
            .iter()
            .map(|t| (Tuple::new(t.values()[..1].to_vec()), t.clone()))
            .collect();
        // Shapes 12 and 13 query the provenance: a forward trace on a
        // witness column, which must stay above the aggregate, and a
        // point trace on the group column, which may move below it.
        let sql = match shape {
            12 => format!("SELECT * FROM ({prov}) p WHERE p.prov_public_g_v = {lit}"),
            13 => format!("SELECT * FROM ({prov}) p WHERE p.k = {lit}"),
            _ => prov.clone(),
        };
        let (raw, optimized) = both_ways(&db, &sql);
        prop_assert_eq!(bag(&raw), bag(&optimized), "{}", sql);
        let StatementResult::Explain(plan) = db.execute(&format!("EXPLAIN {sql}")).unwrap() else {
            panic!("EXPLAIN did not explain");
        };
        prop_assert_eq!(plan.contains("emit=witnesses"), one_pass, "{}\n{}", sql, plan);
        if shape >= 12 {
            // Every traced row still carries its whole group's count.
            for t in &optimized {
                let key = Tuple::new(t.values()[..1].to_vec());
                prop_assert_eq!(&Tuple::new(t.values()[..n].to_vec()), &counts[&key], "{}", sql);
            }
            return Ok(());
        }
        // The contract: q+ projected onto q's columns, de-duplicated, is q.
        let mut projected: Vec<Tuple> = optimized
            .iter()
            .map(|t| Tuple::new(t.values()[..n].to_vec()))
            .collect();
        projected.sort_by_key(|t| format!("{t:?}"));
        projected.dedup();
        let mut expected = plain.rows.clone();
        expected.sort_by_key(|t| format!("{t:?}"));
        prop_assert_eq!(projected, expected, "{}", sql);
        if shape == 0 {
            // Every input row witnesses its group: a group's count(*) is
            // its number of witness rows.
            for (key, row) in &counts {
                let witnesses = optimized
                    .iter()
                    .filter(|t| t.values()[..1] == *key.values())
                    .count() as i64;
                prop_assert_eq!(row.get(1), &perm_core::Value::Int(witnesses));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Join chains — 3- and 4-way, inner, with LEFT links, with an
    /// `IN`-sublink semi link and with computed keys — over the Figure 1
    /// forum grown by random rows, with and without indexes on the join
    /// columns (so hash and index nested-loop joins both chain): the
    /// optimized result equals the unoptimized one as a bag, for q and
    /// q+; q+ projected onto q's columns is q (as a bag, or as a set
    /// where a sublink's or an aggregate's provenance adds witnesses);
    /// and DOP 1, DOP 4 and streamed execution return the same rows in
    /// the same order.
    #[test]
    fn join_chains_materialize_once(
        messages in prop::collection::vec((0i64..8, proptest::option::of(0i64..5)), 0..10),
        approved in prop::collection::vec((0i64..5, 0i64..8), 0..12),
        users in prop::collection::vec(0i64..6, 0..4),
        indexes in any::<bool>(),
        shape in 0..8usize,
    ) {
        let db = forum_db();
        let mut script = String::new();
        for (mid, uid) in &messages {
            let uid = uid.map_or("NULL".to_string(), |u| u.to_string());
            script.push_str(&format!("INSERT INTO messages VALUES ({mid}, 'm{mid}', {uid});\n"));
        }
        for (uid, mid) in &approved {
            script.push_str(&format!("INSERT INTO approved VALUES ({uid}, {mid});\n"));
        }
        for uid in &users {
            script.push_str(&format!("INSERT INTO users VALUES ({uid}, 'u{uid}');\n"));
        }
        for mid in 0..3 {
            script.push_str(&format!(
                "INSERT INTO imports VALUES ({mid}, 'i{mid}', 'origin{}');\n",
                mid % 2
            ));
        }
        db.run_script(&script).unwrap();
        if indexes {
            for (table, column) in [("users", "uid"), ("messages", "mid"), ("approved", "mid")] {
                db.create_index(table, column).unwrap();
            }
        }
        // (q, whether q+'s projection repeats q rows: a sublink's or an
        // aggregate's provenance lists every witness).
        let (q, repeats) = [
            (
                "SELECT m.text, u.name, a.uid FROM messages m \
                 JOIN users u ON m.uid = u.uid JOIN approved a ON a.mid = m.mid",
                false,
            ),
            (
                "SELECT ua.name, m.text FROM approved a JOIN users ua ON a.uid = ua.uid \
                 JOIN messages m ON a.mid = m.mid JOIN users um ON m.uid = um.uid",
                false,
            ),
            (
                "SELECT m.mid, u.name, a.uid FROM messages m \
                 LEFT JOIN approved a ON a.mid = m.mid JOIN users u ON m.uid = u.uid",
                false,
            ),
            (
                "SELECT m.mid, u.name, a.uid FROM messages m \
                 JOIN users u ON m.uid = u.uid LEFT JOIN approved a ON a.mid = m.mid",
                false,
            ),
            (
                "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid \
                 WHERE m.mid IN (SELECT mid FROM approved)",
                true,
            ),
            (
                "SELECT m.text, a.uid FROM messages m JOIN approved a ON a.mid = m.mid + 0 \
                 JOIN users u ON u.uid = a.uid * 1",
                false,
            ),
            (
                "SELECT m.mid, i.origin, u.name FROM messages m JOIN imports i ON i.mid = m.mid + 1 \
                 JOIN users u ON u.uid = m.uid JOIN approved a ON a.uid = u.uid",
                false,
            ),
            (
                "SELECT u.name, count(*) FROM messages m JOIN users u ON m.uid = u.uid \
                 JOIN approved a ON a.mid = m.mid GROUP BY u.name",
                true,
            ),
        ][shape];
        let prov = q.replacen("SELECT ", "SELECT PROVENANCE ", 1);
        for sql in [q, prov.as_str()] {
            let (raw, optimized) = both_ways(&db, sql);
            prop_assert_eq!(bag(&raw), bag(&optimized), "{}", sql);
            let run = |dop: usize, streamed: bool| -> Vec<Tuple> {
                let options = perm_core::SessionOptions {
                    max_parallelism: dop,
                    parallel_row_threshold: 1,
                    ..*db.options()
                };
                let session = db.clone().with_options(options);
                if streamed {
                    session.query_stream(sql).unwrap().collect::<Result<_, _>>().unwrap()
                } else {
                    session.query(sql).unwrap().rows
                }
            };
            let serial = run(1, false);
            prop_assert_eq!(bag(&serial), bag(&optimized), "{}", sql);
            for (dop, streamed) in [(4, false), (1, true), (4, true)] {
                prop_assert_eq!(&run(dop, streamed), &serial, "{} dop={} streamed={}", sql, dop, streamed);
            }
        }
        // The contract: q+ projected onto q's columns is q.
        let plain = db.query(q).unwrap();
        let n = plain.columns.len();
        let mut projected: Vec<Tuple> = db
            .query(&prov)
            .unwrap()
            .rows
            .iter()
            .map(|t| Tuple::new(t.values()[..n].to_vec()))
            .collect();
        let mut expected = plain.rows.clone();
        if repeats {
            projected.sort_by_key(|t| format!("{t:?}"));
            projected.dedup();
            expected.sort_by_key(|t| format!("{t:?}"));
            expected.dedup();
            prop_assert_eq!(projected, expected, "{}", prov);
        } else {
            prop_assert_eq!(bag(&projected), bag(&expected), "{}", prov);
        }
    }
}
