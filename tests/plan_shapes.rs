//! Plan shapes of the benchmark's statements, at SQL level.
//!
//! Column pruning lets slot-only projections dissolve, so the provenance
//! rewrite's duplicated base columns (`R+ = Π_{R, R→P(R)}(R)` at every
//! leaf) are carried through joins once and fan out at the root. These
//! tests pin what `EXPLAIN` shows for the statements `perm_bench` times
//! (SQL text copied, not imported): the join-shaped `q+` plans have
//! nothing but plain or narrowing leaves and the same join strategies and
//! order as their `q`; the padded-union `q+` plans de-duplicate base rows
//! below the padding; the single-table control plans are pinned whole.

use perm_core::{PermServer, Session};

/// The Figure-1 forum at small scale, shaped like the benchmark's
/// generator: `scale` messages, `scale / 10` users, `scale / 2` imports,
/// `2 * scale` approvals, optional hash indexes on the join columns.
fn forum(scale: usize, indexes: bool) -> Session {
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

const SCALE: usize = 200;

fn explain(db: &Session, sql: &str) -> String {
    let r = db.query(&format!("EXPLAIN {sql}")).unwrap();
    r.rows
        .iter()
        .map(|t| t.get(0).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// `q+` as the benchmark derives it: the SQL-PLE keyword after the first
/// `SELECT`.
fn provenance_of(q: &str) -> String {
    q.replacen("SELECT ", "SELECT PROVENANCE ", 1)
}

/// `prov_join`'s statements (half the users pass the predicate).
fn prov_join_statements() -> Vec<String> {
    let half = SCALE / 10 / 2;
    vec![
        "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid \
         WHERE m.mid % 4 = 0"
            .into(),
        format!(
            "SELECT a.mid, m.text, u.name FROM approved a \
             JOIN messages m ON a.mid = m.mid JOIN users u ON m.uid = u.uid \
             WHERE u.uid < {half}"
        ),
        format!(
            "SELECT ua.name, m.text FROM approved a JOIN users ua ON a.uid = ua.uid \
             JOIN messages m ON a.mid = m.mid JOIN users um ON m.uid = um.uid \
             WHERE um.uid < {half}"
        ),
    ]
}

const AGG: &str = "SELECT a.mid, count(*) FROM messages m \
                   JOIN approved a ON m.mid = a.mid GROUP BY a.mid";
const NESTED: &str = "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)";

/// One `EXPLAIN` line: depth in the tree and the operator's text.
fn nodes(plan: &str) -> Vec<(usize, &str)> {
    plan.lines()
        .map(|line| {
            let at = line
                .find(|c: char| c.is_ascii_alphabetic())
                .expect("operator name");
            (line[..at].chars().count() / 4, &line[at..])
        })
        .collect()
}

/// The slots of a leaf's fused `project=[…]`, if it has one.
fn fused_projection(node: &str) -> Option<Vec<&str>> {
    let list = node.split_once("project=[")?.1.split_once(']')?.0;
    Some(list.split(", ").collect())
}

/// Every scan below a join either hands its rows on as they are or
/// narrows them: a fused `project=` lists bare slots, strictly increasing.
fn assert_leaves_carry_each_column_once(plan: &str) {
    let nodes = nodes(plan);
    for (i, (depth, node)) in nodes.iter().enumerate() {
        if !node.contains("Scan(") {
            continue;
        }
        let below_join = nodes[..i]
            .iter()
            .any(|(d, n)| d < depth && n.contains("Join("));
        let Some(slots) = fused_projection(node).filter(|_| below_join) else {
            continue;
        };
        let slots: Vec<usize> = slots
            .iter()
            .map(|s| {
                s.strip_prefix('#')
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("computed column in leaf `{node}` of\n{plan}"))
            })
            .collect();
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "leaf `{node}` repeats or reorders a slot in\n{plan}"
        );
    }
}

/// Join strategies (with build side / probed table) and the scanned
/// tables, in plan order — what "the same join strategies and join order"
/// compares. Keys, widths and estimates legitimately differ.
fn join_shape(plan: &str) -> Vec<String> {
    nodes(plan)
        .iter()
        .filter_map(|(_, node)| {
            if node.contains("Join(") {
                let strategy = node.split(" on [").next().unwrap();
                Some(strategy.split('.').next().unwrap().to_string())
            } else if node.contains("Scan(") {
                let table = node.split_once('(')?.1.split_once(')')?.0;
                Some(table.to_string())
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn provenance_joins_carry_each_base_column_once() {
    for indexes in [false, true] {
        let db = forum(SCALE, indexes);
        for q in prov_join_statements() {
            let plain = explain(&db, &q);
            let prov = explain(&db, &provenance_of(&q));
            assert_leaves_carry_each_column_once(&prov);
            assert_eq!(
                join_shape(&prov),
                join_shape(&plain),
                "indexes={indexes}\nq:\n{plain}\nq+:\n{prov}"
            );
            // The fan-out sits in the root join's fused output.
            let root = prov.lines().next().unwrap();
            assert!(
                root.contains("Join(") && root.contains("project=["),
                "{prov}"
            );
        }
    }
}

#[test]
fn aggregation_and_sublink_provenance_carry_each_base_column_once() {
    for indexes in [false, true] {
        let db = forum(SCALE, indexes);
        // `agg`: the aggregate is joined back to its own input, which the
        // optimizer collapses into one witness-emitting aggregate over
        // q's join — q's strategy and order, evaluated once — with the
        // provenance layout straight out of the aggregate (no root
        // projection).
        let plain = explain(&db, AGG);
        let prov = explain(&db, &provenance_of(AGG));
        assert_leaves_carry_each_column_once(&prov);
        assert_eq!(
            join_shape(&prov),
            join_shape(&plain),
            "q:\n{plain}\nq+:\n{prov}"
        );
        let root = prov.lines().next().unwrap();
        assert_eq!(
            root,
            "HashAggregate group=[#4] aggs=[count(*)] emit=witnesses"
        );
        // `nested`: q filters through a sublink, q+ joins; nothing to
        // compare strategies with, but the leaves obey the same rule.
        let prov = explain(&db, &provenance_of(NESTED));
        assert_leaves_carry_each_column_once(&prov);
        assert!(prov.starts_with("HashJoin(Inner"), "{prov}");
    }
}

/// `q3` aggregates over the `UNION` view `v1`, whose provenance has one
/// row per distinct witness rather than per row: the aggregate keeps
/// running over the original input, and the join-back stays a LEFT hash
/// join over two different inputs.
#[test]
fn aggregation_over_a_union_view_keeps_its_join_back() {
    let db = forum(SCALE, false);
    let q3 = "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) \
              GROUP BY v1.mId, text";
    assert_eq!(
        explain(&db, q3),
        "HashJoin(Left, build=right) on [#0 <=> #0, #1 <=> #1] \
         project=[2, 1, 5, 6, 7, 8, 9, 10, 11, 12]  (~181 rows)\n\
         ├── HashAggregate group=[#0, #1] aggs=[count(*)]\n\
         │   └── HashJoin(Inner, build=right) on [#0 = #0]  (~800 rows)\n\
         │       ├── HashUnion\n\
         │       │   ├── FusedScan(messages) project=[#0, #1]  (~200 rows)\n\
         │       │   └── FusedScan(imports) project=[#0, #1]  (~100 rows)\n\
         │       └── FusedScan(approved) project=[#1]  (~400 rows)\n\
         └── HashJoin(Inner, build=right) on [#0 = #1]  (~640 rows)\n    \
             ├── Append\n    \
             │   ├── Project [#0, #1, #0, #1, #2, null, null, null]\n    \
             │   │   └── HashDistinct\n    \
             │   │       └── SeqScan(messages)  (~200 rows)\n    \
             │   └── Project [#0, #1, null, null, null, #0, #1, #2]\n    \
             │       └── HashDistinct\n    \
             │           └── SeqScan(imports)  (~100 rows)\n    \
             └── SeqScan(approved)  (~400 rows)"
    );
}

const SET_OPERATION: &str = "SELECT mid, text FROM messages UNION SELECT mid, text FROM imports";
const SETOP_VIEW: &str = "SELECT mid, text FROM v1 WHERE mid % 3 = 0";

/// The padded union of `messages` and `imports`: each branch's base rows
/// de-duplicated first (`left` / `right` are the branch leaves), then
/// padded — `mid` is `NOT NULL`, so a row padded with a NULL `mid` on one
/// side can never equal a row of the other, and DISTINCT splits.
fn padded_union(left: &str, right: &str) -> String {
    format!(
        "Append\n\
         ├── Project [#0, #1, #0, #1, #2, null, null, null]\n\
         │   └── HashDistinct\n\
         │       └── {left}\n\
         └── Project [#0, #1, null, null, null, #0, #1, #2]\n    \
             └── HashDistinct\n        \
                 └── {right}"
    )
}

/// `setop` and `setop_view` (and `setop_q1`, the same statement at
/// `interactive_small`'s scale): the `q+` plans de-duplicate narrow base
/// rows and pad only the survivors, with the view's filter fused into
/// the scans below the DISTINCT.
#[test]
fn padded_unions_deduplicate_base_rows_then_pad() {
    for indexes in [false, true] {
        let db = forum(SCALE, indexes);
        assert_eq!(
            explain(&db, &provenance_of(SET_OPERATION)),
            padded_union(
                "SeqScan(messages)  (~200 rows)",
                "SeqScan(imports)  (~100 rows)"
            )
        );
        assert_eq!(
            explain(&db, &provenance_of(SETOP_VIEW)),
            padded_union(
                "FusedScan(messages) filter=((#0 % 3) = 0)  (~20 rows)",
                "FusedScan(imports) filter=((#0 % 3) = 0)  (~10 rows)"
            )
        );
    }
    assert_eq!(
        explain(&forum(50, false), &provenance_of(SET_OPERATION)),
        padded_union(
            "SeqScan(messages)  (~50 rows)",
            "SeqScan(imports)  (~25 rows)"
        )
    );
}

/// Without a `NOT NULL` witness the branches may share a row — here the
/// all-NULL row of each table, padded to all NULLs — so DISTINCT stays
/// above the append and keeps one of the two.
#[test]
fn a_union_of_nullable_columns_deduplicates_above_the_append() {
    let db = forum(SCALE, false);
    db.run_script(
        "CREATE TABLE notes (author int, body text); CREATE TABLE drafts (author int, body text);
         INSERT INTO notes VALUES (1, 'a'), (NULL, NULL);
         INSERT INTO drafts VALUES (1, 'a'), (NULL, NULL);",
    )
    .unwrap();
    let q = "SELECT PROVENANCE author, body FROM notes UNION SELECT author, body FROM drafts";
    assert_eq!(
        explain(&db, q),
        "HashDistinct\n\
         └── Append\n    \
             ├── FusedScan(notes) project=[#0, #1, #0, #1, null, null]  (~2 rows)\n    \
             └── FusedScan(drafts) project=[#0, #1, null, null, #0, #1]  (~2 rows)"
    );
    assert_eq!(db.query(q).unwrap().row_count(), 3);
}

/// The control: `scan_filter`'s statements have no join to carry columns
/// through, so nine of their ten plans are byte-identical to the ones the
/// parent commit (PR 15) produced. The exception is `sort_expr`'s q+: its
/// duplicating projection sat *below* the sort, which is exactly what the
/// pruning postcondition forbids, so it now sorts the scan's own three
/// columns and fans out the 50 survivors.
#[test]
fn single_table_plans_are_pinned() {
    let pinned: [(&str, &str, &str); 5] = [
        (
            "SELECT mid, text FROM messages WHERE mid % 4 = 0 AND uid >= 10",
            "FusedScan(messages) filter=(((#0 % 4) = 0) AND (#2 >= 10)) project=[#0, #1]  \
             (~6 rows)",
            "FusedScan(messages) filter=(((#0 % 4) = 0) AND (#2 >= 10)) \
             project=[#0, #1, #0, #1, #2]  (~6 rows)",
        ),
        (
            "SELECT mid * 2 + 1, upper(text), length(text) - 5 FROM messages",
            "FusedScan(messages) project=[((#0 * 2) + 1), upper(#1), (length(#1) - 5)]  \
             (~200 rows)",
            "FusedScan(messages) project=[((#0 * 2) + 1), upper(#1), (length(#1) - 5), \
             #0, #1, #2]  (~200 rows)",
        ),
        (
            "SELECT mid FROM messages WHERE text LIKE 'message body 1%'",
            "FusedScan(messages) filter=(#1 LIKE 'message body 1%') project=[#0]  \
             (~60 rows)",
            "FusedScan(messages) filter=(#1 LIKE 'message body 1%') project=[#0, #0, #1, #2]  \
             (~60 rows)",
        ),
        (
            "SELECT mid, uid FROM messages WHERE uid IN (1, 2, 3, 5, 8, 13, 21, 34)",
            "FusedScan(messages) filter=(#2 IN (1, 2, 3, 5, 8, 13, 21, 34)) project=[#0, #2]  \
             (~160 rows)",
            "FusedScan(messages) filter=(#2 IN (1, 2, 3, 5, 8, 13, 21, 34)) \
             project=[#0, #2, #0, #1, #2]  (~160 rows)",
        ),
        (
            "SELECT mid, uid FROM messages WHERE mid % 2 = 0 \
             ORDER BY uid * 1000000 + mid LIMIT 50",
            "Limit 50 offset 0\n\
             └── Sort [((#1 * 1000000) + #0)]\n    \
                 └── FusedScan(messages) filter=((#0 % 2) = 0) project=[#0, #2]  \
             (~20 rows)",
            // Parent commit:
            //   Limit 50 offset 0
            //   └── Sort [((#1 * 1000000) + #0)]
            //       └── FusedScan(messages) filter=((#0 % 2) = 0)
            //             project=[#0, #2, #0, #1, #2]  (~20 rows)
            "Project [#0, #2, #0, #1, #2]\n\
             └── Limit 50 offset 0\n    \
                 └── Sort [((#2 * 1000000) + #0)]\n        \
                     └── FusedScan(messages) filter=((#0 % 2) = 0)  (~20 rows)",
        ),
    ];
    for indexes in [false, true] {
        let db = forum(SCALE, indexes);
        for (q, plain, prov) in pinned {
            assert_eq!(explain(&db, q), plain, "{q}");
            assert_eq!(explain(&db, &provenance_of(q)), prov, "PROVENANCE of {q}");
        }
    }
}

/// Sublink plans take every optimizer phase, and `EXPLAIN VERIFY` reports
/// each: `nested`'s q keeps the one fused scan it had when column pruning
/// skipped it, and a sublink filter over a join no longer keeps the
/// join's leaves wide — `users` hands on its key alone, not a bare
/// `SeqScan(users)` carrying `name`. Each sublink body follows the tree
/// as a `SubPlan` section, once, saying whether it runs once or per
/// outer row and what its parameters bind to.
#[test]
fn sublink_plans_are_pinned() {
    let joined = "SELECT text FROM messages m JOIN users u ON m.uid = u.uid \
                  WHERE m.mid IN (SELECT mid FROM approved)";
    let exists = "SELECT mid FROM messages m \
                  WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)";
    let count = "SELECT mid, (SELECT count(*) FROM approved a WHERE a.mid = m.mid) \
                 FROM messages m";
    let nested_in = "SELECT mid FROM messages m WHERE EXISTS (SELECT 1 FROM approved a \
                     WHERE a.mid = m.mid AND a.uid IN (SELECT uid FROM users WHERE name <> 'zz'))";
    for indexes in [false, true] {
        let db = forum(SCALE, indexes);
        assert_eq!(
            explain(&db, NESTED),
            "FusedScan(messages) filter=(#0 IN <subquery>) project=[#1]  (~100 rows)\n\
             SubPlan 1: (#0 IN <subquery>) [once]\n\
             └── FusedScan(approved) project=[#1]  (~400 rows)"
        );
        assert_eq!(
            explain(&db, joined),
            "Project [#1]\n\
             └── Filter (#0 IN <subquery>)\n    \
                 └── HashJoin(Inner, build=right) on [#2 = #0]  (~200 rows)\n        \
                     ├── SeqScan(messages)  (~200 rows)\n        \
                     └── FusedScan(users) project=[#0]  (~20 rows)\n\
             SubPlan 1: (#0 IN <subquery>) [once]\n\
             └── FusedScan(approved) project=[#1]  (~400 rows)"
        );
        assert_eq!(
            explain(&db, exists),
            "FusedScan(messages) filter=EXISTS(<subquery $0=#0>) project=[#0]  (~100 rows)\n\
             SubPlan 1: EXISTS(<subquery $0=#0>) [per outer row: $0=#0]\n\
             └── FusedScan(approved) filter=(#1 = $0) project=[1]  (~40 rows)"
        );
        assert_eq!(
            explain(&db, count),
            "FusedScan(messages) project=[#0, (<subquery $0=#0>)]  (~200 rows)\n\
             SubPlan 1: (<subquery $0=#0>) [per outer row: $0=#0]\n\
             └── HashAggregate group=[] aggs=[count(*)]\n    \
                 └── FusedScan(approved) filter=(#1 = $0)  (~40 rows)"
        );
        // The uncorrelated `IN` inside the correlated body is numbered
        // after it and runs once per statement, not per outer row.
        assert_eq!(
            explain(&db, nested_in),
            "FusedScan(messages) filter=EXISTS(<subquery $0=#0>) project=[#0]  (~100 rows)\n\
             SubPlan 1: EXISTS(<subquery $0=#0>) [per outer row: $0=#0]\n\
             └── FusedScan(approved) filter=((#1 = $0) AND (#0 IN <subquery>)) project=[1]  \
             (~20 rows)\n\
             SubPlan 2: (#0 IN <subquery>) [once]\n\
             └── FusedScan(users) filter=(#1 <> 'zz') project=[#0]  (~18 rows)"
        );
        let report = explain(&db, &format!("VERIFY {NESTED}"));
        for phase in perm_exec::LOGICAL_PHASES {
            assert!(report.contains(&format!("\n{phase}: ok\n")), "{report}");
        }
        assert!(report.ends_with(&explain(&db, NESTED)), "{report}");
    }
}
