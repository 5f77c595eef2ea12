//! End-to-end scenarios: the full demo walkthrough, lazy vs. eager
//! provenance, strategy toggles, and a larger synthetic load.

use perm_core::fixtures::{forum_db, Q1};
use perm_core::{
    materialize_provenance, PermServer, Session, SessionOptions, StatementResult, StrategyMode,
    UnionStrategy, Value,
};

// ----------------------------------------------------------------------
// The demonstration walkthrough (paper §3)
// ----------------------------------------------------------------------

#[test]
fn demo_walkthrough() {
    // Part 1: query execution on the example database.
    let db = forum_db();
    let q1 = db.query(Q1).unwrap();
    assert_eq!(q1.row_count(), 4);

    // Part 2: rewrite analysis — provenance of q1.
    let p = db
        .query(&format!("SELECT PROVENANCE * FROM ({Q1}) q1"))
        .unwrap();
    assert_eq!(p.columns.len(), 8);
    assert_eq!(p.row_count(), 4);

    // Part 4: complex queries — provenance of the aggregation, filtered.
    let complex = db
        .query(
            "SELECT text, prov_public_approved_uid FROM \
             (SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
              GROUP BY v1.mId, text) AS prov \
             WHERE count >= 2 ORDER BY 2",
        )
        .unwrap();
    // Message 4 (3 approvals) survives, one row per approving user.
    assert_eq!(complex.row_count(), 3);
    assert_eq!(complex.row(0)[1], Value::Int(1));
    assert_eq!(complex.row(2)[1], Value::Int(3));
}

// ----------------------------------------------------------------------
// Lazy vs. eager provenance
// ----------------------------------------------------------------------

#[test]
fn lazy_and_eager_agree() {
    let db = forum_db();
    let lazy = db
        .query("SELECT PROVENANCE mid, text FROM messages")
        .unwrap();
    materialize_provenance(&db, "stored", "SELECT PROVENANCE mid, text FROM messages").unwrap();
    let eager = db.query("SELECT * FROM stored").unwrap();
    assert_eq!(lazy.columns, eager.columns);
    let norm = |r: &perm_core::QueryResult| {
        let mut v: Vec<Vec<Value>> = r.rows.iter().map(|t| t.values().to_vec()).collect();
        v.sort_by(|a, b| a[0].sort_cmp(&b[0]));
        v
    };
    assert_eq!(norm(&lazy), norm(&eager));
}

#[test]
fn eager_table_supports_further_provenance_queries() {
    let db = forum_db();
    materialize_provenance(
        &db,
        "q1_prov",
        &format!("SELECT PROVENANCE * FROM ({Q1}) q1"),
    )
    .unwrap();
    // Incremental computation: a provenance query over the stored table
    // propagates its recorded provenance columns.
    let r = db
        .query("SELECT PROVENANCE mid, text FROM q1_prov WHERE mid = 2")
        .unwrap();
    let origin = r.column_index("prov_public_imports_origin").unwrap();
    assert_eq!(r.row(0)[origin], Value::text("superForum"));
}

// ----------------------------------------------------------------------
// Strategy toggles (the browser's "activate or deactivate rewrite
// strategies")
// ----------------------------------------------------------------------

#[test]
fn union_strategies_produce_identical_results() {
    let sql = format!("SELECT PROVENANCE * FROM ({Q1}) q1");
    let norm = |db: &Session| {
        let r = db.query(&sql).unwrap();
        let mut rows: Vec<Vec<Value>> = r.rows.iter().map(|t| t.values().to_vec()).collect();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b) {
                let o = x.sort_cmp(y);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        (r.columns.clone(), rows)
    };

    let mut padded = forum_db();
    padded.set_options(SessionOptions::default().force_union_strategy(UnionStrategy::PaddedUnion));
    let mut join_back = forum_db();
    join_back.set_options(SessionOptions::default().force_union_strategy(UnionStrategy::JoinBack));
    let mut cost_based = forum_db();
    cost_based.set_options(SessionOptions::default().with_union_strategy(StrategyMode::CostBased));

    let a = norm(&mut padded);
    let b = norm(&mut join_back);
    let c = norm(&mut cost_based);
    assert_eq!(a, b, "padded-union and join-back must agree");
    assert_eq!(a, c, "cost-based choice must agree");
}

#[test]
fn default_semantics_option_applies() {
    use perm_core::{ContributionSemantics, CopyMode};
    let mut db = forum_db();
    db.set_options(
        SessionOptions::default()
            .with_default_semantics(ContributionSemantics::Copy(CopyMode::Partial)),
    );
    // No ON CONTRIBUTION clause: session default (COPY) applies, so the
    // non-copied mid/uid provenance is NULL.
    let r = db
        .query("SELECT PROVENANCE text FROM messages WHERE mid = 4")
        .unwrap();
    let mcol = r.column_index("prov_public_messages_mid").unwrap();
    assert!(r.row(0)[mcol].is_null());
    // Explicit clause overrides the default.
    let r = db
        .query("SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) text FROM messages WHERE mid = 4")
        .unwrap();
    assert_eq!(r.row(0)[mcol], Value::Int(4));
}

// ----------------------------------------------------------------------
// Larger synthetic load
// ----------------------------------------------------------------------

#[test]
fn provenance_scales_to_thousands_of_rows() {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE fact (id int NOT NULL, dim int NOT NULL, val int);
         CREATE TABLE dim (id int NOT NULL, name text);",
    )
    .unwrap();
    // 2000 fact rows over 20 dimension values.
    let mut facts = String::from("INSERT INTO fact VALUES ");
    for i in 0..2000 {
        if i > 0 {
            facts.push(',');
        }
        facts.push_str(&format!("({i}, {}, {})", i % 20, i % 7));
    }
    db.execute(&facts).unwrap();
    let mut dims = String::from("INSERT INTO dim VALUES ");
    for d in 0..20 {
        if d > 0 {
            dims.push(',');
        }
        dims.push_str(&format!("({d}, 'dim{d}')"));
    }
    db.execute(&dims).unwrap();

    // Provenance of an aggregation over a join: every fact row must appear
    // exactly once as a witness.
    let r = db
        .query(
            "SELECT PROVENANCE d.name, count(*) FROM fact f JOIN dim d ON f.dim = d.id \
             GROUP BY d.name",
        )
        .unwrap();
    assert_eq!(r.row_count(), 2000);
    // And the counts are consistent: 100 witnesses per group.
    assert!(r.rows.iter().all(|t| t.get(1) == &Value::Int(100)));
}

#[test]
fn error_recovery_keeps_the_session_usable() {
    let db = forum_db();
    assert!(db.query("SELECT nope FROM messages").is_err());
    assert!(db.execute("CREATE TABLE messages (x int)").is_err());
    assert!(db
        .query("SELECT PROVENANCE * FROM (SELECT mid FROM messages LIMIT 1) q")
        .is_err());
    // The session keeps working after every error.
    let r = db.query("SELECT count(*) FROM messages").unwrap();
    assert_eq!(r.row(0), &[Value::Int(2)]);
}

#[test]
fn dml_after_provenance_queries() {
    let db = forum_db();
    let before = db
        .query("SELECT PROVENANCE mid FROM messages")
        .unwrap()
        .row_count();
    match db
        .execute("INSERT INTO messages VALUES (5, 'late post', 1)")
        .unwrap()
    {
        StatementResult::Inserted(1) => {}
        other => panic!("unexpected {other:?}"),
    }
    let after = db
        .query("SELECT PROVENANCE mid FROM messages")
        .unwrap()
        .row_count();
    assert_eq!(after, before + 1, "lazy provenance sees fresh data");
}
