//! Every equality-keyed hash path matches rows as SQL does: under `=`
//! (the hash join, the index nested-loop join, an uncorrelated `IN`
//! sublink's hashed body) a NULL or NaN key matches nothing, as `ops::eq`
//! and the nested-loop reference say; under grouping equality (`GROUP
//! BY`, `DISTINCT`, set operations, the aggregation rewrite's NULL-safe
//! join-back) NULL = NULL and NaN = NaN.

use proptest::prelude::*;

use perm_algebra::expr::ScalarExpr;
use perm_core::{PermServer, Session, Tuple, Value};
use perm_exec::eval::{eval, Env};
use perm_exec::Executor;
use perm_storage::Catalog;

/// A float that `=` never matches.
fn nan() -> Value {
    Value::Float(f64::NAN)
}

/// Create `ddl`'s table `name` and append `rows` as they are (NaN
/// included).
fn table(session: &Session, ddl: &str, name: &str, rows: Vec<Vec<Value>>) {
    session.execute(ddl).unwrap();
    let mut w = session.catalog_write();
    let t = w.table_mut(name).unwrap();
    for row in rows {
        t.push_raw(Tuple::new(row));
    }
}

/// `t(id, x)` = {(1, NaN), (2, 1.0), (3, 5.0)}, `u(y)` = {NaN, 1.0} and
/// `big(y, pad)`: NaN with pad 0 and `k.5` with pad `k` for k < 2000,
/// indexed on `y`.
fn nan_db() -> Session {
    let session = PermServer::new().session();
    let t = [(1, nan()), (2, Value::Float(1.0)), (3, Value::Float(5.0))];
    let t = t
        .into_iter()
        .map(|(id, x)| vec![Value::Int(id), x])
        .collect();
    table(&session, "CREATE TABLE t (id int, x float)", "t", t);
    let u = vec![vec![nan()], vec![Value::Float(1.0)]];
    table(&session, "CREATE TABLE u (y float)", "u", u);
    let big = std::iter::once(vec![nan(), Value::Int(0)])
        .chain((0..2000).map(|k| vec![Value::Float(k as f64 + 0.5), Value::Int(k)]))
        .collect();
    table(&session, "CREATE TABLE big (y float, pad int)", "big", big);
    session.create_index("big", "y").unwrap();
    session
}

fn explain(session: &Session, sql: &str) -> String {
    let rows = session.query(&format!("EXPLAIN {sql}")).unwrap().rows;
    rows.iter().map(|r| format!("{}\n", r.get(0))).collect()
}

/// The rows of `sql`, rendered and sorted.
fn rows(session: &Session, sql: &str) -> Vec<String> {
    let mut rows: Vec<String> = (session.query(sql).unwrap().rows.iter())
        .map(|t| t.to_string())
        .collect();
    rows.sort();
    rows
}

#[test]
fn a_hash_join_never_matches_nan() {
    let db = nan_db();
    let sql = "SELECT t.id, u.y FROM t JOIN u ON t.x = u.y";
    assert!(
        explain(&db, sql).contains("HashJoin"),
        "{}",
        explain(&db, sql)
    );
    assert_eq!(rows(&db, sql), ["(2, 1.0)"]);
}

#[test]
fn an_index_join_never_matches_nan() {
    let db = nan_db();
    let sql = "SELECT t.id, big.pad FROM t JOIN big ON t.x = big.y";
    assert!(
        explain(&db, sql).contains("IndexNLJoin"),
        "{}",
        explain(&db, sql)
    );
    assert!(rows(&db, sql).is_empty());
}

#[test]
fn a_hashed_in_sublink_answers_nan_as_unknown() {
    let db = nan_db();
    let ins = "SELECT id, x IN (SELECT y FROM u) FROM t";
    let correlated = "SELECT id, x IN (SELECT y FROM u WHERE t.id = t.id) FROM t";
    let expected = ["(1, null)", "(2, true)", "(3, null)"];
    assert_eq!(rows(&db, ins), expected);
    assert_eq!(rows(&db, correlated), expected);
    assert!(rows(&db, "SELECT id FROM t WHERE x NOT IN (SELECT y FROM u)").is_empty());
}

#[test]
fn grouping_keeps_nan_equal_to_nan() {
    let db = nan_db();
    let nan_group =
        "SELECT x, count(*) FROM (SELECT x FROM t UNION ALL SELECT y FROM u) v GROUP BY x";
    assert_eq!(rows(&db, nan_group), ["(1.0, 2)", "(5.0, 1)", "(NaN, 2)"]);
    let distinct = "SELECT DISTINCT x FROM (SELECT x FROM t UNION ALL SELECT y FROM u) v";
    assert_eq!(rows(&db, distinct), ["(1.0)", "(5.0)", "(NaN)"]);
    let intersect = "SELECT x FROM t INTERSECT SELECT y FROM u";
    assert_eq!(rows(&db, intersect), ["(1.0)", "(NaN)"]);
    // The aggregation rewrite joins each group back to its witnesses
    // NULL-safely: the NaN group keeps its witness.
    let provenance = "SELECT PROVENANCE x, count(*) FROM t GROUP BY x";
    assert_eq!(db.query(provenance).unwrap().row_count(), 3);
}

/// What the interpreter answers for `x [NOT] IN (ys)`: the reference
/// both sublink forms must equal.
fn interpreted(x: &Value, ys: &[Value], negated: bool) -> Value {
    let exec = Executor::new(std::sync::Arc::new(Catalog::new()));
    let e = ScalarExpr::InList {
        expr: Box::new(ScalarExpr::Literal(x.clone())),
        list: ys.iter().cloned().map(ScalarExpr::Literal).collect(),
        negated,
    };
    eval(&exec, &e, &Env::new(&Tuple::empty(), &[])).unwrap()
}

fn key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(nan()),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(2.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `x [NOT] IN (SELECT y FROM u)` answers the same hashed
    /// (uncorrelated), run per row (correlated by `WHERE t.id = t.id`)
    /// and interpreted over the body's values, NULL and NaN on both
    /// sides.
    #[test]
    fn in_sublinks_answer_as_the_interpreter(
        xs in prop::collection::vec(key(), 1..6),
        ys in prop::collection::vec(key(), 0..6),
        negated in any::<bool>(),
    ) {
        let session = PermServer::new().session();
        let t = xs.iter().enumerate().map(|(i, x)| vec![Value::Int(i as i64), x.clone()]).collect();
        table(&session, "CREATE TABLE t (id int, x float)", "t", t);
        let u = ys.iter().map(|y| vec![y.clone()]).collect();
        table(&session, "CREATE TABLE u (y float)", "u", u);
        let not = if negated { "NOT " } else { "" };
        for body in ["SELECT y FROM u", "SELECT y FROM u WHERE t.id = t.id"] {
            let sql = format!("SELECT id, x {not}IN ({body}) FROM t ORDER BY id");
            let got: Vec<Value> = (session.query(&sql).unwrap().rows.iter())
                .map(|t| t.get(1).clone())
                .collect();
            let expected: Vec<Value> = xs.iter().map(|x| interpreted(x, &ys, negated)).collect();
            prop_assert_eq!(&got, &expected, "{} over xs={:?} ys={:?}", sql, xs, ys);
        }
    }
}
