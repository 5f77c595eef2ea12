//! Workspace-wiring smoke test: everything below goes through the `perm`
//! facade's re-exports only, proving the root crate links the whole layer
//! stack (types → sql → algebra → storage → rewrite → exec → core) and a
//! `SELECT PROVENANCE` query runs end-to-end.

use perm::core::fixtures::forum_db;
use perm::{PermServer, Value};

#[test]
fn facade_reexports_run_a_provenance_query_end_to_end() {
    // Build a fresh session through the top-level re-export.
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE messages (mId int NOT NULL, text text, uId int);
         INSERT INTO messages VALUES (1, 'hello', 10);
         INSERT INTO messages VALUES (2, 'world', 20);",
    )
    .expect("schema and data load");

    let rows = db
        .query("SELECT PROVENANCE text FROM messages WHERE mid = 2")
        .expect("provenance query runs");

    // One result row, original attribute first, then the witness columns
    // named by the paper's prov_<schema>_<relation>_<attribute> scheme.
    assert_eq!(rows.row_count(), 1);
    assert_eq!(
        rows.columns,
        vec![
            "text",
            "prov_public_messages_mid",
            "prov_public_messages_text",
            "prov_public_messages_uid",
        ]
    );
    assert_eq!(
        rows.row(0),
        &[
            Value::text("world"),
            Value::Int(2),
            Value::text("world"),
            Value::Int(20),
        ]
    );
}

#[test]
fn facade_fixture_database_answers_the_quickstart_query() {
    // The same flow the crate-level doctest shows, via `perm::core`.
    let db = forum_db();
    let rows = db
        .query("SELECT PROVENANCE text FROM messages WHERE mid = 4")
        .expect("quickstart query runs");
    assert_eq!(rows.columns[1], "prov_public_messages_mid");
    assert_eq!(rows.row(0)[0], Value::text("hi there ..."));
}

#[test]
fn layer_crates_are_reachable_through_the_facade_modules() {
    // Touch one symbol per re-exported layer crate so a broken workspace
    // edge fails this test rather than only the docs.
    let stmt = perm::sql::parse_statement("SELECT 1").expect("parser reachable");
    assert!(matches!(stmt, perm::sql::Statement::Query(_)));
    let _options: perm::core::SessionOptions = perm::SessionOptions::default();
    let catalog = perm::storage::Catalog::new();
    assert!(catalog.is_empty());
    let tuple = perm::types::Tuple::new(vec![perm::Value::Int(1)]);
    assert_eq!(tuple.get(0), &perm::Value::Int(1));
}
