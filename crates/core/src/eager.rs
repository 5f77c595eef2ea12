//! Lazy vs. eager provenance computation (paper §1: the user can "decide
//! whether he will store the provenance of a query for later reuse or let
//! the system compute it on the fly").
//!
//! *Lazy* is the default: every `SELECT PROVENANCE` recomputes `q+`.
//! *Eager* materializes `q+` once —
//! `CREATE TABLE p AS SELECT PROVENANCE …` — and records which columns of
//! `p` are provenance attributes in the catalog. A later
//! `SELECT PROVENANCE … FROM p` then treats those columns as **external
//! provenance** and propagates them without any re-derivation: the
//! incremental computation path.

use perm_types::Result;

use crate::result::StatementResult;
use crate::session::Session;

/// Materialize the provenance of `query` into table `name`.
///
/// Equivalent to executing `CREATE TABLE <name> AS SELECT PROVENANCE …`
/// (it takes the catalog write lock like any other DDL), returning the
/// number of materialized rows.
pub fn materialize_provenance(
    session: &Session,
    name: &str,
    provenance_query: &str,
) -> Result<usize> {
    let sql = format!("CREATE TABLE {name} AS {provenance_query}");
    match session.execute(&sql)? {
        StatementResult::TableCreated { rows, .. } => Ok(rows),
        other => unreachable!("CREATE TABLE AS returned {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::forum_db;
    use perm_rewrite::is_provenance_name;

    #[test]
    fn eager_table_records_provenance_columns() {
        let db = forum_db();
        let n =
            materialize_provenance(&db, "msg_prov", "SELECT PROVENANCE mid, text FROM messages")
                .unwrap();
        assert_eq!(n, 2);
        let catalog = db.snapshot();
        let t = catalog.table("msg_prov").unwrap();
        assert_eq!(t.provenance_columns(), &[2, 3, 4]);
        for &c in t.provenance_columns() {
            assert!(is_provenance_name(&t.schema().column(c).name));
        }
    }

    #[test]
    fn provenance_query_over_eager_table_propagates_not_recomputes() {
        let db = forum_db();
        materialize_provenance(&db, "msg_prov", "SELECT PROVENANCE mid, text FROM messages")
            .unwrap();
        // Lazy: recompute from the base table.
        let lazy = db
            .query("SELECT PROVENANCE mid, text FROM messages")
            .unwrap();
        // Eager reuse: read the stored provenance. The recorded provenance
        // columns are propagated untouched — no prov_public_msg_prov_*
        // duplication.
        let eager = db
            .query("SELECT PROVENANCE mid, text FROM msg_prov")
            .unwrap();
        assert_eq!(eager.columns, lazy.columns);
        let sort = |r: &crate::result::QueryResult| {
            let mut v: Vec<_> = r.rows.clone();
            v.sort_by(|a, b| a.get(0).sort_cmp(b.get(0)));
            v
        };
        assert_eq!(sort(&eager), sort(&lazy));
    }

    #[test]
    fn eager_provenance_survives_base_table_updates() {
        // The materialized provenance is a snapshot: updating the base
        // table afterwards does not change it (that is the point of
        // storing it).
        let db = forum_db();
        materialize_provenance(&db, "p", "SELECT PROVENANCE mid FROM messages").unwrap();
        db.execute("INSERT INTO messages VALUES (9, 'new', 1)")
            .unwrap();
        let stored = db.query("SELECT * FROM p").unwrap();
        assert_eq!(stored.row_count(), 2, "snapshot unchanged");
        let lazy = db.query("SELECT PROVENANCE mid FROM messages").unwrap();
        assert_eq!(lazy.row_count(), 3, "lazy sees the new row");
    }

    #[test]
    fn plain_queries_over_eager_tables_see_all_columns() {
        let db = forum_db();
        materialize_provenance(&db, "p", "SELECT PROVENANCE mid FROM messages").unwrap();
        // Without PROVENANCE, p behaves like any table: provenance columns
        // are ordinary, queryable columns (paper §2.4's "query provenance
        // information" requirement).
        let r = db
            .query("SELECT prov_public_messages_text FROM p WHERE mid = 4")
            .unwrap();
        assert_eq!(r.row(0), &[perm_types::Value::text("hi there ...")]);
    }
}
