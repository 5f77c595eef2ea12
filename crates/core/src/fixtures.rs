//! The paper's example data, verbatim.
//!
//! * [`forum_db`] — the online-forum database of **Figure 1** (tables
//!   `messages`, `users`, `imports`, `approved`) plus the view `v1`
//!   created by q2.
//! * [`add_figure4_tables`] — the two-column toy tables `s` and `r` whose
//!   provenance result is shown in **Figure 4 marker 5**
//!   (`i | prov_public_s_i | prov_public_r_i`).
//! * [`figure2_expected`] — the exact provenance relation of q1 shown in
//!   **Figure 2**.

use perm_types::Value;

use crate::result::QueryResult;
use crate::server::PermServer;
use crate::session::Session;

/// q1 of Figure 1, verbatim.
pub const Q1: &str = "SELECT mId, text FROM messages UNION SELECT mId, text FROM imports";

/// q2 of Figure 1 (the view definition).
pub const Q2: &str =
    "CREATE VIEW v1 AS SELECT mId, text FROM messages UNION SELECT mId, text FROM imports";

/// q3 of Figure 1, verbatim.
pub const Q3: &str = "SELECT count(*), text FROM v1 JOIN approved a ON (v1.mId = a.mId) \
                      GROUP BY v1.mId, text";

/// The paper's §2.4 provenance aggregation listing.
pub const SEC24_PROVENANCE_AGG: &str =
    "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text \
     FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId";

/// The paper's §2.4 "query the provenance" listing (adapted only in that
/// the provenance attribute is written with its full generated name —
/// the paper abbreviates it as `p_origin`).
pub const SEC24_QUERY_PROVENANCE: &str = "SELECT text, prov_public_imports_origin FROM \
     (SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
      GROUP BY v1.mId) AS prov \
     WHERE count > 5 AND prov_public_imports_origin = 'superForum'";

/// The paper's §2.4 BASERELATION listing. (`v1` has columns `mid, text`;
/// the paper's `WHERE count > 3` refers to a hypothetical aggregated view —
/// we keep the exact structure with v1's real columns.)
pub const SEC24_BASERELATION: &str = "SELECT PROVENANCE text FROM v1 BASERELATION WHERE mid > 3";

/// Build the Figure 1 database — schema, rows and the view v1, exactly as
/// printed in the paper — on a fresh server, and return a session on it.
pub fn forum_db() -> Session {
    let db = PermServer::new().session();
    db.run_script(
        "CREATE TABLE messages (mId int NOT NULL, text text, uId int);
         CREATE TABLE users (uId int NOT NULL, name text);
         CREATE TABLE imports (mId int NOT NULL, text text, origin text);
         CREATE TABLE approved (uId int NOT NULL, mId int NOT NULL);

         INSERT INTO messages VALUES (1, 'lorem ipsum ...', 3), (4, 'hi there ...', 2);
         INSERT INTO users VALUES (1, 'Bert'), (2, 'Gert'), (3, 'Gertrud');
         INSERT INTO imports VALUES (2, 'hello ...', 'superForum'),
                                    (3, 'I don''t ...', 'HiBoard');
         INSERT INTO approved VALUES (2, 2), (1, 4), (2, 4), (3, 4);",
    )
    .expect("fixture script is valid");
    db.execute(Q2).expect("q2 creates v1");
    db
}

/// Add the Figure 4 marker-5 tables `s(i)` and `r(i)` with rows 1 and 2.
pub fn add_figure4_tables(db: &Session) {
    db.run_script(
        "CREATE TABLE s (i int);
         CREATE TABLE r (i int);
         INSERT INTO s VALUES (1), (2);
         INSERT INTO r VALUES (1), (2);",
    )
    .expect("figure 4 fixture script is valid");
}

/// The provenance of q1 as printed in Figure 2: each original result tuple
/// extended with the contributing tuple from `messages` or `imports`, the
/// other side padded with NULLs. Rows are in mId order.
pub fn figure2_expected() -> Vec<Vec<Value>> {
    let i = Value::Int;
    let t = |s: &str| Value::text(s);
    let n = || Value::Null;
    vec![
        vec![
            i(1),
            t("lorem ipsum ..."),
            i(1),
            t("lorem ipsum ..."),
            i(3),
            n(),
            n(),
            n(),
        ],
        vec![
            i(2),
            t("hello ..."),
            n(),
            n(),
            n(),
            i(2),
            t("hello ..."),
            t("superForum"),
        ],
        vec![
            i(3),
            t("I don't ..."),
            n(),
            n(),
            n(),
            i(3),
            t("I don't ..."),
            t("HiBoard"),
        ],
        vec![
            i(4),
            t("hi there ..."),
            i(4),
            t("hi there ..."),
            i(2),
            n(),
            n(),
            n(),
        ],
    ]
}

/// The Figure 2 column header (original attributes, then `messages`'
/// provenance, then `imports`').
pub fn figure2_columns() -> Vec<&'static str> {
    vec![
        "mid",
        "text",
        "prov_public_messages_mid",
        "prov_public_messages_text",
        "prov_public_messages_uid",
        "prov_public_imports_mid",
        "prov_public_imports_text",
        "prov_public_imports_origin",
    ]
}

/// Sort rows by the first column (mId) for stable golden comparisons.
pub fn sorted_by_first(result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = result.rows.iter().map(|t| t.values().to_vec()).collect();
    rows.sort_by(|a, b| a[0].sort_cmp(&b[0]));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forum_db_has_the_figure_1_rows() {
        let db = forum_db();
        assert_eq!(db.query("SELECT * FROM messages").unwrap().row_count(), 2);
        assert_eq!(db.query("SELECT * FROM users").unwrap().row_count(), 3);
        assert_eq!(db.query("SELECT * FROM imports").unwrap().row_count(), 2);
        assert_eq!(db.query("SELECT * FROM approved").unwrap().row_count(), 4);
        assert_eq!(db.query("SELECT * FROM v1").unwrap().row_count(), 4);
    }

    #[test]
    fn q1_returns_all_four_messages() {
        let db = forum_db();
        let r = db.query(Q1).unwrap();
        assert_eq!(r.row_count(), 4);
    }

    #[test]
    fn q3_matches_the_paper_description() {
        // q3 outputs each approved message's text with its approval count;
        // message 1 (never approved) is absent.
        let db = forum_db();
        let r = db.query(&format!("{Q3} ORDER BY text")).unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.row(0), &[Value::Int(1), Value::text("hello ...")]);
        assert_eq!(r.row(1), &[Value::Int(3), Value::text("hi there ...")]);
    }

    #[test]
    fn figure4_tables_load() {
        let db = forum_db();
        add_figure4_tables(&db);
        assert_eq!(db.query("SELECT * FROM s").unwrap().row_count(), 2);
    }
}
