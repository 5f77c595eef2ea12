//! Forum moderation: tracing errors with provenance.
//!
//! The paper's intro motivates provenance with "trace errors, estimate data
//! quality". This example plays that scenario out on the forum database:
//! a moderation report aggregates approvals per message; one count looks
//! wrong, and the moderators use `SELECT PROVENANCE` to find the exact
//! base tuples — including which *imported* forum the message came from
//! and which users approved it — without any manual join archaeology.
//!
//! Run with: `cargo run --example forum_moderation`

use perm_core::fixtures::forum_db;
use perm_core::{Result, Value};

fn main() -> Result<()> {
    let db = forum_db();

    // A few more imports and approvals so the report is interesting.
    db.run_script(
        "INSERT INTO imports VALUES (5, 'get rich quick!!!', 'spamHub'),
                                    (6, 'weekly digest', 'superForum');
         INSERT INTO approved VALUES (1, 5), (2, 5), (3, 5), (1, 6);",
    )?;
    // Refresh the view over messages ∪ imports? Not needed: v1 unfolds at
    // query time, so it already sees the new rows (lazy computation).

    // The moderation report: approvals per visible message.
    let report = db.query(
        "SELECT count(*) AS approvals, text FROM v1 JOIN approved a ON v1.mId = a.mId \
         GROUP BY v1.mId, text ORDER BY approvals DESC",
    )?;
    println!("moderation report:\n{}", report.to_table());

    // 'get rich quick!!!' got three approvals?! Trace it: compute the
    // provenance of the report and filter to the suspicious row.
    let trace = db.query(
        "SELECT text,
                prov_public_imports_origin  AS imported_from,
                prov_public_approved_uid    AS approved_by
         FROM (SELECT PROVENANCE count(*) , text
               FROM v1 JOIN approved a ON v1.mId = a.mId
               GROUP BY v1.mId, text) p
         WHERE text = 'get rich quick!!!'
         ORDER BY approved_by",
    )?;
    println!("provenance of the suspicious row:\n{}", trace.to_table());

    // The witnesses tell the whole story: the message was imported from
    // 'spamHub' and approved by users 1, 2 and 3.
    assert_eq!(trace.row_count(), 3);
    assert!(trace
        .rows
        .iter()
        .all(|t| t.get(1) == &Value::text("spamHub")));

    // Name the approvers by joining provenance with normal data — the
    // composability the paper stresses ("queries that combine provenance
    // and 'normal' data").
    let approvers = db.query(
        "SELECT DISTINCT u.name
         FROM (SELECT PROVENANCE count(*), text
               FROM v1 JOIN approved a ON v1.mId = a.mId
               GROUP BY v1.mId, text) p
         JOIN users u ON p.prov_public_approved_uid = u.uid
         WHERE p.text = 'get rich quick!!!'
         ORDER BY 1",
    )?;
    println!("who approved the spam:\n{}", approvers.to_table());
    assert_eq!(approvers.row_count(), 3);

    // Moderation action: ban list = everyone who approved anything from
    // 'spamHub'.
    let ban_list = db.query(
        "SELECT DISTINCT u.name
         FROM (SELECT PROVENANCE v1.mId FROM v1 JOIN approved a ON v1.mId = a.mId) p
         JOIN users u ON p.prov_public_approved_uid = u.uid
         WHERE p.prov_public_imports_origin = 'spamHub'
         ORDER BY 1",
    )?;
    println!(
        "ban list (approved spamHub content):\n{}",
        ban_list.to_table()
    );
    Ok(())
}
