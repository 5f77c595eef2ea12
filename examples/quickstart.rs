//! Quickstart: the paper's Figure 1 database and its headline result —
//! the provenance of query q1 (Figure 2) — in a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use perm_core::fixtures::{forum_db, Q1};

fn main() -> perm_core::Result<()> {
    // The demo paper's online-forum database: messages, users, imports,
    // approved, plus the view v1 (q2).
    let db = forum_db();

    // q1: all messages, entered locally or imported from other forums.
    println!("q1: {Q1}\n");
    println!("{}", db.query(Q1)?.to_table());

    // The provenance of q1: every result tuple extended with the
    // contributing tuple from `messages` or `imports` — the other side
    // padded with NULLs. This reproduces Figure 2 of the paper.
    let provenance = db.query(&format!("SELECT PROVENANCE * FROM ({Q1}) q1 ORDER BY mid"))?;
    println!("the provenance of q1 (paper Figure 2):\n");
    println!("{}", provenance.to_table());

    // Provenance is ordinary relational data: query it with plain SQL.
    let imported = db.query(
        "SELECT text, prov_public_imports_origin AS origin \
         FROM (SELECT PROVENANCE * FROM (SELECT mId, text FROM messages \
               UNION SELECT mId, text FROM imports) q1) p \
         WHERE prov_public_imports_origin IS NOT NULL ORDER BY text",
    )?;
    println!("messages that came from another forum, with their origin:\n");
    println!("{}", imported.to_table());

    // The same catalog is a server underneath: hand out concurrent
    // sessions, prepare hot queries, stream results — see
    // examples/concurrent_server.rs for the full tour.
    let session = db.server().session();
    let prepared = session.prepare("SELECT PROVENANCE text FROM messages")?;
    println!(
        "prepared provenance query, re-executed without re-rewriting: {} rows",
        prepared.execute()?.row_count()
    );
    Ok(())
}
