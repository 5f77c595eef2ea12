//! Data-warehouse lineage: eager provenance over a star schema.
//!
//! The paper cites data warehouses as a core application of provenance
//! (tracing view data back to source tuples, after Cui-Widom). This
//! example builds a small star schema, materializes a report *together
//! with its provenance* (`CREATE TABLE … AS SELECT PROVENANCE …` — the
//! eager path), and then audits a wrong number without recomputing
//! anything: the stored provenance columns answer directly, and further
//! provenance queries over the stored table propagate them as external
//! provenance.
//!
//! Run with: `cargo run --example warehouse_lineage`

use perm_core::{materialize_provenance, PermServer, Result, Value};

fn main() -> Result<()> {
    let db = PermServer::new().session();

    // The star schema: sales facts, product and region dimensions.
    db.run_script(
        "CREATE TABLE products (pid int NOT NULL, name text, category text);
         CREATE TABLE regions  (rid int NOT NULL, name text);
         CREATE TABLE sales    (sid int NOT NULL, pid int, rid int, amount int);

         INSERT INTO products VALUES
             (1, 'anvil',   'hardware'),
             (2, 'rocket',  'hardware'),
             (3, 'manual',  'media');
         INSERT INTO regions VALUES (10, 'north'), (20, 'south');
         INSERT INTO sales VALUES
             (100, 1, 10, 250),
             (101, 1, 20, 300),
             (102, 2, 10, 7500),
             (103, 2, 10, 75000),   -- fat-finger entry: one zero too many
             (104, 3, 20, 40);",
    )?;

    // The quarterly report, materialized *with provenance* (eager).
    let rows = materialize_provenance(
        &db,
        "report",
        "SELECT PROVENANCE p.category, r.name, sum(s.amount) \
         FROM sales s JOIN products p ON s.pid = p.pid \
                      JOIN regions r ON s.rid = r.rid \
         GROUP BY p.category, r.name",
    )?;
    println!("materialized report with provenance: {rows} rows\n");

    let report = db.query("SELECT DISTINCT category, name, sum FROM report ORDER BY sum DESC")?;
    println!("the report itself:\n{}", report.to_table());

    // hardware/north shows 82,750 — suspicious. The provenance is already
    // stored: find the witnesses without touching the base tables.
    let audit = db.query(
        "SELECT prov_public_sales_sid AS sale, prov_public_sales_amount AS amount, \
                prov_public_products_name AS product \
         FROM report \
         WHERE category = 'hardware' AND name = 'north' \
         ORDER BY amount DESC",
    )?;
    println!("witnesses of hardware/north:\n{}", audit.to_table());

    // Sale 103 contributed 75,000 — the fat-finger entry.
    assert_eq!(audit.row(0)[0], Value::Int(103));
    assert_eq!(audit.row(0)[1], Value::Int(75000));

    // Fix the source, rebuild the report; the old provenance snapshot is
    // unaffected (eager = a snapshot), the new one shows the correction.
    db.run_script(
        "DROP TABLE report;
         CREATE TABLE fixed_sales AS
             SELECT sid, pid, rid,
                    CASE WHEN sid = 103 THEN 7500 ELSE amount END AS amount
             FROM sales;",
    )?;
    materialize_provenance(
        &db,
        "report",
        "SELECT PROVENANCE p.category, r.name, sum(s.amount) \
         FROM fixed_sales s JOIN products p ON s.pid = p.pid \
                            JOIN regions r ON s.rid = r.rid \
         GROUP BY p.category, r.name",
    )?;
    let corrected = db.query(
        "SELECT DISTINCT category, name, sum FROM report \
         WHERE category = 'hardware' AND name = 'north'",
    )?;
    println!("corrected hardware/north:\n{}", corrected.to_table());
    assert_eq!(corrected.row(0)[2], Value::Int(15250));

    // Incremental provenance: a provenance query *over the stored report*
    // propagates the recorded provenance columns instead of re-deriving
    // them (the stored table is treated as externally annotated).
    let incremental =
        db.query("SELECT PROVENANCE category, sum FROM report WHERE name = 'north'")?;
    println!(
        "provenance query over the stored report (external propagation):\n{}",
        incremental.to_table()
    );
    // The rebuilt report derives from fixed_sales, so its stored
    // provenance columns carry that relation's name.
    assert!(incremental
        .columns
        .iter()
        .any(|c| c == "prov_public_fixed_sales_sid"));
    Ok(())
}
