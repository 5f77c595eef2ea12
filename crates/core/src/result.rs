//! Query results — materialized ([`QueryResult`], with the textual
//! rendering of the browser's result panel, Figure 4 marker 5) and
//! streaming ([`RowStream`], the cursor-style interface of
//! `Session::query_stream`).

use std::fmt;

use perm_exec::TupleStream;
use perm_types::{CancelHandle, QueryContext, Result, Schema, Tuple, Value};

use crate::admission::AdmissionPermit;

/// A materialized query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Tuple>,
}

impl QueryResult {
    pub fn new(schema: &Schema, rows: Vec<Tuple>) -> QueryResult {
        QueryResult {
            columns: schema.names().iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw values of one row.
    pub fn row(&self, i: usize) -> &[Value] {
        self.rows[i].values()
    }

    /// Index of a column by (case-insensitive) name, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// psql-style ASCII table, NULLs rendered as `null` (as the paper's
    /// Figure 2 does).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();

        let mut out = String::new();
        // Header.
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:^w$} ", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("|"));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        out.push_str(&sep.join("+"));
        out.push('\n');
        for row in &rendered {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, s)| format!(" {:<w$} ", s, w = widths[i]))
                .collect();
            out.push_str(&cells.join("|"));
            out.push('\n');
        }
        out.push_str(&format!(
            "({} row{})\n",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        ));
        out
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

/// A pull-based query result: an `Iterator<Item = Result<Tuple>>` plus the
/// output schema.
///
/// Returned by `Session::query_stream` and `Prepared::execute_stream`.
/// Rows are produced on demand from a consistent catalog snapshot, so a
/// consumer that stops early (for example after `LIMIT k` rows, or because
/// the client disconnected) never pays for the rest of the result. The
/// stream is fused: after the first error it yields `None` forever.
pub struct RowStream {
    columns: Vec<String>,
    schema: Schema,
    inner: TupleStream,
    /// The query's lifecycle context: the stream hands out cancel
    /// handles ([`RowStream::cancel_handle`]) and cancels the query
    /// itself when dropped, so a consumer that walks away mid-result
    /// frees its admission slot at once.
    ctx: QueryContext,
    /// The stream's admission slot; releasing it (on drop) lets queued
    /// queries run, so a stream counts as "running" until the consumer
    /// is done with it — not just until its rows are produced.
    permit: Option<AdmissionPermit>,
}

impl RowStream {
    pub(crate) fn new(schema: Schema, inner: TupleStream, ctx: QueryContext) -> RowStream {
        RowStream {
            columns: schema.names().iter().map(|s| s.to_string()).collect(),
            schema,
            inner,
            ctx,
            permit: None,
        }
    }

    /// Attach the admission permit this stream holds until dropped.
    pub(crate) fn with_permit(mut self, permit: AdmissionPermit) -> RowStream {
        self.permit = Some(permit);
        self
    }

    /// A handle that cancels this query from any thread. The next
    /// cooperative check (a morsel claim, a batch boundary, a spill
    /// partition boundary, the stream's own pull loop) observes it and
    /// the stream yields the typed `cancelled` error, then fuses.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.ctx.handle()
    }

    /// The output schema of the query.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// How many base-table rows the stream's scans have pulled so far
    /// (see [`perm_exec::TupleStream::rows_scanned`]).
    pub fn rows_scanned(&self) -> usize {
        self.inner.rows_scanned()
    }

    /// Drain the stream into a materialized [`QueryResult`].
    pub fn collect_result(mut self) -> Result<QueryResult> {
        // By-ref drain: RowStream has a Drop impl, so its fields cannot
        // be moved out.
        let rows = (&mut self.inner).collect::<Result<Vec<Tuple>>>()?;
        Ok(QueryResult {
            columns: std::mem::take(&mut self.columns),
            rows,
        })
    }
}

impl Iterator for RowStream {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        self.inner.next()
    }
}

impl Drop for RowStream {
    fn drop(&mut self) {
        // A dropped stream is a disconnected consumer: cancel the query
        // so — if it was still queued for admission — its ticket leaves
        // the queue immediately. Cancelling an already-finished query is
        // a no-op.
        self.ctx.handle().cancel();
    }
}

impl fmt::Debug for RowStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RowStream")
            .field("columns", &self.columns)
            .field("rows_scanned", &self.rows_scanned())
            .finish()
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// SELECT / provenance query.
    Rows(QueryResult),
    /// CREATE TABLE / CREATE TABLE AS (with the number of rows
    /// materialized).
    TableCreated { name: String, rows: usize },
    /// CREATE VIEW.
    ViewCreated { name: String },
    /// INSERT (rows inserted).
    Inserted(usize),
    /// DELETE (rows removed).
    Deleted(usize),
    /// UPDATE (rows changed).
    Updated(usize),
    /// DROP (whether anything was dropped — false only with IF EXISTS).
    Dropped(bool),
    /// EXPLAIN output: the physical execution plan (plus the optimized
    /// logical tree under `EXPLAIN VERBOSE`).
    Explain(String),
}

impl StatementResult {
    /// The rows of a SELECT result; panics for other statements (test and
    /// example convenience).
    pub fn expect_rows(self) -> QueryResult {
        match self {
            StatementResult::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::{Column, DataType};

    fn result() -> QueryResult {
        QueryResult::new(
            &Schema::new(vec![
                Column::new("mid", DataType::Int),
                Column::new("text", DataType::Text),
            ]),
            vec![
                Tuple::new(vec![Value::Int(1), Value::text("lorem ipsum ...")]),
                Tuple::new(vec![Value::Int(2), Value::Null]),
            ],
        )
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let t = result().to_table();
        assert!(t.contains("mid"), "{t}");
        assert!(t.contains("lorem ipsum ..."), "{t}");
        assert!(t.contains("null"), "{t}");
        assert!(t.contains("(2 rows)"), "{t}");
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let r = result();
        assert_eq!(r.column_index("TEXT"), Some(1));
        assert_eq!(r.column_index("nope"), None);
    }

    #[test]
    fn expect_rows_unwraps() {
        let r = StatementResult::Rows(result());
        assert_eq!(r.expect_rows().row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "expected rows")]
    fn expect_rows_panics_on_ddl() {
        StatementResult::Dropped(true).expect_rows();
    }
}
