//! Stored view definitions.

use perm_sql::Query;

/// A stored view: a name and its defining query, kept **un-analyzed**.
///
/// Keeping the raw AST (instead of a bound plan) is deliberate: the Perm
/// pipeline unfolds views during analysis, *before* the provenance rewrite,
/// so the rewriter sees the view's full operator tree and can either rewrite
/// through it (default) or stop at it when the reference is marked
/// `BASERELATION` (paper Section 2.4). q2 of the paper's Figure 1
/// (`CREATE VIEW v1 AS q1`) is exactly such a view.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    name: String,
    definition: Query,
    /// The defining query's source text, as the user wrote it, when the
    /// creator had it (views made through the server always do).
    /// Checkpoints persist views by this text and re-parse it on
    /// recovery, so the storage layer never needs its own AST serializer.
    sql: Option<String>,
}

impl View {
    pub fn new(name: impl Into<String>, definition: Query) -> View {
        View {
            name: name.into(),
            definition,
            sql: None,
        }
    }

    /// A view that remembers the source text of its definition (required
    /// for durable checkpoints).
    pub fn with_sql(name: impl Into<String>, definition: Query, sql: impl Into<String>) -> View {
        View {
            name: name.into(),
            definition,
            sql: Some(sql.into()),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining query, as parsed.
    pub fn definition(&self) -> &Query {
        &self.definition
    }

    /// The defining query's source text, if recorded at creation.
    pub fn sql(&self) -> Option<&str> {
        self.sql.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_sql::{parse_statement, Statement};

    #[test]
    fn view_keeps_the_raw_query() {
        let stmt = parse_statement(
            "CREATE VIEW v1 AS SELECT mid, text FROM messages \
             UNION SELECT mid, text FROM imports",
        )
        .unwrap();
        let Statement::CreateView { name, query, .. } = stmt else {
            panic!("expected CREATE VIEW");
        };
        let v = View::new(name, query.clone());
        assert_eq!(v.name(), "v1");
        assert_eq!(v.definition(), &query);
    }
}
