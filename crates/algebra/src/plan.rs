//! The logical relational algebra.
//!
//! This is the representation the Perm pipeline carries between analysis,
//! provenance rewrite and planning (the "query tree" of the paper's
//! Figure 3). Every operator knows its output [`Schema`]; expressions are
//! positional over the concatenation of the child schemas.

use std::fmt;

use perm_types::{Column, DataType, PermError, Result, Schema};

use crate::expr::{AggCall, ScalarExpr};

/// Sort key of a [`LogicalPlan::Sort`].
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: ScalarExpr,
    pub desc: bool,
}

impl fmt::Display for SortKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.expr, if self.desc { " DESC" } else { "" })
    }
}

/// Join types. `Semi`/`Anti` are produced by sublink unnesting and keep only
/// the left schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    Left,
    Full,
    Cross,
    /// Left tuples with at least one match; left schema only.
    Semi,
    /// Left tuples with no match; left schema only.
    Anti,
}

impl JoinType {
    pub fn name(self) -> &'static str {
        match self {
            JoinType::Inner => "Inner",
            JoinType::Left => "Left",
            JoinType::Full => "Full",
            JoinType::Cross => "Cross",
            JoinType::Semi => "Semi",
            JoinType::Anti => "Anti",
        }
    }

    /// True if the join output concatenates both sides' columns.
    pub fn produces_both_sides(self) -> bool {
        !matches!(self, JoinType::Semi | JoinType::Anti)
    }
}

/// Set-operation types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOpType {
    Union,
    Intersect,
    Except,
}

impl SetOpType {
    pub fn name(self) -> &'static str {
        match self {
            SetOpType::Union => "Union",
            SetOpType::Intersect => "Intersect",
            SetOpType::Except => "Except",
        }
    }
}

/// What a [`LogicalPlan::Boundary`] node means to the provenance rewriter.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundaryKind {
    /// SQL-PLE `BASERELATION` (paper §2.4): the rewrite stops here; the
    /// node's output tuples are treated like base tuples, i.e. duplicated
    /// into provenance attributes named after `name`.
    BaseRelation,
    /// SQL-PLE `PROVENANCE (attrs)` (paper §2.4): the listed positions of
    /// the input are *externally produced* provenance attributes, to be
    /// propagated untouched by the rewrite rules.
    External { attrs: Vec<usize> },
}

/// What a [`LogicalPlan::Aggregate`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggOutput {
    /// One row per group: the group columns, then one column per
    /// aggregate.
    #[default]
    Groups,
    /// One row per *input* row — under PI-CS every input tuple of a group
    /// witnesses that group's result (paper §2.2): the group columns, the
    /// aggregates, then the input row itself. A global aggregate over an
    /// empty input still emits its one row, with the input columns NULL.
    /// This is exactly the aggregation rule's join-back of an aggregate
    /// to its own input ([`LogicalPlan::join_back`]), computed in one
    /// pass; the optimizer introduces it, nothing else does.
    Witnesses,
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base table.
    Scan {
        table: String,
        schema: Schema,
        /// Provenance columns recorded in the catalog (eager provenance):
        /// treated as external provenance by the rewriter.
        provenance_cols: Vec<usize>,
    },
    /// Literal rows (`VALUES`, or a SELECT without FROM, which produces a
    /// single row).
    Values {
        rows: Vec<Vec<ScalarExpr>>,
        schema: Schema,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<ScalarExpr>,
        schema: Schema,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: ScalarExpr,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinType,
        /// `None` only for Cross joins.
        condition: Option<ScalarExpr>,
        schema: Schema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<ScalarExpr>,
        aggs: Vec<AggCall>,
        /// Group columns first, then one column per aggregate; with
        /// [`AggOutput::Witnesses`] followed by the input's columns
        /// (nullable).
        schema: Schema,
        output: AggOutput,
    },
    /// Duplicate elimination over all columns.
    Distinct { input: Box<LogicalPlan> },
    SetOp {
        op: SetOpType,
        all: bool,
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        schema: Schema,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<LogicalPlan>,
        limit: Option<u64>,
        offset: u64,
    },
    /// A provenance-rewrite boundary (see [`BoundaryKind`]). Transparent to
    /// planning and execution.
    Boundary {
        input: Box<LogicalPlan>,
        /// The name provenance attributes derive from (relation alias for
        /// `BASERELATION`, FROM-item name for `External`).
        name: String,
        kind: BoundaryKind,
    },
}

impl LogicalPlan {
    /// The operator's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::SetOp { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Boundary { input, .. } => input.schema(),
        }
    }

    /// Number of output columns.
    pub fn arity(&self) -> usize {
        self.schema().len()
    }

    /// Direct children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Boundary { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::SetOp { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Short operator name for trees and EXPLAIN output.
    pub fn node_name(&self) -> String {
        match self {
            LogicalPlan::Scan { table, .. } => format!("Scan({table})"),
            LogicalPlan::Values { rows, .. } => format!("Values({} rows)", rows.len()),
            LogicalPlan::Project { .. } => "Project".into(),
            LogicalPlan::Filter { .. } => "Filter".into(),
            LogicalPlan::Join { kind, .. } => format!("{}Join", kind.name()),
            LogicalPlan::Aggregate {
                output: AggOutput::Groups,
                ..
            } => "Aggregate".into(),
            LogicalPlan::Aggregate {
                output: AggOutput::Witnesses,
                ..
            } => "WitnessAggregate".into(),
            LogicalPlan::Distinct { .. } => "Distinct".into(),
            LogicalPlan::SetOp { op, all, .. } => {
                format!("{}{}", op.name(), if *all { "All" } else { "" })
            }
            LogicalPlan::Sort { .. } => "Sort".into(),
            LogicalPlan::Limit { .. } => "Limit".into(),
            LogicalPlan::Boundary { kind, name, .. } => match kind {
                BoundaryKind::BaseRelation => format!("BaseRelation({name})"),
                BoundaryKind::External { .. } => format!("ExternalProvenance({name})"),
            },
        }
    }

    /// Count of plan nodes (diagnostics and tests).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(LogicalPlan::node_count)
            .sum::<usize>()
    }

    /// This node's own expressions (not its children's, nor the inside of
    /// sublink bodies).
    pub(crate) fn exprs(&self) -> Vec<&ScalarExpr> {
        match self {
            LogicalPlan::Values { rows, .. } => rows.iter().flatten().collect(),
            LogicalPlan::Project { exprs, .. } => exprs.iter().collect(),
            LogicalPlan::Filter { predicate, .. } => vec![predicate],
            LogicalPlan::Join { condition, .. } => condition.iter().collect(),
            LogicalPlan::Aggregate { group_by, aggs, .. } => (group_by.iter())
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            LogicalPlan::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
            LogicalPlan::Scan { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::SetOp { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Boundary { .. } => vec![],
        }
    }

    /// Visit every expression of every node in the plan, including inside
    /// sublink subplans.
    pub fn visit_all_exprs(&self, f: &mut impl FnMut(&ScalarExpr)) {
        for e in self.exprs() {
            f(e);
            e.visit(&mut |n| {
                if let ScalarExpr::Subquery(sq) = n {
                    sq.plan.visit_all_exprs(f);
                }
            });
        }
        for child in self.children() {
            child.visit_all_exprs(f);
        }
    }

    // ------------------------------------------------------------------
    // Builders (used by the binder, the rewriter and tests)
    // ------------------------------------------------------------------

    /// Identity-preserving projection onto `positions` of `input`.
    pub fn project_positions(input: LogicalPlan, positions: &[usize]) -> LogicalPlan {
        let in_schema = input.schema().clone();
        let exprs: Vec<ScalarExpr> = positions.iter().map(|&i| ScalarExpr::Column(i)).collect();
        let schema = Schema::new(
            positions
                .iter()
                .map(|&i| in_schema.column(i).clone())
                .collect(),
        );
        LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema,
        }
    }

    /// A projection from explicit expressions and output columns.
    pub fn project(
        input: LogicalPlan,
        exprs: Vec<ScalarExpr>,
        columns: Vec<Column>,
    ) -> LogicalPlan {
        debug_assert_eq!(exprs.len(), columns.len());
        LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema: Schema::new(columns),
        }
    }

    /// A filter node.
    pub fn filter(input: LogicalPlan, predicate: ScalarExpr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(input),
            predicate,
        }
    }

    /// Build a join node, deriving the output schema from the inputs
    /// (outer-join sides become nullable).
    pub fn join(
        left: LogicalPlan,
        right: LogicalPlan,
        kind: JoinType,
        condition: Option<ScalarExpr>,
    ) -> Result<LogicalPlan> {
        if condition.is_none() && !matches!(kind, JoinType::Cross) {
            return Err(PermError::Analysis(format!(
                "{} join requires a condition",
                kind.name()
            )));
        }
        let schema = match kind {
            JoinType::Semi | JoinType::Anti => left.schema().clone(),
            JoinType::Inner | JoinType::Cross => left.schema().join(right.schema()),
            JoinType::Left => left.schema().join(&right.schema().nullable()),
            JoinType::Full => left.schema().nullable().join(&right.schema().nullable()),
        };
        Ok(LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            condition,
            schema,
        })
    }

    /// The aggregation rule's join-back, `aggregate ⟕_{G ≡ keys} right`:
    /// group column `i` of `aggregate` (group columns come first)
    /// NULL-safe-equal to `keys[i]` evaluated over `right` — NULL-safe
    /// because `GROUP BY` groups NULLs together. A global aggregate joins
    /// its one row to every row of `right` (`ON true`), so an empty
    /// `right` keeps it, NULL-extended.
    pub fn join_back(
        aggregate: LogicalPlan,
        right: LogicalPlan,
        keys: &[ScalarExpr],
    ) -> LogicalPlan {
        let condition = join_back_condition(keys, aggregate.arity());
        LogicalPlan::Join {
            schema: aggregate.schema().join(&right.schema().nullable()),
            left: Box::new(aggregate),
            right: Box::new(right),
            kind: JoinType::Left,
            condition: Some(condition),
        }
    }

    /// A single-row, zero-column Values node (`SELECT` without `FROM` scans
    /// exactly one empty tuple).
    pub fn empty_row() -> LogicalPlan {
        LogicalPlan::Values {
            rows: vec![vec![]],
            schema: Schema::empty(),
        }
    }
}

/// The condition of [`LogicalPlan::join_back`]: `#i ≡ keys[i]` shifted
/// past the `width` columns of the aggregate side, `true` without keys.
pub fn join_back_condition(keys: &[ScalarExpr], width: usize) -> ScalarExpr {
    ScalarExpr::conjunction(
        keys.iter()
            .enumerate()
            .map(|(i, k)| {
                ScalarExpr::not_distinct(ScalarExpr::Column(i), k.map_columns(&|c| c + width))
            })
            .collect(),
    )
}

/// Derive the output column for an expression (used by binder and rewriter
/// when synthesizing projections).
pub fn synthesized_column(name: impl Into<String>, ty: DataType) -> Column {
    Column::new(name, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::Value;

    fn scan(name: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.to_string(),
            schema: Schema::new(
                cols.iter()
                    .map(|(n, t)| Column::new(*n, *t).with_qualifier(name))
                    .collect(),
            ),
            provenance_cols: vec![],
        }
    }

    #[test]
    fn join_schema_concatenates_and_nullifies() {
        let l = scan("l", &[("a", DataType::Int)]);
        let r = scan("r", &[("b", DataType::Int)]);
        let j = LogicalPlan::join(
            l.clone(),
            r.clone(),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        assert_eq!(j.arity(), 2);
        assert!(j.schema().column(1).nullable);

        let semi = LogicalPlan::join(
            l,
            r,
            JoinType::Semi,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        assert_eq!(semi.arity(), 1);
    }

    #[test]
    fn non_cross_join_requires_condition() {
        let l = scan("l", &[("a", DataType::Int)]);
        let r = scan("r", &[("b", DataType::Int)]);
        assert!(LogicalPlan::join(l, r, JoinType::Inner, None).is_err());
    }

    #[test]
    fn schema_passes_through_filter_sort_limit() {
        let s = scan("t", &[("a", DataType::Int), ("b", DataType::Text)]);
        let f = LogicalPlan::filter(s, ScalarExpr::Literal(Value::Bool(true)));
        assert_eq!(f.arity(), 2);
        let l = LogicalPlan::Limit {
            input: Box::new(f),
            limit: Some(1),
            offset: 0,
        };
        assert_eq!(l.arity(), 2);
        assert_eq!(l.node_count(), 3);
    }

    #[test]
    fn project_positions_subsets_schema() {
        let s = scan("t", &[("a", DataType::Int), ("b", DataType::Text)]);
        let p = LogicalPlan::project_positions(s, &[1]);
        assert_eq!(p.arity(), 1);
        assert_eq!(p.schema().column(0).name, "b");
    }

    #[test]
    fn node_names() {
        let s = scan("t", &[("a", DataType::Int)]);
        assert_eq!(s.node_name(), "Scan(t)");
        let b = LogicalPlan::Boundary {
            input: Box::new(s),
            name: "v1".into(),
            kind: BoundaryKind::BaseRelation,
        };
        assert_eq!(b.node_name(), "BaseRelation(v1)");
    }

    #[test]
    fn outer_column_visitor_reports_referenced_positions() {
        // The body reads the enclosing row only through `outer_refs`, so
        // the enclosing scope's column visitor sees position 7 there.
        let body = LogicalPlan::filter(
            scan("s", &[("x", DataType::Int)]),
            ScalarExpr::eq(
                ScalarExpr::Column(0),
                ScalarExpr::Param {
                    index: 0,
                    ty: DataType::Int,
                },
            ),
        );
        let sublink = ScalarExpr::Subquery(crate::expr::SubqueryExpr {
            kind: crate::expr::SubqueryKind::Exists,
            plan: std::sync::Arc::new(body),
            negated: false,
            operand: None,
            outer_refs: vec![ScalarExpr::Column(7)],
        });
        let mut seen = vec![];
        sublink.for_each_column(&mut |i| seen.push(i));
        assert_eq!(seen, vec![7]);
    }
}
