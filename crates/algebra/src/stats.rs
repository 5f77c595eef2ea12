//! The unified cardinality/cost estimator.
//!
//! One trait — [`CardinalityEstimator`] — feeds **both** consumers of
//! cardinality information in the pipeline:
//!
//! * the provenance rewriter's cost-based *strategy* chooser, which ranks
//!   alternative rewrites of the same operator, and
//! * the executor's *physical* planner, which picks join order, join
//!   strategy (hash / nested-loop / index-nested-loop), build sides and
//!   index scans.
//!
//! Implementations back the trait with whatever they know: the storage
//! catalog exposes exact row counts, per-column distinct counts and hash
//! index availability (`perm_exec::CatalogStats`); tests pin fixed numbers
//! with [`FixedCardinalities`]; [`UnknownCardinality`] knows nothing and
//! makes every estimate fall back to the classic textbook constants.
//!
//! Estimates are deliberately simple — row counts and `1/n_distinct`
//! selectivities, no histograms — because what matters for Perm is that
//! the rewrite-strategy chooser and the planner share one source of
//! cardinality truth instead of disagreeing about the same plan.

use std::collections::HashMap;

use crate::expr::{BinOp, ScalarExpr};
use crate::plan::{AggOutput, JoinType, LogicalPlan, SetOpType};

/// Source of base-table statistics. Everything defaults to "unknown", so
/// minimal implementations only answer [`table_rows`](Self::table_rows).
pub trait CardinalityEstimator {
    /// Exact or estimated row count of a base table, if known.
    fn table_rows(&self, table: &str) -> Option<f64>;

    /// Number of distinct non-null values in `column` of `table`, if known.
    fn column_distinct(&self, _table: &str, _column: usize) -> Option<f64> {
        None
    }

    /// True if `column` of `table` has a hash index (point lookups are
    /// cheap). Used by the physical planner, not by cardinality math.
    fn has_index(&self, _table: &str, _column: usize) -> bool {
        false
    }
}

/// An estimator that knows nothing; every table defaults to 1000 rows.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnknownCardinality;

impl CardinalityEstimator for UnknownCardinality {
    fn table_rows(&self, _table: &str) -> Option<f64> {
        None
    }
}

/// A fixed per-table cardinality map (tests, benches).
#[derive(Debug, Default, Clone)]
pub struct FixedCardinalities(pub HashMap<String, f64>);

impl CardinalityEstimator for FixedCardinalities {
    fn table_rows(&self, table: &str) -> Option<f64> {
        self.0.get(&table.to_ascii_lowercase()).copied()
    }
}

/// Default row count assumed for unknown tables.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Default selectivity of a filter predicate.
const FILTER_SELECTIVITY: f64 = 0.5;
/// Default selectivity of a join condition.
const JOIN_SELECTIVITY: f64 = 0.1;
/// Default selectivity of one equality conjunct.
const EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity of one range/LIKE conjunct.
const RANGE_SELECTIVITY: f64 = 0.3;

/// Where a plan column comes from, when that is a base-table column
/// visible through identity projections. Used to look up per-column
/// statistics for selectivity estimates (also by the executor's join
/// reorderer, whose leaves are pruned `Project → Scan` chains).
pub fn resolve_base_column(plan: &LogicalPlan, col: usize) -> Option<(&str, usize)> {
    match plan {
        LogicalPlan::Scan { table, .. } => Some((table.as_str(), col)),
        LogicalPlan::Project { input, exprs, .. } => match exprs.get(col)? {
            ScalarExpr::Column(i) => resolve_base_column(input, *i),
            _ => None,
        },
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Boundary { input, .. }
        | LogicalPlan::Distinct { input } => resolve_base_column(input, col),
        LogicalPlan::Join {
            left, right, kind, ..
        } if kind.produces_both_sides() => {
            let nl = left.arity();
            if col < nl {
                resolve_base_column(left, col)
            } else {
                resolve_base_column(right, col - nl)
            }
        }
        LogicalPlan::Join { left, .. } => resolve_base_column(left, col),
        _ => None,
    }
}

/// Distinct count of a plan column, when it traces to a base column with
/// known statistics.
pub fn column_distinct(
    plan: &LogicalPlan,
    col: usize,
    est: &dyn CardinalityEstimator,
) -> Option<f64> {
    let (table, base_col) = resolve_base_column(plan, col)?;
    est.column_distinct(table, base_col)
}

/// Estimated selectivity of one conjunct over `input`.
fn conjunct_selectivity(
    c: &ScalarExpr,
    input: &LogicalPlan,
    est: &dyn CardinalityEstimator,
) -> f64 {
    match c {
        ScalarExpr::Binary { op, left, right } => match op {
            BinOp::Eq | BinOp::NotDistinctFrom => {
                // `col = literal`: 1 / n_distinct when stats know the column.
                let col = match (left.as_ref(), right.as_ref()) {
                    (ScalarExpr::Column(i), ScalarExpr::Literal(_))
                    | (ScalarExpr::Literal(_), ScalarExpr::Column(i)) => Some(*i),
                    _ => None,
                };
                col.and_then(|i| column_distinct(input, i, est))
                    .map_or(EQ_SELECTIVITY, |d| (1.0 / d.max(1.0)).min(1.0))
            }
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => RANGE_SELECTIVITY,
            BinOp::NotEq | BinOp::DistinctFrom => 1.0 - EQ_SELECTIVITY,
            _ => FILTER_SELECTIVITY,
        },
        ScalarExpr::Like { .. } => RANGE_SELECTIVITY,
        ScalarExpr::InList { list, negated, .. } => {
            let s = (EQ_SELECTIVITY * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        ScalarExpr::IsNull { negated: false, .. } => EQ_SELECTIVITY,
        ScalarExpr::IsNull { negated: true, .. } => 1.0 - EQ_SELECTIVITY,
        ScalarExpr::Literal(v) if v.is_null() => 0.0,
        _ => FILTER_SELECTIVITY,
    }
}

/// Estimated selectivity of a (possibly conjunctive) predicate over
/// `input`. Conjunct selectivities multiply (independence assumption),
/// floored so a long conjunction never rounds to zero rows.
pub fn predicate_selectivity(
    pred: &ScalarExpr,
    input: &LogicalPlan,
    est: &dyn CardinalityEstimator,
) -> f64 {
    pred.split_conjunction()
        .iter()
        .map(|c| conjunct_selectivity(c, input, est))
        .product::<f64>()
        .clamp(1e-4, 1.0)
}

/// Estimated selectivity of a join condition between `left` and `right`
/// (columns `>= left.arity()` refer to the right input). Equi-conjuncts
/// use `1/max(d_left, d_right)` when the key columns have known distinct
/// counts; everything else falls back to the textbook constant.
pub fn join_selectivity(
    cond: &ScalarExpr,
    left: &LogicalPlan,
    right: &LogicalPlan,
    est: &dyn CardinalityEstimator,
) -> f64 {
    let nl = left.arity();
    let mut sel = 1.0f64;
    for c in cond.split_conjunction() {
        let s = match c {
            ScalarExpr::Binary {
                op: BinOp::Eq | BinOp::NotDistinctFrom,
                left: a,
                right: b,
            } => {
                let key = |e: &ScalarExpr| match e {
                    ScalarExpr::Column(i) => Some(*i),
                    _ => None,
                };
                match (key(a), key(b)) {
                    (Some(x), Some(y)) if (x < nl) != (y < nl) => {
                        let (l, r) = if x < nl { (x, y) } else { (y, x) };
                        let dl = column_distinct(left, l, est);
                        let dr = column_distinct(right, r - nl, est);
                        match (dl, dr) {
                            (Some(a), Some(b)) => 1.0 / a.max(b).max(1.0),
                            (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
                            (None, None) => JOIN_SELECTIVITY,
                        }
                    }
                    _ => JOIN_SELECTIVITY,
                }
            }
            _ => FILTER_SELECTIVITY,
        };
        sel *= s;
    }
    sel.clamp(1e-6, 1.0)
}

/// Estimate the output cardinality of a logical plan.
pub fn estimate_rows(plan: &LogicalPlan, est: &dyn CardinalityEstimator) -> f64 {
    match plan {
        LogicalPlan::Scan { table, .. } => {
            est.table_rows(table).unwrap_or(DEFAULT_TABLE_ROWS).max(1.0)
        }
        LogicalPlan::Values { rows, .. } => rows.len() as f64,
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Boundary { input, .. } => estimate_rows(input, est),
        LogicalPlan::Filter { input, predicate } => {
            estimate_rows(input, est) * predicate_selectivity(predicate, input, est)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            ..
        } => {
            let l = estimate_rows(left, est);
            let r = estimate_rows(right, est);
            match kind {
                JoinType::Cross => l * r,
                JoinType::Semi | JoinType::Anti => l * FILTER_SELECTIVITY,
                _ if condition.is_none() => l * r,
                JoinType::Left | JoinType::Full => {
                    let sel = condition
                        .as_ref()
                        .map_or(JOIN_SELECTIVITY, |c| join_selectivity(c, left, right, est));
                    (l * r * sel).max(l)
                }
                _ => {
                    let sel = condition
                        .as_ref()
                        .map_or(JOIN_SELECTIVITY, |c| join_selectivity(c, left, right, est));
                    (l * r * sel).max(1.0)
                }
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            output,
            ..
        } => {
            let n = estimate_rows(input, est);
            if *output == AggOutput::Witnesses {
                // One row per input row (one for an empty global input).
                n.max(1.0)
            } else if group_by.is_empty() {
                1.0
            } else {
                // Distinct count of a single grouping column bounds the
                // group count; otherwise the square-root heuristic.
                let by_stats = match group_by.as_slice() {
                    [ScalarExpr::Column(c)] => column_distinct(input, *c, est),
                    _ => None,
                };
                by_stats.map_or_else(|| n.sqrt().max(1.0), |d| d.min(n).max(1.0))
            }
        }
        LogicalPlan::Distinct { input } => estimate_rows(input, est) * 0.8,
        LogicalPlan::SetOp {
            op, left, right, ..
        } => {
            let l = estimate_rows(left, est);
            let r = estimate_rows(right, est);
            match op {
                SetOpType::Union => l + r,
                SetOpType::Intersect => l.min(r) * 0.5,
                SetOpType::Except => l * 0.5,
            }
        }
        LogicalPlan::Limit { input, limit, .. } => {
            let n = estimate_rows(input, est);
            match limit {
                Some(l) => n.min(*l as f64),
                None => n,
            }
        }
    }
}

/// Estimate the *processing cost* of a plan: the sum of the rows every
/// operator touches. This is the quantity the cost-based strategy chooser
/// compares between alternative rewrites, and the logical join reorderer
/// compares between join orders.
pub fn estimate_cost(plan: &LogicalPlan, est: &dyn CardinalityEstimator) -> f64 {
    let own = match plan {
        // Joins cost the product of their input sizes under nested-loop
        // pessimism, damped for equi-join-friendly shapes.
        LogicalPlan::Join { left, right, .. } => {
            let l = estimate_rows(left, est);
            let r = estimate_rows(right, est);
            l + r + (l * r).sqrt() * 2.0
        }
        other => estimate_rows(other, est),
    };
    own + plan
        .children()
        .into_iter()
        .map(|c| estimate_cost(c, est))
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::{Column, DataType, Schema, Value};

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(vec![Column::new("x", DataType::Int)]),
            provenance_cols: vec![],
        }
    }

    fn fixed(pairs: &[(&str, f64)]) -> FixedCardinalities {
        FixedCardinalities(pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect())
    }

    /// Fixed rows plus a fixed distinct count for every column.
    struct WithDistinct(FixedCardinalities, f64);

    impl CardinalityEstimator for WithDistinct {
        fn table_rows(&self, table: &str) -> Option<f64> {
            self.0.table_rows(table)
        }
        fn column_distinct(&self, table: &str, _column: usize) -> Option<f64> {
            self.0.table_rows(table).map(|_| self.1)
        }
    }

    #[test]
    fn scan_rows_come_from_estimator() {
        let est = fixed(&[("t", 42.0)]);
        assert_eq!(estimate_rows(&scan("t"), &est), 42.0);
        assert_eq!(estimate_rows(&scan("u"), &est), DEFAULT_TABLE_ROWS);
    }

    #[test]
    fn filter_halves_and_union_adds() {
        let est = fixed(&[("a", 100.0), ("b", 300.0)]);
        let f = LogicalPlan::filter(scan("a"), ScalarExpr::Literal(Value::Bool(true)));
        assert_eq!(estimate_rows(&f, &est), 50.0);
        let u = LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: true,
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            schema: Schema::new(vec![Column::new("x", DataType::Int)]),
        };
        assert_eq!(estimate_rows(&u, &est), 400.0);
    }

    #[test]
    fn eq_filter_uses_distinct_counts() {
        let est = WithDistinct(fixed(&[("a", 1000.0)]), 50.0);
        let f = LogicalPlan::filter(
            scan("a"),
            ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(7))),
        );
        // 1000 rows / 50 distinct values = 20 matching rows.
        assert!((estimate_rows(&f, &est) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn equi_join_uses_distinct_counts() {
        let est = WithDistinct(fixed(&[("a", 1000.0), ("b", 100.0)]), 100.0);
        let j = LogicalPlan::join(
            scan("a"),
            scan("b"),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        // sel = 1/max(100,100); 1000 * 100 / 100 = 1000.
        assert!((estimate_rows(&j, &est) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn cost_grows_with_plan_size() {
        let est = fixed(&[("a", 100.0)]);
        let simple = scan("a");
        let bigger = LogicalPlan::join(scan("a"), scan("a"), JoinType::Cross, None).unwrap();
        assert!(estimate_cost(&bigger, &est) > estimate_cost(&simple, &est));
    }

    #[test]
    fn global_aggregate_is_one_row() {
        let est = UnknownCardinality;
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan("a")),
            group_by: vec![],
            aggs: vec![],
            schema: Schema::empty(),
            output: AggOutput::Groups,
        };
        assert_eq!(estimate_rows(&agg, &est), 1.0);
    }

    #[test]
    fn base_columns_resolve_through_projections() {
        let p = LogicalPlan::project_positions(scan("t"), &[0]);
        assert_eq!(resolve_base_column(&p, 0), Some(("t", 0)));
        let f = LogicalPlan::filter(p, ScalarExpr::Literal(Value::Bool(true)));
        assert_eq!(resolve_base_column(&f, 0), Some(("t", 0)));
    }
}
