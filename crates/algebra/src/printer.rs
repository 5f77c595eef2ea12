//! Tree drawing for logical and physical plans.
//!
//! The Perm-browser (paper Figure 4, markers 3 and 4) displays the algebra
//! tree of the original query next to the tree of the rewritten provenance
//! query, and `EXPLAIN` shows the physical plan that runs. One walker,
//! [`draw`], draws all of them: a plan type supplies each node's children
//! and own expressions ([`PlanNode`]) and a one-line label, the walker the
//! connectors and indentation. After the main tree it prints one
//! `SubPlan N` section per sublink body, as PostgreSQL's `EXPLAIN` does,
//! numbered by first appearance (pre-order over the tree, then over the
//! bodies); each body is drawn once.

use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::expr::{ScalarExpr, SubqueryExpr};
use crate::plan::LogicalPlan;

/// A child's connector and its subtree's indentation, for the last child
/// and for the others (a sublink body is its header's only child).
const LAST: [&str; 2] = ["└── ", "    "];
const BRANCH: [&str; 2] = ["├── ", "│   "];

/// What the walker needs of a plan node besides its label.
pub trait PlanNode {
    /// Direct children, drawn below the node.
    fn children(&self) -> Vec<&Self>;
    /// The node's own expressions: each sublink in them gets a section.
    fn exprs(&self) -> Vec<&ScalarExpr>;
}

impl PlanNode for LogicalPlan {
    fn children(&self) -> Vec<&Self> {
        LogicalPlan::children(self)
    }
    fn exprs(&self) -> Vec<&ScalarExpr> {
        LogicalPlan::exprs(self)
    }
}

/// Render a plan as an indented ASCII tree.
pub fn plan_tree(plan: &LogicalPlan) -> String {
    draw(plan, describe, |sq| Some(&sq.plan))
}

/// Like [`plan_tree`], but annotating every node with its output schema —
/// useful to see where provenance attributes enter the plan.
pub fn plan_tree_with_schema(plan: &LogicalPlan) -> String {
    let label = |p: &LogicalPlan| format!("{}  {}", describe(p), p.schema());
    draw(plan, label, |sq| Some(&sq.plan))
}

/// Draw `root`, one `label` line per node, then a section per sublink
/// body: its header repeats the sublink and says whether the body runs
/// once or per outer row, with what each `$i` binds to. `body` finds the
/// plan a sublink runs (`None` prints the header alone).
pub fn draw<'a, N: PlanNode>(
    root: &'a N,
    label: impl Fn(&N) -> String,
    body: impl Fn(&'a SubqueryExpr) -> Option<&'a N>,
) -> String {
    let mut out = String::new();
    let mut sublinks = Vec::new();
    draw_node(root, "", "", &label, &mut sublinks, &mut out);
    // Drawing a body may find more sublinks; `sublinks` grows behind the
    // cursor.
    let mut drawn = 0;
    while let Some(&sq) = sublinks.get(drawn) {
        drawn += 1;
        let refs = sq.outer_refs.iter().enumerate();
        let binds = list(refs.map(|(i, e)| format!("${i}={e}")));
        let mode = match binds.is_empty() {
            true => "once".to_string(),
            false => format!("per outer row: {binds}"),
        };
        let _ = writeln!(out, "SubPlan {drawn}: {sq} [{mode}]");
        if let Some(plan) = body(sq) {
            draw_node(plan, LAST[0], LAST[1], &label, &mut sublinks, &mut out);
        }
    }
    out
}

/// Draw `node` after `first` and its subtree after `rest`, collecting
/// the sublinks not met before.
fn draw_node<'a, N: PlanNode>(
    node: &'a N,
    first: &str,
    rest: &str,
    label: &dyn Fn(&N) -> String,
    sublinks: &mut Vec<&'a SubqueryExpr>,
    out: &mut String,
) {
    let _ = writeln!(out, "{first}{}", label(node));
    for e in node.exprs() {
        e.visit(&mut |n| match n {
            ScalarExpr::Subquery(sq)
                if !sublinks.iter().any(|s| Arc::ptr_eq(&s.plan, &sq.plan)) =>
            {
                sublinks.push(sq)
            }
            _ => {}
        });
    }
    let children = node.children();
    let last = children.len().saturating_sub(1);
    for (i, child) in children.into_iter().enumerate() {
        let [branch, stem] = if i == last { LAST } else { BRANCH };
        let (first, rest) = (format!("{rest}{branch}"), format!("{rest}{stem}"));
        draw_node(child, &first, &rest, label, sublinks, out);
    }
}

/// One-line operator description including its key expressions.
fn describe(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::Scan {
            table,
            provenance_cols,
            ..
        } => {
            if provenance_cols.is_empty() {
                format!("Scan({table})")
            } else {
                format!("Scan({table}) [provenance cols: {provenance_cols:?}]")
            }
        }
        LogicalPlan::Project { exprs, .. } => format!("Project [{}]", list(exprs)),
        LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
        LogicalPlan::Join {
            kind, condition, ..
        } => match condition {
            Some(c) => format!("{}Join on {c}", kind.name()),
            None => format!("{}Join", kind.name()),
        },
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let name = plan.node_name();
            format!("{name} group=[{}] aggs=[{}]", list(group_by), list(aggs))
        }
        LogicalPlan::Sort { keys, .. } => format!("Sort [{}]", list(keys)),
        LogicalPlan::Limit { limit, offset, .. } => match limit {
            Some(l) => format!("Limit {l} offset {offset}"),
            None => format!("Offset {offset}"),
        },
        LogicalPlan::Values { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::SetOp { .. }
        | LogicalPlan::Boundary { .. } => plan.node_name(),
    }
}

/// `items` separated by commas, as a label lists expressions.
pub fn list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    items.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::SubqueryKind;
    use crate::plan::JoinType;
    use perm_types::{Column, DataType, Schema, Value};

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(vec![Column::new("x", DataType::Int).with_qualifier(name)]),
            provenance_cols: vec![],
        }
    }

    #[test]
    fn single_node() {
        assert_eq!(plan_tree(&scan("t")), "Scan(t)\n");
    }

    #[test]
    fn tree_draws_branches() {
        let join = LogicalPlan::join(
            scan("a"),
            scan("b"),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let top = LogicalPlan::filter(join, ScalarExpr::Literal(Value::Bool(true)));
        let t = plan_tree(&top);
        assert!(t.starts_with("Filter true\n"), "{t}");
        assert!(t.contains("InnerJoin on (#0 = #1)"), "{t}");
        assert!(t.contains("├── Scan(a)"), "{t}");
        assert!(t.contains("└── Scan(b)"), "{t}");
    }

    #[test]
    fn sublink_bodies_follow_the_tree_once_each() {
        let sublink = |kind, plan, operand: Option<usize>, outer_refs| {
            ScalarExpr::Subquery(SubqueryExpr {
                kind,
                plan: Arc::new(plan),
                negated: false,
                operand: operand.map(|i| Box::new(ScalarExpr::Column(i))),
                outer_refs,
            })
        };
        let inner = sublink(SubqueryKind::In, scan("u"), Some(0), vec![]);
        let body = LogicalPlan::filter(scan("a"), inner);
        let exists = sublink(
            SubqueryKind::Exists,
            body,
            None,
            vec![ScalarExpr::Column(0)],
        );
        // The same sublink twice: its body is drawn once.
        let top = LogicalPlan::filter(LogicalPlan::filter(scan("t"), exists.clone()), exists);
        assert_eq!(
            plan_tree(&top),
            "Filter EXISTS(<subquery $0=#0>)\n\
             └── Filter EXISTS(<subquery $0=#0>)\n    \
                 └── Scan(t)\n\
             SubPlan 1: EXISTS(<subquery $0=#0>) [per outer row: $0=#0]\n\
             └── Filter (#0 IN <subquery>)\n    \
                 └── Scan(a)\n\
             SubPlan 2: (#0 IN <subquery>) [once]\n\
             └── Scan(u)\n"
        );
    }

    #[test]
    fn schema_annotation() {
        let t = plan_tree_with_schema(&scan("t"));
        assert!(t.contains("(t.x: int)"), "{t}");
    }
}
