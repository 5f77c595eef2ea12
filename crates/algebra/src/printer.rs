//! ASCII rendering of algebra trees.
//!
//! The Perm-browser (paper Figure 4, markers 3 and 4) displays the algebra
//! tree of the original query next to the tree of the rewritten provenance
//! query; this module produces those trees.

use crate::plan::LogicalPlan;

/// Render a plan as an indented ASCII tree.
pub fn plan_tree(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    render(plan, "", true, false, &mut out);
    out
}

/// Like [`plan_tree`], but annotating every node with its output schema —
/// useful to see where provenance attributes enter the plan.
pub fn plan_tree_with_schema(plan: &LogicalPlan) -> String {
    let mut out = String::new();
    render(plan, "", true, true, &mut out);
    out
}

fn render(plan: &LogicalPlan, prefix: &str, is_last: bool, schemas: bool, out: &mut String) {
    render_node(plan, "", prefix, is_last, schemas, out);
}

/// `line_prefix` is what precedes this node's connector; the root passes an
/// empty prefix and no connector.
fn render_node(
    plan: &LogicalPlan,
    line_prefix: &str,
    _unused: &str,
    is_last: bool,
    schemas: bool,
    out: &mut String,
) {
    let is_root = out.is_empty();
    let connector = if is_root {
        ""
    } else if is_last {
        "└── "
    } else {
        "├── "
    };
    out.push_str(line_prefix);
    out.push_str(connector);
    out.push_str(&describe(plan));
    if schemas {
        out.push_str(&format!("  {}", plan.schema()));
    }
    out.push('\n');

    let child_prefix = if is_root {
        String::new()
    } else if is_last {
        format!("{line_prefix}    ")
    } else {
        format!("{line_prefix}│   ")
    };
    let children = plan.children();
    let n = children.len();
    for (i, child) in children.into_iter().enumerate() {
        render_node(child, &child_prefix, "", i == n - 1, schemas, out);
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
        LogicalPlan::Values { rows, .. } => format!("Values({} rows)", rows.len()),
        LogicalPlan::Project { exprs, .. } => {
            let rendered: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
            format!("Project [{}]", rendered.join(", "))
        }
        LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
        LogicalPlan::Join {
            kind, condition, ..
        } => match condition {
            Some(c) => format!("{}Join on {c}", kind.name()),
            None => format!("{}Join", kind.name()),
        },
        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            let g: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
            let a: Vec<String> = aggs.iter().map(|c| c.to_string()).collect();
            format!(
                "{} group=[{}] aggs=[{}]",
                plan.node_name(),
                g.join(", "),
                a.join(", ")
            )
        }
        LogicalPlan::Distinct { .. } => "Distinct".into(),
        LogicalPlan::SetOp { op, all, .. } => {
            format!("{}{}", op.name(), if *all { "All" } else { "" })
        }
        LogicalPlan::Sort { keys, .. } => {
            let k: Vec<String> = keys
                .iter()
                .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                .collect();
            format!("Sort [{}]", k.join(", "))
        }
        LogicalPlan::Limit { limit, offset, .. } => match limit {
            Some(l) => format!("Limit {l} offset {offset}"),
            None => format!("Offset {offset}"),
        },
        LogicalPlan::Boundary { .. } => plan.node_name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
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
    fn schema_annotation() {
        let t = plan_tree_with_schema(&scan("t"));
        assert!(t.contains("(t.x: int)"), "{t}");
    }
}
