//! Algebra → SQL deparser.
//!
//! Perm presents the rewritten provenance query *as an SQL statement*
//! (paper Figure 4, marker 2): because the rewrite produces an ordinary
//! relational query, it has an ordinary SQL rendering. This module converts
//! any [`LogicalPlan`] back to executable SQL.
//!
//! Every intermediate relation is wrapped in a derived table with an
//! explicit column-alias list (`(… ) AS t3(c1, c2, …)`), which makes the
//! output unambiguous even when provenance attributes duplicate names
//! (e.g. self-joins).

use std::collections::{HashMap, HashSet};

use perm_types::Value;

use crate::expr::{BinOp, ScalarExpr, SubqueryKind, UnOp};
use crate::plan::{AggOutput, JoinType, LogicalPlan, SetOpType};

/// Render a plan as a SQL `SELECT` statement.
pub fn deparse(plan: &LogicalPlan) -> String {
    let mut d = Deparser {
        next_alias: 0,
        params: Vec::new(),
    };
    d.select_of(plan).sql
}

struct Deparser {
    next_alias: usize,
    /// How the sublink body being rendered spells its parameters: the
    /// enclosing scope's rendering of each `outer_refs` entry.
    params: Vec<String>,
}

/// The columns an expression reads: the names its input exposes and, for
/// a single from-item, the alias that qualifies them (a join's names come
/// qualified already).
struct Cols<'a> {
    names: &'a [String],
    alias: Option<&'a str>,
}

impl<'a> Cols<'a> {
    fn of(alias: &'a str, names: &'a [String]) -> Cols<'a> {
        Cols {
            names,
            alias: Some(alias),
        }
    }

    /// The qualified names, as a sublink body must spell this scope's
    /// columns so that its own columns cannot capture them.
    fn qualified(&self) -> Vec<String> {
        match self.alias {
            Some(a) => self.names.iter().map(|n| format!("{a}.{n}")).collect(),
            None => self.names.to_vec(),
        }
    }
}

/// A deparsed relation: a full `SELECT …` statement plus the column names
/// it exposes (always unique).
struct Rel {
    sql: String,
    names: Vec<String>,
}

impl Deparser {
    fn alias(&mut self) -> String {
        self.next_alias += 1;
        format!("t{}", self.next_alias)
    }

    /// Render `plan` as a from-item `… AS tN(c1, …)`, returning the
    /// from-item SQL, its alias and the (unique) column names it exposes.
    fn render_from_item(&mut self, plan: &LogicalPlan) -> (String, String, Vec<String>) {
        match plan {
            LogicalPlan::Scan { table, schema, .. } => {
                let alias = self.alias();
                let names = unique_names(&schema.names());
                let sql = format!("{table} AS {alias}({})", names.join(", "));
                (sql, alias, names)
            }
            other => {
                let rel = self.select_of(other);
                let alias = self.alias();
                (
                    format!("({}) AS {alias}({})", rel.sql, rel.names.join(", ")),
                    alias,
                    rel.names,
                )
            }
        }
    }

    /// Render `plan` as a complete SELECT statement.
    fn select_of(&mut self, plan: &LogicalPlan) -> Rel {
        match plan {
            LogicalPlan::Scan { schema, .. } => {
                let (fi, _alias, names) = self.render_from_item(plan);
                Rel {
                    sql: format!("SELECT * FROM {fi}"),
                    names: {
                        let _ = schema;
                        names
                    },
                }
            }
            LogicalPlan::Values { rows, schema } => {
                let names = unique_names(&schema.names());
                if schema.is_empty() {
                    // A zero-column single row: SELECT with no FROM.
                    return Rel {
                        sql: "SELECT 1 AS one".into(),
                        names: vec!["one".into()],
                    };
                }
                let rendered: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let vals: Vec<String> =
                            r.iter().map(|e| render_expr(e, &NO_COLS, self)).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                let alias = self.alias();
                Rel {
                    sql: format!(
                        "SELECT * FROM (VALUES {}) AS {alias}({})",
                        rendered.join(", "),
                        names.join(", ")
                    ),
                    names,
                }
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let (fi, alias, in_names) = self.render_from_item(input);
                let cols = Cols::of(&alias, &in_names);
                let out_names = unique_names(&schema.names());
                let items: Vec<String> = exprs
                    .iter()
                    .zip(&out_names)
                    .map(|(e, n)| format!("{} AS {n}", render_expr(e, &cols, self)))
                    .collect();
                Rel {
                    sql: format!("SELECT {} FROM {fi}", items.join(", ")),
                    names: out_names,
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                let (fi, alias, names) = self.render_from_item(input);
                Rel {
                    sql: format!(
                        "SELECT * FROM {fi} WHERE {}",
                        render_expr(predicate, &Cols::of(&alias, &names), self)
                    ),
                    names,
                }
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                ..
            } => {
                let (lfi, lalias, lnames) = self.render_from_item(left);
                let (rfi, ralias, rnames) = self.render_from_item(right);
                // Qualified references are unambiguous even when both
                // sides expose the same column names (e.g. provenance
                // attributes of a self-join).
                let mut qualified: Vec<String> =
                    lnames.iter().map(|n| format!("{lalias}.{n}")).collect();
                qualified.extend(rnames.iter().map(|n| format!("{ralias}.{n}")));
                let qualified = Cols {
                    names: &qualified,
                    alias: None,
                };
                let mut all: Vec<&str> = lnames.iter().map(String::as_str).collect();
                all.extend(rnames.iter().map(String::as_str));
                let out_names = unique_names(&all);
                let kw = match kind {
                    JoinType::Inner => "JOIN",
                    JoinType::Left => "LEFT JOIN",
                    JoinType::Full => "FULL JOIN",
                    JoinType::Cross => "CROSS JOIN",
                    // Semi/Anti joins have no direct SQL spelling; render
                    // as EXISTS / NOT EXISTS.
                    JoinType::Semi | JoinType::Anti => {
                        let cond = condition
                            .as_ref()
                            .map(|c| render_expr(c, &qualified, self))
                            .unwrap_or_else(|| "true".into());
                        let neg = if matches!(kind, JoinType::Anti) {
                            "NOT "
                        } else {
                            ""
                        };
                        return Rel {
                            sql: format!(
                                "SELECT * FROM {lfi} WHERE {neg}EXISTS \
                                 (SELECT 1 FROM {rfi} WHERE {cond})"
                            ),
                            names: lnames,
                        };
                    }
                };
                let items: Vec<String> = qualified
                    .names
                    .iter()
                    .zip(&out_names)
                    .map(|(q, n)| format!("{q} AS {n}"))
                    .collect();
                let on = match condition {
                    Some(c) => format!(" ON {}", render_expr(c, &qualified, self)),
                    None => String::new(),
                };
                Rel {
                    sql: format!("SELECT {} FROM {lfi} {kw} {rfi}{on}", items.join(", ")),
                    names: out_names,
                }
            }
            // A witness aggregate has no SQL spelling of its own: render
            // the join-back it stands for.
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
                output: AggOutput::Witnesses,
            } => {
                let width = group_by.len() + aggs.len();
                let groups = LogicalPlan::Aggregate {
                    input: input.clone(),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    schema: schema.project(&(0..width).collect::<Vec<_>>()),
                    output: AggOutput::Groups,
                };
                self.select_of(&LogicalPlan::join_back(groups, (**input).clone(), group_by))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
                output: AggOutput::Groups,
            } => {
                let (fi, alias, in_names) = self.render_from_item(input);
                let in_names = Cols::of(&alias, &in_names);
                let out_names = unique_names(&schema.names());
                let mut items = Vec::new();
                for (g, n) in group_by.iter().zip(&out_names) {
                    items.push(format!("{} AS {n}", render_expr(g, &in_names, self)));
                }
                for (a, n) in aggs.iter().zip(out_names.iter().skip(group_by.len())) {
                    let arg = match &a.arg {
                        Some(e) => format!(
                            "{}{}",
                            if a.distinct { "DISTINCT " } else { "" },
                            render_expr(e, &in_names, self)
                        ),
                        None => "*".into(),
                    };
                    items.push(format!("{}({arg}) AS {n}", a.func.name()));
                }
                let group_clause = if group_by.is_empty() {
                    String::new()
                } else {
                    let gs: Vec<String> = group_by
                        .iter()
                        .map(|g| render_expr(g, &in_names, self))
                        .collect();
                    format!(" GROUP BY {}", gs.join(", "))
                };
                Rel {
                    sql: format!("SELECT {} FROM {fi}{group_clause}", items.join(", ")),
                    names: out_names,
                }
            }
            LogicalPlan::Distinct { input } => {
                let (fi, _alias, names) = self.render_from_item(input);
                Rel {
                    sql: format!("SELECT DISTINCT * FROM {fi}"),
                    names,
                }
            }
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
                ..
            } => {
                let l = self.select_of(left);
                let r = self.select_of(right);
                let kw = match op {
                    SetOpType::Union => "UNION",
                    SetOpType::Intersect => "INTERSECT",
                    SetOpType::Except => "EXCEPT",
                };
                let all_kw = if *all { " ALL" } else { "" };
                Rel {
                    sql: format!("({}) {kw}{all_kw} ({})", l.sql, r.sql),
                    names: l.names,
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let (fi, alias, names) = self.render_from_item(input);
                let cols = Cols::of(&alias, &names);
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| {
                        format!(
                            "{}{}",
                            render_expr(&k.expr, &cols, self),
                            if k.desc { " DESC" } else { "" }
                        )
                    })
                    .collect();
                Rel {
                    sql: format!("SELECT * FROM {fi} ORDER BY {}", ks.join(", ")),
                    names,
                }
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let (fi, _alias, names) = self.render_from_item(input);
                let mut sql = format!("SELECT * FROM {fi}");
                if let Some(l) = limit {
                    sql.push_str(&format!(" LIMIT {l}"));
                }
                if *offset > 0 {
                    sql.push_str(&format!(" OFFSET {offset}"));
                }
                Rel { sql, names }
            }
            LogicalPlan::Boundary { input, name, kind } => {
                // Boundaries are SQL-PLE FROM-modifiers; render the marker
                // as a trailing comment so the output stays executable SQL.
                let rel = self.select_of(input);
                let marker = match kind {
                    crate::plan::BoundaryKind::BaseRelation => {
                        format!(" /* {name} BASERELATION */")
                    }
                    crate::plan::BoundaryKind::External { attrs } => {
                        format!(" /* {name} PROVENANCE {attrs:?} */")
                    }
                };
                Rel {
                    sql: format!("{}{marker}", rel.sql),
                    names: rel.names,
                }
            }
        }
    }
}

/// Make a list of column names unique by suffixing duplicates with `_2`,
/// `_3`, …, and sanitize empty names. A suffix skips every name already
/// taken — a listed name or an earlier suffix — so `[mid, mid, mid_2]`
/// becomes `mid, mid_3, mid_2`.
fn unique_names(names: &[&str]) -> Vec<String> {
    let base = |n: &str| {
        if n.is_empty() || n == "?column?" {
            "col".to_string()
        } else {
            n.to_string()
        }
    };
    let mut taken: HashSet<String> = names.iter().map(|n| base(n)).collect();
    let mut seen: HashMap<String, usize> = HashMap::new();
    names
        .iter()
        .map(|n| {
            let base = base(n);
            let count = seen.entry(base.clone()).or_insert(0);
            *count += 1;
            if *count == 1 {
                return base;
            }
            loop {
                let candidate = format!("{base}_{count}");
                if taken.insert(candidate.clone()) {
                    return candidate;
                }
                *count += 1;
            }
        })
        .collect()
}

/// The columns of an input without any (a `VALUES` row).
const NO_COLS: Cols<'static> = Cols {
    names: &[],
    alias: None,
};

/// Render a bound expression against its input's columns.
fn render_expr(e: &ScalarExpr, names: &Cols, d: &mut Deparser) -> String {
    match e {
        ScalarExpr::Literal(v) => render_value(v),
        ScalarExpr::Column(i) => names
            .names
            .get(*i)
            .cloned()
            .unwrap_or_else(|| format!("_c{i}")),
        ScalarExpr::Param { index, .. } => d
            .params
            .get(*index)
            .cloned()
            .unwrap_or_else(|| format!("_p{index}")),
        ScalarExpr::Binary { op, left, right } => {
            let l = render_expr(left, names, d);
            let r = render_expr(right, names, d);
            match op {
                BinOp::NotDistinctFrom => format!("({l} IS NOT DISTINCT FROM {r})"),
                BinOp::DistinctFrom => format!("({l} IS DISTINCT FROM {r})"),
                _ => format!("({l} {} {r})", op.sql()),
            }
        }
        ScalarExpr::Unary { op, expr } => {
            let inner = render_expr(expr, names, d);
            match op {
                UnOp::Not => format!("(NOT {inner})"),
                UnOp::Neg => format!("(-{inner})"),
            }
        }
        ScalarExpr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            render_expr(expr, names, d),
            if *negated { "NOT " } else { "" }
        ),
        ScalarExpr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "({} {}LIKE {})",
            render_expr(expr, names, d),
            if *negated { "NOT " } else { "" },
            render_expr(pattern, names, d)
        ),
        ScalarExpr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(|x| render_expr(x, names, d)).collect();
            format!(
                "({} {}IN ({}))",
                render_expr(expr, names, d),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        ScalarExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            let mut s = String::from("CASE");
            if let Some(o) = operand {
                s.push_str(&format!(" {}", render_expr(o, names, d)));
            }
            for (c, r) in branches {
                s.push_str(&format!(
                    " WHEN {} THEN {}",
                    render_expr(c, names, d),
                    render_expr(r, names, d)
                ));
            }
            if let Some(el) = else_branch {
                s.push_str(&format!(" ELSE {}", render_expr(el, names, d)));
            }
            s.push_str(" END");
            s
        }
        ScalarExpr::Cast { expr, ty } => {
            format!("CAST({} AS {ty})", render_expr(expr, names, d))
        }
        ScalarExpr::ScalarFn { func, args } => {
            let rendered: Vec<String> = args.iter().map(|a| render_expr(a, names, d)).collect();
            format!("{}({})", func.name(), rendered.join(", "))
        }
        ScalarExpr::Subquery(sq) => {
            let qualified = names.qualified();
            let qualified = Cols {
                names: &qualified,
                alias: None,
            };
            let params = sq
                .outer_refs
                .iter()
                .map(|r| render_expr(r, &qualified, d))
                .collect();
            let saved = std::mem::replace(&mut d.params, params);
            let inner = d.select_of(&sq.plan).sql;
            d.params = saved;
            let neg = if sq.negated { "NOT " } else { "" };
            match sq.kind {
                SubqueryKind::Scalar => format!("({inner})"),
                SubqueryKind::Exists => format!("{neg}EXISTS ({inner})"),
                SubqueryKind::In => {
                    let op = render_expr(sq.operand.as_deref().expect("IN has operand"), names, d);
                    format!("({op} {neg}IN ({inner}))")
                }
            }
        }
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;
    use perm_types::{Column, DataType, Schema};

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(
                cols.iter()
                    .map(|c| Column::new(*c, DataType::Int).with_qualifier(name))
                    .collect(),
            ),
            provenance_cols: vec![],
        }
    }

    #[test]
    fn scan_renders_as_select_star() {
        let sql = deparse(&scan("messages", &["mid", "text"]));
        assert_eq!(sql, "SELECT * FROM messages AS t1(mid, text)");
    }

    #[test]
    fn filter_and_project() {
        let plan = LogicalPlan::project_positions(
            LogicalPlan::filter(
                scan("t", &["a", "b"]),
                ScalarExpr::binary(
                    BinOp::Gt,
                    ScalarExpr::Column(0),
                    ScalarExpr::Literal(Value::Int(5)),
                ),
            ),
            &[1],
        );
        let sql = deparse(&plan);
        assert!(sql.contains("WHERE (a > 5)"), "{sql}");
        assert!(sql.contains("SELECT b AS b"), "{sql}");
    }

    #[test]
    fn duplicate_names_get_suffixes() {
        let join = LogicalPlan::join(
            scan("a", &["id"]),
            scan("b", &["id"]),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let sql = deparse(&join);
        assert!(sql.contains("ON (t1.id = t2.id)"), "{sql}");
        assert!(sql.contains("AS id_2"), "{sql}");
    }

    #[test]
    fn suffixes_skip_names_already_taken() {
        assert_eq!(
            unique_names(&["mid", "mid", "mid_2", ""]),
            vec!["mid", "mid_3", "mid_2", "col"]
        );
    }

    #[test]
    fn string_literals_escape_quotes() {
        assert_eq!(render_value(&Value::text("it's")), "'it''s'");
        assert_eq!(render_value(&Value::Null), "NULL");
    }

    #[test]
    fn witness_aggregate_renders_as_its_join_back() {
        let t = scan("t", &["k", "v"]);
        let schema = Schema::new(vec![Column::new("k", DataType::Int)]);
        let witnesses = LogicalPlan::Aggregate {
            input: Box::new(t.clone()),
            group_by: vec![ScalarExpr::Column(0)],
            aggs: vec![],
            schema: schema.join(&t.schema().nullable()),
            output: AggOutput::Witnesses,
        };
        let sql = deparse(&witnesses);
        assert_eq!(
            sql,
            "SELECT t2.k AS k, t3.k AS k_2, t3.v AS v FROM \
             (SELECT k AS k FROM t AS t1(k, v) GROUP BY k) AS t2(k) \
             LEFT JOIN t AS t3(k, v) ON (t2.k IS NOT DISTINCT FROM t3.k)"
        );
    }

    #[test]
    fn set_op_renders_both_sides() {
        let u = LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: false,
            left: Box::new(scan("a", &["x"])),
            right: Box::new(scan("b", &["x"])),
            schema: Schema::new(vec![Column::new("x", DataType::Int)]),
        };
        let sql = deparse(&u);
        assert!(sql.contains(") UNION ("), "{sql}");
    }
}
