//! Bound (positional) scalar expressions.
//!
//! After analysis, column references are *positions* into the input
//! relation's tuple, not names. This is the representation the provenance
//! rewrite rules operate on: appending provenance attributes to an
//! operator's output only shifts positions, never captures names, which is
//! what makes the rules compositional ("the rewrite rules are unaware of how
//! the provenance attributes of their input were produced" — paper §2.2).

use std::fmt;
use std::sync::Arc;

use perm_types::{DataType, Value};

use crate::plan::LogicalPlan;

/// A bound scalar expression over an input tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A literal value.
    Literal(Value),
    /// A reference to position `0..n` of the input tuple.
    Column(usize),
    /// Parameter `index` of the sublink body this expression belongs to:
    /// the value of the enclosing sublink's `outer_refs[index]` for the
    /// current outer row (PostgreSQL's `PARAM_EXEC`). It carries its own
    /// type, so a body typechecks without its enclosing scope.
    Param {
        index: usize,
        ty: DataType,
    },
    Binary {
        op: BinOp,
        left: Box<ScalarExpr>,
        right: Box<ScalarExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<ScalarExpr>,
    },
    IsNull {
        expr: Box<ScalarExpr>,
        negated: bool,
    },
    Like {
        expr: Box<ScalarExpr>,
        pattern: Box<ScalarExpr>,
        negated: bool,
    },
    InList {
        expr: Box<ScalarExpr>,
        list: Vec<ScalarExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<ScalarExpr>>,
        branches: Vec<(ScalarExpr, ScalarExpr)>,
        else_branch: Option<Box<ScalarExpr>>,
    },
    Cast {
        expr: Box<ScalarExpr>,
        ty: DataType,
    },
    /// Built-in scalar function call.
    ScalarFn {
        func: ScalarFunc,
        args: Vec<ScalarExpr>,
    },
    /// A sublink: scalar subquery, `[NOT] EXISTS`, or `x [NOT] IN (…)`.
    Subquery(SubqueryExpr),
}

/// A sublink expression holding its own bound subplan.
///
/// The body is shared: every clone of the expression — the optimizer's
/// rebuilt trees, a compiled expression's interpreter fallback, a stream's
/// owned copy of a plan — points at the same [`Arc`]. The body's `Arc` is
/// therefore the sublink's identity: the physical planner lowers each
/// body once per statement and the executor finds the lowering by it.
///
/// The body reads its enclosing query only through `outer_refs`: ordinary
/// expressions of the *enclosing* scope, evaluated once per outer row and
/// handed to the body as [`ScalarExpr::Param`]s. Column-renumbering passes
/// remap them like any operand and never open the body. A reference two
/// or more levels up is a `Param` of each intervening body in turn.
#[derive(Debug, Clone, PartialEq)]
pub struct SubqueryExpr {
    pub kind: SubqueryKind,
    pub plan: Arc<LogicalPlan>,
    pub negated: bool,
    /// The left operand of `IN`; `None` for EXISTS/scalar sublinks.
    pub operand: Option<Box<ScalarExpr>>,
    /// The values `Param { index, .. }` inside `plan` stands for; empty
    /// for an uncorrelated sublink.
    pub outer_refs: Vec<ScalarExpr>,
}

/// The flavor of a sublink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubqueryKind {
    /// `(SELECT …)` used as a value; must yield at most one row.
    Scalar,
    /// `[NOT] EXISTS (SELECT …)`.
    Exists,
    /// `x [NOT] IN (SELECT …)`.
    In,
}

/// Bound binary operators. `NotDistinctFrom` / `DistinctFrom` are the
/// NULL-safe comparisons Perm's aggregation join-back uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Concat,
    /// `IS NOT DISTINCT FROM` (NULL-safe `=`, never NULL).
    NotDistinctFrom,
    /// `IS DISTINCT FROM` (NULL-safe `<>`, never NULL).
    DistinctFrom,
}

impl BinOp {
    /// True for the comparison operators (result type bool).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::NotEq
                | BinOp::Lt
                | BinOp::LtEq
                | BinOp::Gt
                | BinOp::GtEq
                | BinOp::NotDistinctFrom
                | BinOp::DistinctFrom
        )
    }

    /// True for AND/OR.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// SQL rendering.
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
            BinOp::NotDistinctFrom => "IS NOT DISTINCT FROM",
            BinOp::DistinctFrom => "IS DISTINCT FROM",
        }
    }
}

/// Bound unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    Upper,
    Lower,
    Length,
    Abs,
    Round,
    Floor,
    Ceil,
    Coalesce,
    NullIf,
    Substr,
    Replace,
    Trim,
    Greatest,
    Least,
}

impl ScalarFunc {
    /// Resolve a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "upper" => ScalarFunc::Upper,
            "lower" => ScalarFunc::Lower,
            "length" | "char_length" => ScalarFunc::Length,
            "abs" => ScalarFunc::Abs,
            "round" => ScalarFunc::Round,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "coalesce" => ScalarFunc::Coalesce,
            "nullif" => ScalarFunc::NullIf,
            "substr" | "substring" => ScalarFunc::Substr,
            "replace" => ScalarFunc::Replace,
            "trim" => ScalarFunc::Trim,
            "greatest" => ScalarFunc::Greatest,
            "least" => ScalarFunc::Least,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Upper => "upper",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Length => "length",
            ScalarFunc::Abs => "abs",
            ScalarFunc::Round => "round",
            ScalarFunc::Floor => "floor",
            ScalarFunc::Ceil => "ceil",
            ScalarFunc::Coalesce => "coalesce",
            ScalarFunc::NullIf => "nullif",
            ScalarFunc::Substr => "substr",
            ScalarFunc::Replace => "replace",
            ScalarFunc::Trim => "trim",
            ScalarFunc::Greatest => "greatest",
            ScalarFunc::Least => "least",
        }
    }

    /// `(min_args, max_args)`; `usize::MAX` means variadic.
    pub fn arity(self) -> (usize, usize) {
        match self {
            ScalarFunc::Upper
            | ScalarFunc::Lower
            | ScalarFunc::Length
            | ScalarFunc::Abs
            | ScalarFunc::Floor
            | ScalarFunc::Ceil
            | ScalarFunc::Trim => (1, 1),
            ScalarFunc::Round => (1, 2),
            ScalarFunc::NullIf => (2, 2),
            ScalarFunc::Substr => (2, 3),
            ScalarFunc::Replace => (3, 3),
            ScalarFunc::Coalesce | ScalarFunc::Greatest | ScalarFunc::Least => (1, usize::MAX),
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `count(*)` (arg `None`) or `count(x)` (non-null count).
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// `any_value(x)` — an arbitrary (here: first) value of the group. Also
    /// inserted implicitly for non-grouped columns, SQLite-style, because
    /// the paper's own demo queries select non-grouped columns
    /// (`SELECT count(*), text … GROUP BY v1.mId`, §2.4).
    AnyValue,
}

impl AggFunc {
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "any_value" => AggFunc::AnyValue,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::AnyValue => "any_value",
        }
    }

    /// True if `name` denotes an aggregate function.
    pub fn is_aggregate_name(name: &str) -> bool {
        AggFunc::from_name(name).is_some()
    }
}

/// One aggregate call inside an [`crate::plan::LogicalPlan::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` only for `count(*)`.
    pub arg: Option<ScalarExpr>,
    pub distinct: bool,
}

impl ScalarExpr {
    /// Convenience: `left = right`.
    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Eq, left, right)
    }

    /// Convenience: NULL-safe equality.
    pub fn not_distinct(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::NotDistinctFrom, left, right)
    }

    pub fn binary(op: BinOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// AND-combine a list of predicates; empty list yields TRUE.
    pub fn conjunction(mut preds: Vec<ScalarExpr>) -> ScalarExpr {
        match preds.len() {
            0 => ScalarExpr::Literal(Value::Bool(true)),
            1 => preds.pop().expect("len checked"),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, p| ScalarExpr::binary(BinOp::And, acc, p))
            }
        }
    }

    /// Split a predicate into its top-level AND conjuncts.
    pub fn split_conjunction(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
            match e {
                ScalarExpr::Binary {
                    op: BinOp::And,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Visit every column reference position (depth 0 only: a sublink's
    /// operand and `outer_refs`, never its body).
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            ScalarExpr::Column(i) => f(*i),
            ScalarExpr::Literal(_) | ScalarExpr::Param { .. } => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            ScalarExpr::Unary { expr, .. } => expr.for_each_column(f),
            ScalarExpr::IsNull { expr, .. } => expr.for_each_column(f),
            ScalarExpr::Like { expr, pattern, .. } => {
                expr.for_each_column(f);
                pattern.for_each_column(f);
            }
            ScalarExpr::InList { expr, list, .. } => {
                expr.for_each_column(f);
                for e in list {
                    e.for_each_column(f);
                }
            }
            ScalarExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(o) = operand {
                    o.for_each_column(f);
                }
                for (c, r) in branches {
                    c.for_each_column(f);
                    r.for_each_column(f);
                }
                if let Some(e) = else_branch {
                    e.for_each_column(f);
                }
            }
            ScalarExpr::Cast { expr, .. } => expr.for_each_column(f),
            ScalarExpr::ScalarFn { args, .. } => {
                for a in args {
                    a.for_each_column(f);
                }
            }
            ScalarExpr::Subquery(sq) => {
                for e in sq.operand.as_deref().into_iter().chain(&sq.outer_refs) {
                    e.for_each_column(f);
                }
            }
        }
    }

    /// The set of depth-0 columns referenced (sorted, deduplicated).
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.for_each_column(&mut |i| cols.push(i));
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Rewrite every depth-0 column reference through `map` (e.g. to shift
    /// positions after provenance attributes were inserted).
    pub fn map_columns(&self, map: &impl Fn(usize) -> usize) -> ScalarExpr {
        self.transform(&|e| match e {
            ScalarExpr::Column(i) => ScalarExpr::Column(map(i)),
            other => other,
        })
    }

    /// Bottom-up structural rewrite of this expression (depth 0 only: a
    /// sublink's operand and `outer_refs` are rewritten, its body is not).
    pub fn transform(&self, f: &impl Fn(ScalarExpr) -> ScalarExpr) -> ScalarExpr {
        let rebuilt = match self {
            ScalarExpr::Literal(_) | ScalarExpr::Column(_) | ScalarExpr::Param { .. } => {
                self.clone()
            }
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.transform(f)),
                right: Box::new(right.transform(f)),
            },
            ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
                op: *op,
                expr: Box::new(expr.transform(f)),
            },
            ScalarExpr::IsNull { expr, negated } => ScalarExpr::IsNull {
                expr: Box::new(expr.transform(f)),
                negated: *negated,
            },
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => ScalarExpr::Like {
                expr: Box::new(expr.transform(f)),
                pattern: Box::new(pattern.transform(f)),
                negated: *negated,
            },
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => ScalarExpr::InList {
                expr: Box::new(expr.transform(f)),
                list: list.iter().map(|e| e.transform(f)).collect(),
                negated: *negated,
            },
            ScalarExpr::Case {
                operand,
                branches,
                else_branch,
            } => ScalarExpr::Case {
                operand: operand.as_ref().map(|o| Box::new(o.transform(f))),
                branches: branches
                    .iter()
                    .map(|(c, r)| (c.transform(f), r.transform(f)))
                    .collect(),
                else_branch: else_branch.as_ref().map(|e| Box::new(e.transform(f))),
            },
            ScalarExpr::Cast { expr, ty } => ScalarExpr::Cast {
                expr: Box::new(expr.transform(f)),
                ty: *ty,
            },
            ScalarExpr::ScalarFn { func, args } => ScalarExpr::ScalarFn {
                func: *func,
                args: args.iter().map(|a| a.transform(f)).collect(),
            },
            ScalarExpr::Subquery(sq) => ScalarExpr::Subquery(SubqueryExpr {
                kind: sq.kind,
                plan: sq.plan.clone(),
                negated: sq.negated,
                operand: sq.operand.as_ref().map(|o| Box::new(o.transform(f))),
                outer_refs: sq.outer_refs.iter().map(|e| e.transform(f)).collect(),
            }),
        };
        f(rebuilt)
    }

    /// True if the expression contains a sublink (at depth 0).
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, ScalarExpr::Subquery(_)) {
                found = true;
            }
        });
        found
    }

    /// Pre-order visit of the expression tree (depth 0; visits the sublink
    /// node, its operand and its `outer_refs`, not its body).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        f(self);
        match self {
            ScalarExpr::Literal(_) | ScalarExpr::Column(_) | ScalarExpr::Param { .. } => {}
            ScalarExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            ScalarExpr::Unary { expr, .. } | ScalarExpr::IsNull { expr, .. } => expr.visit(f),
            ScalarExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            ScalarExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            ScalarExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(o) = operand {
                    o.visit(f);
                }
                for (c, r) in branches {
                    c.visit(f);
                    r.visit(f);
                }
                if let Some(e) = else_branch {
                    e.visit(f);
                }
            }
            ScalarExpr::Cast { expr, .. } => expr.visit(f),
            ScalarExpr::ScalarFn { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            ScalarExpr::Subquery(sq) => {
                for e in sq.operand.as_deref().into_iter().chain(&sq.outer_refs) {
                    e.visit(f);
                }
            }
        }
    }
}

impl fmt::Display for ScalarExpr {
    /// Compact rendering used by the plan printer (`#i` for column `i`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Literal(v) => match v {
                Value::Text(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            ScalarExpr::Column(i) => write!(f, "#{i}"),
            ScalarExpr::Param { index, .. } => write!(f, "${index}"),
            ScalarExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.sql())
            }
            ScalarExpr::Unary { op, expr } => match op {
                UnOp::Not => write!(f, "(NOT {expr})"),
                UnOp::Neg => write!(f, "(-{expr})"),
            },
            ScalarExpr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            ScalarExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            ScalarExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_branch {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            ScalarExpr::Cast { expr, ty } => write!(f, "CAST({expr} AS {ty})"),
            ScalarExpr::ScalarFn { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Subquery(sq) => write!(f, "{sq}"),
        }
    }
}

impl fmt::Display for SubqueryExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let neg = if self.negated { "NOT " } else { "" };
        // A correlated body lists what its parameters bind to:
        // `<subquery $0=#1>`.
        let mut body = String::from("<subquery");
        for (i, e) in self.outer_refs.iter().enumerate() {
            body.push_str(&format!(" ${i}={e}"));
        }
        body.push('>');
        match self.kind {
            SubqueryKind::Scalar => write!(f, "({body})"),
            SubqueryKind::Exists => write!(f, "{neg}EXISTS({body})"),
            SubqueryKind::In => {
                let op = self.operand.as_deref().expect("IN has operand");
                write!(f, "({op} {neg}IN {body})")
            }
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        match &self.arg {
            Some(a) => write!(f, "{a}")?,
            None => write!(f, "*")?,
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunction_building_and_splitting() {
        let a = ScalarExpr::Column(0);
        let b = ScalarExpr::Column(1);
        let c = ScalarExpr::Column(2);
        let conj = ScalarExpr::conjunction(vec![a.clone(), b.clone(), c.clone()]);
        let parts = conj.split_conjunction();
        assert_eq!(parts, vec![&a, &b, &c]);
        assert_eq!(
            ScalarExpr::conjunction(vec![]),
            ScalarExpr::Literal(Value::Bool(true))
        );
        assert_eq!(ScalarExpr::conjunction(vec![a.clone()]), a);
    }

    #[test]
    fn referenced_columns_dedup_and_sort() {
        let e = ScalarExpr::binary(
            BinOp::Add,
            ScalarExpr::Column(3),
            ScalarExpr::binary(BinOp::Mul, ScalarExpr::Column(1), ScalarExpr::Column(3)),
        );
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn map_columns_shifts_positions() {
        let e = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2));
        let shifted = e.map_columns(&|i| i + 10);
        assert_eq!(shifted.referenced_columns(), vec![10, 12]);
    }

    #[test]
    fn map_columns_remaps_outer_refs_and_leaves_the_body_alone() {
        let body_pred = ScalarExpr::eq(
            ScalarExpr::Column(0),
            ScalarExpr::Param {
                index: 0,
                ty: DataType::Int,
            },
        );
        let body = LogicalPlan::filter(
            LogicalPlan::Scan {
                table: "s".into(),
                schema: perm_types::Schema::new(vec![perm_types::Column::new("x", DataType::Int)]),
                provenance_cols: vec![],
            },
            body_pred,
        );
        let e = ScalarExpr::Subquery(SubqueryExpr {
            kind: SubqueryKind::Exists,
            plan: Arc::new(body.clone()),
            negated: false,
            operand: None,
            outer_refs: vec![ScalarExpr::Column(5)],
        });
        assert_eq!(e.referenced_columns(), vec![5]);
        let ScalarExpr::Subquery(shifted) = e.map_columns(&|i| i + 1) else {
            panic!("map_columns keeps the sublink");
        };
        assert_eq!(shifted.outer_refs, vec![ScalarExpr::Column(6)]);
        assert_eq!(*shifted.plan, body, "the body is never renumbered");
    }

    #[test]
    fn display_compact() {
        let e = ScalarExpr::binary(
            BinOp::Gt,
            ScalarExpr::Column(1),
            ScalarExpr::Literal(Value::Int(5)),
        );
        assert_eq!(e.to_string(), "(#1 > 5)");
        let agg = AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        };
        assert_eq!(agg.to_string(), "count(*)");
    }

    #[test]
    fn scalar_func_resolution() {
        assert_eq!(ScalarFunc::from_name("UPPER"), Some(ScalarFunc::Upper));
        assert_eq!(
            ScalarFunc::from_name("char_length"),
            Some(ScalarFunc::Length)
        );
        assert_eq!(ScalarFunc::from_name("nope"), None);
        assert!(AggFunc::is_aggregate_name("Count"));
        assert!(!AggFunc::is_aggregate_name("upper"));
    }
}
