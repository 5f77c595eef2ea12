//! Static verification of logical plans.
//!
//! Every plan transformation in the pipeline — binding, the provenance
//! rewrite, and each optimizer pass — is supposed to hand the next stage a
//! *well-formed* plan: operator schemas agree with their children, every
//! expression typechecks against its input, provenance rewrites append
//! provenance attributes without disturbing the original columns. Until
//! now those contracts were only enforced dynamically, by executing
//! queries. This module checks them *statically*, on the plan tree itself,
//! and names both the violated invariant and the pass that produced the
//! broken plan:
//!
//! ```text
//! plan error: plan verifier [column-pruning]: expr-type violated at
//! Project > Filter: predicate #7: column position 7 out of range (3 columns)
//! ```
//!
//! The verifier is cheap (one tree walk, no data access) and runs after
//! every rewrite/optimizer phase in debug and test builds; see
//! `perm_exec::optimize_with` and `SessionOptions::verify_plans`.

use perm_types::{DataType, PermError, Result, Schema, Value};

use crate::expr::{AggCall, BinOp, ScalarExpr, UnOp};
use crate::plan::{AggOutput, JoinType, LogicalPlan, SetOpType};
use crate::typecheck;

/// Build the uniform verifier error: category `plan`, message naming the
/// responsible pass, the violated invariant and the node path.
fn violation(pass: &str, invariant: &str, path: &str, detail: impl std::fmt::Display) -> PermError {
    PermError::Plan(format!(
        "plan verifier [{pass}]: {invariant} violated at {path}: {detail}"
    ))
}

/// Lenient type compatibility: the engine coerces freely between the
/// numeric types and `Unknown` (the type of untyped NULL) unifies with
/// anything, so the verifier only rejects genuinely incompatible pairs.
fn compatible(a: DataType, b: DataType) -> bool {
    a == b
        || matches!(a, DataType::Unknown)
        || matches!(b, DataType::Unknown)
        || matches!(
            (a, b),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int)
        )
}

fn boolish(t: DataType) -> bool {
    matches!(t, DataType::Bool | DataType::Unknown)
}

/// Verify that `plan` is internally consistent: every operator's schema
/// matches its children, every expression (including inside sublink
/// subplans) typechecks against its input with all slot references in
/// bounds, and every parameter of a sublink body names one of its
/// sublink's `outer_refs` at that reference's type (`param-binding`).
/// `pass` names the transformation that produced the plan and is
/// included in any error; the `column-pruning` pass is additionally held
/// to its own postcondition, `single-carry`: below a join, filter, sort,
/// limit or aggregate no slot-only projection repeats or reorders slots.
pub fn verify_logical(plan: &LogicalPlan, pass: &str) -> Result<()> {
    verify_node(plan, pass, "", &[])
}

/// One checking context: `params` are the types of the `outer_refs` of
/// the sublink whose body `plan` belongs to (empty at the top level).
fn verify_node(plan: &LogicalPlan, pass: &str, path: &str, params: &[DataType]) -> Result<()> {
    let name = plan.node_name();
    let path = if path.is_empty() {
        name
    } else {
        format!("{path} > {name}")
    };

    match plan {
        LogicalPlan::Scan {
            schema,
            provenance_cols,
            ..
        } => {
            for &i in provenance_cols {
                if i >= schema.len() {
                    return Err(violation(
                        pass,
                        "slot-bounds",
                        &path,
                        format!(
                            "provenance column {i} out of range ({} columns)",
                            schema.len()
                        ),
                    ));
                }
            }
        }
        LogicalPlan::Values { rows, schema } => {
            let empty = Schema::empty();
            for (r, row) in rows.iter().enumerate() {
                if row.len() != schema.len() {
                    return Err(violation(
                        pass,
                        "schema-arity",
                        &path,
                        format!(
                            "row {r} has {} expressions but the schema declares {} columns",
                            row.len(),
                            schema.len()
                        ),
                    ));
                }
                for (c, e) in row.iter().enumerate() {
                    check_expr(
                        e,
                        &empty,
                        params,
                        pass,
                        &path,
                        &format!("row {r} column {c}"),
                    )?;
                }
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            if exprs.len() != schema.len() {
                return Err(violation(
                    pass,
                    "schema-arity",
                    &path,
                    format!(
                        "{} projection expressions but the schema declares {} columns",
                        exprs.len(),
                        schema.len()
                    ),
                ));
            }
            for (i, e) in exprs.iter().enumerate() {
                let ty = check_expr(e, input.schema(), params, pass, &path, &format!("expr {i}"))?;
                let declared = schema.column(i).ty;
                if !compatible(ty, declared) {
                    return Err(violation(
                        pass,
                        "expr-type",
                        &path,
                        format!(
                            "expr {i} ({e}) has type {ty} but output column '{}' declares {declared}",
                            schema.column(i).name
                        ),
                    ));
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let ty = check_expr(predicate, input.schema(), params, pass, &path, "predicate")?;
            if !boolish(ty) {
                return Err(violation(
                    pass,
                    "expr-type",
                    &path,
                    format!("predicate ({predicate}) has non-boolean type {ty}"),
                ));
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            schema,
        } => {
            if condition.is_none() && !matches!(kind, JoinType::Cross) {
                return Err(violation(
                    pass,
                    "join-condition",
                    &path,
                    format!("{} join has no condition", kind.name()),
                ));
            }
            // The condition always sees both sides, even for Semi/Anti
            // joins whose *output* is the left side only.
            let env = left.schema().join(right.schema());
            if let Some(c) = condition {
                let ty = check_expr(c, &env, params, pass, &path, "condition")?;
                if !boolish(ty) {
                    return Err(violation(
                        pass,
                        "expr-type",
                        &path,
                        format!("condition ({c}) has non-boolean type {ty}"),
                    ));
                }
            }
            // The node's recorded schema must match what the join kind
            // derives from the children. Names and types only: the
            // LEFT→INNER demotion legitimately strips the nullable marks
            // the LEFT join added.
            let expected = match kind {
                JoinType::Semi | JoinType::Anti => left.schema().clone(),
                _ => env,
            };
            check_same_shape(schema, &expected, pass, "schema-consistency", &path)?;
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
            output,
        } => {
            let width = group_by.len() + aggs.len();
            let witnesses = match output {
                AggOutput::Groups => 0,
                AggOutput::Witnesses => input.arity(),
            };
            if width + witnesses != schema.len() {
                return Err(violation(
                    pass,
                    "schema-arity",
                    &path,
                    format!(
                        "{} group keys + {} aggregates + {witnesses} witness columns but \
                         the schema declares {} columns",
                        group_by.len(),
                        aggs.len(),
                        schema.len()
                    ),
                ));
            }
            for k in 0..witnesses {
                let (got, want) = (schema.column(width + k).ty, input.schema().column(k).ty);
                if !compatible(got, want) {
                    return Err(violation(
                        pass,
                        "expr-type",
                        &path,
                        format!("witness column {k} declares {got} but the input column is {want}"),
                    ));
                }
            }
            for (i, e) in group_by.iter().enumerate() {
                let ty = check_expr(
                    e,
                    input.schema(),
                    params,
                    pass,
                    &path,
                    &format!("group key {i}"),
                )?;
                if !compatible(ty, schema.column(i).ty) {
                    return Err(violation(
                        pass,
                        "expr-type",
                        &path,
                        format!(
                            "group key {i} ({e}) has type {ty} but output column declares {}",
                            schema.column(i).ty
                        ),
                    ));
                }
            }
            for (j, call) in aggs.iter().enumerate() {
                check_agg(call, input.schema(), params, pass, &path, j)?;
            }
        }
        LogicalPlan::SetOp {
            left,
            right,
            schema,
            ..
        } => {
            if left.arity() != schema.len() || right.arity() != schema.len() {
                return Err(violation(
                    pass,
                    "setop-arity",
                    &path,
                    format!(
                        "sides have {} and {} columns but the schema declares {}",
                        left.arity(),
                        right.arity(),
                        schema.len()
                    ),
                ));
            }
        }
        LogicalPlan::Sort { input, keys } => {
            for (i, k) in keys.iter().enumerate() {
                check_expr(
                    &k.expr,
                    input.schema(),
                    params,
                    pass,
                    &path,
                    &format!("sort key {i}"),
                )?;
            }
        }
        // Pass-through operators: nothing to check beyond their children.
        LogicalPlan::Distinct { .. } | LogicalPlan::Limit { .. } | LogicalPlan::Boundary { .. } => {
        }
    }

    // Postcondition of column pruning alone (join reordering may add
    // compensating permutations afterwards): a column is carried once.
    // Below the operators that read their input through remapped
    // expressions, a slot-only projection may narrow but never repeat or
    // reorder slots — fan-out belongs at the root or under a width-rigid
    // parent.
    let remaps_input = matches!(
        plan,
        LogicalPlan::Join { .. }
            | LogicalPlan::Filter { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Aggregate { .. }
    );
    if pass == "column-pruning" && remaps_input {
        for child in plan.children() {
            let LogicalPlan::Project { exprs, .. } = child else {
                continue;
            };
            let slots: Option<Vec<usize>> = exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Column(i) => Some(*i),
                    _ => None,
                })
                .collect();
            if slots.is_some_and(|s| !s.windows(2).all(|w| w[0] < w[1])) {
                return Err(violation(
                    pass,
                    "single-carry",
                    &format!("{path} > Project"),
                    "slot-only projection below a remapping operator repeats or reorders slots",
                ));
            }
        }
    }

    for child in plan.children() {
        verify_node(child, pass, &path, params)?;
    }
    Ok(())
}

/// Typecheck one expression against its input schema, check its
/// parameters against `params`, then recurse into any sublink subplans it
/// contains with their `outer_refs`' types as the body's parameters.
fn check_expr(
    e: &ScalarExpr,
    env: &Schema,
    params: &[DataType],
    pass: &str,
    path: &str,
    what: &str,
) -> Result<DataType> {
    let ty = typecheck::expr_type(e, env).map_err(|err| {
        // An out-of-range column position is its own invariant (a pass
        // dropped a column something still references); everything else
        // is a typing violation.
        let invariant = if err.message().contains("out of range") {
            "slot-bounds"
        } else {
            "expr-type"
        };
        violation(
            pass,
            invariant,
            path,
            format!("{what} ({e}): {}", err.message()),
        )
    })?;
    let mut nested = Ok(());
    e.visit(&mut |sub| {
        if nested.is_err() {
            return;
        }
        match sub {
            ScalarExpr::Param { index, ty } if params.get(*index) != Some(ty) => {
                let bound = match params.get(*index) {
                    Some(t) => format!("its outer reference has type {t}"),
                    None => format!("the sublink has {} outer references", params.len()),
                };
                nested = Err(violation(
                    pass,
                    "param-binding",
                    path,
                    format!("{what} ({e}): ${index} is typed {ty} but {bound}"),
                ));
            }
            ScalarExpr::Subquery(sq) => {
                // `expr_type` above typechecked every outer reference.
                let types: Vec<DataType> = sq
                    .outer_refs
                    .iter()
                    .map(|r| typecheck::expr_type(r, env).unwrap_or(DataType::Unknown))
                    .collect();
                nested = verify_node(&sq.plan, pass, path, &types);
            }
            _ => {}
        }
    });
    nested?;
    Ok(ty)
}

fn check_agg(
    call: &AggCall,
    env: &Schema,
    params: &[DataType],
    pass: &str,
    path: &str,
    index: usize,
) -> Result<()> {
    typecheck::agg_type(call, env).map_err(|err| {
        violation(
            pass,
            "expr-type",
            path,
            format!("aggregate {index} ({call}): {}", err.message()),
        )
    })?;
    if let Some(arg) = &call.arg {
        // `agg_type` typechecked the argument; still recurse for sublinks.
        check_expr(
            arg,
            env,
            params,
            pass,
            path,
            &format!("aggregate {index} argument"),
        )?;
    }
    Ok(())
}

/// Compare two schemas by arity, column names and (compatible) types,
/// ignoring nullability and qualifiers.
fn check_same_shape(
    got: &Schema,
    expected: &Schema,
    pass: &str,
    invariant: &str,
    path: &str,
) -> Result<()> {
    if got.len() != expected.len() {
        return Err(violation(
            pass,
            invariant,
            path,
            format!(
                "schema has {} columns, expected {}",
                got.len(),
                expected.len()
            ),
        ));
    }
    for i in 0..got.len() {
        let (g, e) = (got.column(i), expected.column(i));
        if g.name != e.name {
            return Err(violation(
                pass,
                invariant,
                path,
                format!("column {i} is named '{}', expected '{}'", g.name, e.name),
            ));
        }
        if !compatible(g.ty, e.ty) {
            return Err(violation(
                pass,
                invariant,
                path,
                format!(
                    "column {i} ('{}') has type {}, expected {}",
                    g.name, g.ty, e.ty
                ),
            ));
        }
    }
    Ok(())
}

/// Verify that an optimizer pass preserved the plan's output schema:
/// same arity, names and types as `before`. Nullability is deliberately
/// not compared — the LEFT→INNER join demotion legitimately reverts the
/// nullable marks the LEFT join added to its right side.
pub fn verify_schema_preserved(before: &Schema, after: &LogicalPlan, pass: &str) -> Result<()> {
    check_same_shape(after.schema(), before, pass, "schema-preservation", "root")
}

/// Verify the provenance-rewrite contract: the rewritten plan's schema is
/// the original query's schema with the provenance attributes appended as
/// a trailing block (`rewritten = original ++ provenance`), the original
/// columns keep their names and types, and every provenance attribute is
/// recognizably one — either Perm-named (`prov_<schema>_<relation>_<attr>`)
/// or an external provenance column carried through with its relation
/// qualifier (paper §2.2: external provenance propagates untouched).
pub fn verify_provenance_schema(
    original: &Schema,
    rewritten: &LogicalPlan,
    prov_attrs: &[usize],
    pass: &str,
) -> Result<()> {
    let got = rewritten.schema();
    let n = original.len();
    if got.len() != n + prov_attrs.len() {
        return Err(violation(
            pass,
            "provenance-schema",
            "root",
            format!(
                "rewritten schema has {} columns, expected {n} original + {} provenance",
                got.len(),
                prov_attrs.len()
            ),
        ));
    }
    let mut sorted: Vec<usize> = prov_attrs.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != prov_attrs.len() || sorted != (n..got.len()).collect::<Vec<_>>() {
        return Err(violation(
            pass,
            "provenance-schema",
            "root",
            format!(
                "provenance attributes at positions {prov_attrs:?} do not form the \
                 trailing block {n}..{}",
                got.len()
            ),
        ));
    }
    for i in 0..n {
        let (g, e) = (got.column(i), original.column(i));
        if g.name != e.name || !compatible(g.ty, e.ty) {
            return Err(violation(
                pass,
                "provenance-schema",
                "root",
                format!(
                    "original column {i} changed from '{}': {} to '{}': {}",
                    e.name, e.ty, g.name, g.ty
                ),
            ));
        }
    }
    for &p in prov_attrs {
        let c = got.column(p);
        // Computed provenance attributes follow the Perm naming scheme;
        // external ones (`FROM t PROVENANCE (cols)`) keep their source
        // names but are always marked nullable by the rewriter (outer-join
        // padding), which distinguishes them from a mislabeled original.
        if !c.name.starts_with("prov_") && c.qualifier.is_none() && !c.nullable {
            return Err(violation(
                pass,
                "provenance-naming",
                "root",
                format!(
                    "provenance column {p} ('{}') follows neither the \
                     prov_<schema>_<relation>_<attribute> scheme nor the \
                     external-provenance convention (source name, nullable)",
                    c.name
                ),
            ));
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Null-rejection certificate for the LEFT → INNER join demotion
// ----------------------------------------------------------------------

/// Which SQL truth values a predicate can take, given partial knowledge of
/// its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Truth {
    t: bool,
    f: bool,
    n: bool,
}

impl Truth {
    const ANY: Truth = Truth {
        t: true,
        f: true,
        n: true,
    };
    fn just(v: Option<bool>) -> Truth {
        match v {
            Some(true) => Truth {
                t: true,
                f: false,
                n: false,
            },
            Some(false) => Truth {
                t: false,
                f: true,
                n: false,
            },
            None => Truth {
                t: false,
                f: false,
                n: true,
            },
        }
    }
    fn not(self) -> Truth {
        Truth {
            t: self.f,
            f: self.t,
            n: self.n,
        }
    }
    /// Three-valued AND over the possible-value sets.
    fn and(self, o: Truth) -> Truth {
        Truth {
            t: self.t && o.t,
            f: self.f || o.f,
            n: (self.n && (o.n || o.t)) || (o.n && self.t),
        }
    }
    /// Three-valued OR over the possible-value sets.
    fn or(self, o: Truth) -> Truth {
        Truth {
            t: self.t || o.t,
            f: self.f && o.f,
            n: (self.n && (o.n || o.f)) || (o.n && self.f),
        }
    }
}

/// Abstract scalar value: definitely SQL NULL, or unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    Null,
    Any,
}

/// True if `pred` can never evaluate to TRUE on a row where every column
/// selected by `is_target` is NULL — the certificate the LEFT→INNER join
/// demotion needs (a null-rejecting predicate over the padded side makes
/// the padding rows unobservable).
///
/// Implemented as a small three-valued abstract interpretation, entirely
/// independent of the optimizer's own syntactic null-rejection test
/// (`rejects_all_null` in the planner), so the verifier cross-checks the
/// optimizer rather than re-running it.
pub fn cannot_hold_on_null(pred: &ScalarExpr, is_target: &dyn Fn(usize) -> bool) -> bool {
    !truth_on_null(pred, is_target).t
}

fn value_on_null(e: &ScalarExpr, is_target: &dyn Fn(usize) -> bool) -> AbsVal {
    match e {
        ScalarExpr::Column(i) if is_target(*i) => AbsVal::Null,
        ScalarExpr::Literal(Value::Null) => AbsVal::Null,
        ScalarExpr::Literal(_) | ScalarExpr::Column(_) | ScalarExpr::Param { .. } => AbsVal::Any,
        // Strict operators: NULL in, NULL out.
        ScalarExpr::Binary { op, left, right } => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Concat => {
                if value_on_null(left, is_target) == AbsVal::Null
                    || value_on_null(right, is_target) == AbsVal::Null
                {
                    AbsVal::Null
                } else {
                    AbsVal::Any
                }
            }
            // Boolean-valued operators: consult the truth analysis.
            _ => {
                let t = truth_on_null(e, is_target);
                if t.n && !t.t && !t.f {
                    AbsVal::Null
                } else {
                    AbsVal::Any
                }
            }
        },
        ScalarExpr::Unary {
            op: UnOp::Neg,
            expr,
        } => value_on_null(expr, is_target),
        ScalarExpr::Cast { expr, .. } => value_on_null(expr, is_target),
        // Boolean-valued forms used as scalars: consult the truth
        // analysis (definitely-NULL truth means a NULL value).
        ScalarExpr::Unary { op: UnOp::Not, .. }
        | ScalarExpr::IsNull { .. }
        | ScalarExpr::Like { .. }
        | ScalarExpr::InList { .. } => {
            let t = truth_on_null(e, is_target);
            if t.n && !t.t && !t.f {
                AbsVal::Null
            } else {
                AbsVal::Any
            }
        }
        // Anything else (CASE, COALESCE, sublinks, …) can produce
        // non-NULL output from NULL input; stay conservative.
        _ => AbsVal::Any,
    }
}

fn truth_on_null(pred: &ScalarExpr, is_target: &dyn Fn(usize) -> bool) -> Truth {
    match pred {
        ScalarExpr::Literal(Value::Bool(b)) => Truth::just(Some(*b)),
        ScalarExpr::Literal(Value::Null) => Truth::just(None),
        ScalarExpr::Column(i) if is_target(*i) => Truth::just(None),
        ScalarExpr::Binary { op, left, right } => {
            let (l, r) = (
                value_on_null(left, is_target),
                value_on_null(right, is_target),
            );
            match op {
                BinOp::And => truth_on_null(left, is_target).and(truth_on_null(right, is_target)),
                BinOp::Or => truth_on_null(left, is_target).or(truth_on_null(right, is_target)),
                // Ordinary comparisons are strict: NULL operand → NULL.
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    if l == AbsVal::Null || r == AbsVal::Null {
                        Truth::just(None)
                    } else {
                        Truth::ANY
                    }
                }
                // NULL-safe comparisons never yield NULL.
                BinOp::NotDistinctFrom => {
                    if l == AbsVal::Null && r == AbsVal::Null {
                        Truth::just(Some(true))
                    } else {
                        Truth {
                            t: true,
                            f: true,
                            n: false,
                        }
                    }
                }
                BinOp::DistinctFrom => {
                    if l == AbsVal::Null && r == AbsVal::Null {
                        Truth::just(Some(false))
                    } else {
                        Truth {
                            t: true,
                            f: true,
                            n: false,
                        }
                    }
                }
                _ => Truth::ANY,
            }
        }
        ScalarExpr::Unary {
            op: UnOp::Not,
            expr,
        } => truth_on_null(expr, is_target).not(),
        ScalarExpr::IsNull { expr, negated } => match value_on_null(expr, is_target) {
            AbsVal::Null => Truth::just(Some(!*negated)),
            AbsVal::Any => Truth {
                t: true,
                f: true,
                n: false,
            },
        },
        ScalarExpr::Like { expr, pattern, .. } => {
            if value_on_null(expr, is_target) == AbsVal::Null
                || value_on_null(pattern, is_target) == AbsVal::Null
            {
                Truth::just(None)
            } else {
                Truth::ANY
            }
        }
        ScalarExpr::InList { expr, .. } => {
            // `NULL IN (…)` / `NULL NOT IN (…)` over a non-empty list is
            // NULL (three-valued membership); the parser never produces an
            // empty IN list.
            if value_on_null(expr, is_target) == AbsVal::Null {
                Truth::just(None)
            } else {
                Truth::ANY
            }
        }
        _ => Truth::ANY,
    }
}

// ----------------------------------------------------------------------
// Certificates for moving DISTINCT toward the scans
// ----------------------------------------------------------------------

/// What a plan can put in one of its output columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fill {
    /// NULL on every row.
    Null,
    /// Never NULL.
    NonNull,
    Any,
}

impl Fill {
    /// The column as seen through an outer join's null-extending side.
    fn null_extended(self) -> Fill {
        match self {
            Fill::Null => Fill::Null,
            _ => Fill::Any,
        }
    }
}

/// Per output column, what `plan` can put there — derived bottom-up from
/// the base tables' declared nullability and from projected literals.
/// `VALUES` lists, aggregates and set operations answer [`Fill::Any`]
/// throughout.
fn fills(plan: &LogicalPlan) -> Vec<Fill> {
    match plan {
        LogicalPlan::Scan { schema, .. } => schema
            .iter()
            .map(|c| if c.nullable { Fill::Any } else { Fill::NonNull })
            .collect(),
        LogicalPlan::Project { input, exprs, .. } => {
            let below = fills(input);
            exprs
                .iter()
                .map(|e| match e {
                    ScalarExpr::Literal(Value::Null) => Fill::Null,
                    ScalarExpr::Literal(_) => Fill::NonNull,
                    ScalarExpr::Column(i) => below.get(*i).copied().unwrap_or(Fill::Any),
                    _ => Fill::Any,
                })
                .collect()
        }
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Boundary { input, .. } => fills(input),
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            let (l, r) = (fills(left), fills(right));
            match kind {
                JoinType::Inner | JoinType::Cross => l.into_iter().chain(r).collect(),
                JoinType::Left => l
                    .into_iter()
                    .chain(r.into_iter().map(Fill::null_extended))
                    .collect(),
                JoinType::Full => l.into_iter().chain(r).map(Fill::null_extended).collect(),
                JoinType::Semi | JoinType::Anti => l,
            }
        }
        LogicalPlan::Values { .. } | LogicalPlan::Aggregate { .. } | LogicalPlan::SetOp { .. } => {
            vec![Fill::Any; plan.arity()]
        }
    }
}

/// True if no row of `left` can equal a row of `right` (under grouping
/// equality, where NULL equals NULL): some column is NULL on every row of
/// one branch and never NULL on any row of the other. The certificate
/// `Distinct(UnionAll(A, B)) → UnionAll(Distinct(A), Distinct(B))`
/// needs, computed bottom-up by its own walk from base-table nullability
/// and projected literals, independently of the optimizer's top-down
/// slot tracing, so the verifier cross-checks the optimizer rather than
/// re-running it.
pub fn branches_disjoint(left: &LogicalPlan, right: &LogicalPlan) -> bool {
    fills(left).into_iter().zip(fills(right)).any(|pair| {
        matches!(
            pair,
            (Fill::Null, Fill::NonNull) | (Fill::NonNull, Fill::Null)
        )
    })
}

/// Verify that a DISTINCT over `input` may move below it, as the
/// optimizer's rule rounds do: below a UNION ALL only when its branches
/// are disjoint ([`branches_disjoint`], invariant `disjoint-branches`),
/// below a projection only when the projection is injective — bare
/// columns covering every input column plus constants (invariant
/// `injective-projection`). Both moves keep every first occurrence in
/// place, so the result is unchanged row for row. Any other input is a
/// `distinct-pushdown` violation, except a DISTINCT, which absorbs one.
pub fn verify_distinct_pushdown(input: &LogicalPlan, pass: &str) -> Result<()> {
    let path = format!("Distinct > {}", input.node_name());
    match input {
        LogicalPlan::Distinct { .. } => Ok(()),
        LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: true,
            left,
            right,
            ..
        } => {
            if branches_disjoint(left, right) {
                Ok(())
            } else {
                Err(violation(
                    pass,
                    "disjoint-branches",
                    &path,
                    "no column is NULL in one branch and never NULL in the other, \
                     so a row may occur in both",
                ))
            }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let mut columns: Vec<usize> = Vec::new();
            for e in exprs {
                match e {
                    ScalarExpr::Column(i) => columns.push(*i),
                    ScalarExpr::Literal(_) => {}
                    computed => {
                        return Err(violation(
                            pass,
                            "injective-projection",
                            &path,
                            format!("the projection computes {computed}"),
                        ))
                    }
                }
            }
            columns.sort_unstable();
            columns.dedup();
            match (0..input.arity()).find(|i| columns.binary_search(i).is_err()) {
                None => Ok(()),
                Some(dropped) => Err(violation(
                    pass,
                    "injective-projection",
                    &path,
                    format!("the projection drops input column {dropped}"),
                )),
            }
        }
        other => Err(violation(
            pass,
            "distinct-pushdown",
            &path,
            format!("DISTINCT cannot move below {}", other.node_name()),
        )),
    }
}

// ----------------------------------------------------------------------
// Certificates for the witness aggregate
// ----------------------------------------------------------------------

/// True if `join` is an aggregate LEFT-joined back to its own input on its
/// group keys — `α_{G,agg}(A) ⟕_{G ≡ G(A)} A` — the shape the optimizer
/// collapses into one witness-emitting aggregate. Checked by its own walk
/// over the condition, independently of the optimizer's match against the
/// rewriter's exact form: every conjunct must be `#i ≡ G_i` (either operand
/// order) with `G_i` shifted past the aggregate's width, every group column
/// must be covered, and the right side must equal the aggregate's input.
/// A global aggregate qualifies with `ON true`.
pub fn is_self_join_back(join: &LogicalPlan) -> bool {
    let LogicalPlan::Join {
        left,
        right,
        kind: JoinType::Left,
        condition: Some(condition),
        ..
    } = join
    else {
        return false;
    };
    let LogicalPlan::Aggregate {
        input,
        group_by,
        output: AggOutput::Groups,
        ..
    } = &**left
    else {
        return false;
    };
    if input != right {
        return false;
    }
    let width = left.arity();
    let mut covered = vec![false; group_by.len()];
    for c in condition.split_conjunction() {
        let (a, b) = match c {
            ScalarExpr::Literal(Value::Bool(true)) => continue,
            ScalarExpr::Binary {
                op: BinOp::NotDistinctFrom,
                left,
                right,
            } => (&**left, &**right),
            _ => return false,
        };
        let matched = [(a, b), (b, a)]
            .into_iter()
            .find_map(|(col, key)| match col {
                ScalarExpr::Column(i) if *i < group_by.len() => {
                    let shifted = group_by[*i].map_columns(&|c| c + width);
                    (*key == shifted).then_some(*i)
                }
                _ => None,
            });
        match matched {
            Some(i) if !covered[i] => covered[i] = true,
            _ => return false,
        }
    }
    covered.into_iter().all(|c| c)
}

/// Verify that `join` may collapse into a witness aggregate
/// ([`is_self_join_back`], invariant `self-join-back`).
pub fn verify_join_back_collapse(join: &LogicalPlan, pass: &str) -> Result<()> {
    if is_self_join_back(join) {
        return Ok(());
    }
    let children: Vec<String> = join.children().iter().map(|c| c.node_name()).collect();
    Err(violation(
        pass,
        "self-join-back",
        &format!("{} > [{}]", join.node_name(), children.join(", ")),
        "not an aggregate LEFT-joined back to its own input on every group key",
    ))
}

/// Verify that `predicate`, written over `aggregate`'s output, may move
/// below it: it reads group columns only (invariant `group-key-pushdown`).
/// Whole groups pass or fail such a predicate, so filtering the input
/// first changes neither the surviving groups' aggregates nor their
/// witnesses; a predicate on an aggregate or on a witness column changes
/// both.
pub fn verify_aggregate_pushdown(
    aggregate: &LogicalPlan,
    predicate: &ScalarExpr,
    pass: &str,
) -> Result<()> {
    let LogicalPlan::Aggregate { group_by, .. } = aggregate else {
        return Err(violation(
            pass,
            "group-key-pushdown",
            &format!("Filter > {}", aggregate.node_name()),
            "not an aggregate",
        ));
    };
    match predicate
        .referenced_columns()
        .into_iter()
        .find(|&i| i >= group_by.len())
    {
        None => Ok(()),
        Some(i) => Err(violation(
            pass,
            "group-key-pushdown",
            &format!("Filter > {}", aggregate.node_name()),
            format!(
                "predicate ({predicate}) reads column {i}, which is not one of the {} \
                 group columns",
                group_by.len()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::Column;

    fn t_schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Text),
        ])
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: t_schema(),
            provenance_cols: vec![],
        }
    }

    #[test]
    fn well_formed_plan_passes() {
        let plan = LogicalPlan::filter(
            LogicalPlan::project_positions(scan(), &[1, 0]),
            ScalarExpr::binary(
                BinOp::Gt,
                ScalarExpr::Column(1),
                ScalarExpr::Literal(Value::Int(0)),
            ),
        );
        verify_logical(&plan, "test").unwrap();
    }

    #[test]
    fn out_of_bounds_slot_is_named() {
        let plan = LogicalPlan::filter(
            scan(),
            ScalarExpr::eq(ScalarExpr::Column(7), ScalarExpr::Literal(Value::Int(1))),
        );
        let err = verify_logical(&plan, "rule-rewrites").unwrap_err();
        assert_eq!(err.kind(), "plan");
        assert!(err.message().contains("[rule-rewrites]"), "{err}");
        assert!(err.message().contains("slot-bounds"), "{err}");
        assert!(err.message().contains("Filter"), "{err}");
    }

    #[test]
    fn project_arity_mismatch_is_caught() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![ScalarExpr::Column(0)],
            schema: t_schema(), // two columns declared, one expression
        };
        let err = verify_logical(&plan, "column-pruning").unwrap_err();
        assert!(err.message().contains("schema-arity"), "{err}");
        assert!(err.message().contains("[column-pruning]"), "{err}");
    }

    #[test]
    fn non_boolean_filter_is_rejected() {
        let plan = LogicalPlan::filter(scan(), ScalarExpr::Column(1));
        let err = verify_logical(&plan, "test").unwrap_err();
        assert!(err.message().contains("non-boolean"), "{err}");
    }

    #[test]
    fn schema_preservation_catches_dropped_column() {
        let before = t_schema();
        let after = LogicalPlan::project_positions(scan(), &[0]);
        let err = verify_schema_preserved(&before, &after, "column-pruning").unwrap_err();
        assert!(err.message().contains("schema-preservation"), "{err}");
        assert!(err.message().contains("[column-pruning]"), "{err}");
        let same = LogicalPlan::project_positions(scan(), &[0, 1]);
        verify_schema_preserved(&before, &same, "column-pruning").unwrap();
    }

    #[test]
    fn provenance_contract_checks_trailing_block_and_names() {
        let original = Schema::new(vec![Column::new("a", DataType::Int)]);
        let rewritten = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("prov_public_t_a", DataType::Int),
            ]),
            provenance_cols: vec![],
        };
        verify_provenance_schema(&original, &rewritten, &[1], "provenance-rewrite").unwrap();

        // Provenance positions that are not the trailing block.
        let err = verify_provenance_schema(&original, &rewritten, &[0], "provenance-rewrite")
            .unwrap_err();
        assert!(err.message().contains("provenance-schema"), "{err}");

        // A NOT NULL provenance column that is neither Perm-named nor
        // qualified matches no convention (external provenance attributes
        // are always nullable).
        let bad = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("mystery", DataType::Int).not_null(),
            ]),
            provenance_cols: vec![],
        };
        let err =
            verify_provenance_schema(&original, &bad, &[1], "provenance-rewrite").unwrap_err();
        assert!(err.message().contains("provenance-naming"), "{err}");

        // External provenance: source name kept, marked nullable.
        let external = LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("src_system", DataType::Text),
            ]),
            provenance_cols: vec![],
        };
        verify_provenance_schema(&original, &external, &[1], "provenance-rewrite").unwrap();
    }

    // ------------------------------------------------------------------
    // cannot_hold_on_null
    // ------------------------------------------------------------------

    fn target(i: usize) -> bool {
        i >= 2 // columns 2.. are the "padded side"
    }

    #[test]
    fn strict_comparison_rejects_null() {
        // #2 = 1 is NULL when #2 is NULL → can never be TRUE.
        let p = ScalarExpr::eq(ScalarExpr::Column(2), ScalarExpr::Literal(Value::Int(1)));
        assert!(cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn is_null_predicate_holds_on_null() {
        let p = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::Column(2)),
            negated: false,
        };
        assert!(!cannot_hold_on_null(&p, &target));
        let not_null = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::Column(2)),
            negated: true,
        };
        assert!(cannot_hold_on_null(&not_null, &target));
    }

    #[test]
    fn conjunction_needs_only_one_rejecting_side() {
        // (#0 > 5) AND (#2 = 1): the right conjunct can't be TRUE, so the
        // whole AND can't be TRUE.
        let p = ScalarExpr::binary(
            BinOp::And,
            ScalarExpr::binary(
                BinOp::Gt,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(5)),
            ),
            ScalarExpr::eq(ScalarExpr::Column(2), ScalarExpr::Literal(Value::Int(1))),
        );
        assert!(cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn disjunction_with_tolerant_side_can_hold() {
        // (#2 = 1) OR (#0 > 5) can be TRUE via the left-side column.
        let p = ScalarExpr::binary(
            BinOp::Or,
            ScalarExpr::eq(ScalarExpr::Column(2), ScalarExpr::Literal(Value::Int(1))),
            ScalarExpr::binary(
                BinOp::Gt,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(5)),
            ),
        );
        assert!(!cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn null_safe_comparison_tolerates_null() {
        // #2 IS NOT DISTINCT FROM NULL is TRUE on the padded rows.
        let p = ScalarExpr::not_distinct(ScalarExpr::Column(2), ScalarExpr::Literal(Value::Null));
        assert!(!cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn coalesce_is_conservative() {
        // COALESCE(#2, 1) = 1 can be TRUE even when #2 is NULL.
        let p = ScalarExpr::eq(
            ScalarExpr::ScalarFn {
                func: crate::expr::ScalarFunc::Coalesce,
                args: vec![ScalarExpr::Column(2), ScalarExpr::Literal(Value::Int(1))],
            },
            ScalarExpr::Literal(Value::Int(1)),
        );
        assert!(!cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn not_of_tolerant_predicate() {
        // NOT (#2 IS NULL) is FALSE on padded rows → rejecting.
        let p = ScalarExpr::Unary {
            op: UnOp::Not,
            expr: Box::new(ScalarExpr::IsNull {
                expr: Box::new(ScalarExpr::Column(2)),
                negated: false,
            }),
        };
        assert!(cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn strict_arithmetic_propagates_null() {
        // (#2 + 1) > 0 is NULL when #2 is NULL.
        let p = ScalarExpr::binary(
            BinOp::Gt,
            ScalarExpr::binary(
                BinOp::Add,
                ScalarExpr::Column(2),
                ScalarExpr::Literal(Value::Int(1)),
            ),
            ScalarExpr::Literal(Value::Int(0)),
        );
        assert!(cannot_hold_on_null(&p, &target));
    }

    #[test]
    fn like_and_in_list_are_strict() {
        let like = ScalarExpr::Like {
            expr: Box::new(ScalarExpr::Column(2)),
            pattern: Box::new(ScalarExpr::Literal(Value::text("a%"))),
            negated: false,
        };
        assert!(cannot_hold_on_null(&like, &target));
        let in_list = ScalarExpr::InList {
            expr: Box::new(ScalarExpr::Column(2)),
            list: vec![ScalarExpr::Literal(Value::Int(1))],
            negated: false,
        };
        assert!(cannot_hold_on_null(&in_list, &target));
    }
}
