//! Provenance rewrite rules for set operations.
//!
//! Union supports **two** rewrite rules — this is the operator class the
//! paper points to when it says "for some operators there is more than one
//! rewrite rule that produces the provenance of the operator" (§2.2) — with
//! a heuristic and a cost-based chooser (see [`crate::options`]).

use std::collections::BTreeSet;

use perm_types::{PermError, Result, Schema, Value};

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::{JoinType, LogicalPlan, SetOpType};
use perm_algebra::stats::estimate_cost;

use crate::options::{Semantics, StrategyMode, UnionStrategy};
use crate::provattr::ProvAttrInfo;
use crate::rules::{Ctx, Rewritten};

pub fn rewrite_setop(
    ctx: &Ctx,
    original: &LogicalPlan,
    op: SetOpType,
    all: bool,
    left: &LogicalPlan,
    right: &LogicalPlan,
    schema: &Schema,
) -> Result<Rewritten> {
    match op {
        SetOpType::Union => rewrite_union(ctx, original, all, left, right),
        SetOpType::Intersect => rewrite_intersect(ctx, original, left, right, schema),
        SetOpType::Except => rewrite_except(ctx, original, left, right, schema),
    }
}

// ----------------------------------------------------------------------
// Union
// ----------------------------------------------------------------------

fn rewrite_union(
    ctx: &Ctx,
    original: &LogicalPlan,
    all: bool,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Result<Rewritten> {
    let strategy = match ctx.options.union_strategy {
        StrategyMode::Fixed(s) => s,
        // Heuristic: the padded union touches each input once; join-back
        // recomputes the original query besides. Padded union wins unless
        // forced otherwise.
        StrategyMode::Heuristic => UnionStrategy::PaddedUnion,
        StrategyMode::CostBased => {
            let padded = padded_union(ctx, all, left, right)?;
            // UNION ALL admits only the padded rule (join-back on result
            // values cannot reconstruct bag multiplicities).
            if all {
                return Ok(padded);
            }
            let join_back = join_back_union(ctx, original, left, right)?;
            let (cp, cj) = (
                estimate_cost(&padded.plan, ctx.estimator),
                estimate_cost(&join_back.plan, ctx.estimator),
            );
            return Ok(if cp <= cj { padded } else { join_back });
        }
    };
    match strategy {
        UnionStrategy::PaddedUnion => padded_union(ctx, all, left, right),
        UnionStrategy::JoinBack if all => Err(PermError::Rewrite(
            "the join-back strategy cannot rewrite UNION ALL \
             (bag multiplicities are lost); use the padded-union strategy"
                .into(),
        )),
        UnionStrategy::JoinBack => join_back_union(ctx, original, left, right),
    }
}

/// Padded-union rule:
///
/// ```text
/// (T1 ∪ T2)+ = Π_{A, P(T1+), NULL…}(T1+)  ∪all  Π_{A, NULL…, P(T2+)}(T2+)
/// ```
///
/// (plus duplicate elimination for set-semantics UNION: one row per
/// distinct (result, witness) pair).
fn padded_union(
    ctx: &Ctx,
    all: bool,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Result<Rewritten> {
    let lt = ctx.rewrite(left)?.normalized();
    let rt = ctx.rewrite(right)?.normalized();
    let n = lt.n_orig();
    let (pl, pr) = (lt.prov.len(), rt.prov.len());

    let left_branch = align(lt.clone(), &[], &rt.attrs);
    let right_branch = align(rt.clone(), &lt.attrs, &[]);
    let out_schema = left_branch.plan.schema().clone();

    let mut plan = LogicalPlan::SetOp {
        op: SetOpType::Union,
        all: true,
        left: Box::new(left_branch.plan),
        right: Box::new(right_branch.plan),
        schema: out_schema,
    };
    if !all {
        plan = LogicalPlan::Distinct {
            input: Box::new(plan),
        };
    }

    let one_per_row = all && lt.one_per_row && rt.one_per_row;
    let mut attrs = lt.attrs;
    attrs.extend(rt.attrs);
    let copy_sets: Vec<BTreeSet<usize>> = (0..n)
        .map(|i| {
            let mut s = lt.copy_sets[i].clone();
            s.extend(rt.copy_sets[i].iter().map(|&k| k + pl));
            s
        })
        .collect();
    Ok(Rewritten {
        plan,
        orig: (0..n).collect(),
        prov: (n..n + pl + pr).collect(),
        attrs,
        copy_sets,
        one_per_row,
    })
}

/// Join-back rule: compute the original `T1 ∪ T2`, then join it (NULL-safe
/// on every result attribute) to the padded union-all of the rewritten
/// branches.
fn join_back_union(
    ctx: &Ctx,
    original: &LogicalPlan,
    left: &LogicalPlan,
    right: &LogicalPlan,
) -> Result<Rewritten> {
    // The padded union of the rewritten branches, without dedup (the join
    // to the distinct original already yields one row per witness).
    let padded = padded_union(ctx, true, left, right)?;
    let n = padded.n_orig();
    let p = padded.prov.len();
    let q = original.clone();
    let cond = not_distinct_on(n, n);
    let join = LogicalPlan::join(q, padded.plan, JoinType::Inner, Some(cond))?;
    // Join schema: [q 0..n][padded n..2n+p]; keep q's columns + provenance.
    let positions: Vec<usize> = (0..n).chain(2 * n..2 * n + p).collect();
    let mut plan = LogicalPlan::project_positions(join, &positions);
    plan = LogicalPlan::Distinct {
        input: Box::new(plan),
    };
    Ok(Rewritten {
        plan,
        orig: (0..n).collect(),
        prov: (n..n + p).collect(),
        attrs: padded.attrs,
        copy_sets: padded.copy_sets,
        one_per_row: false,
    })
}

// ----------------------------------------------------------------------
// Intersection
// ----------------------------------------------------------------------

/// Intersection rule: every result tuple pairs each of its left witnesses
/// with each of its right witnesses:
///
/// ```text
/// (T1 ∩ T2)+ = Π_{A, P(T1+), P(T2+)}((T1 ∩ T2) ⋈_{A≡} T1+ ⋈_{A≡} T2+)
/// ```
///
/// where `≡` is NULL-safe equality on all result attributes.
fn rewrite_intersect(
    ctx: &Ctx,
    original: &LogicalPlan,
    left: &LogicalPlan,
    right: &LogicalPlan,
    schema: &Schema,
) -> Result<Rewritten> {
    let lt = ctx.rewrite(left)?.normalized();
    let rt = ctx.rewrite(right)?.normalized();
    let n = schema.len();
    let (pl, pr) = (lt.prov.len(), rt.prov.len());

    let j1 = LogicalPlan::join(
        original.clone(),
        lt.plan,
        JoinType::Inner,
        Some(not_distinct_on(n, n)),
    )?;
    // j1 schema: [q 0..n][L+ n..2n+pl]
    let j2 = LogicalPlan::join(
        j1,
        rt.plan,
        JoinType::Inner,
        Some(not_distinct_on(n, 2 * n + pl)),
    )?;
    // j2 schema: [q][L+][R+ at 2n+pl..3n+pl+pr]
    let positions: Vec<usize> = (0..n)
        .chain(2 * n..2 * n + pl)
        .chain(3 * n + pl..3 * n + pl + pr)
        .collect();
    let plan = LogicalPlan::project_positions(j2, &positions);

    let mut attrs = lt.attrs;
    attrs.extend(rt.attrs);
    let copy_sets: Vec<BTreeSet<usize>> = (0..n)
        .map(|i| {
            let mut s = lt.copy_sets[i].clone();
            s.extend(rt.copy_sets[i].iter().map(|&k| k + pl));
            s
        })
        .collect();
    Ok(Rewritten {
        plan,
        orig: (0..n).collect(),
        prov: (n..n + pl + pr).collect(),
        attrs,
        copy_sets,
        one_per_row: false,
    })
}

// ----------------------------------------------------------------------
// Difference
// ----------------------------------------------------------------------

/// Difference rule. Under INFLUENCE (PI-CS), only the left side
/// contributes: right provenance attributes are NULL-padded. Under
/// LINEAGE (Cui-Widom), the *entire* right input additionally contributes
/// to every result tuple.
fn rewrite_except(
    ctx: &Ctx,
    original: &LogicalPlan,
    left: &LogicalPlan,
    right: &LogicalPlan,
    schema: &Schema,
) -> Result<Rewritten> {
    let lt = ctx.rewrite(left)?.normalized();
    let rt = ctx.rewrite(right)?.normalized();
    let n = schema.len();
    let (pl, pr) = (lt.prov.len(), rt.prov.len());

    let j1 = LogicalPlan::join(
        original.clone(),
        lt.plan,
        JoinType::Inner,
        Some(not_distinct_on(n, n)),
    )?;
    // j1 schema: [q 0..n][L+ n..2n+pl]; keep q's columns + left provenance.
    let keep: Vec<usize> = (0..n).chain(2 * n..2 * n + pl).collect();
    let base = LogicalPlan::project_positions(j1, &keep);

    let copy_sets: Vec<BTreeSet<usize>> = (0..n).map(|i| lt.copy_sets[i].clone()).collect();

    match ctx.semantics {
        Semantics::Lineage => {
            // All of T2 contributes: left-outer cross join against the
            // provenance attributes of T2+ (outer so empty T2 pads NULLs).
            let rt_prov_only = LogicalPlan::project_positions(rt.plan.clone(), &rt.prov);
            let j2 = LogicalPlan::join(
                base,
                rt_prov_only,
                JoinType::Left,
                Some(ScalarExpr::Literal(Value::Bool(true))),
            )?;
            let mut attrs = lt.attrs;
            attrs.extend(rt.attrs);
            Ok(Rewritten {
                plan: j2,
                orig: (0..n).collect(),
                prov: (n..n + pl + pr).collect(),
                attrs,
                copy_sets,
                one_per_row: false,
            })
        }
        Semantics::Influence | Semantics::Copy(_) => {
            // NULL-pad the right side's provenance attributes.
            let rw = Rewritten {
                plan: base,
                orig: (0..n).collect(),
                prov: (n..n + pl).collect(),
                attrs: lt.attrs,
                copy_sets,
                one_per_row: false,
            };
            Ok(crate::rules::pad_null_provenance(rw, &rt.attrs))
        }
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// NULL-safe equality of `n` columns starting at 0 on the left side with
/// `n` columns starting at `right_base`.
pub fn not_distinct_on(n: usize, right_base: usize) -> ScalarExpr {
    let preds: Vec<ScalarExpr> = (0..n)
        .map(|i| {
            ScalarExpr::not_distinct(ScalarExpr::Column(i), ScalarExpr::Column(right_base + i))
        })
        .collect();
    ScalarExpr::conjunction(preds)
}

/// Project a normalized rewrite to `[orig][NULLs for `before`][own
/// provenance][NULLs for `after`]`, aligning union branches.
fn align(rw: Rewritten, before: &[ProvAttrInfo], after: &[ProvAttrInfo]) -> Rewritten {
    let n = rw.n_orig();
    let p = rw.prov.len();
    let in_schema = rw.plan.schema().clone();
    let mut exprs: Vec<ScalarExpr> = (0..n).map(ScalarExpr::Column).collect();
    let mut columns: Vec<_> = in_schema.columns()[..n].to_vec();
    for a in before {
        exprs.push(ScalarExpr::Literal(Value::Null));
        columns.push(a.column.clone());
    }
    for k in 0..p {
        exprs.push(ScalarExpr::Column(n + k));
        columns.push(in_schema.column(n + k).clone());
    }
    for a in after {
        exprs.push(ScalarExpr::Literal(Value::Null));
        columns.push(a.column.clone());
    }
    let plan = LogicalPlan::Project {
        input: Box::new(rw.plan),
        exprs,
        schema: Schema::new(columns),
    };
    let total = before.len() + p + after.len();
    Rewritten {
        plan,
        orig: (0..n).collect(),
        prov: (n..n + total).collect(),
        attrs: rw.attrs, // caller rebuilds the combined attribute list
        copy_sets: rw.copy_sets,
        one_per_row: rw.one_per_row,
    }
}
