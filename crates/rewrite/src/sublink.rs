//! Provenance rewriting of nested subqueries (sublinks), after
//! Glavic & Alonso, "Provenance for Nested Subqueries" (EDBT 2009).
//!
//! Supported inside a provenance computation:
//!
//! * `x IN (SELECT …)` — unnested into an inner join against the rewritten
//!   subquery: every subquery row equal to `x` is a witness (replicating
//!   the outer tuple, as PI-CS requires).
//! * `EXISTS (SELECT …)` — unnested into a cross join against the rewritten
//!   subquery: if the subquery is non-empty, *each* of its rows witnessed
//!   the outer tuple's survival; if it is empty, the filter discards the
//!   tuple and the cross join correctly produces nothing.
//! * `x NOT IN (…)` / `NOT EXISTS (…)` — the predicate is evaluated as-is
//!   (absence has no witnesses under PI-CS) and the subquery's provenance
//!   attributes are NULL-padded so the result schema still covers all
//!   accessed relations.
//!
//! Correlated sublinks and scalar sublinks inside a provenance computation
//! are rejected with a clear error (the EDBT'09 general strategies are out
//! of scope; ordinary — non-provenance — queries execute them fine).

use perm_types::{PermError, Result};

use perm_algebra::expr::{ScalarExpr, SubqueryExpr, SubqueryKind};
use perm_algebra::plan::{JoinType, LogicalPlan};

use crate::rules::{pad_null_provenance, Ctx, Rewritten};

pub fn rewrite_filter_with_sublinks(
    ctx: &Ctx,
    input: &LogicalPlan,
    predicate: &ScalarExpr,
) -> Result<Rewritten> {
    // Classify the top-level conjuncts.
    let mut plain: Vec<ScalarExpr> = Vec::new();
    let mut positive: Vec<SubqueryExpr> = Vec::new();
    let mut negative: Vec<SubqueryExpr> = Vec::new();
    for c in predicate.split_conjunction() {
        match c {
            ScalarExpr::Subquery(sq) => {
                check_supported(sq)?;
                if sq.negated {
                    negative.push(sq.clone());
                } else {
                    positive.push(sq.clone());
                }
            }
            other => {
                if other.contains_subquery() {
                    return Err(PermError::Rewrite(
                        "sublinks nested inside other predicates (e.g. under OR or \
                         in arithmetic) are not supported in a provenance computation; \
                         only top-level WHERE conjuncts of the form [NOT] IN / [NOT] \
                         EXISTS are"
                            .into(),
                    ));
                }
                plain.push(other.clone());
            }
        }
    }

    let rt = ctx.rewrite(input)?;

    // Plain conjuncts and negated sublinks filter the rewritten input
    // directly (the executor evaluates the embedded subplans).
    let mut residual: Vec<ScalarExpr> = plain.iter().map(|e| rt.remap(e)).collect();
    for sq in &negative {
        residual.push(rt.remap(&ScalarExpr::Subquery(sq.clone())));
    }
    let mut acc = if residual.is_empty() {
        rt
    } else {
        let pred = ScalarExpr::conjunction(residual);
        Rewritten {
            plan: LogicalPlan::filter(rt.plan.clone(), pred),
            ..rt
        }
    };

    // Positive sublinks become joins against the rewritten subquery.
    for sq in &positive {
        let sub = ctx.rewrite(&sq.plan)?.normalized();
        let shift = acc.plan.arity();
        let sub_n = sub.n_orig();
        let sub_p = sub.prov.len();
        let plan = match sq.kind {
            SubqueryKind::In => {
                let operand = acc.remap(sq.operand.as_deref().expect("IN has operand"));
                // x IN (SELECT c FROM …): join on x = c (SQL equality — a
                // NULL x matches nothing, as IN's three-valued semantics
                // filters it out).
                let cond = ScalarExpr::eq(operand, ScalarExpr::Column(shift));
                LogicalPlan::join(acc.plan, sub.plan, JoinType::Inner, Some(cond))?
            }
            SubqueryKind::Exists => LogicalPlan::join(acc.plan, sub.plan, JoinType::Cross, None)?,
            SubqueryKind::Scalar => unreachable!("rejected by check_supported"),
        };
        let mut attrs = std::mem::take(&mut acc.attrs);
        attrs.extend(sub.attrs);
        acc = Rewritten {
            plan,
            orig: acc.orig,
            prov: acc
                .prov
                .iter()
                .copied()
                .chain(sub.prov.iter().map(|&p| shift + p))
                .collect(),
            attrs,
            copy_sets: acc.copy_sets,
            one_per_row: false,
        };
        let _ = (sub_n, sub_p);
    }

    // NULL-pad provenance attributes for the negated sublinks' relations so
    // the schema covers every accessed base relation.
    if !negative.is_empty() {
        let mut pad = Vec::new();
        for sq in &negative {
            pad.extend(ctx.rewrite(&sq.plan)?.attrs);
        }
        acc = pad_null_provenance(acc, &pad);
    }
    // A positive sublink pairs each row with every witness of the
    // subquery, so the result has no longer one row per row; every
    // sublink rewrite clears the flag alike.
    acc.one_per_row = false;
    Ok(acc)
}

fn check_supported(sq: &SubqueryExpr) -> Result<()> {
    if sq.kind == SubqueryKind::Scalar {
        return Err(PermError::Rewrite(
            "scalar subqueries are not supported inside a provenance computation; \
             rewrite the query to a join or compute the subquery eagerly"
                .into(),
        ));
    }
    if !sq.outer_refs.is_empty() {
        return Err(PermError::Rewrite(
            "correlated sublinks are not supported inside a provenance computation; \
             decorrelate the query into a join (ordinary execution of correlated \
             sublinks works)"
                .into(),
        ));
    }
    Ok(())
}
