//! Provenance rewrite rule for aggregation.
//!
//! PI-CS defines every input tuple of a group as a witness of that group's
//! result tuple. The rewrite therefore **joins the aggregate output back**
//! to the rewritten input on the group-by expressions, using NULL-safe
//! equality (`IS NOT DISTINCT FROM`) because `GROUP BY` groups NULLs
//! together:
//!
//! ```text
//! (α_{G,agg}(T))+ = Π_{A, P(T+)}( α_{G,agg}(T) ⟕_{G ≡ G(T+)} T+ )
//! ```
//!
//! A global aggregate (no GROUP BY) joins its single result row to every
//! input tuple (`ON true`); the outer join keeps the `count(*) = 0` row of
//! an empty input with NULL provenance.
//!
//! **Second form.** When `T+` has exactly one row per row of `T`
//! ([`Rewritten::one_per_row`]), `Π_T(T+) = T` as a bag, so aggregating
//! `T+` (group-by and arguments remapped) computes the same groups and
//! values as aggregating `T`:
//!
//! ```text
//! (α_{G,agg}(T))+ = Π_{A, P(T+)}( α_{G,agg}(T+) ⟕_{G ≡ G(T+)} T+ )
//! ```
//!
//! It is still the paper's rule and still plain SQL, but now both sides
//! of the join-back are the *same* relation `T+`, which the optimizer
//! collapses into one witness-emitting aggregate that reads `T+` once
//! (`perm_exec::planner`). Which rules keep the flag:
//!
//! | rule                                        | `one_per_row` of `T+`      |
//! |---------------------------------------------|----------------------------|
//! | base access, `VALUES`, `BASERELATION`, `PROVENANCE (attrs)` | set        |
//! | projection, sort, selection without sublinks | input's                  |
//! | join (every kind)                           | both inputs'               |
//! | `UNION ALL` (padded union)                  | both branches'             |
//! | `DISTINCT`, aggregation, `UNION`, `INTERSECT`, `EXCEPT` | cleared        |
//! | selection with sublinks                     | cleared                    |
//!
//! Without the flag (e.g. an aggregate over a `UNION` view) the first form
//! is used: the aggregate runs over the original `T`.

use std::collections::BTreeSet;

use perm_types::{Result, Schema};

use perm_algebra::expr::{AggCall, ScalarExpr};
use perm_algebra::plan::{AggOutput, LogicalPlan};

use crate::rules::{expr_copy_set, Ctx, Rewritten};

pub fn rewrite_aggregate(
    ctx: &Ctx,
    original: &LogicalPlan,
    input: &LogicalPlan,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    schema: &Schema,
) -> Result<Rewritten> {
    let rt = ctx.rewrite(input)?.normalized();
    let n_out = schema.len();
    let n_in = rt.n_orig();
    let p = rt.prov.len();
    // The group expressions over T+: the join-back's right-hand keys.
    let keys: Vec<ScalarExpr> = group_by.iter().map(|g| rt.remap(g)).collect();

    // Copy map: group columns copy whatever their group expression copied;
    // aggregate results are computed values and copy nothing. (`min`/`max`
    // do return an input value, but not one attributable to the *aligned*
    // witness row, so Copy-CS conservatively drops them.)
    let mut copy_sets: Vec<BTreeSet<usize>> = keys
        .iter()
        .map(|k| expr_copy_set(k, &rt.copy_sets))
        .collect();
    copy_sets.resize(n_out, BTreeSet::new());

    let aggregate = if rt.one_per_row {
        LogicalPlan::Aggregate {
            input: Box::new(rt.plan.clone()),
            group_by: keys.clone(),
            aggs: aggs
                .iter()
                .map(|a| AggCall {
                    func: a.func,
                    arg: a.arg.as_ref().map(|e| rt.remap(e)),
                    distinct: a.distinct,
                })
                .collect(),
            schema: schema.clone(),
            output: AggOutput::Groups,
        }
    } else {
        original.clone()
    };
    let join = LogicalPlan::join_back(aggregate, rt.plan, &keys);
    // Join schema: [aggregate output 0..n_out][T+ n_out..n_out+n_in+p].
    let positions: Vec<usize> = (0..n_out).chain(n_out + n_in..n_out + n_in + p).collect();
    let plan = LogicalPlan::project_positions(join, &positions);

    Ok(Rewritten {
        plan,
        orig: (0..n_out).collect(),
        prov: (n_out..n_out + p).collect(),
        attrs: rt.attrs,
        copy_sets,
        one_per_row: false,
    })
}
