//! Copy-CS (Where-provenance) post-processing.
//!
//! Perm's `COPY` contribution semantics restricts the provenance to values
//! actually **copied** from the base relations into the result. The
//! influence rewrite already threads a static *copy map* through every rule
//! (see [`crate::rules::Rewritten::copy_sets`]): for each original output
//! column, the set of provenance attributes whose values reach it through
//! identity projections (with `CASE` branches unioned as a static
//! approximation of per-tuple copying).
//!
//! This module applies the final step: provenance attributes that are never
//! copied are replaced by `NULL`.
//!
//! * `COPY PARTIAL` (the default) — per *attribute*: an attribute survives
//!   if at least one output column copies it.
//! * `COPY COMPLETE` — per *relation instance*: a relation's attributes
//!   survive only if **every** one of them is copied somewhere.

use std::collections::BTreeSet;

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::LogicalPlan;
use perm_types::{Schema, Value};

use crate::options::CopyMode;
use crate::rules::Rewritten;

/// Replace non-copied provenance attributes with NULL, per `mode`.
pub fn apply_copy_mode(rw: Rewritten, mode: CopyMode) -> Rewritten {
    let rw = rw.normalized();
    let n = rw.n_orig();
    let p = rw.prov.len();

    // All provenance attribute indices copied by some output column.
    let copied: BTreeSet<usize> = rw
        .copy_sets
        .iter()
        .flat_map(|s| s.iter().copied())
        .collect();

    let keep: Vec<bool> = match mode {
        CopyMode::Partial => (0..p).map(|k| copied.contains(&k)).collect(),
        CopyMode::Complete => {
            // A group (relation instance) survives only if every attribute
            // of the group is copied.
            let groups: BTreeSet<usize> = rw.attrs.iter().map(|a| a.group).collect();
            let complete: BTreeSet<usize> = groups
                .into_iter()
                .filter(|g| {
                    rw.attrs
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.group == *g)
                        .all(|(k, _)| copied.contains(&k))
                })
                .collect();
            rw.attrs
                .iter()
                .map(|a| complete.contains(&a.group))
                .collect()
        }
    };

    if keep.iter().all(|&k| k) {
        return rw;
    }

    let in_schema = rw.plan.schema().clone();
    let mut exprs: Vec<ScalarExpr> = (0..n).map(ScalarExpr::Column).collect();
    for (k, &kept) in keep.iter().enumerate() {
        if kept {
            exprs.push(ScalarExpr::Column(n + k));
        } else {
            exprs.push(ScalarExpr::Literal(Value::Null));
        }
    }
    let plan = LogicalPlan::Project {
        input: Box::new(rw.plan),
        exprs,
        schema: Schema::new(in_schema.columns().to_vec()),
    };
    Rewritten {
        plan,
        orig: rw.orig,
        prov: rw.prov,
        attrs: rw.attrs,
        copy_sets: rw.copy_sets,
        one_per_row: rw.one_per_row,
    }
}
