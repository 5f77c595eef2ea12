//! The algebraic provenance rewrite rules (paper §2.2).
//!
//! Each rule takes an operator of the bound [`LogicalPlan`] and the
//! provenance attribute list `P` of its (already rewritten) input, and
//! produces a rewritten operator plus the new list `P`. The rules are
//! *compositional*: they only see positions, never where a provenance
//! attribute came from — which is exactly what lets them propagate external
//! provenance unchanged.
//!
//! For example the projection rule of the paper,
//!
//! ```text
//! (Π_A(T))+ = Π_{A, P(T+)}(T+)    with P((Π_A(T))+) = P(T+)
//! ```
//!
//! is `Ctx::rewrite_project` below.

use std::cell::Cell;
use std::collections::BTreeSet;

use perm_types::{PermError, Result, Schema, Value};

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::{AggOutput, BoundaryKind, JoinType, LogicalPlan, SortKey};
use perm_algebra::stats::CardinalityEstimator;

use crate::options::{RewriteOptions, Semantics};
use crate::provattr::ProvAttrInfo;
use crate::{aggregate, setops, sublink};

/// A rewritten subtree: the plan `q+` plus the bookkeeping the parent rule
/// needs.
#[derive(Debug, Clone)]
pub struct Rewritten {
    pub plan: LogicalPlan,
    /// For each output column of the *original* operator, its position in
    /// `plan`'s schema.
    pub orig: Vec<usize>,
    /// Positions of the provenance attributes in `plan`'s schema, in
    /// left-to-right base-relation order.
    pub prov: Vec<usize>,
    /// Metadata for each provenance attribute (aligned with `prov`).
    pub attrs: Vec<ProvAttrInfo>,
    /// For each original output column, the set of provenance-attribute
    /// *indices* (into `prov`/`attrs`) whose values are **copied** verbatim
    /// into that column — the static copy map driving Copy-CS
    /// (Where-provenance) semantics.
    pub copy_sets: Vec<BTreeSet<usize>>,
    /// `plan` has exactly one row per row of the original operator's
    /// result, so projecting it onto `orig` gives that result back as a
    /// bag (`Π_T(T+) = T`). Per rule: base access, `VALUES`, both
    /// boundary kinds, projection, sort, sublink-free selection, every
    /// join over flagged inputs and UNION ALL over flagged branches keep
    /// it; duplicate elimination, aggregation, the other set operations
    /// and sublink rewrites (which join or pad per witness) clear it.
    /// [`crate::aggregate`] reads it.
    pub one_per_row: bool,
}

impl Rewritten {
    /// A rewrite that added nothing (e.g. `Values`).
    pub fn identity(plan: LogicalPlan) -> Rewritten {
        let n = plan.arity();
        Rewritten {
            plan,
            orig: (0..n).collect(),
            prov: vec![],
            attrs: vec![],
            copy_sets: vec![BTreeSet::new(); n],
            one_per_row: true,
        }
    }

    /// Number of original output columns.
    pub fn n_orig(&self) -> usize {
        self.orig.len()
    }

    /// Remap an expression written against the original operator's schema
    /// to the rewritten plan's schema.
    pub fn remap(&self, e: &ScalarExpr) -> ScalarExpr {
        e.map_columns(&|i| self.orig[i])
    }

    /// Normalize to the canonical layout `[original columns][provenance
    /// attributes]` via a projection. `orig` becomes `0..n`, `prov` becomes
    /// `n..n+p`.
    pub fn normalized(self) -> Rewritten {
        let n = self.n_orig();
        let already = self.orig.iter().enumerate().all(|(i, &p)| i == p)
            && self.prov.iter().enumerate().all(|(i, &p)| p == n + i)
            && self.plan.arity() == n + self.prov.len();
        if already {
            return self;
        }
        let in_schema = self.plan.schema().clone();
        let mut exprs = Vec::with_capacity(n + self.prov.len());
        let mut columns = Vec::with_capacity(n + self.prov.len());
        for &p in &self.orig {
            exprs.push(ScalarExpr::Column(p));
            columns.push(in_schema.column(p).clone());
        }
        for (&p, info) in self.prov.iter().zip(&self.attrs) {
            let _ = p;
            exprs.push(ScalarExpr::Column(p));
            columns.push(info.column.clone());
        }
        let plan = LogicalPlan::Project {
            input: Box::new(self.plan),
            exprs,
            schema: Schema::new(columns),
        };
        Rewritten {
            plan,
            orig: (0..n).collect(),
            prov: (n..n + self.prov.len()).collect(),
            attrs: self.attrs,
            copy_sets: self.copy_sets,
            one_per_row: self.one_per_row,
        }
    }
}

/// Rewrite context: semantics, strategy options and the cardinality
/// estimator backing cost-based strategy selection.
pub struct Ctx<'a> {
    pub semantics: Semantics,
    pub options: &'a RewriteOptions,
    pub estimator: &'a dyn CardinalityEstimator,
    /// Counter handing out relation-instance group ids (see
    /// [`ProvAttrInfo::group`]).
    pub groups: Cell<usize>,
}

impl<'a> Ctx<'a> {
    /// Fresh relation-instance group id.
    pub fn next_group(&self) -> usize {
        let g = self.groups.get();
        self.groups.set(g + 1);
        g
    }

    /// Apply the rewrite rules to `plan`, bottom-up.
    pub fn rewrite(&self, plan: &LogicalPlan) -> Result<Rewritten> {
        match plan {
            LogicalPlan::Scan {
                table,
                schema,
                provenance_cols,
            } => Ok(self.rewrite_scan(table, schema, provenance_cols)),
            LogicalPlan::Values { .. } => Ok(Rewritten::identity(plan.clone())),
            LogicalPlan::Boundary { input, name, kind } => self.rewrite_boundary(input, name, kind),
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => self.rewrite_project(input, exprs, schema),
            LogicalPlan::Filter { input, predicate } => self.rewrite_filter(input, predicate),
            LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                ..
            } => self.rewrite_join(left, right, *kind, condition.as_ref()),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
                output: AggOutput::Groups,
            } => aggregate::rewrite_aggregate(self, plan, input, group_by, aggs, schema),
            LogicalPlan::Aggregate {
                output: AggOutput::Witnesses,
                ..
            } => Err(PermError::Rewrite(
                "witness aggregates are introduced by the optimizer and \
                 cannot be re-rewritten"
                    .into(),
            )),
            LogicalPlan::Distinct { input } => self.rewrite_distinct(input),
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
                schema,
            } => setops::rewrite_setop(self, plan, *op, *all, left, right, schema),
            LogicalPlan::Sort { input, keys } => self.rewrite_sort(input, keys),
            LogicalPlan::Limit { .. } => Err(PermError::Rewrite(
                "LIMIT/OFFSET inside a provenance computation is not supported: \
                 the witness set of a limited result is not well-defined; \
                 apply LIMIT outside the SELECT PROVENANCE subquery"
                    .into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Base access
    // ------------------------------------------------------------------

    /// Base-relation rule: duplicate every attribute as a provenance
    /// attribute named `prov_public_<table>_<attr>`.
    ///
    /// A table with recorded provenance columns (eager provenance /
    /// external provenance metadata) is *not* duplicated: the recorded
    /// columns already are its provenance, and are propagated untouched
    /// (the paper's incremental computation path).
    fn rewrite_scan(&self, table: &str, schema: &Schema, provenance_cols: &[usize]) -> Rewritten {
        let plan = LogicalPlan::Scan {
            table: table.to_string(),
            schema: schema.clone(),
            provenance_cols: provenance_cols.to_vec(),
        };
        if !provenance_cols.is_empty() {
            let n = schema.len();
            let group = self.next_group();
            let attrs: Vec<ProvAttrInfo> = provenance_cols
                .iter()
                .map(|&p| ProvAttrInfo::external(table, schema.column(p), group))
                .collect();
            let copy_sets = (0..n)
                .map(|i| {
                    provenance_cols
                        .iter()
                        .position(|&p| p == i)
                        .into_iter()
                        .collect()
                })
                .collect();
            return Rewritten {
                plan,
                orig: (0..n).collect(),
                prov: provenance_cols.to_vec(),
                attrs,
                copy_sets,
                one_per_row: true,
            };
        }
        duplicate_as_provenance(plan, table, self.next_group())
    }

    /// `BASERELATION` / `PROVENANCE (attrs)` boundaries (paper §2.4).
    fn rewrite_boundary(
        &self,
        input: &LogicalPlan,
        name: &str,
        kind: &BoundaryKind,
    ) -> Result<Rewritten> {
        match kind {
            // Stop the rewrite: the subtree is executed as-is and its
            // output tuples are treated like base tuples.
            BoundaryKind::BaseRelation => Ok(duplicate_as_provenance(
                input.clone(),
                name,
                self.next_group(),
            )),
            // The listed attributes already are provenance; propagate them.
            BoundaryKind::External { attrs } => {
                let schema = input.schema();
                let n = schema.len();
                let group = self.next_group();
                let infos: Vec<ProvAttrInfo> = attrs
                    .iter()
                    .map(|&p| ProvAttrInfo::external(name, schema.column(p), group))
                    .collect();
                let copy_sets = (0..n)
                    .map(|i| attrs.iter().position(|&p| p == i).into_iter().collect())
                    .collect();
                Ok(Rewritten {
                    plan: input.clone(),
                    orig: (0..n).collect(),
                    prov: attrs.clone(),
                    attrs: infos,
                    copy_sets,
                    one_per_row: true,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Unary operators
    // ------------------------------------------------------------------

    /// Projection rule: `(Π_A(T))+ = Π_{A, P(T+)}(T+)`.
    fn rewrite_project(
        &self,
        input: &LogicalPlan,
        exprs: &[ScalarExpr],
        schema: &Schema,
    ) -> Result<Rewritten> {
        let rt = self.rewrite(input)?;
        check_no_sublink(exprs.iter(), "SELECT list")?;
        let mut new_exprs: Vec<ScalarExpr> = exprs.iter().map(|e| rt.remap(e)).collect();
        let mut columns: Vec<_> = schema.columns().to_vec();
        // Copy map: which provenance attributes does each output expression
        // copy verbatim?
        let copy_sets: Vec<BTreeSet<usize>> = exprs
            .iter()
            .map(|e| expr_copy_set(e, &rt.copy_sets))
            .collect();
        for (&p, info) in rt.prov.iter().zip(&rt.attrs) {
            new_exprs.push(ScalarExpr::Column(p));
            columns.push(info.column.clone());
        }
        let n = exprs.len();
        let plan = LogicalPlan::Project {
            input: Box::new(rt.plan),
            exprs: new_exprs,
            schema: Schema::new(columns),
        };
        Ok(Rewritten {
            plan,
            orig: (0..n).collect(),
            prov: (n..n + rt.prov.len()).collect(),
            attrs: rt.attrs,
            copy_sets,
            one_per_row: rt.one_per_row,
        })
    }

    /// Selection rule: `(σ_c(T))+ = σ_c(T+)`. Sublinks in the predicate are
    /// unnested (EDBT'09) in [`sublink`].
    fn rewrite_filter(&self, input: &LogicalPlan, predicate: &ScalarExpr) -> Result<Rewritten> {
        if predicate.contains_subquery() {
            return sublink::rewrite_filter_with_sublinks(self, input, predicate);
        }
        let rt = self.rewrite(input)?;
        let pred = rt.remap(predicate);
        Ok(Rewritten {
            plan: LogicalPlan::filter(rt.plan, pred),
            ..rt
        })
    }

    /// Join rule: `(T1 ⋈_c T2)+ = T1+ ⋈_c T2+`, positions shifted.
    /// Outer joins pad the non-matching side's provenance attributes with
    /// NULL automatically (the padded side's columns *are* NULL).
    fn rewrite_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: JoinType,
        condition: Option<&ScalarExpr>,
    ) -> Result<Rewritten> {
        if matches!(kind, JoinType::Semi | JoinType::Anti) {
            return Err(PermError::Rewrite(
                "semi/anti joins are introduced by the rewriter itself and \
                 cannot be re-rewritten"
                    .into(),
            ));
        }
        let lt = self.rewrite(left)?;
        let rt = self.rewrite(right)?;
        let (nl, shift) = (left.arity(), lt.plan.arity());
        if let Some(c) = condition {
            check_no_sublink(std::iter::once(c), "JOIN condition")?;
        }
        // Remap the condition: left-side refs through lt.orig, right-side
        // refs through rt.orig shifted past the whole rewritten left input.
        let cond = condition.map(|c| {
            c.map_columns(&|i| {
                if i < nl {
                    lt.orig[i]
                } else {
                    shift + rt.orig[i - nl]
                }
            })
        });
        let plan = LogicalPlan::join(lt.plan, rt.plan, kind, cond)?;
        let orig: Vec<usize> = lt
            .orig
            .iter()
            .copied()
            .chain(rt.orig.iter().map(|&p| shift + p))
            .collect();
        let prov: Vec<usize> = lt
            .prov
            .iter()
            .copied()
            .chain(rt.prov.iter().map(|&p| shift + p))
            .collect();
        let mut attrs = lt.attrs;
        attrs.extend(rt.attrs);
        let prov_shift = lt.prov.len();
        let mut copy_sets = lt.copy_sets;
        copy_sets.extend(
            rt.copy_sets
                .into_iter()
                .map(|s| s.into_iter().map(|i| i + prov_shift).collect()),
        );
        Ok(Rewritten {
            plan,
            orig,
            prov,
            attrs,
            copy_sets,
            one_per_row: lt.one_per_row && rt.one_per_row,
        })
    }

    /// Duplicate-elimination rule: `(δ(T))+ = δ(Π_{A,P}(T+))` — each
    /// distinct result tuple is kept once *per distinct witness*.
    fn rewrite_distinct(&self, input: &LogicalPlan) -> Result<Rewritten> {
        let rt = self.rewrite(input)?.normalized();
        Ok(Rewritten {
            plan: LogicalPlan::Distinct {
                input: Box::new(rt.plan),
            },
            orig: rt.orig,
            prov: rt.prov,
            attrs: rt.attrs,
            copy_sets: rt.copy_sets,
            one_per_row: false,
        })
    }

    /// Sort rule: `(sort(T))+ = sort(T+)` with keys remapped. Provenance
    /// attributes do not participate in the ordering.
    fn rewrite_sort(&self, input: &LogicalPlan, keys: &[SortKey]) -> Result<Rewritten> {
        let rt = self.rewrite(input)?;
        let keys: Vec<SortKey> = keys
            .iter()
            .map(|k| SortKey {
                expr: rt.remap(&k.expr),
                desc: k.desc,
            })
            .collect();
        Ok(Rewritten {
            plan: LogicalPlan::Sort {
                input: Box::new(rt.plan),
                keys,
            },
            ..rt
        })
    }
}

/// Duplicate every output column of `plan` as a provenance attribute named
/// after `relation` — the base-access rule, also used for `BASERELATION`.
pub fn duplicate_as_provenance(plan: LogicalPlan, relation: &str, group: usize) -> Rewritten {
    let schema = plan.schema().clone();
    let n = schema.len();
    let mut exprs: Vec<ScalarExpr> = (0..n).map(ScalarExpr::Column).collect();
    exprs.extend((0..n).map(ScalarExpr::Column));
    let mut columns = schema.columns().to_vec();
    let attrs: Vec<ProvAttrInfo> = schema
        .iter()
        .map(|c| ProvAttrInfo::for_attribute(relation, c, group))
        .collect();
    columns.extend(attrs.iter().map(|a| a.column.clone()));
    let plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(columns),
    };
    Rewritten {
        plan,
        orig: (0..n).collect(),
        prov: (n..2 * n).collect(),
        attrs,
        // Each original column is (trivially) a copy of its duplicate.
        copy_sets: (0..n).map(|i| BTreeSet::from([i])).collect(),
        one_per_row: true,
    }
}

/// Build a projection that appends `NULL`-typed provenance columns for
/// `attrs` to `rw` (used when a branch or sublink contributes nothing).
pub fn pad_null_provenance(rw: Rewritten, pad_attrs: &[ProvAttrInfo]) -> Rewritten {
    let rw = rw.normalized();
    let n = rw.n_orig();
    let p = rw.prov.len();
    let in_schema = rw.plan.schema().clone();
    let mut exprs: Vec<ScalarExpr> = (0..n + p).map(ScalarExpr::Column).collect();
    let mut columns = in_schema.columns().to_vec();
    for a in pad_attrs {
        exprs.push(ScalarExpr::Literal(Value::Null));
        columns.push(a.column.clone());
    }
    let plan = LogicalPlan::Project {
        input: Box::new(rw.plan),
        exprs,
        schema: Schema::new(columns),
    };
    let mut attrs = rw.attrs;
    attrs.extend(pad_attrs.iter().cloned());
    Rewritten {
        plan,
        orig: (0..n).collect(),
        prov: (n..n + p + pad_attrs.len()).collect(),
        attrs,
        copy_sets: rw.copy_sets,
        one_per_row: rw.one_per_row,
    }
}

/// Copy map of one projection expression: the provenance attributes whose
/// value this expression copies verbatim. Identity column references copy;
/// `CASE` unions its branches (static approximation of per-tuple
/// Where-provenance); computations copy nothing.
pub fn expr_copy_set(e: &ScalarExpr, input_sets: &[BTreeSet<usize>]) -> BTreeSet<usize> {
    match e {
        ScalarExpr::Column(i) => input_sets.get(*i).cloned().unwrap_or_default(),
        ScalarExpr::Case {
            branches,
            else_branch,
            ..
        } => {
            let mut s = BTreeSet::new();
            for (_, r) in branches {
                s.extend(expr_copy_set(r, input_sets));
            }
            if let Some(el) = else_branch {
                s.extend(expr_copy_set(el, input_sets));
            }
            s
        }
        _ => BTreeSet::new(),
    }
}

fn check_no_sublink<'e>(exprs: impl Iterator<Item = &'e ScalarExpr>, ctx: &str) -> Result<()> {
    for e in exprs {
        if e.contains_subquery() {
            return Err(PermError::Rewrite(format!(
                "subqueries in the {ctx} are not supported inside a provenance \
                 computation (only WHERE-clause IN/EXISTS sublinks are)"
            )));
        }
    }
    Ok(())
}
