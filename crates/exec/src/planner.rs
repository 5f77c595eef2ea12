//! The logical optimizer ("Planner" stage of the paper's Figure 3),
//! phase 1 of the two-phase optimizer (phase 2, operator selection, is
//! [`crate::physical`]).
//!
//! Perm deliberately leaves optimization to the host DBMS: the rewritten
//! provenance query is an ordinary query, so ordinary rewrites apply. This
//! module implements the rewrites that matter most for the plans the
//! provenance rewriter produces, in this order:
//!
//! 1. **boundary elimination** — SQL-PLE markers are meaningless after the
//!    rewrite;
//! 2. bottom-up rule passes (`PASSES` rounds to fixpoint):
//!    * **join-back collapse** — the aggregation rewrite joins an
//!      aggregate back to its input on the group keys; when that input
//!      *is* the join's other side (`α_{G,agg}(A) ⟕_{G ≡ G(A)} A`, which
//!      the rewriter emits whenever `A` has one provenance row per row),
//!      the join becomes one witness-emitting aggregate over `A`
//!      ([`AggOutput::Witnesses`]): `A` runs once and no hash table is
//!      built over its rows. Visited before every other rule at a node,
//!      so both copies are still equal; under plan verification each
//!      collapse is first re-proved by the verifier's certificate
//!      ([`perm_algebra::verify::is_self_join_back`]). Join reordering
//!      treats the result as the region boundary any aggregate is;
//!    * **filter merging** — adjacent filters combine into one conjunction;
//!    * **filter pushdown** — through projections, past sorts, into
//!      inner/cross join sides and union branches, and below aggregates
//!      when a conjunct reads group columns only (never an aggregate or
//!      a witness column); predicates on the
//!      preserved side push below LEFT joins, and null-rejecting
//!      predicates on the nullable side demote LEFT joins to INNER first;
//!    * **projection merging** — the rewrite rules stack projections
//!      (duplicate-as-provenance, normalization, padding), which fold into
//!      one;
//!    * **duplicate elimination pushdown** — the padded-union rewrite of a
//!      set-semantics UNION de-duplicates rows that are mostly provenance
//!      padding; DISTINCT moves below a UNION ALL whose branches are
//!      provably disjoint (at some position one branch is a NULL literal
//!      and the other a non-null literal or a `NOT NULL` base column
//!      reached through projections, filters and the non-null-extended
//!      sides of joins), and below a projection of bare columns and
//!      constants that covers every input column (injective, so it
//!      commutes with DISTINCT). DISTINCT over DISTINCT collapses. Each
//!      move keeps every first occurrence in place, so results match row
//!      for row, order included, and a padded union de-duplicates its
//!      narrow base rows and pads only the survivors. Under plan
//!      verification each move is first re-proved by the verifier's
//!      independent certificate
//!      ([`perm_algebra::verify::verify_distinct_pushdown`]);
//! 3. **column pruning** — provenance rewrites duplicate whole
//!    base-relation schemas (`R+ = Π_{R, R→P(R)}(R)` at every leaf); a
//!    top-down pass drops every slot no ancestor references (through
//!    Project/Join/Aggregate/UnionAll; a witness aggregate passes on only
//!    the input slots asked for) and carries the rest *once*. Each
//!    node hands its parent a map *original position → new position*
//!    that may be many-to-one: a projection of bare column references
//!    dissolves into its input, `mid` and `prov_messages_mid` point at
//!    the scan's one slot, and joins, filters, sorts and aggregates
//!    remap their expressions through the map. The duplicates fan out
//!    again exactly where a layout is owed — in one projection at the
//!    root (which the physical planner fuses into the top join's output
//!    slots), or directly under a width-rigid operator (DISTINCT, the
//!    set-semantics operations, the shared layout of UNION ALL
//!    branches). Projections holding a literal or a computed expression
//!    are rebuilt in place as before;
//! 4. **cost-based join reordering** — commutable inner/cross-join regions
//!    are flattened and rebuilt greedily smallest-intermediate-first,
//!    using the unified [`CardinalityEstimator`] (row counts and distinct
//!    counts from table statistics, the same numbers the rewrite-strategy
//!    chooser reads);
//! 5. one cleanup round of the bottom-up rules (reordering introduces
//!    compensating projections that merge into the root's fan-out).
//!
//! Every plan takes all five phases. Passes 3 and 4 renumber columns, and
//! a sublink reads its enclosing row only through its `outer_refs` —
//! ordinary expressions of the enclosing node that every pass remaps like
//! any operand — while its body addresses them as parameters, which no
//! renumbering touches. Sublink bodies themselves are not optimized, and
//! filter pushdown does not move sublink predicates (their evaluation
//! cost, not their addressing, is the reason).

use perm_algebra::expr::{BinOp, ScalarExpr, UnOp};
use perm_algebra::plan::{join_back_condition, AggOutput, JoinType, LogicalPlan, SetOpType};
use perm_algebra::stats::{estimate_rows, CardinalityEstimator, UnknownCardinality};
use perm_types::{PermError, Result, Schema};

/// Number of rule rounds. The rules are applied bottom-up, and two rounds
/// reach a fixpoint — counted, not guessed: over every plan the test suite
/// optimizes (4 213 with the join-back collapse and the DISTINCT moves
/// among the rules, among them the planner unit tests,
/// `tests/optimizer_equivalence.rs` and the benchmark statements of
/// `tests/plan_shapes.rs`) a third round changed none.
/// The second is needed
/// when round one pushes a filter into a join side that already carries
/// one and the two then merge (67 plans, all randomized ones of
/// `equivalence_props`; none of the benchmark's statements): see
/// `two_rule_rounds_reach_a_fixpoint`.
const PASSES: usize = 2;

/// Regions with more relations than this keep their original join order
/// (greedy reordering is quadratic; this is far beyond any plan the
/// rewriter emits).
const MAX_REORDER_RELATIONS: usize = 16;

/// Optimize a bound plan without table statistics (join reordering then
/// falls back to connectivity-only heuristics).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    optimize_with(plan, &UnknownCardinality)
}

/// Optimize a bound plan, feeding cost-based decisions from `est`.
///
/// In debug and test builds every optimizer phase is re-checked by the
/// static plan verifier ([`perm_algebra::verify`]) and a violation
/// panics, naming the responsible phase; release builds skip the checks
/// unless they opt in through [`optimize_verified`].
pub fn optimize_with(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> LogicalPlan {
    if cfg!(debug_assertions) {
        let mut verifier = verifying_observer(plan.schema().clone());
        match optimize_observed(plan, est, &mut verifier, true) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    } else {
        let mut noop = |_: &'static str, _: &LogicalPlan| Ok(());
        match optimize_observed(plan, est, &mut noop, false) {
            Ok(p) => p,
            // The no-op observer never fails.
            Err(e) => panic!("{e}"),
        }
    }
}

/// Optimize a bound plan and run the static plan verifier after every
/// phase regardless of build profile, returning (instead of panicking on)
/// the first violation. This is the entry point behind
/// `SessionOptions::verify_plans` and `EXPLAIN VERIFY`.
pub fn optimize_verified(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> Result<LogicalPlan> {
    let mut verifier = verifying_observer(plan.schema().clone());
    optimize_observed(plan, est, &mut verifier, true)
}

/// The names of the logical optimizer's phases, in execution order. Used
/// by the verifying observer and the `EXPLAIN VERIFY` report.
pub const LOGICAL_PHASES: &[&str] = &[
    "boundary-elimination",
    "rule-rewrites",
    "column-pruning",
    "join-reordering",
    "cleanup-rewrites",
];

/// An observer that re-verifies the plan after each phase: internal
/// consistency plus preservation of the original output schema.
fn verifying_observer(original: Schema) -> impl FnMut(&'static str, &LogicalPlan) -> Result<()> {
    move |phase, plan| {
        perm_algebra::verify::verify_logical(plan, phase)?;
        perm_algebra::verify::verify_schema_preserved(&original, plan, phase)
    }
}

/// The optimizer pipeline with a phase observer: `observe(phase, plan)`
/// runs after each named phase and aborts optimization by returning an
/// error (the verifying observer does; the no-op observer never does).
/// With `certify`, the rule rounds re-prove every DISTINCT they move and
/// every join-back they collapse with the verifier's certificates and fail
/// on the first refuted one.
fn optimize_observed(
    plan: LogicalPlan,
    est: &dyn CardinalityEstimator,
    observe: &mut dyn FnMut(&'static str, &LogicalPlan) -> Result<()>,
    certify: bool,
) -> Result<LogicalPlan> {
    let certify = |phase| certify.then_some(phase);
    let mut p = strip_boundaries(plan);
    observe("boundary-elimination", &p)?;
    for _ in 0..PASSES {
        p = rewrite_bottom_up(p, certify("rule-rewrites"))?;
    }
    observe("rule-rewrites", &p)?;
    let arity = p.arity();
    p = prune_columns(p);
    debug_assert_eq!(p.arity(), arity, "pruning must not change the root schema");
    observe("column-pruning", &p)?;
    p = reorder_joins(p, est);
    observe("join-reordering", &p)?;
    // One round: measured the same way as `PASSES`, a second cleanup
    // round changed none of the pruned plans.
    p = rewrite_bottom_up(p, certify("cleanup-rewrites"))?;
    observe("cleanup-rewrites", &p)?;
    Ok(p)
}

/// Remove SQL-PLE boundary markers (no-ops for execution).
fn strip_boundaries(plan: LogicalPlan) -> LogicalPlan {
    map_children(plan, &mut |p| match p {
        LogicalPlan::Boundary { input, .. } => *input,
        other => other,
    })
}

/// One round of the rule rewrites. `certify` names the phase when every
/// DISTINCT move and join-back collapse must first pass the verifier's
/// certificate; the first refuted move is the round's error (and is not
/// made).
fn rewrite_bottom_up(plan: LogicalPlan, certify: Option<&str>) -> Result<LogicalPlan> {
    let mut refuted = None;
    let plan = map_children(plan, &mut |p| {
        let p = collapse_join_back(p, certify, &mut refuted);
        let p = merge_projects(push_filter(merge_filters(p)));
        push_distinct(p, certify, &mut refuted)
    });
    refuted.map_or(Ok(plan), Err)
}

/// `Join(Left, Aggregate{G, aggs, A}, A, ∧ᵢ #i ≡ G_i⁺)` →
/// `Aggregate{G, aggs, A, output: Witnesses}`: the aggregation rule's
/// join-back of an aggregate to its own input, in one pass over `A`
/// instead of evaluating `A` twice and hash-joining the copies. Each
/// group's rows are exactly the right-side rows its key matches (NULL-safe
/// equality is grouping equality), and a global aggregate over an empty
/// `A` keeps its one NULL-extended row, so the output is the join's, row
/// for row, for any deterministic `A`. The first node the rule round
/// visits above both copies, so no other rule has touched either; the
/// condition must be exactly the one [`LogicalPlan::join_back`] builds.
/// `certify` and `refuted` as in [`rewrite_bottom_up`].
fn collapse_join_back(
    plan: LogicalPlan,
    certify: Option<&str>,
    refuted: &mut Option<PermError>,
) -> LogicalPlan {
    let collapsible = match &plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinType::Left,
            condition: Some(condition),
            ..
        } => match &**left {
            LogicalPlan::Aggregate {
                input,
                group_by,
                output: AggOutput::Groups,
                ..
            } => input == right && *condition == join_back_condition(group_by, left.arity()),
            _ => false,
        },
        _ => false,
    };
    if !collapsible {
        return plan;
    }
    if let Some(pass) = certify {
        if let Err(e) = perm_algebra::verify::verify_join_back_collapse(&plan, pass) {
            refuted.get_or_insert(e);
            return plan;
        }
    }
    let LogicalPlan::Join { left, schema, .. } = plan else {
        unreachable!("checked above")
    };
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        ..
    } = *left
    else {
        unreachable!("checked above")
    };
    LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        schema,
        output: AggOutput::Witnesses,
    }
}

/// Rebuild the plan bottom-up, applying `f` at every node after its
/// children were processed.
fn map_children(plan: LogicalPlan, f: &mut impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    let rebuilt = map_children_once(plan, &mut |child| map_children(child, f));
    f(rebuilt)
}

/// `Filter(Filter(T, a), b)` → `Filter(T, b AND a)`.
fn merge_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::Filter {
                input: inner,
                predicate: inner_pred,
            } => LogicalPlan::Filter {
                input: inner,
                predicate: ScalarExpr::conjunction(vec![predicate, inner_pred]),
            },
            other => LogicalPlan::Filter {
                input: Box::new(other),
                predicate,
            },
        },
        other => other,
    }
}

/// Push a filter's conjuncts as close to the scans as safely possible.
fn push_filter(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return plan;
    };
    // Subquery predicates are never pushed (their evaluation cost profile
    // is unclear and pushing past joins changes how often they run).
    if predicate.contains_subquery() {
        return LogicalPlan::Filter { input, predicate };
    }
    match *input {
        // Filter over Project: substitute and push when every output column
        // referenced is a plain column or literal.
        LogicalPlan::Project {
            input: pin,
            exprs,
            schema,
        } => {
            let substitutable = predicate
                .referenced_columns()
                .iter()
                .all(|&i| matches!(exprs[i], ScalarExpr::Column(_) | ScalarExpr::Literal(_)));
            if substitutable {
                let pushed = predicate.transform(&|e| match e {
                    ScalarExpr::Column(i) => exprs[i].clone(),
                    other => other,
                });
                LogicalPlan::Project {
                    input: Box::new(push_filter(LogicalPlan::Filter {
                        input: pin,
                        predicate: pushed,
                    })),
                    exprs,
                    schema,
                }
            } else {
                LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Project {
                        input: pin,
                        exprs,
                        schema,
                    }),
                    predicate,
                }
            }
        }
        // Filter over inner/cross join: route side-local conjuncts.
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JoinType::Inner | JoinType::Cross),
            condition,
            schema,
        } => {
            let nl = left.arity();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for c in predicate.split_conjunction() {
                let cols = c.referenced_columns();
                if cols.iter().all(|&i| i < nl) {
                    to_left.push(c.clone());
                } else if cols.iter().all(|&i| i >= nl) {
                    to_right.push(c.map_columns(&|i| i - nl));
                } else {
                    keep.push(c.clone());
                }
            }
            let left = if to_left.is_empty() {
                left
            } else {
                Box::new(push_filter(LogicalPlan::Filter {
                    input: left,
                    predicate: ScalarExpr::conjunction(to_left),
                }))
            };
            let right = if to_right.is_empty() {
                right
            } else {
                Box::new(push_filter(LogicalPlan::Filter {
                    input: right,
                    predicate: ScalarExpr::conjunction(to_right),
                }))
            };
            let join = LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                schema,
            };
            if keep.is_empty() {
                join
            } else {
                LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: ScalarExpr::conjunction(keep),
                }
            }
        }
        // Filter over LEFT join. A null-rejecting conjunct on the nullable
        // (right) side can never accept a null-extended row, so the outer
        // join degenerates to an inner join — demote and re-push, which
        // unlocks pushdown into both sides. Otherwise conjuncts touching
        // only the preserved (left) side commute with the join and push
        // below it.
        LogicalPlan::Join {
            left,
            right,
            kind: JoinType::Left,
            condition,
            schema,
        } => {
            let nl = left.arity();
            let demote = predicate
                .split_conjunction()
                .iter()
                .any(|c| rejects_all_null(c, &|i| i >= nl));
            if demote {
                // Cross-check the demotion certificate with the verifier's
                // independent three-valued analysis: the whole predicate
                // must be unable to hold on a null-extended row.
                debug_assert!(
                    perm_algebra::verify::cannot_hold_on_null(&predicate, &|i| i >= nl),
                    "plan verifier [rule-rewrites]: LEFT→INNER demotion without a \
                     null-rejecting predicate: {predicate}"
                );
                let join = LogicalPlan::join(*left, *right, JoinType::Inner, condition)
                    .expect("LEFT join carries a condition");
                return push_filter(LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate,
                });
            }
            let mut to_left = Vec::new();
            let mut keep = Vec::new();
            for c in predicate.split_conjunction() {
                if c.referenced_columns().iter().all(|&i| i < nl) {
                    to_left.push(c.clone());
                } else {
                    keep.push(c.clone());
                }
            }
            let left = if to_left.is_empty() {
                left
            } else {
                Box::new(push_filter(LogicalPlan::Filter {
                    input: left,
                    predicate: ScalarExpr::conjunction(to_left),
                }))
            };
            let join = LogicalPlan::Join {
                left,
                right,
                kind: JoinType::Left,
                condition,
                schema,
            };
            if keep.is_empty() {
                join
            } else {
                LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: ScalarExpr::conjunction(keep),
                }
            }
        }
        // Filter over union: apply to both branches (positions agree).
        LogicalPlan::SetOp {
            op: SetOpType::Union,
            all,
            left,
            right,
            schema,
        } => LogicalPlan::SetOp {
            op: SetOpType::Union,
            all,
            left: Box::new(push_filter(LogicalPlan::Filter {
                input: left,
                predicate: predicate.clone(),
            })),
            right: Box::new(push_filter(LogicalPlan::Filter {
                input: right,
                predicate,
            })),
            schema,
        },
        // Filter through DISTINCT: a deterministic per-row predicate
        // commutes with duplicate elimination, and filtering first
        // shrinks the dedup hash table (the provenance rewrite of a
        // filtered UNION view is exactly this shape).
        LogicalPlan::Distinct { input: din } => LogicalPlan::Distinct {
            input: Box::new(push_filter(LogicalPlan::Filter {
                input: din,
                predicate,
            })),
        },
        agg @ LogicalPlan::Aggregate { .. } => push_below_aggregate(agg, predicate),
        // Filter past sort (sort doesn't change values).
        LogicalPlan::Sort { input: sin, keys } => LogicalPlan::Sort {
            input: Box::new(push_filter(LogicalPlan::Filter {
                input: sin,
                predicate,
            })),
            keys,
        },
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// `Filter(Aggregate)`: a conjunct on group columns only passes or fails
/// whole groups, so it filters the aggregate's input instead, with the
/// group expressions substituted. Conjuncts on aggregates or witness
/// columns stay above. Debug builds re-prove each move with the
/// verifier's certificate ([`perm_algebra::verify::verify_aggregate_pushdown`]).
fn push_below_aggregate(aggregate: LogicalPlan, predicate: ScalarExpr) -> LogicalPlan {
    let LogicalPlan::Aggregate { group_by, .. } = &aggregate else {
        unreachable!("called on an aggregate")
    };
    let (down, keep): (Vec<ScalarExpr>, Vec<ScalarExpr>) = predicate
        .split_conjunction()
        .into_iter()
        .cloned()
        .partition(|c| {
            let cols = c.referenced_columns();
            !cols.is_empty()
                && cols
                    .iter()
                    .all(|&i| i < group_by.len() && !group_by[i].contains_subquery())
        });
    if down.is_empty() {
        return LogicalPlan::Filter {
            input: Box::new(aggregate),
            predicate,
        };
    }
    let down = ScalarExpr::conjunction(down);
    if cfg!(debug_assertions) {
        if let Err(e) =
            perm_algebra::verify::verify_aggregate_pushdown(&aggregate, &down, "rule-rewrites")
        {
            panic!("{e}");
        }
    }
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        schema,
        output,
    } = aggregate
    else {
        unreachable!("matched above")
    };
    let pushed = down.transform(&|e| match e {
        ScalarExpr::Column(i) => group_by[i].clone(),
        other => other,
    });
    let aggregate = LogicalPlan::Aggregate {
        input: Box::new(push_filter(LogicalPlan::Filter {
            input,
            predicate: pushed,
        })),
        group_by,
        aggs,
        schema,
        output,
    };
    if keep.is_empty() {
        aggregate
    } else {
        LogicalPlan::Filter {
            input: Box::new(aggregate),
            predicate: ScalarExpr::conjunction(keep),
        }
    }
}

/// True if `expr` is guaranteed to evaluate to NULL whenever every column
/// selected by `target` is NULL, *and* references at least one such
/// column ("NULL-strict in the target columns"). Conservative: only forms
/// with guaranteed strictness qualify.
fn strict_in(expr: &ScalarExpr, target: &impl Fn(usize) -> bool) -> bool {
    match expr {
        ScalarExpr::Column(i) => target(*i),
        // Arithmetic, concatenation and comparisons propagate NULL.
        ScalarExpr::Binary { op, left, right } => {
            !matches!(op, BinOp::And | BinOp::Or)
                && !matches!(op, BinOp::NotDistinctFrom | BinOp::DistinctFrom)
                && (strict_in(left, target) || strict_in(right, target))
        }
        ScalarExpr::Unary {
            op: UnOp::Neg | UnOp::Not,
            expr,
        } => strict_in(expr, target),
        ScalarExpr::Cast { expr, .. } => strict_in(expr, target),
        _ => false,
    }
}

/// True if `pred` can never evaluate to TRUE when every column selected by
/// `target` is NULL — i.e. it rejects the null-extended rows an outer join
/// fabricates. Used to demote LEFT joins to INNER.
fn rejects_all_null(pred: &ScalarExpr, target: &impl Fn(usize) -> bool) -> bool {
    match pred {
        // A comparison with a NULL-strict operand evaluates to NULL.
        ScalarExpr::Binary { op, left, right } if op.is_comparison() => {
            !matches!(op, BinOp::NotDistinctFrom | BinOp::DistinctFrom)
                && (strict_in(left, target) || strict_in(right, target))
        }
        // `x IS NOT NULL` on a strict expression is FALSE on the null row.
        ScalarExpr::IsNull {
            expr,
            negated: true,
        } => strict_in(expr, target),
        // `x [NOT] LIKE p` with strict x (or strict pattern) is NULL.
        ScalarExpr::Like { expr, pattern, .. } => {
            strict_in(expr, target) || strict_in(pattern, target)
        }
        // `x [NOT] IN (…)` with strict x is NULL (no list element matches
        // NULL under SQL equality, and NOT of NULL stays NULL).
        ScalarExpr::InList { expr, .. } => strict_in(expr, target),
        _ => false,
    }
}

/// `Project(Project(T, inner), outer)` → one Project, when safe.
fn merge_projects(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Project {
        input,
        exprs,
        schema,
    } = plan
    else {
        return plan;
    };
    let LogicalPlan::Project {
        input: inner_input,
        exprs: inner_exprs,
        schema: inner_schema,
    } = *input
    else {
        return LogicalPlan::Project {
            input,
            exprs,
            schema,
        };
    };
    // Safe when inner expressions are cheap (columns/literals), or each
    // inner column is referenced at most once and contains no subquery.
    let cheap = inner_exprs
        .iter()
        .all(|e| matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_)));
    let mergeable = cheap || {
        let mut counts = vec![0usize; inner_exprs.len()];
        for e in &exprs {
            e.for_each_column(&mut |i| counts[i] += 1);
        }
        counts
            .iter()
            .zip(&inner_exprs)
            .all(|(&c, e)| c <= 1 && !e.contains_subquery())
    };
    if !mergeable {
        return LogicalPlan::Project {
            input: Box::new(LogicalPlan::Project {
                input: inner_input,
                exprs: inner_exprs,
                schema: inner_schema,
            }),
            exprs,
            schema,
        };
    }
    let merged: Vec<ScalarExpr> = exprs
        .iter()
        .map(|e| {
            e.transform(&|x| match x {
                ScalarExpr::Column(i) => inner_exprs[i].clone(),
                other => other,
            })
        })
        .collect();
    LogicalPlan::Project {
        input: inner_input,
        exprs: merged,
        schema,
    }
}

/// Move a DISTINCT below a disjoint UNION ALL, below an injective
/// projection, or into a DISTINCT it sits on — recursively, so a padded
/// union ends up de-duplicating its base rows. `certify` and `refuted` as
/// in [`rewrite_bottom_up`].
fn push_distinct(
    plan: LogicalPlan,
    certify: Option<&str>,
    refuted: &mut Option<PermError>,
) -> LogicalPlan {
    let LogicalPlan::Distinct { input } = plan else {
        return plan;
    };
    let movable = match &*input {
        LogicalPlan::Distinct { .. } => true,
        LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: true,
            left,
            right,
            ..
        } => disjoint_branches(left, right),
        LogicalPlan::Project { input, exprs, .. } => covers_input(exprs, input.arity()),
        _ => false,
    };
    if !movable {
        return LogicalPlan::Distinct { input };
    }
    if let Some(pass) = certify {
        if let Err(e) = perm_algebra::verify::verify_distinct_pushdown(&input, pass) {
            refuted.get_or_insert(e);
            return LogicalPlan::Distinct { input };
        }
    }
    let mut below = |input| {
        Box::new(push_distinct(
            LogicalPlan::Distinct { input },
            certify,
            refuted,
        ))
    };
    match *input {
        inner @ LogicalPlan::Distinct { .. } => inner,
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => LogicalPlan::SetOp {
            op,
            all,
            left: below(left),
            right: below(right),
            schema,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: below(input),
            exprs,
            schema,
        },
        other => unreachable!("{} is not movable", other.node_name()),
    }
}

/// True if no row of `left` can equal a row of `right`: at some position
/// one branch always holds NULL and the other never does.
fn disjoint_branches(left: &LogicalPlan, right: &LogicalPlan) -> bool {
    (0..left.arity()).any(|k| {
        matches!(
            (null_at(left, k), null_at(right, k)),
            (Some(true), Some(false)) | (Some(false), Some(true))
        )
    })
}

/// Whether output slot `k` of `plan` is NULL on every row (`Some(true)`:
/// a NULL literal) or on none (`Some(false)`: a non-null literal or a
/// `NOT NULL` base column), traced down through projections, filters,
/// duplicate elimination, sorts, limits and the sides of joins that are
/// not null-extended. `None` when neither is provable — an aggregate, a
/// set operation, an outer join's null-extended side, a computed
/// expression.
fn null_at(plan: &LogicalPlan, k: usize) -> Option<bool> {
    match plan {
        LogicalPlan::Scan { schema, .. } => (!schema.column(k).nullable).then_some(false),
        LogicalPlan::Project { input, exprs, .. } => match &exprs[k] {
            ScalarExpr::Literal(v) => Some(v.is_null()),
            ScalarExpr::Column(c) => null_at(input, *c),
            _ => None,
        },
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Boundary { input, .. } => null_at(input, k),
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            let nl = left.arity();
            match kind {
                JoinType::Inner | JoinType::Cross if k >= nl => null_at(right, k - nl),
                JoinType::Full => None,
                // Only FULL joins null-extend the left side.
                _ if k < nl => null_at(left, k),
                _ => None,
            }
        }
        LogicalPlan::Values { .. } | LogicalPlan::Aggregate { .. } | LogicalPlan::SetOp { .. } => {
            None
        }
    }
}

/// True if `exprs` are bare columns and constants whose columns cover
/// every position of an `arity`-wide input: the projection is then
/// injective, so it commutes with duplicate elimination.
fn covers_input(exprs: &[ScalarExpr], arity: usize) -> bool {
    let mut covered = vec![false; arity];
    let bare = exprs.iter().all(|e| match e {
        ScalarExpr::Column(i) => {
            covered[*i] = true;
            true
        }
        ScalarExpr::Literal(_) => true,
        _ => false,
    });
    bare && covered.into_iter().all(|c| c)
}

// ----------------------------------------------------------------------
// Column pruning
// ----------------------------------------------------------------------

/// Where each *original* output position of a pruned subtree lives in the
/// rebuilt one (`None`: dropped — no ancestor asked for it). Many-to-one
/// once a slot-only projection dissolved: `mid` and `prov_messages_mid`
/// both point at the one slot the scan produces.
type SlotMap = Vec<Option<usize>>;

/// The new position of original position `i` (which must have been kept).
fn slot(map: &[Option<usize>], i: usize) -> usize {
    map[i].expect("pruned plan kept a referenced column")
}

/// The map of a rebuilt node that outputs exactly `kept`, in that order.
fn onto(arity: usize, kept: &[usize]) -> SlotMap {
    let mut map = vec![None; arity];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = Some(new);
    }
    map
}

/// The map of a node that kept its layout.
fn identity(arity: usize) -> SlotMap {
    (0..arity).map(Some).collect()
}

/// Sorted, deduplicated positions: `extra` plus the columns `exprs` read.
fn union_refs<'a>(extra: &[usize], exprs: impl IntoIterator<Item = &'a ScalarExpr>) -> Vec<usize> {
    let mut out: Vec<usize> = extra.to_vec();
    for e in exprs {
        e.for_each_column(&mut |i| out.push(i));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Drop every column no ancestor references, and carry every column that
/// is referenced *once*. The provenance rewrites duplicate whole
/// base-relation schemas into provenance attributes (`R+ = Π_{R, R→P(R)}(R)`
/// at every leaf); a query that selects a handful of them would drag every
/// other column, and a second copy of the ones it does select, through
/// every join. This pass pushes the set of *required* output positions
/// top-down, rebuilds each operator over only the slots it must produce,
/// and lets slot-only projections dissolve into their input on the way
/// (see [`prune`]), so duplicates fan out again only where an exact layout
/// is owed: here at the root, and under width-rigid operators.
///
/// The root keeps its full schema (positions, names and types), so the
/// plan's output is unchanged.
///
/// A sublink is pruned through like any operand: its `outer_refs` are the
/// slots it needs, remapped with the rest of its node's expressions; its
/// body is left as it is.
fn prune_columns(plan: LogicalPlan) -> LogicalPlan {
    let schema = plan.schema().clone();
    let all: Vec<usize> = (0..schema.len()).collect();
    prune_to_layout(plan, &all, schema)
}

/// Prune inside `plan`, then hand back exactly the original positions
/// `required`, in that order, under `schema` — the single place a
/// many-to-one [`SlotMap`] turns back into columns. Used for the root
/// (through [`prune_columns`]) and for the inputs of width-rigid
/// operators. The projection is omitted when the pruned plan already has
/// that layout.
fn prune_to_layout(plan: LogicalPlan, required: &[usize], schema: Schema) -> LogicalPlan {
    let (plan, map) = prune(plan, required);
    let in_place = required.iter().enumerate().all(|(k, &i)| map[i] == Some(k));
    if in_place && *plan.schema() == schema {
        return plan;
    }
    LogicalPlan::Project {
        exprs: required
            .iter()
            .map(|&i| ScalarExpr::Column(slot(&map, i)))
            .collect(),
        input: Box::new(plan),
        schema,
    }
}

/// Rebuild `plan` so that every original position in `required` (sorted,
/// distinct) is available, and return the new plan with the [`SlotMap`]
/// from original to new positions. The map is defined at least on
/// `required`; two positions may share a slot, and the rebuilt plan may
/// output slots beyond those asked for (a filter-only column, a join key).
///
/// A projection whose required expressions are all bare column references
/// is *transparent*: it is not rebuilt, its positions simply point at its
/// input's slots (narrowed by a strictly increasing projection when the
/// input produces slots nobody above needs). Parents remap their own
/// expressions through the map, so `Project(Scan, [#0,#1,#2,#0,#1,#2])`
/// under a join leaves a bare scan behind. This is sound under outer
/// joins too: a column reference over a null-extended row is NULL whether
/// it is evaluated below the join or above it — which is not true of a
/// literal or a computed expression, so those projections stay.
fn prune(plan: LogicalPlan, required: &[usize]) -> (LogicalPlan, SlotMap) {
    let arity = plan.arity();
    match plan {
        LogicalPlan::Scan { .. } => {
            if required.len() == arity {
                (plan, identity(arity))
            } else {
                (
                    LogicalPlan::project_positions(plan, required),
                    onto(arity, required),
                )
            }
        }
        LogicalPlan::Values { rows, schema } => {
            let rows = rows
                .into_iter()
                .map(|r| {
                    required
                        .iter()
                        .map(|&i| r[i].clone())
                        .collect::<Vec<ScalarExpr>>()
                })
                .collect();
            let schema = schema.project(required);
            (LogicalPlan::Values { rows, schema }, onto(arity, required))
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let child_req = union_refs(&[], required.iter().map(|&i| &exprs[i]));
            let (child, child_map) = prune(*input, &child_req);
            let slots: Option<Vec<usize>> = required
                .iter()
                .map(|&i| match exprs[i] {
                    ScalarExpr::Column(c) => Some(slot(&child_map, c)),
                    _ => None,
                })
                .collect();
            if let Some(slots) = slots {
                // Transparent: keep only the narrowing, never the fan-out.
                let mut kept = slots.clone();
                kept.sort_unstable();
                kept.dedup();
                let child = if kept.len() < child.arity() {
                    LogicalPlan::project_positions(child, &kept)
                } else {
                    child
                };
                let mut map = vec![None; arity];
                for (&i, s) in required.iter().zip(slots) {
                    map[i] = kept.binary_search(&s).ok();
                }
                return (child, map);
            }
            let exprs = required
                .iter()
                .map(|&i| exprs[i].map_columns(&|c| slot(&child_map, c)))
                .collect();
            (
                LogicalPlan::Project {
                    input: Box::new(child),
                    exprs,
                    schema: schema.project(required),
                },
                onto(arity, required),
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let needed = union_refs(required, [&predicate]);
            let (child, map) = prune(*input, &needed);
            let predicate = predicate.map_columns(&|i| slot(&map, i));
            (
                LogicalPlan::Filter {
                    input: Box::new(child),
                    predicate,
                },
                map,
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let needed = union_refs(required, keys.iter().map(|k| &k.expr));
            let (child, map) = prune(*input, &needed);
            let keys = keys
                .into_iter()
                .map(|k| perm_algebra::plan::SortKey {
                    expr: k.expr.map_columns(&|i| slot(&map, i)),
                    desc: k.desc,
                })
                .collect();
            (
                LogicalPlan::Sort {
                    input: Box::new(child),
                    keys,
                },
                map,
            )
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let (child, map) = prune(*input, required);
            (
                LogicalPlan::Limit {
                    input: Box::new(child),
                    limit,
                    offset,
                },
                map,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            schema: _,
        } => {
            let nl = left.arity();
            let needed = union_refs(required, condition.iter());
            let split = needed.partition_point(|&i| i < nl);
            let right_req: Vec<usize> = needed[split..].iter().map(|&i| i - nl).collect();
            let (l, mut map) = prune(*left, &needed[..split]);
            let (r, right_map) = prune(*right, &right_req);
            // Right-side slots follow the (new) left width; Semi/Anti
            // joins see them in the condition but do not output them.
            let nl_new = l.arity();
            map.extend(right_map.iter().map(|s| s.map(|s| nl_new + s)));
            let condition = condition.map(|c| c.map_columns(&|i| slot(&map, i)));
            map.truncate(arity);
            let join = LogicalPlan::join(l, r, kind, condition).expect("pruned join stays valid");
            (join, map)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
            output,
        } => {
            // Group columns define the groups — all stay. Aggregates stay
            // only if required; so do witness columns, which pass the
            // (pruned) input row through whole.
            let g = group_by.len();
            let width = g + aggs.len();
            let kept_aggs: Vec<usize> = (0..aggs.len())
                .filter(|&j| required.binary_search(&(g + j)).is_ok())
                .collect();
            let kept_out: Vec<usize> = (0..g).chain(kept_aggs.iter().map(|&j| g + j)).collect();
            let witnesses: Vec<usize> = required
                .iter()
                .filter(|&&i| i >= width)
                .map(|&i| i - width)
                .collect();
            let child_req = union_refs(
                &witnesses,
                group_by
                    .iter()
                    .chain(kept_aggs.iter().filter_map(|&j| aggs[j].arg.as_ref())),
            );
            let (child, map) = prune(*input, &child_req);
            let mut out_map = onto(arity, &kept_out);
            let mut out_schema = schema.project(&kept_out);
            if output == AggOutput::Witnesses {
                for &w in &witnesses {
                    out_map[width + w] = Some(kept_out.len() + slot(&map, w));
                }
                out_schema = out_schema.join(&child.schema().nullable());
            }
            let group_by = group_by
                .iter()
                .map(|e| e.map_columns(&|i| slot(&map, i)))
                .collect();
            let aggs = kept_aggs
                .iter()
                .map(|&j| perm_algebra::expr::AggCall {
                    func: aggs[j].func,
                    arg: aggs[j]
                        .arg
                        .as_ref()
                        .map(|a| a.map_columns(&|i| slot(&map, i))),
                    distinct: aggs[j].distinct,
                })
                .collect();
            (
                LogicalPlan::Aggregate {
                    input: Box::new(child),
                    group_by,
                    aggs,
                    schema: out_schema,
                    output,
                },
                out_map,
            )
        }
        // The width-rigid operators keep their own layout and owe their
        // inputs one: DISTINCT and every set-semantics operation (and
        // INTERSECT/EXCEPT ALL) match whole rows, so dropping a column
        // changes the result. Only UNION ALL is column-wise prunable, and
        // its branches must still agree on one positional layout.
        LogicalPlan::Distinct { input } => (
            LogicalPlan::Distinct {
                input: Box::new(prune_columns(*input)),
            },
            identity(arity),
        ),
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            let every: Vec<usize> = (0..arity).collect();
            let kept = if op == SetOpType::Union && all {
                required
            } else {
                &every[..]
            };
            let side = |side: LogicalPlan| {
                let schema = side.schema().project(kept);
                Box::new(prune_to_layout(side, kept, schema))
            };
            (
                LogicalPlan::SetOp {
                    op,
                    all,
                    left: side(*left),
                    right: side(*right),
                    schema: schema.project(kept),
                },
                onto(arity, kept),
            )
        }
        LogicalPlan::Boundary { input, name, kind } => (
            LogicalPlan::Boundary {
                input: Box::new(prune_columns(*input)),
                name,
                kind,
            },
            identity(arity),
        ),
    }
}

// ----------------------------------------------------------------------
// Cost-based join reordering
// ----------------------------------------------------------------------

/// One flattened join region: the leaf relations of a maximal
/// inner/cross-join subtree plus every join conjunct, in coordinates over
/// the concatenation of the leaves in original order.
struct JoinRegion {
    leaves: Vec<LogicalPlan>,
    /// Start offset of each leaf in the original concatenation.
    offsets: Vec<usize>,
    conjuncts: Vec<ScalarExpr>,
}

/// Reorder commutable join regions bottom-up through the plan.
fn reorder_joins(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            kind: JoinType::Inner | JoinType::Cross,
            ..
        } => reorder_region(plan, est),
        other => map_children_once(other, &mut |p| reorder_joins(p, est)),
    }
}

/// Rebuild a node with each direct child mapped through `f` (no recursion
/// beyond one level — `f` recurses itself).
fn map_children_once(
    plan: LogicalPlan,
    f: &mut impl FnMut(LogicalPlan) -> LogicalPlan,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => plan,
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            condition,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
            output,
        } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
            schema,
            output,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(f(*input)),
        },
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => LogicalPlan::SetOp {
            op,
            all,
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(f(*input)),
            limit,
            offset,
        },
        LogicalPlan::Boundary { input, name, kind } => LogicalPlan::Boundary {
            input: Box::new(f(*input)),
            name,
            kind,
        },
    }
}

/// Flatten a maximal inner/cross region rooted at `plan`.
fn flatten_region(plan: LogicalPlan, offset: usize, region: &mut JoinRegion) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinType::Inner | JoinType::Cross,
            condition,
            ..
        } => {
            let nl = left.arity();
            flatten_region(*left, offset, region);
            flatten_region(*right, offset + nl, region);
            if let Some(c) = condition {
                for conj in c.split_conjunction() {
                    region.conjuncts.push(conj.map_columns(&|i| i + offset));
                }
            }
        }
        leaf => {
            region.offsets.push(offset);
            region.leaves.push(leaf);
        }
    }
}

/// Reorder one region: flatten, pick a greedy smallest-intermediate-first
/// order, rebuild a left-deep tree with each conjunct at the lowest join
/// that binds it, and restore the original column order with a
/// compensating projection.
fn reorder_region(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> LogicalPlan {
    let out_schema = plan.schema().clone();
    let total = plan.arity();
    let mut region = JoinRegion {
        leaves: Vec::new(),
        offsets: Vec::new(),
        conjuncts: Vec::new(),
    };
    flatten_region(plan, 0, &mut region);

    // Reorder the leaves *internally* first (a leaf may contain its own
    // region below a non-commutable operator).
    let leaves: Vec<LogicalPlan> = region
        .leaves
        .into_iter()
        .map(|l| reorder_joins(l, est))
        .collect();
    let offsets = region.offsets;
    let conjuncts = region.conjuncts;
    let n = leaves.len();

    let owner = |col: usize| -> usize {
        match offsets.binary_search(&col) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };

    let order: Vec<usize> = if !(3..=MAX_REORDER_RELATIONS).contains(&n) {
        (0..n).collect()
    } else {
        choose_order(&leaves, &offsets, &conjuncts, &owner, est)
    };

    // Rebuild. New offsets follow the chosen order.
    let mut new_offsets = vec![0usize; n];
    {
        let mut off = 0;
        for &leaf in &order {
            new_offsets[leaf] = off;
            off += leaves[leaf].arity();
        }
    }
    // old global position -> new global position.
    let remap = |old: usize| -> usize {
        let leaf = owner(old);
        new_offsets[leaf] + (old - offsets[leaf])
    };

    // Assign each conjunct to the join step that first binds all its
    // leaves; conjuncts referencing no column at all (constants) go on the
    // first join.
    let mut step_conds: Vec<Vec<ScalarExpr>> = vec![Vec::new(); n];
    for c in &conjuncts {
        let step = c
            .referenced_columns()
            .iter()
            .map(|&col| order.iter().position(|&l| l == owner(col)).expect("owned"))
            .max()
            .unwrap_or(1)
            .max(1);
        step_conds[step].push(c.map_columns(&remap));
    }

    let first = order[0];
    let mut leaves_opt: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
    let mut tree = leaves_opt[first].take().expect("first leaf present");
    for (step, &leaf) in order.iter().enumerate().skip(1) {
        let right = leaves_opt[leaf].take().expect("each leaf joined once");
        let conds = std::mem::take(&mut step_conds[step]);
        let (kind, condition) = if conds.is_empty() {
            (JoinType::Cross, None)
        } else {
            (JoinType::Inner, Some(ScalarExpr::conjunction(conds)))
        };
        tree = LogicalPlan::join(tree, right, kind, condition).expect("rebuilt join is valid");
    }

    // Compensating projection: restore the original column order (a
    // no-op project when the order is unchanged; the cleanup passes merge
    // it into whatever sits above).
    if order.iter().copied().eq(0..n) {
        return tree;
    }
    let exprs: Vec<ScalarExpr> = (0..total).map(|i| ScalarExpr::Column(remap(i))).collect();
    LogicalPlan::Project {
        input: Box::new(tree),
        exprs,
        schema: out_schema,
    }
}

/// Greedy join order: start from the smallest-cardinality leaf, then
/// repeatedly add the connected leaf whose join yields the smallest
/// estimated intermediate (falling back to the smallest unconnected leaf
/// when nothing is connected). Ties keep the original order, so the pass
/// is a no-op when statistics offer no signal.
fn choose_order(
    leaves: &[LogicalPlan],
    offsets: &[usize],
    conjuncts: &[ScalarExpr],
    owner: &impl Fn(usize) -> usize,
    est: &dyn CardinalityEstimator,
) -> Vec<usize> {
    let n = leaves.len();
    let rows: Vec<f64> = leaves.iter().map(|l| estimate_rows(l, est)).collect();

    // Which leaves each conjunct touches.
    let conj_leaves: Vec<Vec<usize>> = conjuncts
        .iter()
        .map(|c| {
            let mut ls: Vec<usize> = c.referenced_columns().iter().map(|&i| owner(i)).collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        })
        .collect();

    /// Selectivity of `conjuncts[k]` once all its leaves are joined.
    fn conj_sel(
        c: &ScalarExpr,
        leaves: &[LogicalPlan],
        offsets: &[usize],
        owner: &impl Fn(usize) -> usize,
        est: &dyn CardinalityEstimator,
    ) -> f64 {
        if let ScalarExpr::Binary {
            op: BinOp::Eq | BinOp::NotDistinctFrom,
            left,
            right,
        } = c
        {
            if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) {
                let da = perm_algebra::stats::estimate_rows(&leaves[owner(*a)], est);
                let db = perm_algebra::stats::estimate_rows(&leaves[owner(*b)], est);
                // Resolve through the `Project → Scan` chains column
                // pruning leaves behind, not just bare scans.
                let distinct = |col: usize| -> Option<f64> {
                    let leaf = owner(col);
                    perm_algebra::stats::column_distinct(&leaves[leaf], col - offsets[leaf], est)
                };
                return match (distinct(*a), distinct(*b)) {
                    (Some(x), Some(y)) => 1.0 / x.max(y).max(1.0),
                    (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
                    (None, None) => 1.0 / da.max(db).clamp(10.0, 1000.0),
                };
            }
            return 0.1;
        }
        0.5
    }

    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut in_set = vec![false; n];
    let mut used_conj = vec![false; conjuncts.len()];

    // Start: the smallest leaf (ties: original order).
    let mut start = 0;
    for i in 1..n {
        if rows[i] < rows[start] {
            start = i;
        }
    }
    chosen.push(start);
    in_set[start] = true;
    let mut cur_rows = rows[start];

    while chosen.len() < n {
        let mut best: Option<(bool, f64, usize)> = None; // (connected, est rows, leaf)
        for cand in 0..n {
            if in_set[cand] {
                continue;
            }
            // Selectivity of every conjunct newly bound by adding `cand`.
            let mut sel = 1.0f64;
            let mut connected = false;
            for (k, ls) in conj_leaves.iter().enumerate() {
                if used_conj[k] || !ls.contains(&cand) {
                    continue;
                }
                if ls.iter().all(|&l| l == cand || in_set[l]) {
                    connected = connected || ls.iter().any(|&l| l != cand);
                    sel *= conj_sel(&conjuncts[k], leaves, offsets, owner, est);
                }
            }
            let est_rows = (cur_rows * rows[cand] * sel).max(1.0);
            let better = match &best {
                None => true,
                Some((bc, br, _)) => match (connected, *bc) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => est_rows < *br,
                },
            };
            if better {
                best = Some((connected, est_rows, cand));
            }
        }
        let (_, est_rows, leaf) = best.expect("some leaf remains");
        for (k, ls) in conj_leaves.iter().enumerate() {
            if !used_conj[k] && ls.iter().all(|&l| l == leaf || in_set[l]) && ls.contains(&leaf) {
                used_conj[k] = true;
            }
        }
        chosen.push(leaf);
        in_set[leaf] = true;
        cur_rows = est_rows;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::expr::BinOp;
    use perm_algebra::plan_tree;
    use perm_types::{Column, DataType, Schema, Value};

    fn scan(name: &str, cols: usize) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(
                (0..cols)
                    .map(|i| Column::new(format!("c{i}"), DataType::Int).with_qualifier(name))
                    .collect(),
            ),
            provenance_cols: vec![],
        }
    }

    fn col_gt(i: usize, v: i64) -> ScalarExpr {
        ScalarExpr::binary(
            BinOp::Gt,
            ScalarExpr::Column(i),
            ScalarExpr::Literal(Value::Int(v)),
        )
    }

    #[test]
    fn boundaries_are_stripped() {
        let p = LogicalPlan::Boundary {
            input: Box::new(scan("t", 1)),
            name: "t".into(),
            kind: perm_algebra::plan::BoundaryKind::BaseRelation,
        };
        let o = optimize(p);
        assert!(matches!(o, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn adjacent_filters_merge() {
        let p = LogicalPlan::filter(
            LogicalPlan::filter(scan("t", 2), col_gt(0, 1)),
            col_gt(1, 2),
        );
        let o = optimize(p);
        let tree = plan_tree(&o);
        assert_eq!(tree.matches("Filter").count(), 1, "{tree}");
    }

    #[test]
    fn two_rule_rounds_reach_a_fixpoint() {
        // Round one pushes `#0 > 1` into the left side, on top of the
        // filter already there; round two merges the pair; a third round
        // has nothing left to do.
        let left = LogicalPlan::filter(scan("a", 2), col_gt(1, 5));
        let join = LogicalPlan::join(left, scan("b", 2), JoinType::Cross, None).unwrap();
        let p = LogicalPlan::filter(join, col_gt(0, 1));
        let round = |p| rewrite_bottom_up(p, Some("rule-rewrites")).unwrap();
        let one = round(p);
        let two = round(one.clone());
        assert_ne!(one, two, "{}", plan_tree(&one));
        assert_eq!(plan_tree(&two).matches("Filter").count(), 1);
        assert_eq!(round(two.clone()), two);
    }

    #[test]
    fn filter_pushes_into_join_sides() {
        let join = LogicalPlan::join(scan("a", 2), scan("b", 2), JoinType::Cross, None).unwrap();
        // c0 belongs to a, c2 (position 2) belongs to b.
        let p = LogicalPlan::filter(
            join,
            ScalarExpr::conjunction(vec![col_gt(0, 1), col_gt(2, 5)]),
        );
        let o = optimize(p);
        let tree = plan_tree(&o);
        // Both filters below the join now.
        let join_pos = tree.find("CrossJoin").unwrap();
        for f in ["(#0 > 1)", "(#0 > 5)"] {
            let fp = tree
                .find(f)
                .unwrap_or_else(|| panic!("{f} missing:\n{tree}"));
            assert!(fp > join_pos, "{tree}");
        }
    }

    #[test]
    fn join_spanning_conjunct_stays_above() {
        let join = LogicalPlan::join(scan("a", 1), scan("b", 1), JoinType::Cross, None).unwrap();
        let pred = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1));
        let o = optimize(LogicalPlan::filter(join, pred));
        let tree = plan_tree(&o);
        let filter_pos = tree.find("Filter").expect("filter kept");
        let join_pos = tree.find("CrossJoin").unwrap();
        assert!(filter_pos < join_pos, "{tree}");
    }

    #[test]
    fn null_rejecting_filter_demotes_left_join_to_inner() {
        // `#1 > 0` can never hold on a null-extended row, so the LEFT
        // join degenerates to INNER — and the filter then pushes into the
        // right side.
        let join = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let o = optimize(LogicalPlan::filter(join, col_gt(1, 0)));
        let tree = plan_tree(&o);
        assert!(!tree.contains("LeftJoin"), "demoted to inner:\n{tree}");
        let join_pos = tree.find("InnerJoin").unwrap();
        let filter_pos = tree.find("Filter").expect("filter pushed below");
        assert!(filter_pos > join_pos, "{tree}");
    }

    #[test]
    fn null_tolerant_filter_stays_above_left_join() {
        // `#1 IS NULL` accepts null-extended rows: no demotion, no move.
        let join = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let pred = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::Column(1)),
            negated: false,
        };
        let o = optimize(LogicalPlan::filter(join, pred));
        let tree = plan_tree(&o);
        let filter_pos = tree.find("Filter").expect("filter kept");
        let join_pos = tree.find("LeftJoin").expect("join kept outer");
        assert!(filter_pos < join_pos, "{tree}");
    }

    #[test]
    fn preserved_side_filter_pushes_below_left_join() {
        // A predicate on the preserved (left) side commutes with the
        // outer join even though the join stays LEFT.
        let join = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let o = optimize(LogicalPlan::filter(join, col_gt(0, 3)));
        let tree = plan_tree(&o);
        let join_pos = tree.find("LeftJoin").expect("join stays outer");
        let filter_pos = tree.find("Filter").expect("filter pushed");
        assert!(filter_pos > join_pos, "{tree}");
    }

    #[test]
    fn stacked_projections_merge() {
        let inner = LogicalPlan::project_positions(scan("t", 3), &[2, 0]);
        let outer = LogicalPlan::project_positions(inner, &[1]);
        let o = optimize(outer);
        match &o {
            LogicalPlan::Project { input, exprs, .. } => {
                assert!(matches!(**input, LogicalPlan::Scan { .. }));
                assert_eq!(exprs, &vec![ScalarExpr::Column(0)]);
            }
            other => panic!("expected merged project, got {other:?}"),
        }
    }

    #[test]
    fn filter_pushes_through_identity_projection() {
        let proj = LogicalPlan::project_positions(scan("t", 2), &[1, 0]);
        let o = optimize(LogicalPlan::filter(proj, col_gt(0, 7)));
        let tree = plan_tree(&o);
        let proj_pos = tree.find("Project").unwrap();
        let filter_pos = tree.find("Filter").unwrap();
        assert!(filter_pos > proj_pos, "{tree}");
        // The predicate was rewritten to the underlying column (#1).
        assert!(tree.contains("(#1 > 7)"), "{tree}");
    }

    /// Estimator with per-table row counts and one distinct count for
    /// every column (enough signal for the reorderer).
    struct TestStats(std::collections::HashMap<String, (f64, f64)>);

    impl TestStats {
        fn new(tables: &[(&str, f64, f64)]) -> TestStats {
            TestStats(
                tables
                    .iter()
                    .map(|(n, r, d)| (n.to_string(), (*r, *d)))
                    .collect(),
            )
        }
    }

    impl CardinalityEstimator for TestStats {
        fn table_rows(&self, table: &str) -> Option<f64> {
            self.0.get(table).map(|(r, _)| *r)
        }
        fn column_distinct(&self, table: &str, _column: usize) -> Option<f64> {
            self.0.get(table).map(|(_, d)| *d)
        }
    }

    #[test]
    fn join_reordering_starts_from_the_smallest_relation() {
        // (a ⋈ b) ⋈ c with |a| = |b| = 10000 and |c| = 10: the greedy
        // order starts at c and follows connectivity (c–b, then b–a).
        let ab = LogicalPlan::join(
            scan("a", 2),
            scan("b", 2),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2))),
        )
        .unwrap();
        let abc = LogicalPlan::join(
            ab,
            scan("c", 2),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(3), ScalarExpr::Column(4))),
        )
        .unwrap();
        let est = TestStats::new(&[
            ("a", 10_000.0, 5_000.0),
            ("b", 10_000.0, 5_000.0),
            ("c", 10.0, 10.0),
        ]);
        let o = optimize_with(abc, &est);
        let tree = plan_tree(&o);
        let pos = |t: &str| {
            tree.find(t)
                .unwrap_or_else(|| panic!("{t} missing:\n{tree}"))
        };
        assert!(
            pos("Scan(c)") < pos("Scan(b)") && pos("Scan(b)") < pos("Scan(a)"),
            "expected order c, b, a:\n{tree}"
        );
        // The compensating projection restores the original column order:
        // the output schema is unchanged.
        assert_eq!(o.arity(), 6, "{tree}");
        assert_eq!(o.schema().column(0).name, "c0");
        assert_eq!(o.schema().column(0).qualifier.as_deref(), Some("a"));
    }

    #[test]
    fn reordering_is_a_no_op_without_statistics() {
        let ab = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let abc = LogicalPlan::join(
            ab,
            scan("c", 1),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(2))),
        )
        .unwrap();
        let o = optimize(abc);
        let tree = plan_tree(&o);
        let pos = |t: &str| tree.find(t).unwrap();
        assert!(
            pos("Scan(a)") < pos("Scan(b)") && pos("Scan(b)") < pos("Scan(c)"),
            "ties keep the original order:\n{tree}"
        );
    }

    #[test]
    fn unreferenced_join_columns_are_pruned() {
        // Project(#0) over a ⋈ b: only the join keys and #0 survive below
        // the projection; b's payload columns disappear.
        let join = LogicalPlan::join(
            scan("a", 4),
            scan("b", 4),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(5))),
        )
        .unwrap();
        let p = LogicalPlan::project_positions(join, &[0]);
        let o = optimize(p);
        // Find the join and check its width: #0, #1 from a and #1 from b.
        fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(p, LogicalPlan::Join { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_join)
        }
        let join = find_join(&o).expect("join survives");
        assert_eq!(join.arity(), 3, "pruned join width:\n{}", plan_tree(&o));
        assert_eq!(o.arity(), 1, "output schema unchanged");
    }

    /// The rewriter's leaf, `R+ = Π_{R, R→P(R)}(R)`: every column of a
    /// two-column scan followed by its provenance copy.
    fn dup(name: &str) -> LogicalPlan {
        LogicalPlan::project_positions(scan(name, 2), &[0, 1, 0, 1])
    }

    /// `a` and `b` with matching and non-matching keys on both sides, and
    /// one whole row in common.
    fn dup_catalog() -> std::sync::Arc<perm_storage::Catalog> {
        let mut cat = perm_storage::Catalog::new();
        for (name, rows) in [
            ("a", [(1, 10), (2, 20), (2, 21), (3, 300)]),
            ("b", [(2, 200), (2, 201), (3, 300), (4, 400)]),
        ] {
            let mut t = perm_storage::Table::new(name, scan(name, 2).schema().clone());
            t.insert_all(
                rows.into_iter()
                    .map(|(k, v)| perm_types::Tuple::new(vec![Value::Int(k), Value::Int(v)])),
            )
            .unwrap();
            cat.create_table(t).unwrap();
        }
        std::sync::Arc::new(cat)
    }

    /// `plan` lowered and run over [`dup_catalog`].
    fn run_dup(plan: &LogicalPlan) -> Vec<perm_types::Tuple> {
        let cat = dup_catalog();
        let physical = crate::PhysicalPlanner::new(&cat).plan(plan);
        crate::Executor::new(cat).run_physical(&physical).unwrap()
    }

    /// Optimize `plan` and check the paper's contract on the way: same
    /// schema (order, names, types) and the same bag of rows as the
    /// unoptimized plan over [`dup_catalog`]. Returns the optimized tree.
    fn optimized_tree(plan: LogicalPlan) -> String {
        let optimized = optimize(plan.clone());
        assert_eq!(optimized.schema(), plan.schema());
        let bag = |p: &LogicalPlan| {
            let mut rows: Vec<String> = run_dup(p).iter().map(|t| t.to_string()).collect();
            rows.sort();
            assert!(!rows.is_empty(), "vacuous comparison");
            rows
        };
        assert_eq!(bag(&optimized), bag(&plan), "{}", plan_tree(&optimized));
        plan_tree(&optimized)
    }

    fn keyed_join(kind: JoinType) -> LogicalPlan {
        // Keyed on the *provenance copy* of a's key and b's own key.
        let on = ScalarExpr::eq(ScalarExpr::Column(2), ScalarExpr::Column(4));
        LogicalPlan::join(dup("a"), dup("b"), kind, Some(on)).unwrap()
    }

    /// `GROUP BY #0` with `count(*)` over `input`.
    fn count_by_first(input: LogicalPlan) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(input),
            group_by: vec![ScalarExpr::Column(0)],
            aggs: vec![perm_algebra::expr::AggCall {
                func: perm_algebra::expr::AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            schema: Schema::new(vec![
                Column::new("g", DataType::Int),
                Column::new("n", DataType::Int),
            ]),
            output: AggOutput::Groups,
        }
    }

    #[test]
    fn a_join_back_to_its_own_input_becomes_one_witness_aggregate() {
        // The provenance rewrite's join-back over a duplicated-leaf join,
        // with a filter on the group column (moves below the aggregate,
        // into the scans) and one on a witness column (stays above: it
        // must not shrink any group's count).
        let input = keyed_join(JoinType::Inner);
        let join = LogicalPlan::join_back(
            count_by_first(input.clone()),
            input,
            &[ScalarExpr::Column(0)],
        );
        let plan = LogicalPlan::filter(
            join,
            ScalarExpr::binary(BinOp::And, col_gt(0, 0), col_gt(7, 1)),
        );
        assert_eq!(
            optimized_tree(plan),
            "Project [#0, #1, #2, #3, #2, #3, #4, #5, #4, #5]\n\
             └── Filter (#5 > 1)\n    \
                 └── WitnessAggregate group=[#0] aggs=[count(*)]\n        \
                     └── InnerJoin on (#0 = #2)\n            \
                         ├── Filter (#0 > 0)\n            \
                         │   └── Scan(a)\n            \
                         └── Scan(b)\n"
        );
    }

    #[test]
    fn a_join_back_to_a_different_input_stays_a_join() {
        let input = keyed_join(JoinType::Inner);
        let other = LogicalPlan::filter(input.clone(), col_gt(1, 0));
        let join = LogicalPlan::join_back(count_by_first(input), other, &[ScalarExpr::Column(0)]);
        let tree = optimized_tree(join);
        assert!(tree.contains("LeftJoin"), "{tree}");
        assert!(!tree.contains("WitnessAggregate"), "{tree}");
    }

    #[test]
    fn duplicated_slots_under_an_inner_join_fan_out_at_the_root() {
        let tree = optimized_tree(keyed_join(JoinType::Inner));
        assert_eq!(
            tree,
            "Project [#0, #1, #0, #1, #2, #3, #2, #3]\n\
             └── InnerJoin on (#0 = #2)\n    \
                 ├── Scan(a)\n    \
                 └── Scan(b)\n"
        );
    }

    #[test]
    fn duplicated_slots_on_the_nullable_side_of_a_left_join_stay_null() {
        // a's key 1 has no partner: all four of b's positions are NULL in
        // that row whether the copy happens below the join or above it.
        let tree = optimized_tree(keyed_join(JoinType::Left));
        assert_eq!(
            tree,
            "Project [#0, #1, #0, #1, #2, #3, #2, #3]\n\
             └── LeftJoin on (#0 = #2)\n    \
                 ├── Scan(a)\n    \
                 └── Scan(b)\n"
        );
    }

    #[test]
    fn duplicated_slots_under_a_semi_join_need_only_the_key_on_the_right() {
        let tree = optimized_tree(keyed_join(JoinType::Semi));
        assert_eq!(
            tree,
            "Project [#0, #1, #0, #1]\n\
             └── SemiJoin on (#0 = #2)\n    \
                 ├── Scan(a)\n    \
                 └── Project [#0]\n        \
                     └── Scan(b)\n"
        );
    }

    #[test]
    fn duplicated_slots_under_an_aggregate_are_read_from_the_base_slot() {
        // GROUP BY a provenance copy, sum() over another: both resolve to
        // the scan's own slots and the leaf projections disappear.
        let p = LogicalPlan::Aggregate {
            input: Box::new(keyed_join(JoinType::Inner)),
            group_by: vec![ScalarExpr::Column(2)],
            aggs: vec![perm_algebra::expr::AggCall {
                func: perm_algebra::expr::AggFunc::Sum,
                arg: Some(ScalarExpr::Column(7)),
                distinct: false,
            }],
            schema: Schema::new(vec![
                Column::new("g", DataType::Int),
                Column::new("s", DataType::Int),
            ]),
            output: AggOutput::Groups,
        };
        let tree = optimized_tree(p);
        assert_eq!(
            tree,
            "Aggregate group=[#0] aggs=[sum(#2)]\n\
             └── InnerJoin on (#0 = #1)\n    \
                 ├── Project [#0]\n    \
                 │   └── Scan(a)\n    \
                 └── Scan(b)\n"
        );
    }

    #[test]
    fn sort_and_limit_on_a_provenance_column_order_by_the_base_slot() {
        let sorted = LogicalPlan::Sort {
            input: Box::new(keyed_join(JoinType::Inner)),
            keys: vec![
                perm_algebra::plan::SortKey {
                    expr: ScalarExpr::Column(7),
                    desc: true,
                },
                perm_algebra::plan::SortKey {
                    expr: ScalarExpr::Column(3),
                    desc: false,
                },
            ],
        };
        let p = LogicalPlan::Limit {
            input: Box::new(sorted),
            limit: Some(3),
            offset: 0,
        };
        let tree = optimized_tree(p);
        assert_eq!(
            tree,
            "Project [#0, #1, #0, #1, #2, #3, #2, #3]\n\
             └── Limit 3 offset 0\n    \
                 └── Sort [#3 DESC, #1]\n        \
                     └── InnerJoin on (#0 = #2)\n            \
                         ├── Scan(a)\n            \
                         └── Scan(b)\n"
        );
    }

    #[test]
    fn width_rigid_operators_keep_their_exact_layout() {
        // The set-semantics operations compare whole rows: the fan-out is
        // owed directly below them, not at the root.
        let set_op = |op| LogicalPlan::SetOp {
            op,
            all: false,
            left: Box::new(dup("a")),
            right: Box::new(dup("b")),
            schema: dup("a").schema().clone(),
        };
        for (rigid, name) in [
            (set_op(SetOpType::Union), "Union"),
            (set_op(SetOpType::Intersect), "Intersect"),
        ] {
            let unchanged = plan_tree(&rigid);
            assert_eq!(optimized_tree(rigid.clone()), unchanged);
            // A join above carries the rigid operator's four columns as
            // they are, and the other side's two once.
            let on = ScalarExpr::eq(ScalarExpr::Column(2), ScalarExpr::Column(4));
            let joined = LogicalPlan::join(rigid, dup("b"), JoinType::Inner, Some(on)).unwrap();
            let tree = optimized_tree(LogicalPlan::project_positions(joined, &[0, 2, 5, 7]));
            let fan_outs = |t: &str| t.matches("Project [#0, #1, #0, #1]").count();
            assert!(
                tree.starts_with(&format!(
                    "Project [#0, #2, #5, #5]\n\
                     └── InnerJoin on (#2 = #4)\n    \
                         ├── {name}"
                )) && tree.ends_with("    └── Scan(b)\n")
                    && fan_outs(&tree) == fan_outs(&unchanged),
                "{tree}"
            );
        }
    }

    /// [`optimized_tree`] that also pins the row order: the DISTINCT
    /// moves keep every first occurrence where it was.
    fn optimized_in_order(plan: LogicalPlan) -> String {
        let optimized = optimize(plan.clone());
        assert_eq!(run_dup(&optimized), run_dup(&plan));
        optimized_tree(plan)
    }

    /// [`scan`] with its first column declared `NOT NULL` (true of
    /// [`dup_catalog`]'s rows).
    fn keyed_scan(name: &str) -> LogicalPlan {
        let mut plan = scan(name, 2);
        if let LogicalPlan::Scan { schema, .. } = &mut plan {
            let mut columns = schema.columns().to_vec();
            columns[0] = columns[0].clone().not_null();
            *schema = Schema::new(columns);
        }
        plan
    }

    /// The padded-union rewrite of `a ∪ b`: each branch's row, its
    /// provenance copy, and NULLs for the other branch's provenance.
    fn padded_union(a: LogicalPlan, b: LogicalPlan) -> LogicalPlan {
        let pad = |side: LogicalPlan, own_first: bool| {
            let null = || ScalarExpr::Literal(Value::Null);
            let mut exprs = vec![ScalarExpr::Column(0), ScalarExpr::Column(1)];
            let own = [ScalarExpr::Column(0), ScalarExpr::Column(1)];
            let nulls = [null(), null()];
            if own_first {
                exprs.extend(own.into_iter().chain(nulls));
            } else {
                exprs.extend(nulls.into_iter().chain(own));
            }
            let columns = (0..6)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect();
            LogicalPlan::Project {
                input: Box::new(side),
                exprs,
                schema: Schema::new(columns),
            }
        };
        let (left, right) = (pad(a, true), pad(b, false));
        LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::SetOp {
                op: SetOpType::Union,
                all: true,
                schema: left.schema().clone(),
                left: Box::new(left),
                right: Box::new(right),
            }),
        }
    }

    #[test]
    fn distinct_moves_below_an_injective_fan_out() {
        let tree = optimized_in_order(LogicalPlan::Distinct {
            input: Box::new(dup("a")),
        });
        assert_eq!(
            tree,
            "Project [#0, #1, #0, #1]\n\
             └── Distinct\n    \
                 └── Scan(a)\n"
        );
        // A projection that drops a column is not injective: it stays.
        let narrowed = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::project_positions(scan("a", 2), &[0, 0])),
        };
        assert!(optimized_tree(narrowed).starts_with("Distinct\n"));
        // DISTINCT over DISTINCT collapses.
        let twice = LogicalPlan::Distinct {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan("a", 2)),
            }),
        };
        assert_eq!(optimized_tree(twice), "Distinct\n└── Scan(a)\n");
    }

    #[test]
    fn distinct_splits_a_padded_union_with_a_not_null_witness() {
        let tree = optimized_in_order(padded_union(keyed_scan("a"), keyed_scan("b")));
        assert_eq!(
            tree,
            "UnionAll\n\
             ├── Project [#0, #1, #0, #1, null, null]\n\
             │   └── Distinct\n\
             │       └── Scan(a)\n\
             └── Project [#0, #1, null, null, #0, #1]\n    \
                 └── Distinct\n        \
                     └── Scan(b)\n"
        );
    }

    #[test]
    fn distinct_stays_above_a_union_without_a_witness() {
        // Nullable columns: a NULL-padded row of one branch may equal a
        // row of the other, so DISTINCT must see both.
        let tree = optimized_in_order(padded_union(scan("a", 2), scan("b", 2)));
        assert!(tree.starts_with("Distinct\n└── UnionAll\n"), "{tree}");
        // A NOT NULL column null-extended by a LEFT join is no witness.
        let on = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2));
        let left_joined = |name| {
            let join = LogicalPlan::join(
                scan(name, 2),
                keyed_scan("b"),
                JoinType::Left,
                Some(on.clone()),
            )
            .unwrap();
            LogicalPlan::project_positions(join, &[2, 3])
        };
        let tree = optimized_in_order(padded_union(left_joined("a"), left_joined("b")));
        assert!(tree.starts_with("Distinct\n└── UnionAll\n"), "{tree}");
        // Through an INNER join it is one.
        let inner_joined = |name| {
            let join = LogicalPlan::join(
                scan(name, 2),
                keyed_scan("b"),
                JoinType::Inner,
                Some(on.clone()),
            )
            .unwrap();
            LogicalPlan::project_positions(join, &[2, 3])
        };
        let tree = optimized_in_order(padded_union(inner_joined("a"), inner_joined("b")));
        assert!(tree.starts_with("UnionAll\n"), "{tree}");
    }

    #[test]
    fn pruning_narrows_the_join_under_a_sublink() {
        // σ_{EXISTS(σ_{a.c1 = $0}(a)), $0 = b.c1}(a × b), projected on
        // a.c1: below the filter only a.c1 and b.c1 are needed, so the
        // join narrows to two slots, the outer reference follows b.c1
        // from #3 to #1, and the body keeps its own positions.
        let body = LogicalPlan::filter(
            scan("a", 2),
            ScalarExpr::eq(
                ScalarExpr::Column(1),
                ScalarExpr::Param {
                    index: 0,
                    ty: DataType::Int,
                },
            ),
        );
        let exists = ScalarExpr::Subquery(perm_algebra::expr::SubqueryExpr {
            kind: perm_algebra::expr::SubqueryKind::Exists,
            plan: std::sync::Arc::new(body.clone()),
            negated: false,
            operand: None,
            outer_refs: vec![ScalarExpr::Column(3)],
        });
        let join = LogicalPlan::join(scan("a", 2), scan("b", 2), JoinType::Cross, None).unwrap();
        let plan = LogicalPlan::project_positions(LogicalPlan::filter(join, exists), &[1]);
        // Same rows as the unoptimized plan (a.c1 for every a row, once
        // per b row whose c1 some a row has: only (3, 300)).
        let tree = optimized_tree(plan.clone());
        let o = optimize(plan);
        fn find<'p>(
            p: &'p LogicalPlan,
            f: &dyn Fn(&LogicalPlan) -> bool,
        ) -> Option<&'p LogicalPlan> {
            if f(p) {
                return Some(p);
            }
            p.children().into_iter().find_map(|c| find(c, f))
        }
        let join = find(&o, &|p| matches!(p, LogicalPlan::Join { .. })).expect("join survives");
        assert_eq!(join.arity(), 2, "pruned join width:\n{tree}");
        let Some(LogicalPlan::Filter {
            predicate: ScalarExpr::Subquery(sq),
            ..
        }) = find(&o, &|p| matches!(p, LogicalPlan::Filter { .. }))
        else {
            panic!("the sublink filter survives:\n{tree}");
        };
        assert_eq!(sq.outer_refs, vec![ScalarExpr::Column(1)], "{tree}");
        assert_eq!(*sq.plan, body, "the body is not renumbered");
    }

    #[test]
    fn union_filters_push_into_branches() {
        let u = LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: true,
            left: Box::new(scan("a", 1)),
            right: Box::new(scan("b", 1)),
            schema: Schema::new(vec![Column::new("c0", DataType::Int)]),
        };
        let o = optimize(LogicalPlan::filter(u, col_gt(0, 3)));
        let tree = plan_tree(&o);
        assert_eq!(tree.matches("Filter").count(), 2, "{tree}");
        assert!(tree.starts_with("UnionAll"), "{tree}");
    }
}
