//! Static verification of physical plans.
//!
//! The physical planner makes every execution-strategy decision at plan
//! time — fused scans, join algorithms and build sides, slot-only output
//! projections, and a per-pipeline degree of parallelism. This module
//! checks the resulting [`PhysicalPlan`] tree *statically*, before any
//! row is touched:
//!
//! * **Schema/arity consistency** — each operator's recorded input
//!   arities (`nl`/`nr`) match what its children actually produce, and
//!   fused `out_slots` projections stay in bounds;
//! * **Slot typing** — every expression typechecks against a schema
//!   derived bottom-up from the scans, so a slot reference that is out of
//!   bounds or of the wrong [`perm_types::Value`] type is caught at plan
//!   time (the same expressions are later compiled by
//!   [`crate::compile`]);
//! * **Parallel legality** — the PR 5 rules the parallel runtime relies
//!   on: sublink-carrying pipelines stay serial, FULL joins stay serial,
//!   DISTINCT aggregates stay serial, `UNION ALL` appends stay serial,
//!   and every `dop` is between 1 and the worker-pool size;
//! * **Spill legality** — the same operators stay in memory: none of them
//!   may carry the may-spill flag. How many partitions a spill uses is
//!   the operator's own run-time decision, so no count is checked;
//! * **Sublink bodies** — every sublink's body must have been lowered with
//!   the statement ([`PhysicalPlan::SubPlans`]), and each lowered body
//!   passes all of the above on a path through its sublink.
//!
//! Whether a node runs over columnar batches is not in the plan (its
//! body decides when it compiles, [`crate::kernels`]), so it is not
//! verified here.
//!
//! Like the logical verifier ([`perm_algebra::verify`]), errors name the
//! responsible pass, the violated invariant and the node path.

use std::sync::Arc;

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::{AggOutput, JoinType};
use perm_algebra::typecheck;
use perm_types::{Column, DataType, PermError, Result, Schema};

use crate::parallel::pool_parallelism;
use crate::physical::{PhysicalPlan, SubPlan};

fn violation(pass: &str, invariant: &str, path: &str, detail: impl std::fmt::Display) -> PermError {
    PermError::Plan(format!(
        "plan verifier [{pass}]: {invariant} violated at {path}: {detail}"
    ))
}

/// Verify a physical plan tree: arity/slot consistency, expression
/// typing over schemas derived bottom-up, and the parallel-legality
/// rules. `pass` names the transformation that produced the plan.
pub fn verify_physical(plan: &PhysicalPlan, pass: &str) -> Result<()> {
    let (root, subplans) = plan.statement();
    verify_node(root, &Walk { pass, subplans }, "").map(drop)
}

/// What the walk over one statement shares: the pass that produced the
/// plan, and the statement's lowered sublink bodies.
struct Walk<'a> {
    pass: &'a str,
    subplans: &'a [SubPlan],
}

/// Short operator label for node paths.
fn label(plan: &PhysicalPlan) -> &'static str {
    match plan {
        PhysicalPlan::FusedScanProjectFilter { .. } => "FusedScan",
        PhysicalPlan::IndexScan { .. } => "IndexScan",
        PhysicalPlan::Values { .. } => "Values",
        PhysicalPlan::Project { .. } => "Project",
        PhysicalPlan::Filter { .. } => "Filter",
        PhysicalPlan::HashJoin { .. } => "HashJoin",
        PhysicalPlan::IndexNLJoin { .. } => "IndexNLJoin",
        PhysicalPlan::NLJoin { .. } => "NLJoin",
        PhysicalPlan::HashAggregate { .. } => "HashAggregate",
        PhysicalPlan::HashDistinct { .. } => "HashDistinct",
        PhysicalPlan::HashSetOp { .. } => "HashSetOp",
        PhysicalPlan::Sort { .. } => "Sort",
        PhysicalPlan::Limit { .. } => "Limit",
        PhysicalPlan::SubPlans { .. } => "SubPlans",
    }
}

fn synthesized(types: Vec<DataType>) -> Schema {
    Schema::new(
        types
            .into_iter()
            .enumerate()
            .map(|(i, ty)| Column::new(format!("c{i}"), ty))
            .collect(),
    )
}

fn boolish(t: DataType) -> bool {
    matches!(t, DataType::Bool | DataType::Unknown)
}

fn compatible(a: DataType, b: DataType) -> bool {
    a == b
        || matches!(a, DataType::Unknown)
        || matches!(b, DataType::Unknown)
        || matches!(
            (a, b),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int)
        )
}

/// Typecheck `e` against `env`; out-of-range slots are reported as
/// `slot-bounds`, other failures as `expr-type`.
fn check_expr(
    e: &ScalarExpr,
    env: &Schema,
    pass: &str,
    path: &str,
    what: &str,
) -> Result<DataType> {
    typecheck::expr_type(e, env).map_err(|err| {
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
    })
}

fn check_bool_expr(e: &ScalarExpr, env: &Schema, pass: &str, path: &str, what: &str) -> Result<()> {
    let ty = check_expr(e, env, pass, path, what)?;
    if !boolish(ty) {
        return Err(violation(
            pass,
            "expr-type",
            path,
            format!("{what} ({e}) has non-boolean type {ty}"),
        ));
    }
    Ok(())
}

fn check_slots(slots: &[usize], width: usize, pass: &str, path: &str, what: &str) -> Result<()> {
    for &s in slots {
        if s >= width {
            return Err(violation(
                pass,
                "slot-bounds",
                path,
                format!("{what} slot {s} out of range ({width} columns)"),
            ));
        }
    }
    Ok(())
}

/// The parallel-legality rules — a node may only run with `dop > 1` when
/// the planner proved it safe, and never beyond the worker-pool size —
/// and the spill-legality rules, which keep the same nodes in memory.
fn check_dop(plan: &PhysicalPlan, sublinks: bool, pass: &str, path: &str) -> Result<()> {
    let dop = plan.dop();
    if dop == 0 {
        return Err(violation(pass, "parallel-legality", path, "dop is 0"));
    }
    let pool = pool_parallelism();
    if dop > pool {
        return Err(violation(
            pass,
            "parallel-legality",
            path,
            format!("dop {dop} exceeds the worker-pool size {pool}"),
        ));
    }
    // Whole-input in-memory operators may neither run parallel nor spill:
    // sublinks run their bodies through the executor's slots, FULL
    // joins track build matches across all probe rows, DISTINCT filters
    // do not merge, and a UNION ALL append streams, holding no state.
    let serial_only = if sublinks {
        Some("a pipeline containing a sublink")
    } else {
        match plan {
            PhysicalPlan::HashJoin {
                kind: JoinType::Full,
                ..
            } => Some("a FULL hash join"),
            PhysicalPlan::HashAggregate { aggs, .. } if aggs.iter().any(|a| a.distinct) => {
                Some("a DISTINCT aggregate")
            }
            PhysicalPlan::HashSetOp {
                op: perm_algebra::plan::SetOpType::Union,
                all: true,
                ..
            } => Some("a UNION ALL append"),
            _ => None,
        }
    };
    if let Some(what) = serial_only {
        if dop > 1 {
            let detail = format!("dop {dop} on {what} (must be serial)");
            return Err(violation(pass, "parallel-legality", path, detail));
        }
        if plan.spill() {
            let detail = format!("spill enabled on {what} (must stay in memory)");
            return Err(violation(pass, "spill-legality", path, detail));
        }
    }
    Ok(())
}

/// Verify one node and return its output schema (types derived bottom-up;
/// synthetic column names). The lowered body of each sublink in the
/// node's expressions is verified like a plan, on a path through the
/// sublink (`… > SubPlan N > …`, numbered as `EXPLAIN` numbers it).
fn verify_node(plan: &PhysicalPlan, walk: &Walk<'_>, path: &str) -> Result<Schema> {
    let name = label(plan);
    let path = if path.is_empty() {
        name.to_string()
    } else {
        format!("{path} > {name}")
    };
    let out = verify_operator(plan, walk, &path)?;
    let mut bodies = Vec::new();
    plan.for_each_sublink(&mut |sq| bodies.push(Arc::clone(&sq.plan)));
    check_dop(plan, !bodies.is_empty(), walk.pass, &path)?;
    for body in bodies {
        let i = (walk.subplans.iter())
            .position(|s| Arc::ptr_eq(&s.body, &body))
            .ok_or_else(|| {
                let detail = "a sublink's body was not lowered with the statement";
                violation(walk.pass, "sublink-lowered", &path, detail)
            })?;
        verify_node(
            &walk.subplans[i].plan,
            walk,
            &format!("{path} > SubPlan {}", i + 1),
        )?;
    }
    Ok(out)
}

/// The checks of one operator (its children verified first).
fn verify_operator(plan: &PhysicalPlan, walk: &Walk<'_>, path: &str) -> Result<Schema> {
    let pass = walk.pass;
    match plan {
        PhysicalPlan::FusedScanProjectFilter {
            schema,
            filter,
            project,
            ..
        } => {
            if let Some(f) = filter {
                check_bool_expr(f, schema, pass, path, "fused filter")?;
            }
            let out = match project {
                Some(ps) => {
                    let mut types = Vec::with_capacity(ps.len());
                    for (i, p) in ps.iter().enumerate() {
                        types.push(check_expr(
                            p,
                            schema,
                            pass,
                            path,
                            &format!("projection {i}"),
                        )?);
                    }
                    synthesized(types)
                }
                None => schema.clone(),
            };
            Ok(out)
        }
        PhysicalPlan::IndexScan {
            schema,
            column,
            key,
            residual,
            project,
            ..
        } => {
            if *column >= schema.len() {
                return Err(violation(
                    pass,
                    "slot-bounds",
                    path,
                    format!(
                        "index column {column} out of range ({} columns)",
                        schema.len()
                    ),
                ));
            }
            let key_ty = key.data_type();
            let col_ty = schema.column(*column).ty;
            if !compatible(key_ty, col_ty) {
                return Err(violation(
                    pass,
                    "expr-type",
                    path,
                    format!("lookup key {key} has type {key_ty} but the column is {col_ty}"),
                ));
            }
            if let Some(r) = residual {
                check_bool_expr(r, schema, pass, path, "residual filter")?;
            }
            match project {
                Some(ps) => {
                    let mut types = Vec::with_capacity(ps.len());
                    for (i, p) in ps.iter().enumerate() {
                        types.push(check_expr(
                            p,
                            schema,
                            pass,
                            path,
                            &format!("projection {i}"),
                        )?);
                    }
                    Ok(synthesized(types))
                }
                None => Ok(schema.clone()),
            }
        }
        PhysicalPlan::Values { rows, arity } => {
            let empty = Schema::empty();
            for (r, row) in rows.iter().enumerate() {
                if row.len() != *arity {
                    return Err(violation(
                        pass,
                        "schema-arity",
                        path,
                        format!("row {r} has {} expressions, arity is {arity}", row.len()),
                    ));
                }
                for (c, e) in row.iter().enumerate() {
                    check_expr(e, &empty, pass, path, &format!("row {r} column {c}"))?;
                }
            }
            Ok(synthesized(vec![DataType::Unknown; *arity]))
        }
        PhysicalPlan::Project { input, exprs } => {
            let in_schema = verify_node(input, walk, path)?;
            let mut types = Vec::with_capacity(exprs.len());
            for (i, e) in exprs.iter().enumerate() {
                types.push(check_expr(e, &in_schema, pass, path, &format!("expr {i}"))?);
            }
            Ok(synthesized(types))
        }
        PhysicalPlan::Filter { input, predicate } => {
            let in_schema = verify_node(input, walk, path)?;
            check_bool_expr(predicate, &in_schema, pass, path, "predicate")?;
            Ok(in_schema)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            keys,
            residual,
            nl,
            nr,
            out_slots,
            ..
        } => {
            let ls = verify_node(left, walk, path)?;
            let rs = verify_node(right, walk, path)?;
            if ls.len() != *nl || rs.len() != *nr {
                return Err(violation(
                    pass,
                    "schema-arity",
                    path,
                    format!(
                        "recorded input arities ({nl}, {nr}) but children produce ({}, {})",
                        ls.len(),
                        rs.len()
                    ),
                ));
            }
            for (i, k) in keys.iter().enumerate() {
                let lt = check_expr(&k.left, &ls, pass, path, &format!("equi-key {i} (left)"))?;
                let rt = check_expr(&k.right, &rs, pass, path, &format!("equi-key {i} (right)"))?;
                if !compatible(lt, rt) {
                    return Err(violation(
                        pass,
                        "expr-type",
                        path,
                        format!(
                            "equi-key {i} compares {} ({lt}) with {} ({rt})",
                            k.left, k.right
                        ),
                    ));
                }
            }
            let combined = ls.join(&rs);
            if let Some(r) = residual {
                check_bool_expr(r, &combined, pass, path, "residual")?;
            }
            let base = if kind.produces_both_sides() {
                combined
            } else {
                ls
            };
            finish_join_output(base, out_slots.as_deref(), pass, path)
        }
        PhysicalPlan::IndexNLJoin {
            outer,
            kind,
            schema,
            column,
            key,
            inner_filter,
            inner_project,
            residual,
            nl,
            nr,
            out_slots,
            ..
        } => {
            let os = verify_node(outer, walk, path)?;
            if os.len() != *nl {
                return Err(violation(
                    pass,
                    "schema-arity",
                    path,
                    format!(
                        "recorded outer arity {nl} but the outer child produces {}",
                        os.len()
                    ),
                ));
            }
            if matches!(kind, JoinType::Full) {
                return Err(violation(
                    pass,
                    "schema-consistency",
                    path,
                    "index nested-loop join cannot implement a FULL join",
                ));
            }
            if *column >= schema.len() {
                return Err(violation(
                    pass,
                    "slot-bounds",
                    path,
                    format!(
                        "index column {column} out of range ({} columns)",
                        schema.len()
                    ),
                ));
            }
            check_expr(key, &os, pass, path, "probe key")?;
            if let Some(f) = inner_filter {
                check_bool_expr(f, schema, pass, path, "inner filter")?;
            }
            let inner_out = match inner_project {
                Some(slots) => {
                    check_slots(slots, schema.len(), pass, path, "inner projection")?;
                    schema.project(slots)
                }
                None => schema.clone(),
            };
            if inner_out.len() != *nr {
                return Err(violation(
                    pass,
                    "schema-arity",
                    path,
                    format!(
                        "recorded inner arity {nr} but the inner side produces {}",
                        inner_out.len()
                    ),
                ));
            }
            let combined = os.join(&inner_out);
            if let Some(r) = residual {
                check_bool_expr(r, &combined, pass, path, "residual")?;
            }
            let base = if kind.produces_both_sides() {
                combined
            } else {
                os
            };
            finish_join_output(base, out_slots.as_deref(), pass, path)
        }
        PhysicalPlan::NLJoin {
            left,
            right,
            kind,
            condition,
            nl,
            nr,
            out_slots,
            ..
        } => {
            let ls = verify_node(left, walk, path)?;
            let rs = verify_node(right, walk, path)?;
            if ls.len() != *nl || rs.len() != *nr {
                return Err(violation(
                    pass,
                    "schema-arity",
                    path,
                    format!(
                        "recorded input arities ({nl}, {nr}) but children produce ({}, {})",
                        ls.len(),
                        rs.len()
                    ),
                ));
            }
            if condition.is_none() && !matches!(kind, JoinType::Cross) {
                return Err(violation(
                    pass,
                    "schema-consistency",
                    path,
                    format!("{} nested-loop join has no condition", kind.name()),
                ));
            }
            let combined = ls.join(&rs);
            if let Some(c) = condition {
                check_bool_expr(c, &combined, pass, path, "condition")?;
            }
            let base = if kind.produces_both_sides() {
                combined
            } else {
                ls
            };
            finish_join_output(base, out_slots.as_deref(), pass, path)
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            output,
            ..
        } => {
            let in_schema = verify_node(input, walk, path)?;
            let mut types = Vec::with_capacity(group_by.len() + aggs.len());
            for (i, g) in group_by.iter().enumerate() {
                types.push(check_expr(
                    g,
                    &in_schema,
                    pass,
                    path,
                    &format!("group key {i}"),
                )?);
            }
            for (j, call) in aggs.iter().enumerate() {
                let ty = typecheck::agg_type(call, &in_schema).map_err(|err| {
                    let invariant = if err.message().contains("out of range") {
                        "slot-bounds"
                    } else {
                        "expr-type"
                    };
                    violation(
                        pass,
                        invariant,
                        path,
                        format!("aggregate {j} ({call}): {}", err.message()),
                    )
                })?;
                types.push(ty);
            }
            // Witness output: the group's columns, then the input row
            // itself — every later slot reference is checked against it.
            Ok(match output {
                AggOutput::Groups => synthesized(types),
                AggOutput::Witnesses => synthesized(types).join(&in_schema),
            })
        }
        PhysicalPlan::HashDistinct { input, .. } => verify_node(input, walk, path),
        PhysicalPlan::HashSetOp { left, right, .. } => {
            let ls = verify_node(left, walk, path)?;
            let rs = verify_node(right, walk, path)?;
            if ls.len() != rs.len() {
                return Err(violation(
                    pass,
                    "setop-arity",
                    path,
                    format!("sides have {} and {} columns", ls.len(), rs.len()),
                ));
            }
            Ok(ls)
        }
        PhysicalPlan::Sort { input, keys, .. } => {
            let in_schema = verify_node(input, walk, path)?;
            for (i, k) in keys.iter().enumerate() {
                check_expr(&k.expr, &in_schema, pass, path, &format!("sort key {i}"))?;
            }
            Ok(in_schema)
        }
        PhysicalPlan::Limit { input, .. } => verify_node(input, walk, path),
        PhysicalPlan::SubPlans { .. } => Err(violation(
            pass,
            "schema-consistency",
            path,
            "sublink bodies are held at the statement root only",
        )),
    }
}

/// Bounds-check a fused `out_slots` projection and apply it to the join's
/// base output schema.
fn finish_join_output(
    base: Schema,
    out_slots: Option<&[usize]>,
    pass: &str,
    path: &str,
) -> Result<Schema> {
    match out_slots {
        Some(slots) => {
            check_slots(slots, base.len(), pass, path, "fused output projection")?;
            Ok(base.project(slots))
        }
        None => Ok(base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::expr::{AggCall, AggFunc, BinOp};
    use perm_algebra::plan::SetOpType;
    use perm_types::Value;

    fn scan(dop: usize) -> PhysicalPlan {
        PhysicalPlan::FusedScanProjectFilter {
            table: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Text),
            ]),
            filter: None,
            project: None,
            est_rows: 100.0,
            dop,
        }
    }

    #[test]
    fn well_formed_physical_plan_passes() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(1)),
            predicate: ScalarExpr::binary(
                BinOp::Gt,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(3)),
            ),
        };
        verify_physical(&plan, "physical-planning").unwrap();
    }

    #[test]
    fn out_of_bounds_projection_slot_is_caught() {
        let plan = PhysicalPlan::Project {
            input: Box::new(scan(1)),
            exprs: vec![ScalarExpr::Column(5)],
        };
        let err = verify_physical(&plan, "physical-planning").unwrap_err();
        assert!(err.message().contains("slot-bounds"), "{err}");
        assert!(err.message().contains("[physical-planning]"), "{err}");
        assert!(err.message().contains("Project"), "{err}");
    }

    #[test]
    fn dop_zero_and_oversized_dop_are_illegal() {
        let err = verify_physical(&scan(0), "parallelization").unwrap_err();
        assert!(err.message().contains("parallel-legality"), "{err}");
        let err = verify_physical(&scan(10_000), "parallelization").unwrap_err();
        assert!(err.message().contains("worker-pool size"), "{err}");
    }

    #[test]
    fn full_hash_join_must_be_serial() {
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            kind: JoinType::Full,
            keys: vec![crate::physical::EquiKey {
                left: ScalarExpr::Column(0),
                right: ScalarExpr::Column(0),
                null_safe: false,
            }],
            residual: None,
            build_side: crate::physical::BuildSide::Right,
            nl: 2,
            nr: 2,
            out_slots: None,
            est_rows: 100.0,
            dop: 2,
            spill: false,
        };
        let err = verify_physical(&plan, "parallelization").unwrap_err();
        assert!(err.message().contains("FULL hash join"), "{err}");
    }

    #[test]
    fn distinct_aggregate_must_be_serial() {
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(scan(1)),
            group_by: vec![ScalarExpr::Column(0)],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::Column(1)),
                distinct: true,
            }],
            dop: 2,
            spill: false,
            output: perm_algebra::plan::AggOutput::Groups,
        };
        let err = verify_physical(&plan, "parallelization").unwrap_err();
        assert!(err.message().contains("DISTINCT aggregate"), "{err}");
    }

    #[test]
    fn union_all_append_must_be_serial() {
        let plan = PhysicalPlan::HashSetOp {
            op: SetOpType::Union,
            all: true,
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            dop: 2,
            spill: false,
        };
        let err = verify_physical(&plan, "parallelization").unwrap_err();
        assert!(err.message().contains("UNION ALL"), "{err}");
    }

    #[test]
    fn join_arity_mismatch_is_caught() {
        let plan = PhysicalPlan::NLJoin {
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            kind: JoinType::Cross,
            condition: None,
            nl: 2,
            nr: 3, // child produces 2
            out_slots: None,
            est_rows: 100.0,
        };
        let err = verify_physical(&plan, "physical-planning").unwrap_err();
        assert!(err.message().contains("schema-arity"), "{err}");
    }

    #[test]
    fn setop_arity_mismatch_is_caught() {
        let narrow = PhysicalPlan::Project {
            input: Box::new(scan(1)),
            exprs: vec![ScalarExpr::Column(0)],
        };
        let plan = PhysicalPlan::HashSetOp {
            op: SetOpType::Intersect,
            all: false,
            left: Box::new(scan(1)),
            right: Box::new(narrow),
            dop: 1,
            spill: true,
        };
        let err = verify_physical(&plan, "physical-planning").unwrap_err();
        assert!(err.message().contains("setop-arity"), "{err}");
    }

    #[test]
    fn spill_on_serial_only_operators_is_illegal() {
        // FULL hash join: tracks unmatched build rows across the whole
        // build side — must stay in memory.
        let full = PhysicalPlan::HashJoin {
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            kind: JoinType::Full,
            keys: vec![crate::physical::EquiKey {
                left: ScalarExpr::Column(0),
                right: ScalarExpr::Column(0),
                null_safe: false,
            }],
            residual: None,
            build_side: crate::physical::BuildSide::Right,
            nl: 2,
            nr: 2,
            out_slots: None,
            est_rows: 100.0,
            dop: 1,
            spill: true,
        };
        let err = verify_physical(&full, "physical-planning").unwrap_err();
        assert!(err.message().contains("spill-legality"), "{err}");
        assert!(err.message().contains("FULL"), "{err}");

        // DISTINCT aggregates carry per-group seen-sets keyed on the
        // whole input.
        let distinct = PhysicalPlan::HashAggregate {
            input: Box::new(scan(1)),
            group_by: vec![ScalarExpr::Column(0)],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: Some(ScalarExpr::Column(1)),
                distinct: true,
            }],
            dop: 1,
            spill: true,
            output: perm_algebra::plan::AggOutput::Groups,
        };
        let err = verify_physical(&distinct, "physical-planning").unwrap_err();
        assert!(err.message().contains("spill-legality"), "{err}");
        assert!(err.message().contains("DISTINCT"), "{err}");

        // UNION ALL append streams and holds no state — spilling it is a
        // planner bug.
        let append = PhysicalPlan::HashSetOp {
            op: SetOpType::Union,
            all: true,
            left: Box::new(scan(1)),
            right: Box::new(scan(1)),
            dop: 1,
            spill: true,
        };
        let err = verify_physical(&append, "physical-planning").unwrap_err();
        assert!(err.message().contains("spill-legality"), "{err}");
        assert!(err.message().contains("UNION ALL"), "{err}");
    }
}
