//! Negative-test corpus for the static plan verifier.
//!
//! Each test hand-corrupts a plan the way a buggy optimizer,
//! parallelizer or provenance-rewrite pass would, and asserts that the
//! verifier rejects it with an error naming BOTH the violated invariant
//! and the responsible pass — the contract that makes a verifier failure
//! actionable ("column-pruning dropped a referenced slot") instead of a
//! generic "bad plan".
//!
//! The corpus spans both verifier layers:
//! * logical ([`perm_algebra::verify`]): slot bounds, expression typing,
//!   schema arity/preservation, join conditions, column pruning's
//!   single-carry postcondition, the certificates for moving DISTINCT
//!   below a UNION ALL (disjoint branches) or a projection (injective),
//!   for collapsing an aggregate's join-back to its own input into a
//!   witness aggregate (self-join-back) and for moving a filter below an
//!   aggregate (group-key-pushdown), the witness schema, the
//!   provenance-rewrite contract, sublink parameters (param-binding);
//! * physical ([`perm_exec::verify_physical`]): operator arity plumbing,
//!   the parallel-legality rules of the morsel runtime (sublink
//!   pipelines, FULL joins, DISTINCT aggregates and UNION ALL appends
//!   must be serial; dop is bounded by the worker pool), and the lowered
//!   sublink bodies a statement carries (sublink-lowered, and every
//!   check above inside each body).

use std::sync::Arc;

use perm_algebra::expr::{AggCall, AggFunc, ScalarExpr, SubqueryExpr, SubqueryKind};
use perm_algebra::plan::{AggOutput, JoinType, LogicalPlan, SetOpType, SortKey};
use perm_algebra::verify::{
    branches_disjoint, is_self_join_back, verify_aggregate_pushdown, verify_distinct_pushdown,
    verify_join_back_collapse, verify_logical, verify_provenance_schema, verify_schema_preserved,
};
use perm_exec::physical::{BuildSide, EquiKey, PhysicalPlan, SubPlan};
use perm_exec::verify_physical;
use perm_types::{Column, DataType, Schema, Value};

fn two_col_schema() -> Schema {
    Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Text),
    ])
}

fn scan() -> LogicalPlan {
    LogicalPlan::Scan {
        table: "t".into(),
        schema: two_col_schema(),
        provenance_cols: vec![],
    }
}

/// A one-column literal input for physical operators under test.
fn values(n: usize) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Values {
        rows: vec![vec![ScalarExpr::Literal(Value::Int(1)); n]],
        arity: n,
    })
}

fn exists_sublink() -> ScalarExpr {
    ScalarExpr::Subquery(SubqueryExpr {
        kind: SubqueryKind::Exists,
        plan: Arc::new(LogicalPlan::Values {
            rows: vec![vec![ScalarExpr::Literal(Value::Int(1))]],
            schema: Schema::new(vec![Column::new("v", DataType::Int)]),
        }),
        negated: false,
        operand: None,
        outer_refs: vec![],
    })
}

/// Assert the error names the invariant, the responsible pass, and comes
/// from the verifier (uniform message shape).
fn assert_names(err: &perm_types::PermError, invariant: &str, pass: &str) {
    let msg = err.message().to_string();
    assert!(msg.contains("plan verifier"), "not a verifier error: {msg}");
    assert!(
        msg.contains(invariant),
        "missing invariant '{invariant}': {msg}"
    );
    assert!(
        msg.contains(&format!("[{pass}]")),
        "missing pass '{pass}': {msg}"
    );
}

// ----------------------------------------------------------------------
// Logical corruptions
// ----------------------------------------------------------------------

#[test]
fn dropped_column_is_schema_preservation_violation() {
    // "Column pruning" that silently drops an output column.
    let before = two_col_schema();
    let pruned = LogicalPlan::project_positions(scan(), &[0]);
    let err = verify_schema_preserved(&before, &pruned, "column-pruning").unwrap_err();
    assert_names(&err, "schema-preservation", "column-pruning");
}

#[test]
fn out_of_bounds_slot_is_slot_bounds_violation() {
    // A projection referencing slot 5 of a two-column input — the shape a
    // pruning bug produces when it renumbers slots but misses a use.
    let plan = LogicalPlan::Project {
        input: Box::new(scan()),
        exprs: vec![ScalarExpr::Column(5)],
        schema: Schema::new(vec![Column::new("x", DataType::Int)]),
    };
    let err = verify_logical(&plan, "column-pruning").unwrap_err();
    assert_names(&err, "slot-bounds", "column-pruning");
}

#[test]
fn duplicating_projection_below_a_join_is_single_carry_violation() {
    // The rewriter's leaf shape surviving under a join: what column
    // pruning leaves behind when it forgets to dissolve a slot-only
    // projection (both copies would be carried through the join).
    let dup = LogicalPlan::project_positions(scan(), &[0, 1, 0, 1]);
    let plan = LogicalPlan::join(
        dup,
        scan(),
        JoinType::Inner,
        Some(ScalarExpr::eq(ScalarExpr::Column(2), ScalarExpr::Column(4))),
    )
    .unwrap();
    let err = verify_logical(&plan, "column-pruning").unwrap_err();
    assert_names(&err, "single-carry", "column-pruning");
    // Reordering counts too; narrowing does not; and the phases before
    // and after pruning may hold such projections legitimately.
    let sorted = |positions: &[usize]| LogicalPlan::Sort {
        input: Box::new(LogicalPlan::project_positions(scan(), positions)),
        keys: vec![],
    };
    assert!(verify_logical(&sorted(&[1, 0]), "column-pruning").is_err());
    verify_logical(&sorted(&[1]), "column-pruning").unwrap();
    verify_logical(&plan, "rule-rewrites").unwrap();
    verify_logical(&plan, "join-reordering").unwrap();
}

#[test]
fn project_arity_mismatch_is_schema_arity_violation() {
    let plan = LogicalPlan::Project {
        input: Box::new(scan()),
        exprs: vec![ScalarExpr::Column(0)],
        schema: two_col_schema(), // two columns recorded, one produced
    };
    let err = verify_logical(&plan, "rule-rewrites").unwrap_err();
    assert_names(&err, "schema-arity", "rule-rewrites");
}

#[test]
fn non_boolean_filter_is_expr_type_violation() {
    let plan = LogicalPlan::Filter {
        input: Box::new(scan()),
        predicate: ScalarExpr::Literal(Value::Int(7)),
    };
    let err = verify_logical(&plan, "rule-rewrites").unwrap_err();
    assert_names(&err, "expr-type", "rule-rewrites");
}

#[test]
fn inner_join_without_condition_is_join_condition_violation() {
    // The `join()` builder refuses this; a broken reordering pass that
    // drops a condition while re-bracketing would construct it directly.
    let plan = LogicalPlan::Join {
        left: Box::new(scan()),
        right: Box::new(scan()),
        kind: JoinType::Inner,
        condition: None,
        schema: two_col_schema().join(&two_col_schema()),
    };
    let err = verify_logical(&plan, "join-reordering").unwrap_err();
    assert_names(&err, "join-condition", "join-reordering");
}

#[test]
fn join_schema_drift_is_schema_consistency_violation() {
    // Join node whose recorded schema does not match its children —
    // reordering swapped inputs without rebuilding the schema.
    let plan = LogicalPlan::Join {
        left: Box::new(scan()),
        right: Box::new(scan()),
        kind: JoinType::Inner,
        condition: Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2))),
        schema: two_col_schema(), // half the width
    };
    let err = verify_logical(&plan, "join-reordering").unwrap_err();
    assert_names(&err, "schema-consistency", "join-reordering");
}

#[test]
fn mistyped_or_unbound_param_is_param_binding_violation() {
    // A body whose parameter disagrees with the outer reference it names
    // — the shape a pass produces when it rewrites a sublink's
    // `outer_refs` but not its body (or the other way round).
    let sublink = |param: ScalarExpr| {
        let body = LogicalPlan::filter(
            scan(),
            ScalarExpr::IsNull {
                expr: Box::new(param),
                negated: false,
            },
        );
        ScalarExpr::Subquery(SubqueryExpr {
            kind: SubqueryKind::Exists,
            plan: Arc::new(body),
            negated: false,
            operand: None,
            // $0 = the enclosing row's `b`, a text column.
            outer_refs: vec![ScalarExpr::Column(1)],
        })
    };
    let text = ScalarExpr::Param {
        index: 0,
        ty: DataType::Text,
    };
    verify_logical(
        &LogicalPlan::filter(scan(), sublink(text)),
        "column-pruning",
    )
    .unwrap();
    for bad in [
        ScalarExpr::Param {
            index: 0,
            ty: DataType::Int,
        },
        ScalarExpr::Param {
            index: 1,
            ty: DataType::Text,
        },
    ] {
        let plan = LogicalPlan::filter(scan(), sublink(bad));
        let err = verify_logical(&plan, "column-pruning").unwrap_err();
        assert_names(&err, "param-binding", "column-pruning");
    }
}

// ----------------------------------------------------------------------
// DISTINCT moved toward the scans without a certificate
// ----------------------------------------------------------------------

/// `t` with its first column declared NOT NULL.
fn keyed_scan() -> LogicalPlan {
    LogicalPlan::Scan {
        table: "k".into(),
        schema: Schema::new(vec![
            Column::new("a", DataType::Int).not_null(),
            Column::new("b", DataType::Text),
        ]),
        provenance_cols: vec![],
    }
}

/// A padded-union branch: `input`'s first column, then either it and a
/// NULL (`own_first`) or a NULL and it — the witness position is 1 or 2.
fn padded(input: LogicalPlan, own_first: bool) -> LogicalPlan {
    let (own, null) = (ScalarExpr::Column(0), ScalarExpr::Literal(Value::Null));
    let exprs = if own_first {
        vec![own.clone(), own, null]
    } else {
        vec![own.clone(), null, own]
    };
    let columns = ["a", "p1", "p2"]
        .into_iter()
        .map(|n| Column::new(n, DataType::Int))
        .collect();
    LogicalPlan::Project {
        input: Box::new(input),
        exprs,
        schema: Schema::new(columns),
    }
}

fn union_all(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
    LogicalPlan::SetOp {
        op: SetOpType::Union,
        all: true,
        schema: left.schema().clone(),
        left: Box::new(left),
        right: Box::new(right),
    }
}

#[test]
fn distinct_split_over_a_nullable_witness_is_disjoint_branches_violation() {
    // A NULL in one branch faces a nullable column in the other: a
    // NULL-padded row of one branch may equal a row of the other, so
    // splitting the DISTINCT would keep both copies.
    let split = union_all(padded(scan(), true), padded(scan(), false));
    let err = verify_distinct_pushdown(&split, "rule-rewrites").unwrap_err();
    assert_names(&err, "disjoint-branches", "rule-rewrites");
    // Declared NOT NULL at the base table, the same column is a witness.
    let keyed = union_all(padded(keyed_scan(), true), padded(keyed_scan(), false));
    verify_distinct_pushdown(&keyed, "rule-rewrites").unwrap();
    assert!(branches_disjoint(
        &padded(keyed_scan(), true),
        &padded(keyed_scan(), false)
    ));
}

#[test]
fn distinct_split_over_a_left_join_witness_is_disjoint_branches_violation() {
    // The witness column is NOT NULL in its table, but only below a LEFT
    // join's null-extended side: unmatched rows carry NULL there.
    let joined = |kind| {
        let join = LogicalPlan::join(
            scan(),
            keyed_scan(),
            kind,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2))),
        )
        .unwrap();
        LogicalPlan::project_positions(join, &[2])
    };
    let split = union_all(
        padded(joined(JoinType::Left), true),
        padded(joined(JoinType::Left), false),
    );
    let err = verify_distinct_pushdown(&split, "cleanup-rewrites").unwrap_err();
    assert_names(&err, "disjoint-branches", "cleanup-rewrites");
    // Through an inner join the column keeps its NOT NULL guarantee.
    let inner = union_all(
        padded(joined(JoinType::Inner), true),
        padded(joined(JoinType::Inner), false),
    );
    verify_distinct_pushdown(&inner, "cleanup-rewrites").unwrap();
}

#[test]
fn distinct_swapped_below_a_narrowing_projection_is_injective_projection_violation() {
    // `Project(Distinct(t))` from `Distinct(Project(t))` where the
    // projection drops `b`: rows differing only in `b` collapse into
    // one after the swap but not before it.
    let dropping = LogicalPlan::Project {
        input: Box::new(scan()),
        exprs: vec![ScalarExpr::Column(0), ScalarExpr::Literal(Value::Null)],
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("pad", DataType::Int),
        ]),
    };
    let err = verify_distinct_pushdown(&dropping, "rule-rewrites").unwrap_err();
    assert_names(&err, "injective-projection", "rule-rewrites");
    assert!(err.message().contains("drops input column 1"), "{err}");
    // A computed column is not a copy either; slots covering the input
    // plus constants are.
    let computed = LogicalPlan::Project {
        input: Box::new(scan()),
        exprs: vec![
            ScalarExpr::Column(1),
            ScalarExpr::binary(
                perm_algebra::expr::BinOp::Add,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(1)),
            ),
        ],
        schema: two_col_schema(),
    };
    let err = verify_distinct_pushdown(&computed, "rule-rewrites").unwrap_err();
    assert_names(&err, "injective-projection", "rule-rewrites");
    let covering = LogicalPlan::Project {
        input: Box::new(scan()),
        exprs: vec![
            ScalarExpr::Column(1),
            ScalarExpr::Literal(Value::Null),
            ScalarExpr::Column(0),
        ],
        schema: Schema::new(vec![
            Column::new("b", DataType::Text),
            Column::new("pad", DataType::Int),
            Column::new("a", DataType::Int),
        ]),
    };
    verify_distinct_pushdown(&covering, "rule-rewrites").unwrap();
}

// ----------------------------------------------------------------------
// Provenance-rewrite contract corruptions
// ----------------------------------------------------------------------

// ----------------------------------------------------------------------
// A join-back collapsed into a witness aggregate without a certificate
// ----------------------------------------------------------------------

/// `GROUP BY a` with `count(*)` over `input`.
fn count_by_a(input: LogicalPlan) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(input),
        group_by: vec![ScalarExpr::Column(0)],
        aggs: vec![AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }],
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("count", DataType::Int),
        ]),
        output: AggOutput::Groups,
    }
}

fn b_is(v: &str) -> ScalarExpr {
    ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Literal(Value::text(v)))
}

#[test]
fn join_back_to_its_own_input_is_certified() {
    let input = LogicalPlan::filter(scan(), b_is("x"));
    let join = LogicalPlan::join_back(count_by_a(input.clone()), input, &[ScalarExpr::Column(0)]);
    assert!(is_self_join_back(&join));
    verify_join_back_collapse(&join, "rule-rewrites").unwrap();
    // The operand order of `≡` does not matter to the certificate.
    let LogicalPlan::Join {
        left, right, kind, ..
    } = join
    else {
        unreachable!()
    };
    let swapped = LogicalPlan::join(
        *left,
        *right,
        kind,
        Some(ScalarExpr::not_distinct(
            ScalarExpr::Column(2),
            ScalarExpr::Column(0),
        )),
    )
    .unwrap();
    assert!(is_self_join_back(&swapped));
}

#[test]
fn join_back_to_a_different_input_is_self_join_back_violation() {
    // The right side carries one filter more than the aggregate's input:
    // its rows are not the groups' witnesses.
    let input = LogicalPlan::filter(scan(), b_is("x"));
    let narrower = LogicalPlan::filter(input.clone(), b_is("y"));
    let join = LogicalPlan::join_back(count_by_a(input), narrower, &[ScalarExpr::Column(0)]);
    assert!(!is_self_join_back(&join));
    let err = verify_join_back_collapse(&join, "rule-rewrites").unwrap_err();
    assert_names(&err, "self-join-back", "rule-rewrites");
}

#[test]
fn join_back_missing_a_group_column_is_self_join_back_violation() {
    // GROUP BY a, b joined back on a alone pairs each group with the
    // witnesses of its sibling groups too.
    let by_ab = LogicalPlan::Aggregate {
        input: Box::new(scan()),
        group_by: vec![ScalarExpr::Column(0), ScalarExpr::Column(1)],
        aggs: vec![],
        schema: two_col_schema(),
        output: AggOutput::Groups,
    };
    let keys = [ScalarExpr::Column(0), ScalarExpr::Column(1)];
    let complete = LogicalPlan::join_back(by_ab.clone(), scan(), &keys);
    verify_join_back_collapse(&complete, "rule-rewrites").unwrap();
    let partial = LogicalPlan::join_back(by_ab, scan(), &keys[..1]);
    let err = verify_join_back_collapse(&partial, "rule-rewrites").unwrap_err();
    assert_names(&err, "self-join-back", "rule-rewrites");
}

#[test]
fn inner_join_back_is_self_join_back_violation() {
    // An INNER join-back drops a global aggregate's row over an empty
    // input; only the LEFT join is what the witness aggregate computes.
    let global = LogicalPlan::Aggregate {
        input: Box::new(scan()),
        group_by: vec![],
        aggs: vec![],
        schema: Schema::empty(),
        output: AggOutput::Groups,
    };
    let left = LogicalPlan::join_back(global.clone(), scan(), &[]);
    verify_join_back_collapse(&left, "cleanup-rewrites").unwrap();
    let inner = LogicalPlan::join(
        global,
        scan(),
        JoinType::Inner,
        Some(ScalarExpr::Literal(Value::Bool(true))),
    )
    .unwrap();
    let err = verify_join_back_collapse(&inner, "cleanup-rewrites").unwrap_err();
    assert_names(&err, "self-join-back", "cleanup-rewrites");
}

#[test]
fn witness_column_filter_below_a_witness_aggregate_is_group_key_pushdown_violation() {
    let LogicalPlan::Join { left, schema, .. } =
        LogicalPlan::join_back(count_by_a(scan()), scan(), &[ScalarExpr::Column(0)])
    else {
        unreachable!()
    };
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        ..
    } = *left
    else {
        unreachable!()
    };
    let witnesses = LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        schema,
        output: AggOutput::Witnesses,
    };
    verify_logical(&witnesses, "rule-rewrites").unwrap();
    // Output: a, count, then the witness row (a, b) at 2 and 3. A filter
    // on the group column moves below; one on a witness column (or on the
    // count) would drop group members and change the count.
    let on = |i| ScalarExpr::eq(ScalarExpr::Column(i), ScalarExpr::Literal(Value::Int(1)));
    verify_aggregate_pushdown(&witnesses, &on(0), "rule-rewrites").unwrap();
    for i in [1, 2, 3] {
        let err = verify_aggregate_pushdown(&witnesses, &on(i), "rule-rewrites").unwrap_err();
        assert_names(&err, "group-key-pushdown", "rule-rewrites");
    }
    // And the witness schema must carry the whole input row.
    let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        schema,
        output,
    } = witnesses
    else {
        unreachable!()
    };
    let truncated = LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
        schema: schema.project(&[0, 1, 2]),
        output,
    };
    let err = verify_logical(&truncated, "column-pruning").unwrap_err();
    assert_names(&err, "schema-arity", "column-pruning");
}

#[test]
fn provenance_columns_not_trailing_is_rejected() {
    let original = Schema::new(vec![Column::new("a", DataType::Int)]);
    let rewritten = LogicalPlan::Scan {
        table: "t".into(),
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("prov_public_t_a", DataType::Int),
        ]),
        provenance_cols: vec![],
    };
    // Provenance attribute claimed at position 0: interleaved, not
    // appended.
    let err =
        verify_provenance_schema(&original, &rewritten, &[0], "provenance-rewrite").unwrap_err();
    assert_names(&err, "provenance-schema", "provenance-rewrite");
}

#[test]
fn provenance_rewrite_that_renames_originals_is_rejected() {
    let original = Schema::new(vec![Column::new("a", DataType::Int)]);
    let rewritten = LogicalPlan::Scan {
        table: "t".into(),
        schema: Schema::new(vec![
            Column::new("renamed", DataType::Int), // original lost its name
            Column::new("prov_public_t_a", DataType::Int),
        ]),
        provenance_cols: vec![],
    };
    let err =
        verify_provenance_schema(&original, &rewritten, &[1], "provenance-rewrite").unwrap_err();
    assert_names(&err, "provenance-schema", "provenance-rewrite");
}

#[test]
fn provenance_rewrite_with_wrong_arity_is_rejected() {
    let original = two_col_schema();
    // Rewrite "lost" one provenance column: schema is original ++ 1 but
    // two provenance positions are claimed.
    let rewritten = LogicalPlan::Scan {
        table: "t".into(),
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Text),
            Column::new("prov_public_t_a", DataType::Int),
        ]),
        provenance_cols: vec![],
    };
    let err =
        verify_provenance_schema(&original, &rewritten, &[2, 3], "provenance-rewrite").unwrap_err();
    assert_names(&err, "provenance-schema", "provenance-rewrite");
}

#[test]
fn misnamed_provenance_column_is_naming_violation() {
    let original = Schema::new(vec![Column::new("a", DataType::Int)]);
    let rewritten = LogicalPlan::Scan {
        table: "t".into(),
        schema: Schema::new(vec![
            Column::new("a", DataType::Int),
            // Neither prov_-prefixed, nor qualified, nor nullable-external.
            Column::new("mystery", DataType::Int).not_null(),
        ]),
        provenance_cols: vec![],
    };
    let err =
        verify_provenance_schema(&original, &rewritten, &[1], "provenance-rewrite").unwrap_err();
    assert_names(&err, "provenance-naming", "provenance-rewrite");
}

// ----------------------------------------------------------------------
// Physical / parallel-legality corruptions
// ----------------------------------------------------------------------

#[test]
fn physical_out_of_bounds_projection_slot() {
    let plan = PhysicalPlan::Project {
        input: values(2),
        exprs: vec![ScalarExpr::Column(7)],
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "slot-bounds", "physical-planning");
}

#[test]
fn physical_gather_slot_out_of_bounds() {
    // A projection of slots and constants — what the executor runs as a
    // gather — is held to the same bounds, standing alone and fused into
    // a filtered scan.
    let gather = vec![
        ScalarExpr::Column(0),
        ScalarExpr::Literal(Value::Null),
        ScalarExpr::Column(2),
    ];
    let plan = PhysicalPlan::Project {
        input: values(2),
        exprs: gather.clone(),
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "slot-bounds", "physical-planning");
    let plan = PhysicalPlan::FusedScanProjectFilter {
        table: "t".into(),
        schema: two_col_schema(),
        filter: Some(ScalarExpr::eq(
            ScalarExpr::Column(0),
            ScalarExpr::Literal(Value::Int(1)),
        )),
        project: Some(gather),
        est_rows: 10.0,
        dop: 1,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "slot-bounds", "physical-planning");
}

#[test]
fn physical_witness_aggregate_exposes_its_input_row() {
    // A witness HashAggregate outputs group columns, aggregates, then the
    // input row: slot 3 exists above one over a two-column input, slot 4
    // does not; a plain aggregate stops at slot 1.
    let aggregate = |output| {
        Box::new(PhysicalPlan::HashAggregate {
            input: values(2),
            group_by: vec![ScalarExpr::Column(0)],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            dop: 1,
            spill: true,
            output,
        })
    };
    let above = |output, slot| PhysicalPlan::Project {
        input: aggregate(output),
        exprs: vec![ScalarExpr::Column(slot)],
    };
    verify_physical(&above(AggOutput::Witnesses, 3), "physical-planning").unwrap();
    for (output, slot) in [(AggOutput::Witnesses, 4), (AggOutput::Groups, 2)] {
        let err = verify_physical(&above(output, slot), "physical-planning").unwrap_err();
        assert_names(&err, "slot-bounds", "physical-planning");
    }
}

#[test]
fn parallel_scan_over_sublink_pipeline_is_illegal() {
    // PR 5 rule: pipelines evaluating sublinks run serial (the sublink
    // cache is per-executor). A dop > 1 here is a parallelizer bug.
    let plan = PhysicalPlan::FusedScanProjectFilter {
        table: "t".into(),
        schema: two_col_schema(),
        filter: Some(exists_sublink()),
        project: None,
        est_rows: 1e6,
        dop: 2,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "parallel-legality", "physical-planning");
    assert!(err.message().contains("sublink"), "{err}");
}

#[test]
fn parallel_full_join_is_illegal() {
    let plan = PhysicalPlan::HashJoin {
        left: values(1),
        right: values(1),
        kind: JoinType::Full,
        keys: vec![EquiKey {
            left: ScalarExpr::Column(0),
            right: ScalarExpr::Column(0),
            null_safe: false,
        }],
        residual: None,
        build_side: BuildSide::Right,
        nl: 1,
        nr: 1,
        out_slots: None,
        est_rows: 1.0,
        dop: 2,
        spill: false,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "parallel-legality", "physical-planning");
    assert!(err.message().contains("FULL"), "{err}");
}

#[test]
fn parallel_distinct_aggregate_is_illegal() {
    let plan = PhysicalPlan::HashAggregate {
        input: values(1),
        group_by: vec![],
        aggs: vec![AggCall {
            func: AggFunc::Count,
            arg: Some(ScalarExpr::Column(0)),
            distinct: true,
        }],
        dop: 2,
        spill: false,
        output: AggOutput::Groups,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "parallel-legality", "physical-planning");
    assert!(err.message().contains("DISTINCT"), "{err}");
}

#[test]
fn parallel_union_all_append_is_illegal() {
    let plan = PhysicalPlan::HashSetOp {
        op: SetOpType::Union,
        all: true,
        left: values(1),
        right: values(1),
        dop: 2,
        spill: false,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "parallel-legality", "physical-planning");
}

#[test]
fn dop_beyond_worker_pool_is_illegal() {
    let plan = PhysicalPlan::FusedScanProjectFilter {
        table: "t".into(),
        schema: two_col_schema(),
        filter: None,
        project: None,
        est_rows: 1e6,
        dop: 10_000,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "parallel-legality", "physical-planning");
}

#[test]
fn spilling_sublink_sort_is_illegal() {
    // Sublink pipelines run through the executor's per-query caches and
    // outer stack; the planner keeps them serial AND in memory. A spill
    // strategy here is a planner bug.
    let plan = PhysicalPlan::Sort {
        input: values(1),
        keys: vec![SortKey {
            expr: exists_sublink(),
            desc: false,
        }],
        dop: 1,
        spill: true,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "spill-legality", "physical-planning");
    assert!(err.message().contains("sublink"), "{err}");
}

#[test]
fn hash_setop_arity_mismatch_is_rejected() {
    let plan = PhysicalPlan::HashSetOp {
        op: SetOpType::Except,
        all: false,
        left: values(1),
        right: values(2), // different width
        dop: 1,
        spill: true,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "setop-arity", "physical-planning");
}

#[test]
fn hash_join_child_width_mismatch_is_rejected() {
    let plan = PhysicalPlan::HashJoin {
        left: values(1),
        right: values(1),
        kind: JoinType::Inner,
        keys: vec![EquiKey {
            left: ScalarExpr::Column(0),
            right: ScalarExpr::Column(0),
            null_safe: false,
        }],
        residual: None,
        build_side: BuildSide::Right,
        nl: 3, // claimed left arity does not match the child
        nr: 1,
        out_slots: None,
        est_rows: 1.0,
        dop: 1,
        spill: true,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    assert_names(&err, "schema-arity", "physical-planning");
}

// ----------------------------------------------------------------------
// Sanity: well-formed plans pass both layers, and errors carry node paths
// ----------------------------------------------------------------------

#[test]
fn well_formed_plans_verify_clean() {
    let logical = LogicalPlan::Filter {
        input: Box::new(scan()),
        predicate: ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(1))),
    };
    verify_logical(&logical, "rule-rewrites").unwrap();

    let physical = PhysicalPlan::FusedScanProjectFilter {
        table: "t".into(),
        schema: two_col_schema(),
        filter: Some(ScalarExpr::eq(
            ScalarExpr::Column(0),
            ScalarExpr::Literal(Value::Int(1)),
        )),
        project: Some(vec![ScalarExpr::Column(1)]),
        est_rows: 10.0,
        dop: 1,
    };
    verify_physical(&physical, "physical-planning").unwrap();
}

#[test]
fn violations_name_the_node_path() {
    // The failing node is two levels deep; the error must spell the path
    // from the root so the offending operator is findable in a big plan.
    let plan = PhysicalPlan::HashDistinct {
        input: Box::new(PhysicalPlan::Project {
            input: values(2),
            exprs: vec![ScalarExpr::Column(9)],
        }),
        dop: 1,
        spill: true,
    };
    let err = verify_physical(&plan, "physical-planning").unwrap_err();
    let msg = err.message().to_string();
    assert!(msg.contains("HashDistinct > Project"), "{msg}");
}

#[test]
fn corrupted_sublink_body_is_reported_through_its_sublink() {
    // A statement's root holds its lowered sublink bodies; the verifier
    // checks each body where its sublink is evaluated, so a violation
    // inside one names a path through the sublink.
    let sublink = exists_sublink();
    let ScalarExpr::Subquery(sq) = &sublink else {
        unreachable!("exists_sublink builds a sublink")
    };
    let statement = |lowered: PhysicalPlan| PhysicalPlan::SubPlans {
        input: Box::new(PhysicalPlan::Filter {
            input: values(1),
            predicate: sublink.clone(),
        }),
        subplans: vec![SubPlan {
            body: Arc::clone(&sq.plan),
            plan: lowered,
        }]
        .into(),
    };
    verify_physical(&statement(*values(1)), "physical-planning").unwrap();
    // The lowered body projects a slot its input does not have.
    let corrupted = PhysicalPlan::Project {
        input: values(1),
        exprs: vec![ScalarExpr::Column(3)],
    };
    let err = verify_physical(&statement(corrupted), "physical-planning").unwrap_err();
    assert_names(&err, "slot-bounds", "physical-planning");
    let msg = err.message().to_string();
    assert!(msg.contains("at Filter > SubPlan 1 > Project"), "{msg}");
    // A sublink whose body was never lowered with its statement.
    let unlowered = PhysicalPlan::Filter {
        input: values(1),
        predicate: exists_sublink(),
    };
    let err = verify_physical(&unlowered, "physical-planning").unwrap_err();
    assert_names(&err, "sublink-lowered", "physical-planning");
}
