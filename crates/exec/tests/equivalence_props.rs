//! Equivalence property tests for the execution hot path.
//!
//! Two harnesses pin the PR-3 performance work to the reference
//! semantics:
//!
//! 1. **Compiled expressions vs. the interpreter** — random bound
//!    expressions (three-valued logic, NULLs, NaN floats, mixed types,
//!    `LIKE`, `IN` lists, `CASE`, casts, scalar functions) must evaluate
//!    identically through [`perm_exec::CompiledExpr`] and the reference
//!    interpreter [`perm_exec::eval::eval`] — same values *and* same
//!    errors.
//! 2. **Hash operators vs. nested loops** — random join/filter/aggregate
//!    plans over random tables must produce identical multisets lowered
//!    by the default [`perm_exec::PhysicalPlanner`] (hash joins, index
//!    nested-loop joins, fused projections) and by one with
//!    `nested_loop_only(true)`. Each table has two Int columns and a
//!    Float one holding NULL, NaN, −0.0, 0.0 and 2.0, and any of them
//!    may be a join key, so every hash path must match as `=` (NULL and
//!    NaN match nothing) and `IS NOT DISTINCT FROM` (they match
//!    themselves) do.
//! 3. **The two-phase optimizer vs. raw execution** — the same random
//!    plans (with a random projection on top, and an index on one join
//!    column) run through the full logical pass (filter pushdown, LEFT
//!    demotion, column pruning, join reordering) plus the cost-based
//!    physical planner must produce the multiset the unoptimized
//!    nested-loop reference produces.
//! 4. **Columnar batches vs. the row interpreter** — the same random
//!    plans, decorated with expression-heavy projections and computed
//!    sort keys, must produce identical results (values *and* errors,
//!    order included) with the columnar switch on and off, at DOP 1 and
//!    DOP 3, in memory and spilling, under plan verification.
//! 5. **Cancellation at random points** — the same random plans run
//!    under a query context whose deadline fires at a random instant
//!    (including "immediately"), serial and parallel, in memory and
//!    spilling: the result is either exactly the reference answer or
//!    the typed `cancelled` error — never a panic, never a wrong or
//!    truncated answer — and the memory pool always drains to zero.
//! 6. **DISTINCT passed through vs. hashed** — a DISTINCT whose input the
//!    snapshot's statistics prove duplicate-free (a key column kept as a
//!    bare slot) runs as its input; over random keyed, unkeyed and
//!    spoiled tables it must return the reference first-occurrence
//!    dedupe, and padded-union provenance must equal join-back
//!    provenance as a multiset.
//!
//! Every random plan may carry a third table joined on top of the first
//! join (inner, LEFT, SEMI or ANTI; keyed on either lower side's column
//! or a computed key; with or without a residual and an index on the
//! new side), so each property also covers 3-way join chains and
//! (witness) aggregates over them.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use perm_algebra::expr::{AggCall, AggFunc, BinOp, ScalarExpr, ScalarFunc, UnOp};
use perm_algebra::plan::{AggOutput, JoinType, LogicalPlan, SetOpType};
use perm_exec::eval::{eval, Env};
use perm_exec::{
    optimize_verified, CatalogStats, CompiledExpr, Executor, MemoryPool, PhysicalPlan,
    PhysicalPlanner, QueryMemory,
};
use perm_storage::{Catalog, Table};
use perm_types::{Column, DataType, QueryContext, Schema, Tuple, Value};

// ----------------------------------------------------------------------
// Value / tuple generators
// ----------------------------------------------------------------------

/// Width of the input tuple the expression harness evaluates over.
const WIDTH: usize = 3;

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-5i64..6).prop_map(Value::Int),
        prop_oneof![
            (-4i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-0.0)),
        ],
        "[abM%_]{0,3}".prop_map(Value::text),
    ]
}

fn tuple() -> impl Strategy<Value = Tuple> {
    prop::collection::vec(value(), WIDTH).prop_map(Tuple::new)
}

// ----------------------------------------------------------------------
// Expression generator (bound, over a WIDTH-column input)
// ----------------------------------------------------------------------

fn scalar_fn() -> impl Strategy<Value = ScalarExpr> {
    // Leaf-level calls with valid arities over simple arguments.
    let arg = prop_oneof![
        value().prop_map(ScalarExpr::Literal),
        (0..WIDTH).prop_map(ScalarExpr::Column),
    ];
    (
        prop_oneof![
            Just((ScalarFunc::Upper, 1usize)),
            Just((ScalarFunc::Lower, 1)),
            Just((ScalarFunc::Length, 1)),
            Just((ScalarFunc::Abs, 1)),
            Just((ScalarFunc::Round, 2)),
            Just((ScalarFunc::Floor, 1)),
            Just((ScalarFunc::Ceil, 1)),
            Just((ScalarFunc::Coalesce, 3)),
            Just((ScalarFunc::NullIf, 2)),
            Just((ScalarFunc::Substr, 3)),
            Just((ScalarFunc::Trim, 1)),
            Just((ScalarFunc::Greatest, 2)),
            Just((ScalarFunc::Least, 2)),
        ],
        prop::collection::vec(arg, 3),
    )
        .prop_map(|((func, arity), mut args)| {
            args.truncate(arity);
            ScalarExpr::ScalarFn { func, args }
        })
}

fn expr() -> impl Strategy<Value = ScalarExpr> {
    let leaf = prop_oneof![
        value().prop_map(ScalarExpr::Literal),
        (0..WIDTH).prop_map(ScalarExpr::Column),
        scalar_fn(),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Eq),
                    Just(BinOp::NotEq),
                    Just(BinOp::Lt),
                    Just(BinOp::LtEq),
                    Just(BinOp::Gt),
                    Just(BinOp::GtEq),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Mod),
                    Just(BinOp::Concat),
                    Just(BinOp::NotDistinctFrom),
                    Just(BinOp::DistinctFrom),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| ScalarExpr::binary(op, l, r)),
            (prop_oneof![Just(UnOp::Not), Just(UnOp::Neg)], inner.clone()).prop_map(|(op, e)| {
                ScalarExpr::Unary {
                    op,
                    expr: Box::new(e),
                }
            }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| ScalarExpr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(e, p, negated)| {
                ScalarExpr::Like {
                    expr: Box::new(e),
                    pattern: Box::new(p),
                    negated,
                }
            }),
            // IN lists: both all-literal (pre-hashed by the compiler) and
            // mixed (generic path).
            (
                inner.clone(),
                prop::collection::vec(value().prop_map(ScalarExpr::Literal), 1..5),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| ScalarExpr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (
                inner.clone(),
                prop::collection::vec(inner.clone(), 1..4),
                any::<bool>()
            )
                .prop_map(|(e, list, negated)| ScalarExpr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (
                proptest::option::of(inner.clone()),
                prop::collection::vec((inner.clone(), inner.clone()), 1..3),
                proptest::option::of(inner.clone())
            )
                .prop_map(|(operand, branches, else_branch)| ScalarExpr::Case {
                    operand: operand.map(Box::new),
                    branches,
                    else_branch: else_branch.map(Box::new),
                }),
            (
                inner,
                prop_oneof![
                    Just(DataType::Int),
                    Just(DataType::Float),
                    Just(DataType::Text),
                    Just(DataType::Bool)
                ]
            )
                .prop_map(|(e, ty)| ScalarExpr::Cast {
                    expr: Box::new(e),
                    ty,
                }),
        ]
    })
}

// ----------------------------------------------------------------------
// Plan generator: join (chain) + filter + aggregate over random tables
// ----------------------------------------------------------------------

/// A row of a plan case's table: two Int columns and a Float one.
type Row = (Option<i64>, Option<i64>, Option<f64>);

/// A third table `t3(e, f, z)` joined on top of `t1 ⋈ t2`.
#[derive(Debug, Clone)]
struct Chain {
    rows: Vec<Row>,
    /// Inner | Left | Semi | Anti.
    kind: JoinType,
    /// Which lower side the key reads (0 = t1, 1 = t2 — t1 when the
    /// lower join keeps only its left side) and which of its columns.
    side: usize,
    column: usize,
    /// The key's column of t3: `z` (Float) instead of `e` (Int).
    float: bool,
    /// Key `#i + 0` instead of the bare column.
    computed: bool,
    /// Optional residual comparison `t3.f < literal`.
    residual: Option<i64>,
    /// A hash index on t3's key column, so the index nested-loop join is
    /// planned.
    index: bool,
}

#[derive(Debug, Clone)]
struct PlanCase {
    t1_rows: Vec<Row>,
    t2_rows: Vec<Row>,
    kind: JoinType,
    null_safe: bool,
    /// Key columns: t1 key index, t2 key index (0..3; 2 is the Float
    /// column).
    lkey: usize,
    rkey: usize,
    /// Optional residual comparison `t1.c < literal`.
    residual: Option<i64>,
    /// Optional filter on top of the join.
    filter_lit: Option<i64>,
    /// Optional aggregate on top: GROUP BY first output column with
    /// count(*) + sum(second column). `Witnesses` builds the provenance
    /// rewrite's join-back of that aggregate to its own input instead,
    /// which the optimizer collapses into a witness-emitting aggregate
    /// (so the unoptimized reference runs the join-back itself).
    aggregate: Option<AggOutput>,
    /// Both scans become the provenance rewriter's leaf — every column
    /// followed by its copy — and the join is keyed on the copies, so
    /// column pruning carries each column once and fans out at the root
    /// (or reads the base slots from under the aggregate).
    fan_out: bool,
    /// Each leaf is padded the way a padded-union branch is — a NULL and
    /// a constant appended — so the executor runs it as a gather of slots
    /// and constants (behind a vectorized filter when one is pushed in).
    pad: bool,
    chain: Option<Chain>,
}

fn cell() -> impl Strategy<Value = Option<i64>> {
    proptest::option::of(-3i64..4)
}

/// A Float key cell: NULL, NaN, both zeros and 2.0, which `=` matches
/// with the Int cells 0 and 2 (and grouping equality NaN with NaN).
fn float_cell() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(f64::NAN)),
        Just(Some(-0.0)),
        Just(Some(0.0)),
        Just(Some(2.0)),
    ]
}

fn row() -> impl Strategy<Value = Row> {
    (cell(), cell(), float_cell())
}

fn chain() -> impl Strategy<Value = Chain> {
    (
        (
            prop::collection::vec(row(), 0..10),
            prop_oneof![
                Just(JoinType::Inner),
                Just(JoinType::Left),
                Just(JoinType::Semi),
                Just(JoinType::Anti),
            ],
            0..2usize,
        ),
        (
            0..3usize,
            any::<bool>(),
            any::<bool>(),
            proptest::option::of(-2i64..3),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((rows, kind, side), (column, float, computed, residual, index))| Chain {
                rows,
                kind,
                side,
                column,
                float,
                computed,
                residual,
                index,
            },
        )
}

fn plan_case() -> impl Strategy<Value = PlanCase> {
    // The vendored proptest's OptionStrategy is not Clone: `cell()`
    // builds a fresh one per use. Nested tuples: the vendored proptest implements Strategy for
    // tuples of up to six elements.
    (
        (
            prop::collection::vec(row(), 0..12),
            prop::collection::vec(row(), 0..12),
            prop_oneof![
                Just(JoinType::Inner),
                Just(JoinType::Left),
                Just(JoinType::Full),
                Just(JoinType::Semi),
                Just(JoinType::Anti),
            ],
        ),
        (
            any::<bool>(),
            0..3usize,
            0..3usize,
            any::<bool>(),
            any::<bool>(),
        ),
        (
            proptest::option::of(-2i64..3),
            proptest::option::of(-2i64..3),
            prop_oneof![
                Just(None),
                Just(Some(AggOutput::Groups)),
                Just(Some(AggOutput::Witnesses)),
            ],
        ),
        prop_oneof![Just(None), chain().prop_map(Some)],
    )
        .prop_map(
            |(
                (t1_rows, t2_rows, kind),
                (null_safe, lkey, rkey, fan_out, pad),
                (residual, filter_lit, aggregate),
                chain,
            )| {
                PlanCase {
                    t1_rows,
                    t2_rows,
                    kind,
                    null_safe,
                    lkey,
                    rkey,
                    residual,
                    filter_lit,
                    aggregate,
                    fan_out,
                    pad,
                    chain,
                }
            },
        )
}

/// The case's tables: `t1(a, b, x)`, `t2(c, d, y)` — with a hash index
/// on t2's join column when `t2_index` — and the chain's `t3(e, f, z)`.
fn tables(case: &PlanCase, t2_index: bool) -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(key_table("t1", ["a", "b", "x"], &case.t1_rows))
        .unwrap();
    cat.create_table(key_table("t2", ["c", "d", "y"], &case.t2_rows))
        .unwrap();
    if t2_index {
        cat.table_mut("t2")
            .unwrap()
            .create_index(case.rkey)
            .unwrap();
    }
    if let Some(chain) = &case.chain {
        cat.create_table(key_table("t3", ["e", "f", "z"], &chain.rows))
            .unwrap();
        if chain.index {
            let column = if chain.float { 2 } else { 0 };
            cat.table_mut("t3").unwrap().create_index(column).unwrap();
        }
    }
    cat
}

fn key_table(name: &str, cols: [&str; 3], rows: &[Row]) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(vec![
            Column::new(cols[0], DataType::Int),
            Column::new(cols[1], DataType::Int),
            Column::new(cols[2], DataType::Float),
        ]),
    );
    for &(a, b, x) in rows {
        let x = x.map_or(Value::Null, Value::Float);
        t.insert(Tuple::new(vec![int_or_null(a), int_or_null(b), x]))
            .expect("generated row matches schema");
    }
    t
}

fn int_table(name: &str, cols: [&str; 2], rows: &[(Option<i64>, Option<i64>)]) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(vec![
            Column::new(cols[0], DataType::Int),
            Column::new(cols[1], DataType::Int),
        ]),
    );
    for (a, b) in rows {
        t.insert(Tuple::new(vec![int_or_null(*a), int_or_null(*b)]))
            .expect("generated row matches schema");
    }
    t
}

fn build_plan(case: &PlanCase, cat: &Catalog) -> LogicalPlan {
    let scan = |name: &str| {
        let scan = LogicalPlan::Scan {
            table: name.into(),
            schema: cat.table(name).unwrap().schema().clone(),
            provenance_cols: vec![],
        };
        let leaf = if case.fan_out {
            LogicalPlan::project_positions(scan, &[0, 1, 2, 0, 1, 2])
        } else {
            scan
        };
        if !case.pad {
            return leaf;
        }
        let mut columns = leaf.schema().columns().to_vec();
        columns.push(Column::new("pad", DataType::Int));
        columns.push(Column::new("tag", DataType::Int));
        LogicalPlan::Project {
            exprs: (0..leaf.arity())
                .map(ScalarExpr::Column)
                .chain([
                    ScalarExpr::Literal(Value::Null),
                    ScalarExpr::Literal(Value::Int(7)),
                ])
                .collect(),
            input: Box::new(leaf),
            schema: Schema::new(columns),
        }
    };
    // Each side's width, and where the columns the condition reads start
    // (the copies, under `fan_out`). Columns 0 and 1 of the output are
    // t1's own in every shape.
    let (width, read) = if case.fan_out { (6, 3) } else { (3, 0) };
    let width = if case.pad { width + 2 } else { width };
    let op = if case.null_safe {
        BinOp::NotDistinctFrom
    } else {
        BinOp::Eq
    };
    let mut cond = vec![ScalarExpr::binary(
        op,
        ScalarExpr::Column(read + case.lkey),
        ScalarExpr::Column(width + read + case.rkey),
    )];
    if let Some(lit) = case.residual {
        cond.push(ScalarExpr::binary(
            BinOp::Lt,
            ScalarExpr::Column(read + 1),
            ScalarExpr::Literal(Value::Int(lit)),
        ));
    }
    let mut plan = LogicalPlan::join(
        scan("t1"),
        scan("t2"),
        case.kind,
        Some(ScalarExpr::conjunction(cond)),
    )
    .expect("join plan is well-formed");
    if let Some(chain) = &case.chain {
        // t1's columns lead the lower join's output; t2's follow unless
        // the lower join keeps its left side only.
        let both = case.kind.produces_both_sides();
        let lower = if both { 2 * width } else { width };
        let side = if both { chain.side * width } else { 0 };
        let column = ScalarExpr::Column(side + read + chain.column);
        let key = if chain.computed {
            ScalarExpr::binary(BinOp::Add, column, ScalarExpr::Literal(Value::Int(0)))
        } else {
            column
        };
        let t3_key = if chain.float { 2 } else { 0 };
        let mut cond = vec![ScalarExpr::binary(
            BinOp::Eq,
            key,
            ScalarExpr::Column(lower + read + t3_key),
        )];
        if let Some(lit) = chain.residual {
            cond.push(ScalarExpr::binary(
                BinOp::Lt,
                ScalarExpr::Column(lower + read + 1),
                ScalarExpr::Literal(Value::Int(lit)),
            ));
        }
        plan = LogicalPlan::join(
            plan,
            scan("t3"),
            chain.kind,
            Some(ScalarExpr::conjunction(cond)),
        )
        .expect("chained join plan is well-formed");
    }
    if let Some(lit) = case.filter_lit {
        plan = LogicalPlan::filter(
            plan,
            ScalarExpr::binary(
                BinOp::GtEq,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(lit)),
            ),
        );
    }
    if let Some(output) = case.aggregate {
        let schema = Schema::new(vec![
            Column::new("g", DataType::Int),
            Column::new("c", DataType::Int),
            Column::new("s", DataType::Int),
        ]);
        let aggregate = LogicalPlan::Aggregate {
            input: Box::new(plan.clone()),
            group_by: vec![ScalarExpr::Column(0)],
            aggs: vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    distinct: false,
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(ScalarExpr::Column(1)),
                    distinct: false,
                },
            ],
            schema,
            output: AggOutput::Groups,
        };
        plan = match output {
            AggOutput::Groups => aggregate,
            AggOutput::Witnesses => {
                LogicalPlan::join_back(aggregate, plan, &[ScalarExpr::Column(0)])
            }
        };
    }
    plan
}

/// `plan` lowered with the default planner settings, then run.
fn run(cat: &Arc<Catalog>, plan: &LogicalPlan) -> perm_types::Result<Vec<Tuple>> {
    Executor::new(Arc::clone(cat)).run_physical(&PhysicalPlanner::new(cat).plan(plan))
}

/// The nested-loop reference: `plan` lowered with every join a nested
/// loop, then run.
fn run_nlj(cat: &Arc<Catalog>, plan: &LogicalPlan) -> perm_types::Result<Vec<Tuple>> {
    let physical = PhysicalPlanner::new(cat).nested_loop_only(true).plan(plan);
    Executor::new(Arc::clone(cat)).run_physical(&physical)
}

/// `plan` lowered at DOP cap `dop` with row threshold `threshold`.
fn lower_at(cat: &Catalog, plan: &LogicalPlan, dop: usize, threshold: usize) -> PhysicalPlan {
    PhysicalPlanner::new(cat)
        .max_parallelism(dop)
        .parallel_threshold(threshold)
        .plan(plan)
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let o = x.sort_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled-expression engine is observationally identical to the
    /// interpreter: same values, same errors, over arbitrary rows.
    #[test]
    fn compiled_matches_interpreter(e in expr(), t in tuple()) {
        let exec = Executor::new(Arc::new(Catalog::new()));
        let env = Env::new(&t, &[]);
        let interpreted = eval(&exec, &e, &env);
        let compiled = CompiledExpr::compile(&exec, &e);
        let result = compiled.eval(&exec, &env);
        match (&interpreted, &result) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "values diverge for {}", e),
            (Err(a), Err(b)) => prop_assert_eq!(
                a.to_string(),
                b.to_string(),
                "errors diverge for {}",
                e
            ),
            _ => prop_assert!(
                false,
                "divergence for {}: interpreter={:?}, compiled={:?}",
                e,
                interpreted,
                result
            ),
        }
    }

    /// Compiling is idempotent with respect to evaluation even when the
    /// expression is evaluated against rows it was not compiled "for"
    /// (operators compile once and evaluate across the whole input).
    #[test]
    fn compiled_is_stable_across_rows(e in expr(), ts in prop::collection::vec(tuple(), 1..6)) {
        let exec = Executor::new(Arc::new(Catalog::new()));
        let compiled = CompiledExpr::compile(&exec, &e);
        for t in &ts {
            let env = Env::new(t, &[]);
            let interpreted = eval(&exec, &e, &env);
            let result = compiled.eval(&exec, &env);
            match (&interpreted, &result) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "values diverge for {}", e),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                _ => prop_assert!(false, "divergence for {} on {}", e, t),
            }
        }
    }

    /// The full two-phase optimizer — logical rewrites (pushdown, LEFT
    /// demotion, column pruning, join reordering) plus cost-based
    /// physical planning over real table statistics and an index — never
    /// changes the result multiset of a randomized plan.
    #[test]
    fn optimizer_preserves_random_plan_results(
        case in plan_case(),
        keep in prop::collection::vec(any::<bool>(), 8),
    ) {
        // An index on one join column so the planner can (and sometimes
        // will) pick the index nested-loop strategy.
        let cat = tables(&case, true);
        let mut plan = build_plan(&case, &cat);
        // A random projection on top exercises column pruning and the
        // fused join output projections.
        let arity = plan.arity();
        let positions: Vec<usize> = keep
            .iter()
            .enumerate()
            .filter(|(i, k)| **k && *i < arity)
            .map(|(i, _)| i)
            .collect();
        if !positions.is_empty() {
            plan = LogicalPlan::project_positions(plan, &positions);
        }

        let cat = Arc::new(cat);
        let reference = run_nlj(&cat, &plan);
        // The static verifier re-checks every optimizer phase on the way
        // (schema preservation, slot bounds, typing) and rejects the plan
        // with the responsible pass named.
        let optimized_plan = match optimize_verified(plan.clone(), &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        // The cost-based lowering must satisfy the physical invariants too.
        if let Err(e) = PhysicalPlanner::new(&cat).plan_verified(&optimized_plan) {
            return Err(TestCaseError::fail(format!("physical verifier: {e}")));
        }
        let optimized = run(&cat, &optimized_plan);
        match (reference, optimized) {
            (Ok(a), Ok(b)) => prop_assert_eq!(
                sorted(a),
                sorted(b),
                "optimizer changed the result for {:?}",
                case
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "one path failed: raw={:?} optimized={:?}", a, b),
        }
    }

    /// Morsel-parallel execution (forced DOP 3, parallel threshold 1) is
    /// observationally identical to serial execution on randomized plans:
    /// same rows, in the same order, and the same errors — including an
    /// error raised inside a worker thread (the `div_by_key` variant
    /// plants a division that blows up on key-0 rows mid-scan), which
    /// must surface as exactly the `PermError` serial execution raises.
    #[test]
    fn parallel_execution_matches_serial(
        case in plan_case(),
        div_by_key in any::<bool>(),
        sort_on_top in any::<bool>(),
    ) {
        let cat = tables(&case, true);
        let mut plan = build_plan(&case, &cat);
        if div_by_key {
            // `b / a` raises division-by-zero on any row with a = 0;
            // pushdown fuses this into the parallel scan pipeline.
            plan = LogicalPlan::filter(
                plan,
                ScalarExpr::binary(
                    BinOp::GtEq,
                    ScalarExpr::binary(
                        BinOp::Div,
                        ScalarExpr::Column(1),
                        ScalarExpr::Column(0),
                    ),
                    ScalarExpr::Literal(Value::Int(-1000)),
                ),
            );
        }
        if sort_on_top {
            plan = LogicalPlan::Sort {
                keys: vec![perm_algebra::plan::SortKey {
                    expr: ScalarExpr::Column(0),
                    desc: true,
                }],
                input: Box::new(plan),
            };
        }

        let cat = Arc::new(cat);
        let optimized = match optimize_verified(plan, &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        // Verify the *parallelized* lowering (forced DOP, threshold 1):
        // dop bounds, serial-only operators, sublink pipelines.
        if let Err(e) = PhysicalPlanner::new(&cat)
            .max_parallelism(3)
            .parallel_threshold(1)
            .plan_verified(&optimized)
        {
            return Err(TestCaseError::fail(format!("parallel verifier: {e}")));
        }
        let serial = Executor::new(Arc::clone(&cat)).run_physical(&lower_at(&cat, &optimized, 1, 2));
        let parallel =
            Executor::new(Arc::clone(&cat)).run_physical(&lower_at(&cat, &optimized, 3, 1));
        match (serial, parallel) {
            // Exact equality, order included: every parallel operator
            // reassembles morsel/chunk results in serial order.
            (Ok(s), Ok(p)) => prop_assert_eq!(s, p, "parallel diverges for {:?}", case),
            (Err(s), Err(p)) => prop_assert_eq!(
                s.to_string(),
                p.to_string(),
                "errors diverge for {:?}",
                case
            ),
            (s, p) => prop_assert!(
                false,
                "one mode failed: serial={:?} parallel={:?} case={:?}",
                s,
                p,
                case
            ),
        }
    }

    /// Pulling a plan through a stream (a demand of one row, doubling;
    /// windowed morsels at DOP 3; blocking subtrees materialized
    /// underneath) yields exactly the rows `run_physical` returns, in the
    /// same order; the two fail together; and a consumer that stops after
    /// `k` rows has seen a prefix. The `scan_only` variant makes the whole
    /// plan streamable, `div_by_key` plants a row error, `project_on_top`
    /// a computed projection, and half the cases get a generated `LIMIT` /
    /// `OFFSET` on top, which may stop both consumers before that error:
    /// the limited result is its input's rows before the first error, cut
    /// by `OFFSET` / `LIMIT`, and the error only if the cut reaches it.
    #[test]
    fn streamed_execution_matches_materialized(
        case in plan_case(),
        scan_only in any::<bool>(),
        div_by_key in any::<bool>(),
        project_on_top in any::<bool>(),
        limited in any::<bool>(),
        limit in proptest::option::of(0..8u64),
        offset in 0..3u64,
        k in 0..6usize,
    ) {
        let cat = tables(&case, false);
        let mut plan = if scan_only {
            LogicalPlan::Scan {
                table: "t1".into(),
                schema: cat.table("t1").unwrap().schema().clone(),
                provenance_cols: vec![],
            }
        } else {
            build_plan(&case, &cat)
        };
        if div_by_key {
            plan = LogicalPlan::filter(
                plan,
                ScalarExpr::binary(
                    BinOp::GtEq,
                    ScalarExpr::binary(
                        BinOp::Div,
                        ScalarExpr::Column(1),
                        ScalarExpr::Column(0),
                    ),
                    ScalarExpr::Literal(Value::Int(-1000)),
                ),
            );
        }
        if project_on_top {
            let schema = Schema::new(vec![Column::new("p", DataType::Int)]);
            plan = LogicalPlan::Project {
                input: Box::new(plan),
                exprs: vec![ScalarExpr::binary(
                    BinOp::Add,
                    ScalarExpr::Column(0),
                    ScalarExpr::Literal(Value::Int(1)),
                )],
                schema,
            };
        }
        if limited {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit,
                offset,
            };
        }
        let cat = Arc::new(cat);
        let optimized = match optimize_verified(plan, &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        for dop in [1usize, 3] {
            let physical = match PhysicalPlanner::new(&cat)
                .max_parallelism(dop)
                .parallel_threshold(1)
                .plan_verified(&optimized)
            {
                Ok(p) => p,
                Err(e) => return Err(TestCaseError::fail(format!("physical verifier: {e}"))),
            };
            let exec = || Executor::new(Arc::clone(&cat));
            let materialized = exec().run_physical(&physical);
            let streamed: Result<Vec<Tuple>, _> = exec()
                .into_stream_physical(&physical)
                .and_then(|s| s.collect());
            match (&materialized, &streamed) {
                (Ok(m), Ok(s)) => prop_assert_eq!(m, s, "stream diverges at dop {} for {:?}", dop, case),
                (Err(_), Err(_)) => {}
                (m, s) => prop_assert!(
                    false,
                    "one mode failed at dop {}: materialized={:?} streamed={:?} case={:?}",
                    dop, m, s, case
                ),
            }
            if let Ok(rows) = &materialized {
                let taken: Result<Vec<Tuple>, _> = exec()
                    .into_stream_physical(&physical)
                    .and_then(|s| s.take(k).collect());
                prop_assert_eq!(
                    taken.as_deref().map_err(|e| e.to_string()),
                    Ok(&rows[..k.min(rows.len())]),
                    "take({}) is not a prefix at dop {} for {:?}", k, dop, case
                );
            }
            if !limited {
                continue;
            }
            // What a row-at-a-time LIMIT returns (PostgreSQL's): the rows
            // its input yields before its first error, cut by OFFSET /
            // LIMIT — the error only if the cut reaches it. (Pruning may
            // leave a projection above the LIMIT.)
            let mut node = &physical;
            while let PhysicalPlan::Project { input, .. } = node {
                node = input;
            }
            let PhysicalPlan::Limit { input, .. } = node else {
                return Err(TestCaseError::fail(format!("LIMIT planned away: {physical:?}")));
            };
            let mut pulled = Vec::new();
            let mut failed = None;
            for row in exec().into_stream_physical(input).map_err(|e| TestCaseError::fail(e.to_string()))? {
                match row {
                    Ok(t) => pulled.push(t),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            let end = limit.map_or(usize::MAX, |l| (offset + l) as usize);
            let expected = match failed {
                // `LIMIT 0` pulls nothing, its OFFSET included.
                _ if limit == Some(0) => Ok(Vec::new()),
                Some(e) if pulled.len() < end => Err(e.to_string()),
                _ => Ok(pulled[(offset as usize).min(pulled.len())..end.min(pulled.len())].to_vec()),
            };
            prop_assert_eq!(
                exec().run_physical(node).map_err(|e| e.to_string()),
                expected,
                "LIMIT {:?} OFFSET {} diverges from its input at dop {} for {:?}", limit, offset, dop, case
            );
        }
    }

    /// A query forced over budget — every buffering operator's memory
    /// reservation is denied by a 1-byte pool, so hash joins Grace-
    /// partition, aggregates/distincts/set-ops partition to disk, and
    /// sorts run externally — produces *exactly* what the in-memory
    /// execution produces: the same rows, in the same order, or the same
    /// error. Checked at DOP 1 and DOP 3 (parallel threshold 1), and the
    /// pool must drain back to zero bytes afterwards either way.
    #[test]
    fn spilling_execution_matches_in_memory(
        case in plan_case(),
        div_by_key in any::<bool>(),
        shape in 0..6usize,
        parallel in any::<bool>(),
    ) {
        // FULL hash joins are deliberately non-spillable (the planner
        // stamps `spill: false`): under pool pressure they fail with the
        // typed resource error rather than degrade — pinned by
        // `full_join_over_budget_fails_with_typed_error` in
        // tests/memory_governance.rs. The equivalence property covers
        // the spillable plans, so remap FULL to LEFT here.
        let case = PlanCase {
            kind: if case.kind == JoinType::Full { JoinType::Left } else { case.kind },
            ..case
        };
        let cat = tables(&case, false);
        let mut plan = match shape {
            // Set operations need equal arities: run them straight over
            // the two base tables (union distinct, intersect all and
            // except all cover all three hash set-op families).
            3..=5 => {
                let scan = |name: &str| LogicalPlan::Scan {
                    table: name.into(),
                    schema: cat.table(name).unwrap().schema().clone(),
                    provenance_cols: vec![],
                };
                let (op, all) = match shape {
                    3 => (SetOpType::Union, false),
                    4 => (SetOpType::Intersect, true),
                    _ => (SetOpType::Except, true),
                };
                let left = scan("t1");
                let schema = left.schema().clone();
                LogicalPlan::SetOp {
                    op,
                    all,
                    left: Box::new(left),
                    right: Box::new(scan("t2")),
                    schema,
                }
            }
            _ => build_plan(&case, &cat),
        };
        if div_by_key && shape < 3 {
            // Plants a division that errors on key-0 rows: the spilled
            // execution must raise exactly the same error.
            plan = LogicalPlan::filter(
                plan,
                ScalarExpr::binary(
                    BinOp::GtEq,
                    ScalarExpr::binary(
                        BinOp::Div,
                        ScalarExpr::Column(1),
                        ScalarExpr::Column(0),
                    ),
                    ScalarExpr::Literal(Value::Int(-1000)),
                ),
            );
        }
        match shape {
            1 => {
                plan = LogicalPlan::Sort {
                    keys: vec![perm_algebra::plan::SortKey {
                        expr: ScalarExpr::Column(0),
                        desc: true,
                    }],
                    input: Box::new(plan),
                };
            }
            2 => plan = LogicalPlan::Distinct { input: Box::new(plan) },
            _ => {}
        }

        let cat = Arc::new(cat);
        let optimized = match optimize_verified(plan, &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        let (dop, threshold) = if parallel { (3, 1) } else { (1, 2) };
        let physical = lower_at(&cat, &optimized, dop, threshold);
        let in_memory = Executor::new(Arc::clone(&cat)).run_physical(&physical);
        let pool = MemoryPool::with_budget(1);
        let spilled = Executor::new(Arc::clone(&cat))
            .with_memory(QueryMemory::new(pool.clone(), None))
            .run_physical(&physical);
        match (in_memory, spilled) {
            // Exact equality, order included — spilling is invisible.
            (Ok(m), Ok(s)) => prop_assert_eq!(m, s, "spill diverges for {:?}", case),
            (Err(m), Err(s)) => prop_assert_eq!(
                m.to_string(),
                s.to_string(),
                "errors diverge for {:?}",
                case
            ),
            (m, s) => prop_assert!(
                false,
                "one mode failed: in_memory={:?} spilled={:?} case={:?}",
                m,
                s,
                case
            ),
        }
        prop_assert_eq!(pool.used(), 0, "pool must drain to zero after the query");
    }

    /// Columnar batch execution is observationally identical to the row
    /// interpreter — the reference-semantics oracle the batch kernels
    /// are pinned against. The same optimized logical plan runs through
    /// two executors that differ only in their columnar switch: off,
    /// every expression runs through the row interpreter; on, every
    /// filter, computed projection and sort-key list whose expressions
    /// all have kernels runs through them. Same rows, in the same order,
    /// and the same errors (the `div_by_key` variant plants a division
    /// that blows up mid-batch; the kernel abort must replay row-wise
    /// and surface exactly the row path's first error) — at DOP 1 and
    /// DOP 3, in memory and under a 1-byte pool that forces every
    /// buffering operator to spill, with the lowering re-verified by the
    /// static plan verifier (the `PERM_VERIFY_PLANS=1` posture).
    #[test]
    fn batch_execution_matches_row(
        case in plan_case(),
        div_by_key in any::<bool>(),
        sort_on_top in any::<bool>(),
        parallel in any::<bool>(),
        spill in any::<bool>(),
    ) {
        // FULL hash joins are non-spillable by design (see
        // spilling_execution_matches_in_memory): remap to LEFT when this
        // case runs under the starved pool.
        let case = PlanCase {
            kind: if spill && case.kind == JoinType::Full { JoinType::Left } else { case.kind },
            ..case
        };
        let cat = tables(&case, true);
        let mut plan = build_plan(&case, &cat);
        if div_by_key {
            // `b / a` raises division-by-zero on any row with a = 0;
            // pushdown fuses this into the scan pipeline, where the
            // batch path must abort the batch and replay row-wise.
            plan = LogicalPlan::filter(
                plan,
                ScalarExpr::binary(
                    BinOp::GtEq,
                    ScalarExpr::binary(
                        BinOp::Div,
                        ScalarExpr::Column(1),
                        ScalarExpr::Column(0),
                    ),
                    ScalarExpr::Literal(Value::Int(-1000)),
                ),
            );
        }
        // An expression-heavy projection on top drives the typed
        // arithmetic/comparison/LIKE kernels (columns 0 and 1 exist in
        // every generated shape, including Semi/Anti joins).
        let exprs = vec![
            ScalarExpr::binary(BinOp::Add, ScalarExpr::Column(0), ScalarExpr::Column(1)),
            ScalarExpr::binary(
                BinOp::Mul,
                ScalarExpr::Column(0),
                ScalarExpr::Literal(Value::Int(3)),
            ),
            ScalarExpr::Like {
                expr: Box::new(ScalarExpr::Cast {
                    expr: Box::new(ScalarExpr::Column(1)),
                    ty: DataType::Text,
                }),
                pattern: Box::new(ScalarExpr::Literal(Value::text("%1%"))),
                negated: false,
            },
        ];
        let schema = Schema::new(vec![
            Column::new("s", DataType::Int),
            Column::new("m", DataType::Int),
            Column::new("l", DataType::Bool),
        ]);
        plan = LogicalPlan::Project { input: Box::new(plan), exprs, schema };
        if sort_on_top {
            // A computed sort key exercises the batched key evaluation.
            plan = LogicalPlan::Sort {
                keys: vec![perm_algebra::plan::SortKey {
                    expr: ScalarExpr::binary(
                        BinOp::Sub,
                        ScalarExpr::Column(1),
                        ScalarExpr::Column(0),
                    ),
                    desc: true,
                }],
                input: Box::new(plan),
            };
        }

        let cat = Arc::new(cat);
        let optimized = match optimize_verified(plan, &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        let (dop, threshold) = if parallel { (3, 1) } else { (1, 2) };
        // The lowering must satisfy the physical invariants.
        let physical = match PhysicalPlanner::new(&cat)
            .max_parallelism(dop)
            .parallel_threshold(threshold)
            .plan_verified(&optimized)
        {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("physical verifier: {e}"))),
        };
        let run = |columnar: bool| {
            let exec = Executor::new(Arc::clone(&cat)).with_columnar(columnar);
            if spill {
                let pool = MemoryPool::with_budget(1);
                let r = exec
                    .with_memory(QueryMemory::new(pool.clone(), None))
                    .run_physical(&physical);
                (r, Some(pool))
            } else {
                (exec.run_physical(&physical), None)
            }
        };
        let (row, row_pool) = run(false);
        let (batch, batch_pool) = run(true);
        match (row, batch) {
            // Exact equality, order included: batching is invisible.
            (Ok(r), Ok(b)) => prop_assert_eq!(r, b, "batch diverges for {:?}", case),
            (Err(r), Err(b)) => prop_assert_eq!(
                r.to_string(),
                b.to_string(),
                "errors diverge for {:?}",
                case
            ),
            (r, b) => prop_assert!(
                false,
                "one mode failed: row={:?} batch={:?} case={:?}",
                r,
                b,
                case
            ),
        }
        for pool in [row_pool, batch_pool].into_iter().flatten() {
            prop_assert_eq!(pool.used(), 0, "pool must drain to zero after the query");
        }
    }

    /// A query cancelled at a random instant — via a context deadline
    /// that may fire before the first operator, mid-pipeline, or never —
    /// either completes with exactly the reference answer or fails with
    /// the typed `cancelled` error. No other outcome is acceptable: no
    /// panic, no wrong or truncated result. And whichever way the race
    /// goes, the memory pool drains back to zero — the unwind path
    /// releases every reservation and deletes every spill temp file.
    #[test]
    fn random_cancel_points_never_leak_or_corrupt(
        case in plan_case(),
        cancel_after_us in 0u64..300,
        parallel in any::<bool>(),
        spill in any::<bool>(),
    ) {
        // FULL hash joins are non-spillable by design (see
        // spilling_execution_matches_in_memory): remap to LEFT when this
        // case runs under the starved pool.
        let case = PlanCase {
            kind: if spill && case.kind == JoinType::Full { JoinType::Left } else { case.kind },
            ..case
        };
        let cat = tables(&case, false);
        let plan = build_plan(&case, &cat);
        let cat = Arc::new(cat);
        let reference = run_nlj(&cat, &plan).expect("generated plans have no failing expressions");
        let optimized = match optimize_verified(plan, &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        let (dop, threshold) = if parallel { (3, 1) } else { (1, 2) };
        let physical = lower_at(&cat, &optimized, dop, threshold);
        let ctx = QueryContext::new(42, Some(Duration::from_micros(cancel_after_us)), None);
        let exec = Executor::new(Arc::clone(&cat)).with_context(ctx);
        let (result, pool) = if spill {
            let pool = MemoryPool::with_budget(1);
            let r = exec
                .with_memory(QueryMemory::new(pool.clone(), None))
                .run_physical(&physical);
            (r, Some(pool))
        } else {
            (exec.run_physical(&physical), None)
        };
        match result {
            Ok(rows) => prop_assert_eq!(
                sorted(rows),
                sorted(reference),
                "query outran its deadline but answered wrong: {:?}",
                case
            ),
            Err(e) => prop_assert!(
                e.kind() == "cancelled",
                "cancellation surfaced as `{}` ({}) for {:?}",
                e.kind(),
                e,
                case
            ),
        }
        if let Some(pool) = pool {
            prop_assert_eq!(pool.used(), 0, "pool must drain after cancellation");
        }
    }

    /// Hash-based execution (hash joins, fused slot projections, hash
    /// aggregation) and nested-loop execution produce identical multisets
    /// on randomized join/filter/aggregate plans — without indexes, and
    /// with one on t2's join column (and the chain's index), so index
    /// nested-loop joins run too. Float keys put NULL, NaN and both zeros
    /// against Int keys: every path matches as `=` does.
    #[test]
    fn executors_agree_on_random_plans(case in plan_case()) {
        for t2_index in [false, true] {
            let cat = tables(&case, t2_index);
            let plan = build_plan(&case, &cat);
            // Every generated plan must satisfy the logical invariants
            // before it is meaningful to compare executors on it.
            if let Err(e) = perm_algebra::verify::verify_logical(&plan, "binding") {
                return Err(TestCaseError::fail(format!("generator produced an invalid plan: {e}")));
            }

            let cat = Arc::new(cat);
            let hash = run(&cat, &plan);
            let nlj = run_nlj(&cat, &plan);
            match (hash, nlj) {
                (Ok(h), Ok(n)) => prop_assert_eq!(
                    sorted(h),
                    sorted(n),
                    "executors diverge (t2 index: {}) for {:?}",
                    t2_index,
                    case
                ),
                (Err(h), Err(n)) => prop_assert_eq!(h.to_string(), n.to_string()),
                (h, n) => prop_assert!(false, "one executor failed: hash={:?} nlj={:?}", h, n),
            }
        }
    }
}

// ----------------------------------------------------------------------
// DISTINCT over duplicate-free inputs
// ----------------------------------------------------------------------

/// Rows of a two-column table for the DISTINCT properties: random pairs
/// (so rows and values repeat), the first column renumbered into a key
/// when `keyed`, then possibly spoiled — `spoil` 1 plants a NULL in it, 2
/// appends a copy of the first row.
fn keyed_rows() -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>)>> {
    (
        prop::collection::vec((cell(), cell()), 0..40),
        any::<bool>(),
        0..3usize,
    )
        .prop_map(|(mut rows, keyed, spoil)| {
            if keyed {
                for (i, row) in rows.iter_mut().enumerate() {
                    row.0 = Some(i as i64);
                }
            }
            if let Some(&first) = rows.first() {
                match spoil {
                    1 => rows.last_mut().unwrap().0 = None,
                    2 => rows.push(first),
                    _ => {}
                }
            }
            rows
        })
}

/// Whether the first column holds no NULL and no value twice.
fn first_is_key(rows: &[(Option<i64>, Option<i64>)]) -> bool {
    let keys: Vec<_> = rows.iter().map(|r| r.0).collect();
    keys.iter().all(Option::is_some) && keys.iter().enumerate().all(|(i, k)| !keys[..i].contains(k))
}

fn int_or_null(v: Option<i64>) -> Value {
    v.map(Value::Int).unwrap_or(Value::Null)
}

/// The first occurrence of every distinct row, in input order: what
/// DISTINCT returns.
fn first_occurrences(rows: impl IntoIterator<Item = Tuple>) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = Vec::new();
    for t in rows {
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

/// The provenance of `t1 UNION t2` computed by hand: every row of each
/// table beside a copy of itself and NULLs for the other table, the
/// whole de-duplicated.
fn padded_reference(
    t1: &[(Option<i64>, Option<i64>)],
    t2: &[(Option<i64>, Option<i64>)],
) -> Vec<Tuple> {
    let null = || [Value::Null, Value::Null];
    let row = |&(a, b): &(Option<i64>, Option<i64>)| [int_or_null(a), int_or_null(b)];
    let left = t1.iter().map(|r| [row(r), row(r), null()]);
    let right = t2.iter().map(|r| [row(r), null(), row(r)]);
    first_occurrences(left.chain(right).map(|parts| Tuple::new(parts.concat())))
}

/// The provenance of `t1 UNION t2` rewritten by `strategy`, optimized,
/// lowered at `dop` and run.
fn union_provenance(
    cat: &Arc<Catalog>,
    strategy: perm_rewrite::UnionStrategy,
    dop: usize,
) -> perm_types::Result<Vec<Tuple>> {
    let scan = |name: &str| LogicalPlan::Scan {
        table: name.into(),
        schema: cat.table(name).unwrap().schema().clone(),
        provenance_cols: vec![],
    };
    let left = scan("t1");
    let schema = left.schema().clone();
    let union = LogicalPlan::SetOp {
        op: SetOpType::Union,
        all: false,
        left: Box::new(left),
        right: Box::new(scan("t2")),
        schema,
    };
    let options = perm_rewrite::RewriteOptions {
        union_strategy: perm_rewrite::StrategyMode::Fixed(strategy),
        ..Default::default()
    };
    let stats = CatalogStats(cat);
    let rewritten = perm_rewrite::Rewriter::new(options, &stats).rewrite(&union, None)?;
    let optimized = optimize_verified(rewritten.plan, &stats)?;
    let physical = PhysicalPlanner::new(cat)
        .max_parallelism(dop)
        .parallel_threshold(1)
        .plan_verified(&optimized)?;
    Executor::new(Arc::clone(cat)).run_physical(&physical)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A DISTINCT returns the first occurrence of every distinct row of
    /// its input, in input order, whether the executor proves the input
    /// duplicate-free and passes it through or hashes it: over tables
    /// with and without a key column (and keys spoiled by a NULL or a
    /// duplicated row), under projections that keep, reorder, compute or
    /// drop the key, with and without a filter and a padding projection
    /// on top — at DOP 1 and 2, materialized and streamed, in memory and
    /// under a 1-byte pool. Where the key survives to the DISTINCT, the
    /// pass-through must have run.
    #[test]
    fn distinct_passthrough_matches_first_occurrence(
        rows in keyed_rows(),
        project in 0..5usize,
        filter in proptest::option::of(-2i64..3),
        pad in any::<bool>(),
    ) {
        let mut cat = Catalog::new();
        cat.create_table(int_table("t", ["k", "v"], &rows)).unwrap();
        let cat = Arc::new(cat);
        let mut plan = LogicalPlan::Scan {
            table: "t".into(),
            schema: cat.table("t").unwrap().schema().clone(),
            provenance_cols: vec![],
        };
        if let Some(lit) = filter {
            plan = LogicalPlan::filter(
                plan,
                ScalarExpr::binary(BinOp::GtEq, ScalarExpr::Column(1), ScalarExpr::Literal(Value::Int(lit))),
            );
        }
        plan = match project {
            0 => plan,
            1 => LogicalPlan::project_positions(plan, &[0]),
            2 => LogicalPlan::project_positions(plan, &[1]),
            3 => LogicalPlan::project_positions(plan, &[1, 0]),
            _ => LogicalPlan::project(
                plan,
                vec![
                    ScalarExpr::binary(BinOp::Add, ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(1))),
                    ScalarExpr::Column(1),
                ],
                vec![Column::new("k1", DataType::Int), Column::new("v", DataType::Int)],
            ),
        };
        plan = LogicalPlan::Distinct { input: Box::new(plan) };
        if pad {
            let arity = plan.arity();
            let mut columns = plan.schema().columns().to_vec();
            columns.push(Column::new("pad", DataType::Int));
            let exprs = (0..arity)
                .map(ScalarExpr::Column)
                .chain([ScalarExpr::Literal(Value::Null)])
                .collect();
            plan = LogicalPlan::project(plan, exprs, columns);
        }

        let kept = rows
            .iter()
            .filter(|(_, v)| filter.is_none_or(|lit| v.is_some_and(|v| v >= lit)))
            .map(|&(key, v)| {
                let (k, v) = (int_or_null(key), int_or_null(v));
                let mut t = match project {
                    0 => vec![k, v],
                    1 => vec![k],
                    2 => vec![v],
                    3 => vec![v, k],
                    _ => vec![int_or_null(key.map(|k| k + 1)), v],
                };
                if pad {
                    t.push(Value::Null);
                }
                Tuple::new(t)
            });
        let expected = first_occurrences(kept);
        let passes = first_is_key(&rows) && matches!(project, 0 | 1 | 3);

        let optimized = match optimize_verified(plan, &CatalogStats(&cat)) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::fail(format!("verifier: {e}"))),
        };
        let _guard = perm_fault::test_guard();
        perm_fault::configure("exec.distinct.passthrough=stall(0)").unwrap();
        let mut runs = 0u64;
        for dop in [1usize, 2] {
            let physical = match PhysicalPlanner::new(&cat)
                .max_parallelism(dop)
                .parallel_threshold(1)
                .plan_verified(&optimized)
            {
                Ok(p) => p,
                Err(e) => return Err(TestCaseError::fail(format!("physical verifier: {e}"))),
            };
            for pool in [MemoryPool::unbounded(), MemoryPool::with_budget(1)] {
                let exec = || {
                    Executor::new(Arc::clone(&cat))
                        .with_memory(QueryMemory::new(pool.clone(), None))
                };
                let materialized = exec().run_physical(&physical);
                let streamed: perm_types::Result<Vec<Tuple>> =
                    exec().into_stream_physical(&physical).and_then(|s| s.collect());
                runs += 2;
                let budget = pool.budget();
                prop_assert_eq!(
                    materialized.as_ref().map_err(|e| e.to_string()),
                    Ok(&expected),
                    "materialized at dop {} under {:?} for {:?}", dop, budget, physical
                );
                prop_assert_eq!(
                    streamed.as_ref().map_err(|e| e.to_string()),
                    Ok(&expected),
                    "streamed at dop {} under {:?} for {:?}", dop, budget, physical
                );
                prop_assert_eq!(pool.used(), 0, "pool must drain to zero");
            }
        }
        let fired = perm_fault::fired_count("exec.distinct.passthrough");
        perm_fault::clear();
        // Other properties of this binary may pass a DISTINCT through
        // meanwhile, so only a missing pass-through is an error.
        prop_assert!(
            !passes || fired >= runs,
            "the key survives to the DISTINCT, but {} of {} runs hashed: {:?}", runs - fired.min(runs), runs, optimized
        );
    }

    /// The padded-union provenance of `t1 UNION t2`, whose branches pass
    /// their DISTINCT through where a key column makes the base rows
    /// distinct (and must, then), equals the join-back strategy's as a
    /// multiset — over keyed, unkeyed and spoiled tables, at DOP 1 and 2.
    #[test]
    fn padded_union_distinct_matches_join_back(
        t1_rows in keyed_rows(),
        t2_rows in keyed_rows(),
    ) {
        let mut cat = Catalog::new();
        for (name, cols, rows) in [("t1", ["a", "b"], &t1_rows), ("t2", ["c", "d"], &t2_rows)] {
            let mut t = int_table(name, cols, rows);
            // A NOT NULL first column makes the padded branches disjoint,
            // so each branch de-duplicates its own base rows.
            if rows.iter().all(|r| r.0.is_some()) {
                let mut columns = t.schema().columns().to_vec();
                columns[0] = columns[0].clone().not_null();
                let mut strict = Table::new(name, Schema::new(columns));
                for row in t.rows() {
                    strict.insert(row.clone()).unwrap();
                }
                t = strict;
            }
            cat.create_table(t).unwrap();
        }
        let cat = Arc::new(cat);
        let keyed = [&t1_rows, &t2_rows].map(|rows| first_is_key(rows));
        for dop in [1usize, 2] {
            let _guard = perm_fault::test_guard();
            perm_fault::configure("exec.distinct.passthrough=stall(0)").unwrap();
            let padded = union_provenance(&cat, perm_rewrite::UnionStrategy::PaddedUnion, dop);
            let fired = perm_fault::fired_count("exec.distinct.passthrough");
            perm_fault::clear();
            let join_back = union_provenance(&cat, perm_rewrite::UnionStrategy::JoinBack, dop);
            prop_assert!(
                fired >= keyed.iter().filter(|&&k| k).count() as u64,
                "{} keyed branches, {} passed through at dop {}", keyed.iter().filter(|&&k| k).count(), fired, dop
            );
            match (padded, join_back) {
                (Ok(p), Ok(j)) => {
                    let (p, j) = (sorted(p), sorted(j));
                    prop_assert_eq!(&p, &j, "padded union and join-back diverge at dop {}", dop);
                    prop_assert_eq!(p, sorted(padded_reference(&t1_rows, &t2_rows)), "at dop {}", dop);
                }
                (p, j) => prop_assert!(false, "a strategy failed: padded={:?} join_back={:?}", p, j),
            }
        }
    }
}
