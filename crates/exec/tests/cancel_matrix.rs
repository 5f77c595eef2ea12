//! Pre-cancelled operator matrix: every operator, under every driver the
//! planner can stamp on it, observes a cancellation that happened before
//! it started — and every blocking operator one that lands after it read
//! its input, where only its own body can notice.
//!
//! The operators share one body per operator between their serial,
//! parallel and spilled drivers, so "is this loop cancellable" has one
//! answer per operator — this matrix pins it for all five hashed
//! `(op, all)` set operations, `HashDistinct`, `HashAggregate` (one row
//! per group, and one per witness, grouped and global), `HashJoin` (every
//! kind the drivers accept, both build sides where legal), `IndexNLJoin`,
//! a join chain and aggregates over a join (row references passed up), the
//! fused scan (filter, projection, both, and a row-only `CASE` filter),
//! standalone `Filter` / `Project`, `Sort` and `Limit`, each at `dop` 1
//! and 2 and, where the node may spill, under a 1-byte per-query cap that
//! denies the reservation — materialized through `run_physical` and
//! pulled through `into_stream_physical`. (It was born from a drift between the copies: serial
//! `INTERSECT` / `EXCEPT` with set semantics returned rows on a cancelled
//! context while their parallel twins returned `Cancelled`.)
//!
//! Plans are built by hand so the `dop` / `spill` stamps are exactly the
//! ones under test, and checked with the physical plan verifier so the
//! matrix only contains plans the planner could legally emit.

use std::sync::Arc;

use perm_algebra::expr::{AggCall, AggFunc, BinOp, ScalarExpr};
use perm_algebra::plan::{AggOutput, JoinType, SetOpType, SortKey};
use perm_exec::physical::{BuildSide, EquiKey, PhysicalPlan};
use perm_exec::{verify_physical, Executor, MemoryPool, QueryMemory};
use perm_storage::{spill_dir_is_clean, Catalog, Table};
use perm_types::{Column, DataType, QueryContext, Result, Schema, Tuple, Value};

fn int_table(name: &str, cols: [&str; 2], rows: impl Iterator<Item = (i64, i64)>) -> Table {
    let mut t = Table::new(
        name,
        Schema::new(vec![
            Column::new(cols[0], DataType::Int),
            Column::new(cols[1], DataType::Int),
        ]),
    );
    for (a, b) in rows {
        t.insert(Tuple::new(vec![Value::Int(a), Value::Int(b)]))
            .expect("row matches schema");
    }
    t
}

/// `t1(a, b)` and `t2(c, d)`: overlapping, duplicate-heavy, `t2` indexed
/// on `c` for the index nested-loop join.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new();
    cat.create_table(int_table("t1", ["a", "b"], (0..60).map(|i| (i % 7, i % 3))))
        .unwrap();
    cat.create_table(int_table("t2", ["c", "d"], (0..45).map(|i| (i % 5, i % 3))))
        .unwrap();
    cat.table_mut("t2").unwrap().create_index(0).unwrap();
    Arc::new(cat)
}

/// A bare scan: a bulk clone of the base rows with no loop of its own;
/// the pull that reads it is its one cancellation point.
fn scan(cat: &Catalog, name: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::FusedScanProjectFilter {
        table: name.into(),
        schema: cat.table(name).unwrap().schema().clone(),
        filter: None,
        project: None,
        est_rows: 50.0,
        dop: 1,
    })
}

/// Every operator node of the matrix at one `dop`, labelled. Nodes that
/// can spill carry the may-spill flag.
fn operators(cat: &Catalog, dop: usize) -> Vec<(String, PhysicalPlan)> {
    let spill = true;
    let mut ops = Vec::new();
    for (op, all) in [
        (SetOpType::Union, false),
        (SetOpType::Intersect, false),
        (SetOpType::Intersect, true),
        (SetOpType::Except, false),
        (SetOpType::Except, true),
    ] {
        ops.push((
            format!("{op:?} all={all} dop={dop}"),
            PhysicalPlan::HashSetOp {
                op,
                all,
                left: scan(cat, "t1"),
                right: scan(cat, "t2"),
                dop,
                spill,
            },
        ));
    }
    ops.push((
        format!("HashDistinct dop={dop}"),
        PhysicalPlan::HashDistinct {
            input: scan(cat, "t1"),
            dop,
            spill,
        },
    ));
    // Grouped aggregation one row per group and one per witness, and a
    // global witness aggregate (never spills: no partitions to spill to).
    let aggs = vec![
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
    ];
    for (output, group_by, spill) in [
        (AggOutput::Groups, vec![ScalarExpr::Column(0)], spill),
        (AggOutput::Witnesses, vec![ScalarExpr::Column(0)], spill),
        (AggOutput::Witnesses, vec![], false),
    ] {
        ops.push((
            format!("HashAggregate {output:?} keys={} dop={dop}", group_by.len()),
            PhysicalPlan::HashAggregate {
                input: scan(cat, "t1"),
                group_by,
                aggs: aggs.clone(),
                dop,
                spill,
                output,
            },
        ));
    }
    // b < d over the combined row: a residual that keeps some matches.
    let residual = ScalarExpr::binary(BinOp::Lt, ScalarExpr::Column(1), ScalarExpr::Column(3));
    for (kind, build_side) in [
        (JoinType::Inner, BuildSide::Right),
        (JoinType::Inner, BuildSide::Left),
        (JoinType::Left, BuildSide::Right),
        (JoinType::Semi, BuildSide::Right),
        (JoinType::Anti, BuildSide::Right),
    ] {
        ops.push((
            format!("HashJoin {kind:?} build={build_side:?} dop={dop}"),
            PhysicalPlan::HashJoin {
                left: scan(cat, "t1"),
                right: scan(cat, "t2"),
                kind,
                keys: vec![EquiKey {
                    left: ScalarExpr::Column(0),
                    right: ScalarExpr::Column(0),
                    null_safe: false,
                }],
                residual: Some(residual.clone()),
                build_side,
                nl: 2,
                nr: 2,
                out_slots: None,
                est_rows: 100.0,
                dop,
                spill,
            },
        ));
    }
    for kind in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        ops.push((
            format!("IndexNLJoin {kind:?} dop={dop}"),
            PhysicalPlan::IndexNLJoin {
                outer: scan(cat, "t1"),
                kind,
                table: "t2".into(),
                schema: cat.table("t2").unwrap().schema().clone(),
                column: 0,
                key: ScalarExpr::Column(0),
                inner_filter: None,
                inner_project: None,
                residual: Some(residual.clone()),
                nl: 2,
                nr: 2,
                out_slots: None,
                est_rows: 100.0,
                dop,
            },
        ));
    }
    // Joins over joins pass row references up: a chain HashJoin ←
    // IndexNLJoin ← HashJoin, and grouped and witness aggregates over a
    // join, read their inputs through the references.
    let col = ScalarExpr::Column;
    let hash_join = |left, right, key: (usize, usize), residual, nl| PhysicalPlan::HashJoin {
        left,
        right,
        kind: JoinType::Inner,
        keys: vec![EquiKey {
            left: col(key.0),
            right: col(key.1),
            null_safe: false,
        }],
        residual,
        build_side: BuildSide::Right,
        nl,
        nr: 2,
        out_slots: None,
        est_rows: 100.0,
        dop,
        spill,
    };
    let lower = || {
        Box::new(hash_join(
            scan(cat, "t1"),
            scan(cat, "t2"),
            (0, 0),
            Some(residual.clone()),
            2,
        ))
    };
    let chain = hash_join(
        Box::new(PhysicalPlan::IndexNLJoin {
            outer: lower(),
            kind: JoinType::Inner,
            table: "t2".into(),
            schema: cat.table("t2").unwrap().schema().clone(),
            column: 0,
            key: col(3),
            inner_filter: None,
            inner_project: None,
            residual: None,
            nl: 4,
            nr: 2,
            out_slots: None,
            est_rows: 100.0,
            dop,
        }),
        scan(cat, "t1"),
        (4, 0),
        Some(ScalarExpr::binary(BinOp::Lt, col(5), col(7))),
        6,
    );
    ops.push((
        format!("HashJoin <- IndexNLJoin <- HashJoin dop={dop}"),
        chain,
    ));
    for output in [AggOutput::Groups, AggOutput::Witnesses] {
        ops.push((
            format!("HashAggregate {output:?} over HashJoin dop={dop}"),
            PhysicalPlan::HashAggregate {
                input: lower(),
                group_by: vec![col(3)],
                aggs: aggs.clone(),
                dop,
                spill,
                output,
            },
        ));
    }
    // The pipelined operators. a % 2 = 0 and a + b have kernels; the
    // CASE filter pins its scan to the row path.
    let int = |v| ScalarExpr::Literal(Value::Int(v));
    let even = ScalarExpr::eq(
        ScalarExpr::binary(BinOp::Mod, ScalarExpr::Column(0), int(2)),
        int(0),
    );
    let sum = vec![ScalarExpr::binary(
        BinOp::Add,
        ScalarExpr::Column(0),
        ScalarExpr::Column(1),
    )];
    let case = ScalarExpr::Case {
        operand: None,
        branches: vec![(
            ScalarExpr::eq(ScalarExpr::Column(1), int(0)),
            ScalarExpr::Literal(Value::Bool(true)),
        )],
        else_branch: Some(Box::new(even.clone())),
    };
    for (what, filter, project) in [
        ("filter", Some(even.clone()), None),
        ("project", None, Some(sum.clone())),
        ("both", Some(even.clone()), Some(sum.clone())),
        ("row-only filter", Some(case), None),
    ] {
        ops.push((
            format!("FusedScanProjectFilter {what} dop={dop}"),
            PhysicalPlan::FusedScanProjectFilter {
                table: "t1".into(),
                schema: cat.table("t1").unwrap().schema().clone(),
                filter,
                project,
                est_rows: 50.0,
                dop,
            },
        ));
    }
    ops.push((
        "Filter".into(),
        PhysicalPlan::Filter {
            input: scan(cat, "t1"),
            predicate: even,
        },
    ));
    ops.push((
        "Project".into(),
        PhysicalPlan::Project {
            input: scan(cat, "t1"),
            exprs: sum,
        },
    ));
    ops.push((
        format!("Sort dop={dop}"),
        PhysicalPlan::Sort {
            input: scan(cat, "t1"),
            keys: vec![SortKey {
                expr: ScalarExpr::Column(1),
                desc: true,
            }],
            dop,
            spill,
        },
    ));
    ops.push((
        "Limit".into(),
        PhysicalPlan::Limit {
            input: scan(cat, "t1"),
            limit: Some(5),
            offset: 1,
        },
    ));
    for (label, plan) in &ops {
        verify_physical(plan, "cancel-matrix").unwrap_or_else(|e| panic!("{label}: {e}"));
    }
    ops
}

/// The two ways a plan's rows are consumed: materialized through
/// `run_physical`, or pulled through the stream cursor tree.
fn execute(exec: Executor, plan: &PhysicalPlan, streamed: bool) -> Result<Vec<Tuple>> {
    if streamed {
        exec.into_stream_physical(plan)?.collect()
    } else {
        exec.run_physical(plan)
    }
}

#[test]
fn pre_cancelled_operators_return_cancelled_and_leak_nothing() {
    // Spill files are process-global: serialize with the control below.
    let _g = perm_fault::test_guard();
    let cat = catalog();
    for dop in [1, 2] {
        for (label, plan) in operators(&cat, dop) {
            // Unbounded memory runs the in-memory driver `dop` selects; a
            // 1-byte per-query cap denies the reservation and, where the
            // node carries a spill stamp, runs the spilled driver.
            let caps: &[Option<usize>] = if plan.spill() {
                &[None, Some(1)]
            } else {
                &[None]
            };
            for (&cap, streamed) in caps.iter().flat_map(|c| [(c, false), (c, true)]) {
                let ctx = QueryContext::new(42, None, None);
                ctx.handle().cancel();
                let pool = MemoryPool::unbounded();
                let exec = Executor::new(Arc::clone(&cat))
                    .with_context(ctx)
                    .with_memory(QueryMemory::new(pool.clone(), cap));
                let what = format!("{label} cap={cap:?} streamed={streamed}");
                match execute(exec, &plan, streamed) {
                    Err(e) => assert_eq!(e.kind(), "cancelled", "{what}: {e}"),
                    Ok(rows) => panic!("{what}: ran to {} rows on a cancelled context", rows.len()),
                }
                assert_eq!(pool.used(), 0, "{what}: pool must drain to zero");
                assert!(spill_dir_is_clean(), "{what}: spill temp files left behind");
            }
        }
    }
}

/// A cancellation that lands after a body read its input. A pre-cancelled
/// statement stops at the cursor's first pull, before any body runs, so
/// this pins the bodies' own checks: the `exec.memory.grow` site stalls
/// the first reservation — every blocking node of the matrix reserves
/// after it has read its inputs, before its loops (or, under the 1-byte
/// cap, before it spills) — until a canceller thread has cancelled the
/// context. The pipeline nodes have no body; their pull is pinned above.
/// A bare `IndexNLJoin` reserves nothing, so it is left out (the join
/// chain holds one under a hash join).
/// A canceller slower than the stall is retried with a longer one, whatever
/// the run ended in.
#[test]
fn operators_cancelled_after_reading_their_input_return_cancelled() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let _g = perm_fault::test_guard();
    let cat = catalog();
    for dop in [1, 2] {
        for (label, plan) in operators(&cat, dop) {
            if matches!(
                plan,
                PhysicalPlan::FusedScanProjectFilter { .. }
                    | PhysicalPlan::Filter { .. }
                    | PhysicalPlan::Project { .. }
                    | PhysicalPlan::Limit { .. }
                    | PhysicalPlan::IndexNLJoin { .. }
            ) {
                continue;
            }
            let caps: &[Option<usize>] = if plan.spill() {
                &[None, Some(1)]
            } else {
                &[None]
            };
            for (&cap, streamed) in caps.iter().flat_map(|c| [(c, false), (c, true)]) {
                let what = format!("{label} cap={cap:?} streamed={streamed}");
                let mut result = Ok(Vec::new());
                for stall_ms in [10, 100, 1000] {
                    perm_fault::configure(&format!("exec.memory.grow=stall({stall_ms})@1"))
                        .unwrap();
                    let ctx = QueryContext::new(42, None, None);
                    let handle = ctx.handle();
                    let done = Arc::new(AtomicBool::new(false));
                    let canceller = {
                        let done = Arc::clone(&done);
                        std::thread::spawn(move || {
                            while perm_fault::fired_count("exec.memory.grow") == 0 {
                                if done.load(Ordering::Relaxed) {
                                    return;
                                }
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            handle.cancel();
                        })
                    };
                    let pool = MemoryPool::unbounded();
                    let exec = Executor::new(Arc::clone(&cat))
                        .with_context(ctx)
                        .with_memory(QueryMemory::new(pool.clone(), cap));
                    result = execute(exec, &plan, streamed);
                    done.store(true, Ordering::Relaxed);
                    canceller.join().unwrap();
                    let stalled = perm_fault::fired_count("exec.memory.grow");
                    perm_fault::clear();
                    assert_eq!(stalled, 1, "{what}: the body never reserved");
                    assert_eq!(pool.used(), 0, "{what}: pool must drain to zero");
                    assert!(spill_dir_is_clean(), "{what}: spill temp files left behind");
                    // A canceller that missed the stall lets the body run
                    // on: to its rows, or under the 1-byte cap to
                    // `ResourceExhausted`. Either way, stall longer.
                    if matches!(&result, Err(e) if e.kind() == "cancelled") {
                        break;
                    }
                }
                match result {
                    Err(e) => assert_eq!(e.kind(), "cancelled", "{what}: {e}"),
                    Ok(rows) => panic!("{what}: ran to {} rows after a cancellation", rows.len()),
                }
            }
        }
    }
}

/// The control that keeps the matrix honest: on a live context every plan
/// of the matrix runs — in memory at both `dop`s, and spilled under a
/// 1-byte pool — to exactly the serial in-memory answer, so a `Cancelled`
/// above can only come from the cancellation.
#[test]
fn matrix_plans_run_to_the_serial_answer_on_a_live_context() {
    let _g = perm_fault::test_guard();
    let cat = catalog();
    let serial: Vec<Vec<Tuple>> = operators(&cat, 1)
        .iter()
        .map(|(label, plan)| {
            Executor::new(Arc::clone(&cat))
                .run_physical(plan)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        })
        .collect();
    assert!(
        serial.iter().all(|rows| !rows.is_empty()),
        "every matrix plan must produce rows, or its loops never run"
    );
    for dop in [1, 2] {
        for ((label, plan), expected) in operators(&cat, dop).iter().zip(&serial) {
            for budget in [None, Some(1)] {
                if budget.is_some() && !plan.spill() {
                    continue;
                }
                for streamed in [false, true] {
                    let what = format!("{label} budget={budget:?} streamed={streamed}");
                    let pool = budget.map_or_else(MemoryPool::unbounded, MemoryPool::with_budget);
                    let exec = Executor::new(Arc::clone(&cat))
                        .with_memory(QueryMemory::new(pool.clone(), None));
                    let got =
                        execute(exec, plan, streamed).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(&got, expected, "{what}");
                    assert_eq!(pool.used(), 0, "{what}");
                }
            }
        }
    }
    assert!(spill_dir_is_clean());
}
