//! The property every partitioned driver relies on, tested on the
//! operator bodies directly: running a body once per hash partition (any
//! partition count) and merging the tagged outputs by tag gives exactly
//! what running it once over the whole input gives — the same rows in
//! the same order and, when evaluation fails, the same first error.

use std::sync::Arc;

use perm_algebra::expr::{BinOp, ScalarExpr};
use perm_algebra::plan::{JoinType, SetOpType};
use perm_storage::Catalog;
use perm_types::{PermError, QueryContext, Result, Tuple, Value};

use super::join::HashProbe;
use super::setop::{keep_first, setop_kernel};
use crate::executor::Executor;
use crate::parallel::{partition_of, restore_order};
use crate::physical::{BuildSide, EquiKey, PhysicalPlan};

const PARTITION_COUNTS: [usize; 3] = [1, 2, 7];

type Tagged = Vec<(u64, Tuple)>;

fn row(a: Option<i64>, b: i64) -> Tuple {
    Tuple::new(vec![a.map_or(Value::Null, Value::Int), Value::Int(b)])
}

/// Duplicate-heavy two-column rows with a few NULL first columns, tagged
/// from `offset`.
fn tagged_rows(n: i64, modulus: i64, offset: u64) -> Tagged {
    (0..n)
        .map(|i| {
            let a = (i % 11 != 5).then_some(i % modulus);
            (offset + i as u64, row(a, i % 3))
        })
        .collect()
}

/// Split tagged rows into `k` partitions by `part`, keeping tag order.
fn split(rows: &Tagged, k: usize, part: impl Fn(&Tuple) -> usize) -> Vec<Tagged> {
    let mut parts = vec![Vec::new(); k];
    for (tag, t) in rows {
        parts[part(t)].push((*tag, t.clone()));
    }
    parts
}

fn stream(rows: Tagged) -> impl Iterator<Item = Result<(u64, Tuple)>> {
    rows.into_iter().map(Ok)
}

#[test]
fn setop_kernel_is_partition_invariant() {
    let ctx = QueryContext::detached();
    let l = tagged_rows(90, 7, 0);
    let r = tagged_rows(60, 5, 90);
    for spec in [
        (SetOpType::Union, false),
        (SetOpType::Intersect, false),
        (SetOpType::Intersect, true),
        (SetOpType::Except, false),
        (SetOpType::Except, true),
    ] {
        let run = |l: Tagged, r: Tagged| {
            let mut out: Tagged = Vec::new();
            let cap = l.len() + r.len();
            setop_kernel(&ctx, spec, stream(l), stream(r), cap, |tag, t| {
                out.push((tag, t))
            })
            .unwrap();
            out
        };
        let whole = run(l.clone(), r.clone());
        assert!(!whole.is_empty(), "{spec:?}: vacuous input");
        assert!(
            whole.windows(2).all(|w| w[0].0 < w[1].0),
            "{spec:?}: one partition's output is already in input order"
        );
        for k in PARTITION_COUNTS {
            let by_row = |t: &Tuple| partition_of(t, k);
            let merged: Tagged = split(&l, k, by_row)
                .into_iter()
                .zip(split(&r, k, by_row))
                .flat_map(|(lp, rp)| run(lp, rp))
                .collect();
            assert_eq!(
                restore_order(merged),
                restore_order(whole.clone()),
                "{spec:?} k={k}"
            );
        }
    }
}

#[test]
fn keep_first_is_partition_invariant() {
    let ctx = QueryContext::detached();
    let rows = tagged_rows(120, 7, 0);
    let run = |rows: Tagged| {
        let mut out: Tagged = Vec::new();
        keep_first(&ctx, rows.len(), stream(rows), |tag, t| {
            out.push((tag, t));
            Ok(())
        })
        .unwrap();
        out
    };
    let whole = run(rows.clone());
    assert!(whole.len() < rows.len(), "input must contain duplicates");
    assert!(whole.windows(2).all(|w| w[0].0 < w[1].0));
    for k in PARTITION_COUNTS {
        let merged: Tagged = split(&rows, k, |t| partition_of(t, k))
            .into_iter()
            .flat_map(run)
            .collect();
        assert_eq!(restore_order(merged), restore_order(whole.clone()), "k={k}");
    }
}

#[test]
fn keep_first_stops_at_the_first_failing_emit() {
    // The spilled driver's charge can be denied mid-partition: the body
    // must surface it instead of carrying on.
    let ctx = QueryContext::detached();
    let mut kept = 0;
    let err = keep_first(&ctx, 0, stream(tagged_rows(50, 7, 0)), |_, _| {
        kept += 1;
        if kept == 3 {
            return Err(PermError::Execution("denied".into()));
        }
        Ok(())
    })
    .unwrap_err();
    assert_eq!(err, PermError::Execution("denied".into()));
    assert_eq!(kept, 3);
}

fn hash_join_node(
    kind: JoinType,
    build_side: BuildSide,
    residual: Option<ScalarExpr>,
) -> PhysicalPlan {
    let unused_input = || {
        Box::new(PhysicalPlan::Values {
            rows: Vec::new(),
            arity: 2,
        })
    };
    PhysicalPlan::HashJoin {
        left: unused_input(),
        right: unused_input(),
        kind,
        keys: vec![EquiKey {
            left: ScalarExpr::Column(0),
            right: ScalarExpr::Column(0),
            null_safe: false,
        }],
        residual,
        build_side,
        nl: 2,
        nr: 2,
        out_slots: None,
        est_rows: 0.0,
        dop: 1,
        spill: None,
    }
}

/// What one probe run produced: tagged rows and how many build rows it
/// matched (FULL's bitmap), or the positioned evaluation error.
type ProbeOutcome = std::result::Result<(Tagged, usize), (u64, String)>;

#[test]
fn hash_probe_is_partition_invariant() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let left = tagged_rows(80, 7, 0);
    let right = tagged_rows(50, 5, 0);
    let combined = |slot: usize| ScalarExpr::Column(slot);
    // l.b < r.d keeps some candidates of every key.
    let selective = ScalarExpr::binary(BinOp::Lt, combined(1), combined(3));
    // 6 / (l.b + r.d - 4) < 100 raises division by zero where both are 2.
    let failing = ScalarExpr::binary(
        BinOp::Lt,
        ScalarExpr::binary(
            BinOp::Div,
            ScalarExpr::Literal(Value::Int(6)),
            ScalarExpr::binary(
                BinOp::Sub,
                ScalarExpr::binary(BinOp::Add, combined(1), combined(3)),
                ScalarExpr::Literal(Value::Int(4)),
            ),
        ),
        ScalarExpr::Literal(Value::Int(100)),
    );
    let kinds = [
        (JoinType::Inner, BuildSide::Right),
        (JoinType::Inner, BuildSide::Left),
        (JoinType::Left, BuildSide::Right),
        (JoinType::Semi, BuildSide::Right),
        (JoinType::Anti, BuildSide::Right),
        (JoinType::Full, BuildSide::Right),
    ];
    for (kind, build_side) in kinds {
        for residual in [None, Some(selective.clone()), Some(failing.clone())] {
            let what = format!("{kind:?} build={build_side:?} residual={residual:?}");
            let fails = residual.as_ref() == Some(&failing);
            let probe = HashProbe::compile(&exec, &hash_join_node(kind, build_side, residual));
            let (build, probe_rows) = match build_side {
                BuildSide::Left => (&left, &right),
                BuildSide::Right => (&right, &left),
            };
            let run = |build: Tagged, probe_rows: Tagged| -> ProbeOutcome {
                let build_rows: Vec<Tuple> = build.into_iter().map(|(_, t)| t).collect();
                let mut matched = vec![false; build_rows.len()];
                let table = probe.build(&exec, build_rows).unwrap();
                let mut out: Tagged = Vec::new();
                let bitmap = matches!(kind, JoinType::Full).then_some(matched.as_mut_slice());
                match probe.run(&exec, &table, stream(probe_rows), bitmap, 0, |tag, t| {
                    out.push((tag, t))
                }) {
                    Ok(()) => Ok((out, matched.iter().filter(|m| **m).count())),
                    Err((Some(pos), e)) => Err((pos, e.to_string())),
                    Err((None, e)) => panic!("{what}: positionless error {e}"),
                }
            };
            let whole = run(build.clone(), probe_rows.clone());
            assert_eq!(whole.is_err(), fails, "{what}: {whole:?}");
            for k in PARTITION_COUNTS {
                let by_key = |t: &Tuple| partition_of(t.get(0), k);
                let mut rows: Tagged = Vec::new();
                let mut matched = 0;
                let mut first_err: Option<(u64, String)> = None;
                for (bp, pp) in split(build, k, by_key)
                    .into_iter()
                    .zip(split(probe_rows, k, by_key))
                {
                    match run(bp, pp) {
                        Ok((out, m)) => {
                            rows.extend(out);
                            matched += m;
                        }
                        Err(e) if first_err.as_ref().is_none_or(|b| e.0 < b.0) => {
                            first_err = Some(e);
                        }
                        Err(_) => {}
                    }
                }
                let merged = match first_err {
                    Some(e) => Err(e),
                    None => Ok((restore_order(rows), matched)),
                };
                let expected = whole
                    .clone()
                    .map(|(rows, matched)| (restore_order(rows), matched));
                assert_eq!(merged, expected, "{what} k={k}");
            }
        }
    }
}
