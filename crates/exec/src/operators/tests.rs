//! The property every driver relies on, tested on the operator bodies
//! directly: running a body once per hash partition (any partition
//! count) and merging the tagged outputs by tag — or, for the pipelined
//! bodies, once per contiguous chunk (any chunk count, down to one row
//! per call) and concatenating / merging the runs — gives exactly what
//! running it once over the whole input gives: the same rows in the same
//! order and, when evaluation fails, the same first error. The hash
//! bodies are also run through the partition driver itself
//! ([`through_the_driver`]).

use std::sync::Arc;

use perm_algebra::expr::{AggCall, AggFunc, BinOp, ScalarExpr, SubqueryExpr, SubqueryKind};
use perm_algebra::plan::{AggOutput, JoinType, LogicalPlan, SetOpType, SortKey};
use perm_storage::{spill_dir_is_clean, Catalog};
use perm_types::{Column, DataType, PermError, QueryContext, Result, Schema, Tuple, Value};

use super::aggregate::{accumulate, finish, merge_partials, Grouped};
use super::join::{refs_of, HashProbe, JoinRefs, RefRow};
use super::scan::Pipe;
use super::setop::{keep_first, setop_kernel, Distinct, SetOp};
use super::sort::SortRun;
use super::spill::{
    partition_of, partitioned, restore_order, Backing, Cap, Partitioned, Ran, Stream,
};
use crate::compile::CompiledProjection;
use crate::eval::{eval, Env};
use crate::executor::Executor;
use crate::memory::{MemoryPool, QueryMemory};
use crate::parallel::chunk_ranges;
use crate::physical::{out_arity, BuildSide, EquiKey, PhysicalPlan};

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

fn untagged(rows: &Tagged) -> Vec<Tuple> {
    rows.iter().map(|(_, t)| t.clone()).collect()
}

/// Run `op` over `inputs` (two-column rows) through the partition driver
/// — in memory on the pool, and on disk under a 1-byte pool — at every
/// fanout of [`PARTITION_COUNTS`], handing `check` each result. An
/// evaluation error comes back stamped with the position the driver kept
/// (`at {pos}: …`). Every run must give its working memory back, drain the
/// pool and leave no spill file behind.
fn through_the_driver<const N: usize, P: Partitioned<N>>(
    inputs: [&[Tuple]; N],
    op: Arc<P>,
    check: impl Fn(&str, Result<Vec<Tuple>>),
) {
    // Spill files are process-global: see `spill_dir_is_clean`.
    let _g = perm_fault::test_guard();
    let exec = Executor::new(Arc::new(Catalog::new()));
    let pool = MemoryPool::with_budget(1);
    let res = QueryMemory::new(pool.clone(), None).register("test");
    for k in PARTITION_COUNTS {
        for (backing, name) in [(Backing::Pool(k), "pool"), (Backing::Disk(&res, k), "disk")] {
            let what = format!("{name} k={k}");
            let refs = inputs.map(|rows| Arc::new(JoinRefs::rows(rows.to_vec(), 2).unwrap()));
            let stamped = Arc::new(Stamped(Arc::clone(&op)));
            check(&what, partitioned(&exec, backing, refs, stamped));
            assert_eq!(res.size(), 0, "{what}: working memory must be given back");
            assert_eq!(pool.used(), 0, "{what}: pool must drain");
            assert!(spill_dir_is_clean(), "{what}: spill files left behind");
        }
    }
}

/// An operator whose evaluation errors name the position they carry.
struct Stamped<P>(Arc<P>);

impl<const N: usize, P: Partitioned<N>> Partitioned<N> for Stamped<P> {
    fn key(&self, exec: &Executor, k: usize, row: &RefRow, parts: usize) -> Result<Option<usize>> {
        self.0.key(exec, k, row, parts)
    }

    fn run<I: Stream>(&self, exec: &Executor, rows: [I; N], cap: Cap, out: &mut Tagged) -> Ran {
        self.0
            .run(exec, rows, cap, out)
            .map_err(|(pos, e)| match pos {
                Some(p) => (pos, PermError::Execution(format!("at {p}: {e}"))),
                None => (None, e),
            })
    }
}

#[test]
fn setop_kernel_is_partition_invariant() {
    let ctx = QueryContext::detached();
    let l = tagged_rows(90, 7, 0);
    let r = tagged_rows(60, 5, 90);
    let (lrows, rrows) = (untagged(&l), untagged(&r));
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
        // The driver tags `r` after `l`, as above.
        through_the_driver(
            [&lrows, &rrows],
            Arc::new(SetOp(spec.0, spec.1)),
            |what, got| {
                let expected = restore_order(whole.clone());
                assert_eq!(got.unwrap(), expected, "{spec:?} {what}");
            },
        );
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
    through_the_driver([&untagged(&rows)], Arc::new(Distinct), |what, got| {
        assert_eq!(got.unwrap(), restore_order(whole.clone()), "{what}")
    });
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
        spill: false,
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
            let probe = Arc::new(HashProbe::compile(
                &exec,
                &hash_join_node(kind, build_side, residual),
            ));
            let (build, probe_rows) = match build_side {
                BuildSide::Left => (&left, &right),
                BuildSide::Right => (&right, &left),
            };
            let run = |build: Tagged, probe_rows: Tagged| -> ProbeOutcome {
                let build_rows: Vec<Tuple> = build.into_iter().map(|(_, t)| t).collect();
                let mut matched = vec![false; build_rows.len()];
                let mut out: Tagged = Vec::new();
                let bitmap = matches!(kind, JoinType::Full).then_some(matched.as_mut_slice());
                match probe.probe_tagged(&exec, build_rows, probe_rows, bitmap, 0, &mut out) {
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
            if kind == JoinType::Full {
                // FULL joins never run partitioned.
                continue;
            }
            // Through the driver, as the spilled join runs: build rows are
            // input 0, so probe positions start after them.
            let nb = build.len() as u64;
            let expected = whole
                .clone()
                .map(|(rows, _)| restore_order(rows))
                .map_err(|(pos, msg)| (nb + pos, msg));
            through_the_driver(
                [&untagged(build), &untagged(probe_rows)],
                Arc::clone(&probe),
                |driver, got| match (&expected, got) {
                    (Ok(rows), Ok(got)) => assert_eq!(&got, rows, "{what} {driver}"),
                    (Err((pos, msg)), Err(e)) => {
                        let e = e.to_string();
                        let at = format!("at {pos}: ");
                        assert!(e.contains(&at) && e.contains(msg), "{what} {driver}: {e}");
                    }
                    (expected, got) => panic!("{what} {driver}: {expected:?} vs {got:?}"),
                },
            );
        }
    }
}

/// The Grace scatter partitions a row by the key the in-memory join
/// computes for it: joined against itself in memory, every matched
/// (probe, build) pair scatters to one partition, and a row that matches
/// nothing — a NULL or NaN under `=` — is dropped from the build side
/// and sent to partition 0 from the probe side. Single-slot, computed
/// and two-column keys, under `=` and `IS NOT DISTINCT FROM`.
#[test]
fn the_scatter_partitions_a_row_by_its_in_memory_key() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let keys = [Value::Null, Value::Float(f64::NAN), Value::Float(-0.0)]
        .into_iter()
        .chain([Value::Float(0.0), Value::Int(0), Value::Float(2.0)])
        .chain([Value::Int(2), Value::Int(5)]);
    let rows: Vec<Tuple> = keys
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![k, Value::Int(i as i64 % 3)]))
        .collect();
    let plus_zero = ScalarExpr::binary(BinOp::Add, col(0), int(0));
    let shapes: [(&str, Vec<(ScalarExpr, ScalarExpr)>); 3] = [
        ("slot", vec![(col(0), col(0))]),
        ("computed", vec![(plus_zero.clone(), plus_zero)]),
        ("two columns", vec![(col(0), col(0)), (col(1), col(1))]),
    ];
    let refs = JoinRefs::rows(rows.clone(), 2).unwrap();
    let view = refs.view(&exec).unwrap();
    for (shape, pairs) in shapes {
        for null_safe in [false, true] {
            let what = format!("{shape} null_safe={null_safe}");
            let node = PhysicalPlan::HashJoin {
                left: Box::new(values(&rows)),
                right: Box::new(values(&rows)),
                kind: JoinType::Inner,
                keys: pairs
                    .iter()
                    .map(|(l, r)| EquiKey {
                        left: l.clone(),
                        right: r.clone(),
                        null_safe,
                    })
                    .collect(),
                residual: None,
                build_side: BuildSide::Right,
                nl: 2,
                nr: 2,
                out_slots: None,
                est_rows: 0.0,
                dop: 1,
                spill: false,
            };
            let probe = HashProbe::compile(&exec, &node);
            let table = probe.build(&exec, &view).unwrap();
            let mut ids = Vec::new();
            let all = 0..view.len();
            probe
                .run(&exec, &table, &view, &view, all, None, 0, &mut ids)
                .unwrap();
            for parts in PARTITION_COUNTS {
                let scatter = |k, r| probe.key(&exec, k, &view.at(r), parts).unwrap();
                let mut matched = vec![false; view.len()];
                // Inner, building right: (probe id, build id) pairs.
                for pair in ids.chunks(2) {
                    let (p, b) = (pair[0] as usize, pair[1] as usize);
                    assert_eq!(scatter(1, p), scatter(0, b), "{what}: rows {p}, {b}");
                    assert!(scatter(0, b).is_some(), "{what}: row {b}");
                    matched[p] = true;
                }
                for r in (0..view.len()).filter(|&r| !matched[r]) {
                    assert_eq!(scatter(0, r), None, "{what}: build row {r}");
                    assert_eq!(scatter(1, r), Some(0), "{what}: probe row {r}");
                }
            }
            // Every key but a NULL or NaN one matches itself.
            let keyless = if null_safe { 0 } else { 2 };
            let selfless = (0..view.len()).filter(|&r| !ids.chunks(2).any(|p| p[0] as usize == r));
            assert_eq!(selfless.count(), keyless, "{what}");
        }
    }
}

// ----------------------------------------------------------------------
// Pipelined bodies: chunk invariance
// ----------------------------------------------------------------------

/// Input of the pipelined-body tests: `(a, b) = (i, i % 5)`, three
/// kernel batches long so chunk and batch boundaries interleave.
const PIPE_ROWS: i64 = 3_000;

fn pipe_rows() -> Vec<Tuple> {
    (0..PIPE_ROWS).map(|i| row(Some(i), i % 5)).collect()
}

fn col(i: usize) -> ScalarExpr {
    ScalarExpr::Column(i)
}

fn int(v: i64) -> ScalarExpr {
    ScalarExpr::Literal(Value::Int(v))
}

/// `a * BIG + 100 / (a - k)`: division by zero on row `k`, and an integer
/// overflow *naming `a`* on every row past 1000 — so an error says which
/// row raised it, and a kernel that evaluates the multiplication over a
/// whole batch first aborts on a lane the row order never reaches.
fn fails_on_row(k: i64) -> ScalarExpr {
    let big = int(i64::MAX / 1000);
    ScalarExpr::binary(
        BinOp::Add,
        ScalarExpr::binary(BinOp::Mul, col(0), big),
        ScalarExpr::binary(
            BinOp::Div,
            int(100),
            ScalarExpr::binary(BinOp::Sub, col(0), int(k)),
        ),
    )
}

/// `CASE WHEN b = 0 THEN then ELSE otherwise END` — row-only.
fn case_b_zero(then: ScalarExpr, otherwise: ScalarExpr) -> ScalarExpr {
    ScalarExpr::Case {
        operand: None,
        branches: vec![(ScalarExpr::eq(col(1), int(0)), then)],
        else_branch: Some(Box::new(otherwise)),
    }
}

type Outcome = std::result::Result<Vec<Tuple>, String>;

fn outcome(r: Result<Vec<Tuple>>) -> Outcome {
    r.map_err(|e| e.to_string())
}

/// `Pipe::run` over `rows` into a fresh vector: its rows, or its error.
fn run_pipe(pipe: &Pipe, exec: &Executor, rows: &[Tuple]) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    pipe.run(exec, rows.iter(), &mut out).map(|()| out)
}

/// An executor with the columnar switch set to `columnar`.
fn executor(columnar: bool) -> Executor {
    Executor::new(Arc::new(Catalog::new())).with_columnar(columnar)
}

#[test]
fn pipe_is_chunk_invariant() {
    let rows = pipe_rows();
    let a_mod = |m: i64| ScalarExpr::binary(BinOp::Mod, col(0), int(m));
    // (flavour, filter, projection, batchable, fails)
    let mut flavours = vec![
        (
            "batchable".to_string(),
            ScalarExpr::eq(a_mod(3), int(0)),
            vec![ScalarExpr::binary(BinOp::Add, col(0), col(1)), col(1)],
            true,
            false,
        ),
        (
            "case".to_string(),
            case_b_zero(
                ScalarExpr::Literal(Value::Bool(true)),
                ScalarExpr::eq(a_mod(2), int(0)),
            ),
            vec![case_b_zero(
                col(0),
                ScalarExpr::binary(BinOp::Add, col(0), int(1)),
            )],
            false,
            false,
        ),
    ];
    // The chosen failing row: first and last row of a kernel batch, a row
    // in the middle, and one the overflowing rows shadow.
    for k in [0, 700, 1023, 1024, PIPE_ROWS - 1] {
        flavours.push((
            format!("fails on row {k}"),
            ScalarExpr::binary(BinOp::Gt, fails_on_row(k), int(-1)),
            vec![fails_on_row(k)],
            true,
            true,
        ));
    }
    for (flavour, filter, project, batchable, fails) in &flavours {
        for (shape, f, p) in [
            ("filter", Some(filter), None),
            ("project", None, Some(project.as_slice())),
            ("both", Some(filter), Some(project.as_slice())),
        ] {
            for columnar in [true, false] {
                let what = format!("{flavour} / {shape} / columnar={columnar}");
                let exec = executor(columnar);
                let pipe = Pipe::compile(&exec, f, p);
                assert_eq!(pipe.batched, columnar && *batchable, "{what}");
                let mut prefix = Vec::new();
                let ran = pipe.run(&exec, rows.iter(), &mut prefix);
                let whole = outcome(ran.map(|()| prefix.clone()));
                match &whole {
                    Ok(out) => {
                        assert!(!fails, "{what}: expected an error");
                        assert!(!out.is_empty(), "{what}: vacuous");
                        assert!(f.is_none() || out.len() < rows.len(), "{what}: vacuous");
                    }
                    Err(e) => assert!(*fails, "{what}: {e}"),
                }
                for k in PARTITION_COUNTS {
                    let chunked = chunk_ranges(rows.len(), k)
                        .into_iter()
                        .map(|range| run_pipe(&pipe, &exec, &rows[range]))
                        .collect::<Result<Vec<_>>>()
                        .map(|parts| parts.concat());
                    assert_eq!(outcome(chunked), whole, "{what} chunks={k}");
                }
                let pulled = rows
                    .iter()
                    .filter_map(|t| pipe.row(&exec, t).transpose())
                    .collect::<Result<Vec<_>>>();
                assert_eq!(outcome(pulled), whole, "{what} row-at-a-time");
                // A failed run leaves the rows produced before the failing one.
                let before: Vec<Tuple> = rows
                    .iter()
                    .map(|t| pipe.row(&exec, t))
                    .take_while(Result::is_ok)
                    .filter_map(|r| r.ok().flatten())
                    .collect();
                assert_eq!(prefix, before, "{what} prefix before the error");
            }
        }
    }
}

#[test]
fn gather_pipe_matches_the_interpreter() {
    // Slots and constants — a provenance padding — compile to one gather,
    // which the row path runs per row and the kernels per surviving lane
    // behind a vectorized filter.
    let exec = Executor::new(Arc::new(Catalog::new()));
    let project = vec![
        col(1),
        ScalarExpr::Literal(Value::Null),
        col(0),
        ScalarExpr::Literal(Value::text("x")),
        col(1),
    ];
    assert!(matches!(
        CompiledProjection::compile(&exec, &project),
        CompiledProjection::Gather(_)
    ));
    let filter = ScalarExpr::eq(ScalarExpr::binary(BinOp::Mod, col(0), int(3)), int(0));
    // A one-column row mid-batch that passes the filter: the gather's
    // out-of-range error must surface exactly as the interpreter's.
    let mut narrow = pipe_rows();
    narrow.insert(1500, Tuple::new(vec![Value::Int(3)]));
    for (rows, fails) in [(pipe_rows(), false), (narrow, true)] {
        for f in [None, Some(&filter)] {
            let reference = rows
                .iter()
                .filter_map(|t| {
                    let env = Env::new(t, &[]);
                    let passes = f.map_or(Ok(Some(true)), |f| eval(&exec, f, &env)?.as_bool());
                    match passes {
                        Ok(Some(true)) => {
                            Some(project.iter().map(|e| eval(&exec, e, &env)).collect())
                        }
                        Ok(_) => None,
                        Err(e) => Some(Err(e)),
                    }
                })
                .collect::<Result<Vec<Tuple>>>();
            let reference = outcome(reference);
            assert_eq!(reference.is_err(), fails, "{reference:?}");
            for columnar in [true, false] {
                let what = format!("filter={} columnar={columnar}", f.is_some());
                let exec = executor(columnar);
                let pipe = Pipe::compile(&exec, f, Some(&project));
                for k in PARTITION_COUNTS {
                    let chunked = chunk_ranges(rows.len(), k)
                        .into_iter()
                        .map(|range| run_pipe(&pipe, &exec, &rows[range]))
                        .collect::<Result<Vec<_>>>()
                        .map(|parts| parts.concat());
                    assert_eq!(outcome(chunked), reference, "{what} chunks={k}");
                }
            }
        }
    }
}

#[test]
fn sorted_runs_merge_to_the_single_stable_sort() {
    let ctx = QueryContext::detached();
    let rows = pipe_rows();
    let key = |expr, desc| SortKey { expr, desc };
    // b ascending, then a % 4 descending: 20 distinct keys over 3000
    // rows, so every run is mostly ties.
    let tie_heavy = vec![
        key(col(1), false),
        key(ScalarExpr::binary(BinOp::Mod, col(0), int(4)), true),
    ];
    let mut cases = vec![("tie-heavy".to_string(), tie_heavy, false)];
    for k in [0, 700, 1024, PIPE_ROWS - 1] {
        cases.push((
            format!("key fails on row {k}"),
            vec![key(col(1), false), key(fails_on_row(k), false)],
            true,
        ));
    }
    for (name, keys, fails) in &cases {
        for columnar in [true, false] {
            let what = format!("{name} / columnar={columnar}");
            let exec = executor(columnar);
            let sorter = SortRun::compile(&exec, keys);
            let single = outcome(
                sorter
                    .run(&exec, rows.clone())
                    .map(|run| run.into_iter().map(|(_, t)| t).collect()),
            );
            assert_eq!(single.is_err(), *fails, "{what}: {single:?}");
            if let Ok(sorted) = &single {
                let b_of = |t: &Tuple| t.get(1).clone();
                assert!(
                    sorted
                        .windows(2)
                        .all(|w| b_of(&w[0]).sort_cmp(&b_of(&w[1])).is_le()),
                    "{what}: not sorted"
                );
            }
            for k in PARTITION_COUNTS {
                let merged = chunk_ranges(rows.len(), k)
                    .into_iter()
                    .map(|range| sorter.run(&exec, rows[range].to_vec()))
                    .collect::<Result<Vec<_>>>()
                    .and_then(|runs| {
                        let runs = runs.into_iter().map(|r| r.into_iter().map(Ok)).collect();
                        sorter.merge_runs(&ctx, runs, rows.len())
                    });
                assert_eq!(outcome(merged), single, "{what} runs={k}");
            }
        }
    }
}

/// `EXISTS (VALUES (1))`: a sublink, which runs its body through the
/// executor lane by lane.
fn exists_sublink() -> ScalarExpr {
    ScalarExpr::Subquery(SubqueryExpr {
        kind: SubqueryKind::Exists,
        plan: Arc::new(LogicalPlan::Values {
            rows: vec![vec![int(1)]],
            schema: Schema::new(vec![Column::new("v", DataType::Int)]),
        }),
        negated: false,
        operand: None,
        outer_refs: vec![],
    })
}

#[test]
fn kernels_run_iff_columnar_with_batchable_work() {
    // The one batch-or-row decision, taken where the bodies compile: a
    // pipe or a sort runs kernels iff the executor is columnar, there is
    // something to compute (a filter, a computed projection, sort keys),
    // and every expression has a kernel.
    let a_mod_3 = ScalarExpr::eq(ScalarExpr::binary(BinOp::Mod, col(0), int(3)), int(0));
    let case = case_b_zero(ScalarExpr::Literal(Value::Bool(true)), a_mod_3.clone());
    // `CASE WHEN true THEN 0 ELSE 1 END` folds to `0` when it compiles.
    let folded_case = ScalarExpr::eq(
        ScalarExpr::binary(BinOp::Mod, col(0), int(3)),
        ScalarExpr::Case {
            operand: None,
            branches: vec![(ScalarExpr::Literal(Value::Bool(true)), int(0))],
            else_branch: Some(Box::new(int(1))),
        },
    );
    let sublink = ScalarExpr::binary(BinOp::And, a_mod_3.clone(), exists_sublink());
    let sum = [ScalarExpr::binary(BinOp::Add, col(0), col(1))];
    let slots = [col(1), col(0)];
    let padded = [col(0), ScalarExpr::Literal(Value::Null), col(1)];
    // (case, filter, projection, runs kernels on a columnar executor)
    let pipes = [
        ("batchable filter", Some(&a_mod_3), None, true),
        ("computed projection", None, Some(&sum[..]), true),
        ("slot gather", None, Some(&slots[..]), false),
        ("slot+NULL gather", None, Some(&padded[..]), false),
        (
            "gather behind a batchable filter",
            Some(&a_mod_3),
            Some(&padded[..]),
            true,
        ),
        ("bare pipe", None, None, false),
        ("CASE filter", Some(&case), None, false),
        ("sublink filter", Some(&sublink), None, true),
        ("CASE folded to a constant", Some(&folded_case), None, true),
    ];
    let key = |expr| SortKey { expr, desc: false };
    let sorts = [
        (
            "batchable sort key",
            vec![key(col(1)), key(a_mod_3.clone())],
            true,
        ),
        ("CASE sort key", vec![key(col(1)), key(case.clone())], false),
    ];
    for columnar in [true, false] {
        let exec = executor(columnar);
        for (what, filter, project, batched) in pipes {
            let pipe = Pipe::compile(&exec, filter, project);
            assert_eq!(
                pipe.batched,
                columnar && batched,
                "{what} / columnar={columnar}"
            );
        }
        for (what, keys, batched) in &sorts {
            let sorter = SortRun::compile(&exec, keys);
            assert_eq!(
                sorter.batched,
                columnar && *batched,
                "{what} / columnar={columnar}"
            );
        }
    }
}

/// `GROUP BY a` with `count(*)` and `sum(b)`.
fn witness_aggregate() -> (Vec<ScalarExpr>, Vec<AggCall>) {
    let call = |func, arg| AggCall {
        func,
        arg,
        distinct: false,
    };
    (
        vec![col(0)],
        vec![call(AggFunc::Count, None), call(AggFunc::Sum, Some(col(1)))],
    )
}

/// The witness output by its definition — the join-back of the grouped
/// result to its input: groups in first-appearance order, each followed
/// by every input row whose key is grouping-equal, in input order.
fn witnesses_by_definition(rows: &[Tuple]) -> Vec<Tuple> {
    let mut keys: Vec<&Value> = Vec::new();
    for t in rows {
        if !keys.contains(&t.get(0)) {
            keys.push(t.get(0));
        }
    }
    let mut out = Vec::new();
    for key in keys {
        let members: Vec<&Tuple> = rows.iter().filter(|t| t.get(0) == key).collect();
        let sum: i64 = members
            .iter()
            .map(|t| match t.get(1) {
                Value::Int(b) => *b,
                other => panic!("{other:?}"),
            })
            .sum();
        let head = Tuple::new(vec![
            key.clone(),
            Value::Int(members.len() as i64),
            Value::Int(sum),
        ]);
        out.extend(members.into_iter().map(|t| head.concat(t)));
    }
    out
}

#[test]
fn witness_output_is_chunk_and_partition_invariant() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let (group_by, aggs) = witness_aggregate();
    let tagged = tagged_rows(3_000, 13, 0);
    let rows: Vec<Tuple> = tagged.iter().map(|(_, t)| t.clone()).collect();
    let reference = witnesses_by_definition(&rows);
    let run =
        |rows: Tagged| accumulate(&exec, stream(rows), &group_by, &aggs, &[], |_| Ok(()), true);
    let whole = run(tagged.clone()).map_err(|(_, e)| e).unwrap();
    let refs = JoinRefs::rows(rows.clone(), 2).unwrap();
    let view = refs.view(&exec).unwrap();
    let out = finish(&exec, whole, &group_by, &aggs, Some(&view), |_, t| t).unwrap();
    assert_eq!(out, reference);
    for k in PARTITION_COUNTS {
        // Contiguous chunks, merged in order (the chunk-parallel driver).
        let mut merged = None;
        for range in chunk_ranges(rows.len(), k) {
            let part = run(tagged[range].to_vec()).map_err(|(_, e)| e).unwrap();
            match &mut merged {
                None => merged = Some(part),
                Some(acc) => merge_partials(acc, part).unwrap(),
            }
        }
        let merged = merged.unwrap();
        let out = finish(&exec, merged, &group_by, &aggs, Some(&view), |_, t| t).unwrap();
        assert_eq!(out, reference, "chunks={k}");
        // Hash partitions, reordered by the groups' opening tags (the
        // spilled driver).
        let mut tagged_out = Vec::new();
        for part in split(&tagged, k, |t| partition_of(&t.get(0), k)) {
            let kept: Vec<Tuple> = part.iter().map(|(_, t)| t.clone()).collect();
            let kept = JoinRefs::rows(kept, 2).unwrap();
            let kept = kept.view(&exec).unwrap();
            let partial = run(part).map_err(|(_, e)| e).unwrap();
            tagged_out.extend(
                finish(&exec, partial, &group_by, &aggs, Some(&kept), |tag, t| {
                    (tag, t)
                })
                .unwrap(),
            );
        }
        assert_eq!(restore_order(tagged_out), reference, "partitions={k}");
    }
    // Through the driver, as the spilled aggregate runs: keyed by the
    // group column, each partition's rows kept for its witnesses.
    let op = Grouped::new(&exec, &group_by, &aggs, Some(2));
    through_the_driver([&rows], Arc::new(op), |what, got| {
        assert_eq!(got.unwrap(), reference, "{what}")
    });
}

#[test]
fn a_global_witness_aggregate_over_no_rows_is_one_null_extended_row() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let (_, aggs) = witness_aggregate();
    let empty = accumulate(&exec, stream(vec![]), &[], &aggs, &[], |_| Ok(()), true)
        .map_err(|(_, e)| e)
        .unwrap();
    let none = JoinRefs::rows(vec![], 2).unwrap();
    let none = none.view(&exec).unwrap();
    let out = finish(&exec, empty, &[], &aggs, Some(&none), |_, t| t).unwrap();
    assert_eq!(
        out,
        vec![Tuple::new(vec![
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null
        ])]
    );
}

/// The witness `HashAggregate` node under every driver: serial and
/// chunk-parallel (DOP 1 and 4), in memory and spilled through a 1-byte
/// pool (which must drain), row and columnar executors, materialized and
/// pulled through the stream cursor — all emit the definition's rows in
/// its order. A cancelled query fails with the typed error.
#[test]
fn witness_aggregate_node_matches_the_definition_under_every_driver() {
    let cat = Arc::new(Catalog::new());
    let (group_by, aggs) = witness_aggregate();
    let rows: Vec<Tuple> = tagged_rows(3_000, 13, 0)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let reference = witnesses_by_definition(&rows);
    let values = |t: &Tuple| t.iter().cloned().map(ScalarExpr::Literal).collect();
    let node = |dop, spill| PhysicalPlan::HashAggregate {
        input: Box::new(PhysicalPlan::Values {
            rows: rows.iter().map(values).collect(),
            arity: 2,
        }),
        group_by: group_by.clone(),
        aggs: aggs.clone(),
        dop,
        spill,
        output: AggOutput::Witnesses,
    };
    // Spills: keeps `through_the_driver`'s clean-directory check away.
    let _g = perm_fault::test_guard();
    for dop in [1, 4] {
        for spill in [false, true] {
            for columnar in [false, true] {
                let what = format!("dop={dop} spill={spill} columnar={columnar}");
                let plan = node(dop, true);
                crate::verify::verify_physical(&plan, "test").unwrap();
                let pool = MemoryPool::with_budget(if spill { 1 } else { 1 << 30 });
                let exec = || {
                    Executor::new(Arc::clone(&cat))
                        .with_columnar(columnar)
                        .with_memory(QueryMemory::new(pool.clone(), None))
                };
                assert_eq!(exec().run_physical(&plan).unwrap(), reference, "{what}");
                let streamed: Result<Vec<Tuple>> =
                    exec().into_stream_physical(&plan).and_then(|s| s.collect());
                assert_eq!(streamed.unwrap(), reference, "{what} streamed");
                assert_eq!(pool.used(), 0, "{what}: pool must drain");
            }
        }
    }
    // A global witness aggregate cannot spill: over budget it fails with
    // the typed resource error and leaves the pool drained.
    let pool = MemoryPool::with_budget(1);
    let PhysicalPlan::HashAggregate { input, .. } = node(1, false) else {
        unreachable!()
    };
    let global = PhysicalPlan::HashAggregate {
        input,
        group_by: vec![],
        aggs: aggs.clone(),
        dop: 1,
        spill: false,
        output: AggOutput::Witnesses,
    };
    let err = Executor::new(Arc::clone(&cat))
        .with_memory(QueryMemory::new(pool.clone(), None))
        .run_physical(&global)
        .unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");
    assert_eq!(pool.used(), 0);
    let ctx = QueryContext::detached();
    ctx.handle().cancel();
    let err = Executor::new(cat)
        .with_context(ctx)
        .run_physical(&node(4, true))
        .unwrap_err();
    assert_eq!(err.kind(), "cancelled", "{err}");
}

// ----------------------------------------------------------------------
// Join refs: chains, padding, residual scratch rows, morsel ranges
// ----------------------------------------------------------------------

/// Two-column integer rows.
fn ints(rows: &[(Option<i64>, i64)]) -> Vec<Tuple> {
    rows.iter().map(|&(a, b)| row(a, b)).collect()
}

fn values(rows: &[Tuple]) -> PhysicalPlan {
    let literals = |t: &Tuple| t.iter().cloned().map(ScalarExpr::Literal).collect();
    PhysicalPlan::Values {
        rows: rows.iter().map(literals).collect(),
        arity: 2,
    }
}

/// A hash join building right, keyed on `(left slot, right slot,
/// null-safe)` pairs.
fn hash_join(
    left: PhysicalPlan,
    right: PhysicalPlan,
    kind: JoinType,
    keys: &[(usize, usize, bool)],
    residual: Option<ScalarExpr>,
    dop: usize,
) -> PhysicalPlan {
    let (nl, nr) = (out_arity(&left), out_arity(&right));
    PhysicalPlan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        kind,
        keys: keys
            .iter()
            .map(|&(l, r, null_safe)| EquiKey {
                left: col(l),
                right: col(r),
                null_safe,
            })
            .collect(),
        residual,
        build_side: BuildSide::Right,
        nl,
        nr,
        out_slots: None,
        est_rows: 0.0,
        dop,
        spill: false,
    }
}

/// A join by its definition, as a nested loop in left-row order: the
/// rows `on` accepts, left ++ right (SEMI/ANTI: the left row alone);
/// unmatched left rows NULL-padded for LEFT/FULL and, for FULL,
/// unmatched right rows behind NULLs at the end. `widths` are the
/// inputs' arities.
fn join_by_definition(
    kind: JoinType,
    (left, right): (&[Tuple], &[Tuple]),
    (nl, nr): (usize, usize),
    on: impl Fn(&Tuple, &Tuple) -> bool,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut right_matched = vec![false; right.len()];
    for l in left {
        let mut matched = false;
        for (ri, r) in right.iter().enumerate() {
            if on(l, r) {
                matched = true;
                right_matched[ri] = true;
                if kind.produces_both_sides() {
                    out.push(l.concat(r));
                }
            }
        }
        match kind {
            JoinType::Semi if matched => out.push(l.clone()),
            JoinType::Anti if !matched => out.push(l.clone()),
            JoinType::Left | JoinType::Full if !matched => out.push(l.concat(&Tuple::nulls(nr))),
            _ => {}
        }
    }
    if kind == JoinType::Full {
        for (r, m) in right.iter().zip(right_matched) {
            if !m {
                out.push(Tuple::nulls(nl).concat(r));
            }
        }
    }
    out
}

/// SQL equality of two key values (NULL-safe: NULL matches NULL).
fn keys_match(a: &Value, b: &Value, null_safe: bool) -> bool {
    if a.is_null() || b.is_null() {
        return null_safe && a.is_null() && b.is_null();
    }
    a == b
}

const ALL_KINDS: [JoinType; 5] = [
    JoinType::Inner,
    JoinType::Left,
    JoinType::Full,
    JoinType::Semi,
    JoinType::Anti,
];

#[test]
fn padded_rows_gather_as_nulls_and_key_as_null() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let l = ints(&[(Some(1), 10), (Some(2), 20), (Some(3), 30)]);
    let r = ints(&[(Some(1), 100), (Some(3), 300), (Some(3), 301)]);
    let lower = hash_join(
        values(&l),
        values(&r),
        JoinType::Left,
        &[(0, 0, false)],
        None,
        1,
    );
    let padded = join_by_definition(JoinType::Left, (&l, &r), (2, 2), |a, b| {
        a.get(0) == b.get(0)
    });
    assert_eq!(
        padded[1],
        Tuple::new(vec![
            Value::Int(2),
            Value::Int(20),
            Value::Null,
            Value::Null
        ])
    );
    assert_eq!(exec.run_physical(&lower).unwrap(), padded);
    // A join keyed on the padded column: a padded row joins nothing under
    // SQL equality and matches a NULL key NULL-safely.
    let p = ints(&[(None, 7), (Some(3), 8)]);
    for null_safe in [false, true] {
        let chain = hash_join(
            lower.clone(),
            values(&p),
            JoinType::Inner,
            &[(2, 0, null_safe)],
            None,
            1,
        );
        let expected = join_by_definition(JoinType::Inner, (&padded, &p), (4, 2), |a, b| {
            keys_match(a.get(2), b.get(0), null_safe)
        });
        assert_eq!(
            exec.run_physical(&chain).unwrap(),
            expected,
            "null_safe={null_safe}"
        );
    }
    // An aggregate over the LEFT join groups the padding as NULL.
    let count = AggCall {
        func: AggFunc::Count,
        arg: Some(col(3)),
        distinct: false,
    };
    let grouped = PhysicalPlan::HashAggregate {
        input: Box::new(lower),
        group_by: vec![col(2)],
        aggs: vec![count],
        dop: 1,
        spill: false,
        output: AggOutput::Groups,
    };
    let int = |v: i64| Value::Int(v);
    assert_eq!(
        exec.run_physical(&grouped).unwrap(),
        vec![
            Tuple::new(vec![int(1), int(1)]),
            Tuple::new(vec![Value::Null, int(0)]),
            Tuple::new(vec![int(3), int(2)]),
        ]
    );
}

/// Every pair of join kinds, chained: the upper join keys on the lower
/// output's last column — the right side's (perhaps padded) for
/// LEFT/FULL, the left side's for SEMI/ANTI — and matches the
/// definition, order included; so does a witness aggregate over it.
#[test]
fn join_chains_of_every_kind_match_the_definition() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let a = ints(&[
        (Some(1), 1),
        (Some(2), 2),
        (None, 3),
        (Some(4), 1),
        (Some(1), 2),
    ]);
    let b = ints(&[(Some(1), 2), (Some(4), 5), (Some(4), 1), (Some(9), 3)]);
    let c = ints(&[
        (Some(2), 0),
        (Some(1), 1),
        (Some(5), 2),
        (None, 3),
        (Some(2), 4),
    ]);
    for lower_kind in ALL_KINDS {
        for upper_kind in ALL_KINDS {
            let what = format!("{lower_kind:?} then {upper_kind:?}");
            let lower = hash_join(
                values(&a),
                values(&b),
                lower_kind,
                &[(0, 0, false)],
                None,
                1,
            );
            let lower_rows = join_by_definition(lower_kind, (&a, &b), (2, 2), |l, r| {
                keys_match(l.get(0), r.get(0), false)
            });
            let last = out_arity(&lower) - 1;
            let upper = hash_join(lower, values(&c), upper_kind, &[(last, 0, false)], None, 1);
            let widths = (last + 1, 2);
            let expected = join_by_definition(upper_kind, (&lower_rows, &c), widths, |l, r| {
                keys_match(l.get(last), r.get(0), false)
            });
            assert_eq!(exec.run_physical(&upper).unwrap(), expected, "{what}");
            if [lower_kind, upper_kind].contains(&JoinType::Full) {
                // The definition's witness sums need t1's columns unpadded.
                continue;
            }
            let (group_by, aggs) = witness_aggregate();
            let witnesses = PhysicalPlan::HashAggregate {
                input: Box::new(upper),
                group_by,
                aggs,
                dop: 1,
                spill: false,
                output: AggOutput::Witnesses,
            };
            assert_eq!(
                exec.run_physical(&witnesses).unwrap(),
                witnesses_by_definition(&expected),
                "{what}: witnesses"
            );
        }
    }
}

/// A residual over a chain reads a scratch row gathered from all three
/// sources — through a hash join and a nested-loop join alike — and a
/// failing residual raises the error the definition's evaluation does.
#[test]
fn residuals_read_a_scratch_row_gathered_across_the_chain() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let a = ints(&[(Some(1), 1), (Some(2), 5), (Some(1), 3), (None, 0)]);
    let b = ints(&[(Some(1), 7), (Some(2), 2), (Some(1), 4)]);
    let c = ints(&[(Some(7), 2), (Some(2), 6), (Some(4), 1), (Some(4), 9)]);
    let lower = hash_join(
        values(&a),
        values(&b),
        JoinType::Inner,
        &[(0, 0, false)],
        None,
        1,
    );
    let lower_rows = join_by_definition(JoinType::Inner, (&a, &b), (2, 2), |l, r| {
        keys_match(l.get(0), r.get(0), false)
    });
    // b.d = c.e, residual a.b < c.f: columns of the first and third source.
    let residual = ScalarExpr::binary(BinOp::Lt, col(1), col(5));
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("{other:?}"),
    };
    for kind in ALL_KINDS {
        let expected = join_by_definition(kind, (&lower_rows, &c), (4, 2), |l, r| {
            keys_match(l.get(3), r.get(0), false) && int(l.get(1)) < int(r.get(1))
        });
        let hashed = hash_join(
            lower.clone(),
            values(&c),
            kind,
            &[(3, 0, false)],
            Some(residual.clone()),
            1,
        );
        assert_eq!(
            exec.run_physical(&hashed).unwrap(),
            expected,
            "{kind:?} hash"
        );
        let looped = PhysicalPlan::NLJoin {
            left: Box::new(lower.clone()),
            right: Box::new(values(&c)),
            kind,
            condition: Some(ScalarExpr::conjunction(vec![
                ScalarExpr::binary(BinOp::Eq, col(3), col(4)),
                residual.clone(),
            ])),
            nl: 4,
            nr: 2,
            out_slots: None,
            est_rows: 0.0,
        };
        assert_eq!(
            exec.run_physical(&looped).unwrap(),
            expected,
            "{kind:?} nested loop"
        );
    }
    // 10 / (c.f - 6) fails on the row whose c.f is 6.
    let failing = ScalarExpr::binary(
        BinOp::Lt,
        ScalarExpr::binary(
            BinOp::Div,
            int_lit(10),
            ScalarExpr::binary(BinOp::Sub, col(5), int_lit(6)),
        ),
        int_lit(100),
    );
    let hashed = hash_join(
        lower,
        values(&c),
        JoinType::Inner,
        &[(3, 0, false)],
        Some(failing),
        1,
    );
    let err = exec.run_physical(&hashed).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

fn int_lit(v: i64) -> ScalarExpr {
    ScalarExpr::Literal(Value::Int(v))
}

/// Empty inputs at either level of a chain give the definition's
/// (possibly empty, possibly all-padded) rows.
#[test]
fn empty_join_sides_match_the_definition() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let full = ints(&[(Some(1), 1), (Some(2), 2), (None, 3)]);
    let c = ints(&[(Some(1), 0), (None, 1)]);
    for kind in ALL_KINDS {
        for (a, b) in [
            (&[][..], &full[..]),
            (&full[..], &[][..]),
            (&[][..], &[][..]),
        ] {
            let lower = hash_join(values(a), values(b), kind, &[(0, 0, false)], None, 1);
            let lower_rows = join_by_definition(kind, (a, b), (2, 2), |l, r| {
                keys_match(l.get(0), r.get(0), false)
            });
            assert_eq!(
                exec.run_physical(&lower).unwrap(),
                lower_rows,
                "{kind:?} lower"
            );
            for upper_kind in [JoinType::Inner, JoinType::Left, JoinType::Full] {
                for (upper_right, rows) in [(values(&c), &c[..]), (values(&[]), &[][..])] {
                    let upper = hash_join(
                        lower.clone(),
                        upper_right,
                        upper_kind,
                        &[(0, 0, true)],
                        None,
                        1,
                    );
                    let widths = (out_arity(&lower), 2);
                    let expected =
                        join_by_definition(upper_kind, (&lower_rows, rows), widths, |l, r| {
                            keys_match(l.get(0), r.get(0), true)
                        });
                    assert_eq!(
                        exec.run_physical(&upper).unwrap(),
                        expected,
                        "{kind:?} then {upper_kind:?}"
                    );
                }
            }
        }
    }
}

/// The morsel driver's premise: the probe body run over 1, 2 or 7
/// contiguous ranges of a chained (multi-source) probe side appends
/// exactly the ids of one serial run.
#[test]
fn probe_ranges_reproduce_the_serial_ids() {
    let exec = Executor::new(Arc::new(Catalog::new()));
    let a = ints(
        &(0..60)
            .map(|i| ((i % 9 != 4).then_some(i % 7), i))
            .collect::<Vec<_>>(),
    );
    let b = ints(&(0..40).map(|i| (Some(i % 5), i % 3)).collect::<Vec<_>>());
    let c = ints(
        &(0..30)
            .map(|i| ((i % 6 != 0).then_some(i % 4), i))
            .collect::<Vec<_>>(),
    );
    let lower = hash_join(
        values(&a),
        values(&b),
        JoinType::Left,
        &[(0, 0, false)],
        None,
        1,
    );
    let left = refs_of(&exec, &lower).unwrap();
    let right = JoinRefs::rows(c, 2).unwrap();
    let (lv, rv) = (left.view(&exec).unwrap(), right.view(&exec).unwrap());
    for kind in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        for residual in [None, Some(ScalarExpr::binary(BinOp::Lt, col(1), col(5)))] {
            let what = format!("{kind:?} residual={residual:?}");
            let node = hash_join(
                lower.clone(),
                values(&[]),
                kind,
                &[(3, 0, false)],
                residual,
                1,
            );
            let probe = HashProbe::compile(&exec, &node);
            let table = probe.build(&exec, &rv).unwrap();
            let mut serial = Vec::new();
            probe
                .run(&exec, &table, &rv, &lv, 0..lv.len(), None, 0, &mut serial)
                .unwrap();
            assert!(!serial.is_empty(), "{what}: vacuous");
            for k in PARTITION_COUNTS {
                let mut split = Vec::new();
                for range in chunk_ranges(lv.len(), k) {
                    probe
                        .run(&exec, &table, &rv, &lv, range, None, 0, &mut split)
                        .unwrap();
                }
                assert_eq!(split, serial, "{what} ranges={k}");
            }
        }
    }
}

/// A chain through an index nested-loop join over base tables — bare
/// scans read in place — gives the same rows, in the same order, under
/// the serial driver and the morsel drivers at DOP 2 and 7.
#[test]
fn a_chain_through_an_index_join_is_morsel_invariant() {
    let table = |name: &str, rows: Vec<Tuple>| {
        let schema = perm_types::Schema::new(vec![
            perm_types::Column::new("x", perm_types::DataType::Int),
            perm_types::Column::new("y", perm_types::DataType::Int),
        ]);
        let mut t = perm_storage::Table::new(name, schema);
        for r in rows {
            t.insert(r).unwrap();
        }
        t
    };
    let n = 3 * crate::parallel::MORSEL_ROWS as i64;
    let mut cat = Catalog::new();
    cat.create_table(table("a", (0..n).map(|i| row(Some(i % 97), i)).collect()))
        .unwrap();
    cat.create_table(table(
        "b",
        (0..300)
            .map(|i| row((i % 7 != 0).then_some(i % 50), i))
            .collect(),
    ))
    .unwrap();
    cat.table_mut("b").unwrap().create_index(0).unwrap();
    cat.create_table(table("c", (0..40).map(|i| row(Some(i), i)).collect()))
        .unwrap();
    let cat = Arc::new(cat);
    let scan = |name: &str| PhysicalPlan::FusedScanProjectFilter {
        table: name.into(),
        schema: cat.table(name).unwrap().schema().clone(),
        filter: None,
        project: None,
        est_rows: 0.0,
        dop: 1,
    };
    let chain = |dop: usize| {
        let inlj = PhysicalPlan::IndexNLJoin {
            outer: Box::new(scan("a")),
            kind: JoinType::Left,
            table: "b".into(),
            schema: cat.table("b").unwrap().schema().clone(),
            column: 0,
            key: col(0),
            inner_filter: None,
            inner_project: None,
            residual: Some(ScalarExpr::binary(BinOp::Lt, col(3), int_lit(250))),
            nl: 2,
            nr: 2,
            out_slots: None,
            est_rows: 0.0,
            dop,
        };
        let mut plan = hash_join(
            inlj,
            scan("c"),
            JoinType::Inner,
            &[(3, 0, false)],
            None,
            dop,
        );
        if let PhysicalPlan::HashJoin { out_slots, .. } = &mut plan {
            *out_slots = Some(vec![5, 1, 3, 2]);
        }
        plan
    };
    let exec = || Executor::new(Arc::clone(&cat));
    let serial = exec().run_physical(&chain(1)).unwrap();
    let (a, b, c) = (
        cat.table("a").unwrap().rows(),
        cat.table("b").unwrap().rows(),
        cat.table("c").unwrap().rows(),
    );
    let lower = join_by_definition(JoinType::Left, (a, b), (2, 2), |l, r| {
        keys_match(l.get(0), r.get(0), false) && matches!(r.get(1), Value::Int(v) if *v < 250)
    });
    let expected: Vec<Tuple> = join_by_definition(JoinType::Inner, (&lower, c), (4, 2), |l, r| {
        keys_match(l.get(3), r.get(0), false)
    })
    .iter()
    .map(|t| t.project(&[5, 1, 3, 2]))
    .collect();
    assert!(
        expected.len() > crate::parallel::MORSEL_ROWS,
        "spans morsels"
    );
    assert_eq!(serial, expected);
    for dop in [2, 7] {
        assert_eq!(
            exec().run_physical(&chain(dop)).unwrap(),
            serial,
            "dop={dop}"
        );
    }
}

/// A residual that fails on a candidate leaves none of that candidate's
/// ids behind: a spilled SEMI/ANTI join whose build side outnumbers its
/// probe side returns the same typed error as the in-memory join (a
/// stray build id read as a probe id would index past the probe rows).
#[test]
fn a_failing_residual_leaves_no_candidate_ids_behind() {
    let cat = Arc::new(Catalog::new());
    let probe = ints(&[(Some(1), 0), (Some(1), 1), (Some(1), 2)]);
    let build: Vec<Tuple> = (0..60).map(|i| row(Some(1), i)).collect();
    // 6 / (r.d - 50) > 0: false for the first 50 candidates, then
    // division by zero on build row 50.
    let failing = ScalarExpr::binary(
        BinOp::Gt,
        ScalarExpr::binary(
            BinOp::Div,
            int_lit(6),
            ScalarExpr::binary(BinOp::Sub, col(3), int_lit(50)),
        ),
        int_lit(0),
    );
    // Spills: keeps `through_the_driver`'s clean-directory check away.
    let _g = perm_fault::test_guard();
    for kind in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        for parts in [None, Some(1), Some(3)] {
            let mut plan = hash_join(
                values(&probe),
                values(&build),
                kind,
                &[(0, 0, false)],
                Some(failing.clone()),
                1,
            );
            if let PhysicalPlan::HashJoin { spill, .. } = &mut plan {
                *spill = parts.is_some();
            }
            let pool = MemoryPool::with_budget(if parts.is_some() { 1 } else { 1 << 30 });
            let err = Executor::new(Arc::clone(&cat))
                .with_memory(QueryMemory::new(pool.clone(), None))
                .run_physical(&plan)
                .unwrap_err();
            assert!(
                err.to_string().contains("division by zero"),
                "{kind:?} spill={parts:?}: {err}"
            );
            assert_eq!(pool.used(), 0, "{kind:?} spill={parts:?}: pool must drain");
        }
    }
}
