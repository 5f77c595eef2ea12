//! Vectorized expression kernels: the columnar half of the executor.
//!
//! `eval` evaluates a [`CompiledExpr`] — the very expression the row
//! interpreter ([`CompiledExpr::eval`]) runs — over an entire batch of
//! rows per call: typed `i64`/`&str` loops for the common
//! arithmetic/comparison/`LIKE`/`IN` shapes, a lane-at-a-time generic
//! path (through the very same [`ops`] functions the row interpreter
//! calls) for everything else.
//!
//! This module is also the one place that decides whether a node runs
//! over batches at all (`batched`): the executor must be columnar, the
//! node must have an expression to compute (a filter, a non-gather
//! projection, sort keys), and every expression must have a kernel
//! (`batchable`: no `CASE`, which needs lazy per-branch evaluation; a
//! sublink, which runs its body through the executor, is evaluated lane
//! by lane on the lanes still in play). The plan carries no batch stamp;
//! the bodies that run kernels — `Pipe` and `SortRun` — ask here once,
//! when they compile.
//!
//! ## Semantics contract
//!
//! The row interpreter remains the reference semantics. The batch path
//! keeps to it by construction:
//!
//! * **Null lanes are never computed.** Typed loops consult the null
//!   bitmap first, so a placeholder value in a NULL lane can never raise
//!   a division-by-zero or overflow the row path would not raise.
//! * **`AND`/`OR` narrow their selection.** A chain element is only
//!   evaluated on lanes where the accumulated result is not yet
//!   absorbing (`false` for `AND`, `true` for `OR`) — exactly the lanes
//!   the row path's short-circuit loop evaluates, so batch execution
//!   raises neither more nor fewer errors than row execution.
//! * **Any kernel error aborts the whole batch**, and the executor
//!   re-runs that batch through the row path. The row rerun reproduces
//!   the first error in row order — identical rows, order and errors.
//!
//! Per-row allocation is confined to materializing output tuples; kernel
//! loops themselves allocate per *batch* (enforced by `xtask lint`).

use std::sync::Arc;

use perm_types::batch::{ColumnVec, NullBitmap};
use perm_types::ops::{self, ArithOp};
use perm_types::{PermError, Result, Tuple, Value};

use perm_algebra::expr::{BinOp, ScalarFunc, UnOp};

use crate::compile::{hashed_in, CompiledExpr, CompiledProjection};
use crate::eval::{eval as eval_row, in_semantics, Env};
use crate::executor::Executor;

/// Rows per batch; re-exported from the shared columnar type layer.
pub use perm_types::batch::DEFAULT_BATCH_ROWS as BATCH_ROWS;

/// The lanes a kernel computes: either every lane of the batch or an
/// explicit (sorted) index list — the batch-side equivalent of the row
/// loop's "rows still in play".
#[derive(Debug, Clone)]
enum Sel {
    All(usize),
    Idx(Vec<u32>),
}

impl Sel {
    fn count(&self) -> usize {
        match self {
            Sel::All(n) => *n,
            Sel::Idx(v) => v.len(),
        }
    }
}

/// Visit the selected lanes of `sel` in ascending order.
macro_rules! for_lanes {
    ($sel:expr, $i:ident => $body:block) => {
        match $sel {
            Sel::All(n) => {
                for $i in 0..*n {
                    $body
                }
            }
            Sel::Idx(v) => {
                for &lane in v.iter() {
                    let $i = lane as usize;
                    $body
                }
            }
        }
    };
}

/// Per-batch evaluation context: the pivoted input columns (gathered
/// lazily per referenced slot and cached, so a slot used by both filter
/// and projection pivots once) plus the running body's parameters.
struct Cx<'a> {
    exec: &'a Executor,
    rows: &'a [&'a Tuple],
    params: &'a [Value],
    n: usize,
    cols: Vec<Option<Arc<ColumnVec>>>,
}

impl<'a> Cx<'a> {
    fn new(exec: &'a Executor, rows: &'a [&'a Tuple], params: &'a [Value]) -> Cx<'a> {
        Cx {
            exec,
            rows,
            params,
            n: rows.len(),
            cols: Vec::new(),
        }
    }

    /// Gather (or reuse) the column for `slot`. A row narrower than the
    /// slot aborts the batch — the row path owns that error.
    fn slot_col(&mut self, slot: usize) -> Result<Arc<ColumnVec>> {
        if self.cols.len() <= slot {
            self.cols.resize(slot + 1, None);
        }
        if let Some(c) = &self.cols[slot] {
            return Ok(Arc::clone(c));
        }
        if self.rows.iter().any(|t| slot >= t.len()) {
            return Err(batch_abort());
        }
        let c = Arc::new(ColumnVec::gather(self.rows, slot));
        self.cols[slot] = Some(Arc::clone(&c));
        Ok(c)
    }
}

/// The internal "this batch cannot run vectorized" error: the executor
/// discards the batch's partial output and re-runs it row-at-a-time,
/// which either succeeds or raises the real, correctly-ordered error.
fn batch_abort() -> PermError {
    PermError::Execution("batch kernel abort; row fallback".into())
}

/// True when `e` has a kernel: everything except `CASE` (its branches
/// evaluate lazily, per row). A `CASE` the compiler folded to a constant
/// is a constant.
fn batchable(e: &CompiledExpr) -> bool {
    match e {
        CompiledExpr::Case { .. } => false,
        CompiledExpr::Const(_) | CompiledExpr::Slot(_) | CompiledExpr::Param(_) => true,
        CompiledExpr::Interp(_) => true,
        CompiledExpr::Binary { left, right, .. } => batchable(left) && batchable(right),
        CompiledExpr::Like { expr, pattern, .. } => batchable(expr) && batchable(pattern),
        CompiledExpr::And(items)
        | CompiledExpr::Or(items)
        | CompiledExpr::Fn { args: items, .. } => items.iter().all(batchable),
        CompiledExpr::InList { expr, list, .. } => batchable(expr) && list.iter().all(batchable),
        CompiledExpr::Unary { expr, .. }
        | CompiledExpr::IsNull { expr, .. }
        | CompiledExpr::LikeConst { expr, .. }
        | CompiledExpr::InHashed { expr, .. }
        | CompiledExpr::Cast { expr, .. } => batchable(expr),
    }
}

/// The batch-or-row decision of one node, made once when its body
/// compiles: run `exprs` — the node's filter, non-gather projection or
/// sort keys — over batches when the executor is `columnar`, there is at
/// least one expression to compute, and every one is [`batchable`].
/// Slot-and-constant gathers are not passed in: a row-wise gather is
/// already one allocation per row, and no kernel beats it.
pub(crate) fn batched<'e>(
    columnar: bool,
    exprs: impl IntoIterator<Item = &'e CompiledExpr>,
) -> bool {
    let mut exprs = exprs.into_iter().peekable();
    columnar && exprs.peek().is_some() && exprs.all(batchable)
}

/// Evaluate `e` over the selected lanes of the batch — the same
/// [`CompiledExpr`] [`CompiledExpr::eval`] runs per row. Lanes outside
/// `sel` hold unspecified placeholders in the result.
fn eval(e: &CompiledExpr, cx: &mut Cx<'_>, sel: &Sel) -> Result<Arc<ColumnVec>> {
    let n = cx.n;
    match e {
        CompiledExpr::Const(v) => Ok(Arc::new(ColumnVec::Const(v.clone(), n))),
        CompiledExpr::Slot(i) => cx.slot_col(*i),
        CompiledExpr::Param(i) => {
            // Parameters are fixed for the whole batch: broadcast as a
            // constant. An unbound one aborts to the row path, which
            // raises the exact error.
            let v = cx.params.get(*i).ok_or_else(batch_abort)?.clone();
            Ok(Arc::new(ColumnVec::Const(v, n)))
        }
        CompiledExpr::Binary { op, left, right } => {
            let l = eval(left, cx, sel)?;
            let r = eval(right, cx, sel)?;
            eval_binary(*op, &l, &r, sel, n)
        }
        CompiledExpr::And(items) => eval_chain(items, cx, sel, n, false),
        CompiledExpr::Or(items) => eval_chain(items, cx, sel, n, true),
        CompiledExpr::Unary { op, expr } => {
            let c = eval(expr, cx, sel)?;
            match op {
                UnOp::Not => match &*c {
                    ColumnVec::Bools(v, nulls) => {
                        let mut out = vec![false; n];
                        for_lanes!(sel, i => {
                            out[i] = !v[i];
                        });
                        Ok(Arc::new(ColumnVec::Bools(out, nulls.clone())))
                    }
                    _ => lanewise1(&c, sel, n, ops::not),
                },
                UnOp::Neg => match int_src(&c) {
                    Some(IntSrc::Null) => Ok(Arc::new(ColumnVec::Const(Value::Null, n))),
                    Some(src) => {
                        let mut out = vec![0i64; n];
                        let mut nulls = NullBitmap::new_valid(n);
                        for_lanes!(sel, i => {
                            match src.lane(i) {
                                None => nulls.set_null(i),
                                Some(x) => match x.checked_neg() {
                                    Some(v) => out[i] = v,
                                    None => return Err(PermError::Value(
                                        "integer overflow in negation".into(),
                                    )),
                                },
                            }
                        });
                        Ok(Arc::new(ColumnVec::Ints(out, nulls)))
                    }
                    None => lanewise1(&c, sel, n, ops::neg),
                },
            }
        }
        CompiledExpr::IsNull { expr, negated } => {
            let c = eval(expr, cx, sel)?;
            let mut out = vec![false; n];
            for_lanes!(sel, i => {
                out[i] = c.is_null(i) != *negated;
            });
            Ok(Arc::new(ColumnVec::Bools(out, NullBitmap::new_valid(n))))
        }
        CompiledExpr::LikeConst {
            expr,
            matcher,
            negated,
        } => {
            let c = eval(expr, cx, sel)?;
            match &*c {
                ColumnVec::Texts(v, in_nulls) => {
                    let mut out = vec![false; n];
                    let mut nulls = NullBitmap::new_valid(n);
                    for_lanes!(sel, i => {
                        if in_nulls.is_null(i) {
                            nulls.set_null(i);
                        } else {
                            out[i] = matcher.matches(&v[i]) != *negated;
                        }
                    });
                    Ok(Arc::new(ColumnVec::Bools(out, nulls)))
                }
                _ => lanewise1(&c, sel, n, |v| {
                    let m = match v {
                        Value::Null => Value::Null,
                        Value::Text(s) => Value::Bool(matcher.matches(s)),
                        other => {
                            return Err(PermError::Value(format!(
                                "LIKE requires text operands, got {} and {}",
                                other.data_type(),
                                perm_types::DataType::Text
                            )))
                        }
                    };
                    if *negated {
                        ops::not(&m)
                    } else {
                        Ok(m)
                    }
                }),
            }
        }
        CompiledExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, cx, sel)?;
            let p = eval(pattern, cx, sel)?;
            lanewise2(&v, &p, sel, n, |v, p| {
                let m = ops::like(v, p)?;
                if *negated {
                    ops::not(&m)
                } else {
                    Ok(m)
                }
            })
        }
        CompiledExpr::InHashed {
            expr,
            list,
            negated,
        } => {
            let c = eval(expr, cx, sel)?;
            lanewise1(&c, sel, n, |v| {
                let r = hashed_in(v, list)?;
                if *negated {
                    ops::not(&r)
                } else {
                    Ok(r)
                }
            })
        }
        CompiledExpr::InList {
            expr,
            list,
            negated,
        } => {
            let needle = eval(expr, cx, sel)?;
            // batch-alloc: one column per list element, reused by every lane.
            let items: Vec<Arc<ColumnVec>> = list
                .iter()
                .map(|e| eval(e, cx, sel))
                .collect::<Result<_>>()?;
            let mut out = vec![Value::Null; n];
            // batch-alloc: candidate buffer reused across lanes.
            let mut cands: Vec<Value> = Vec::with_capacity(items.len());
            for_lanes!(sel, i => {
                cands.clear();
                for item in &items {
                    cands.push(item.get(i));
                }
                let r = in_semantics(&needle.get(i), cands.iter())?;
                out[i] = if *negated { ops::not(&r)? } else { r };
            });
            Ok(Arc::new(ColumnVec::Vals(out)))
        }
        CompiledExpr::Cast { expr, ty } => {
            let c = eval(expr, cx, sel)?;
            lanewise1(&c, sel, n, |v| v.cast(*ty))
        }
        CompiledExpr::Fn { func, args } => {
            // Fused string-function-over-column kernel: reading the
            // slot straight out of each row skips the gather (and its
            // per-lane `Arc<str>` refcount round trip) entirely.
            if let (
                ScalarFunc::Upper | ScalarFunc::Lower | ScalarFunc::Length,
                [CompiledExpr::Slot(slot)],
            ) = (*func, args.as_slice())
            {
                return eval_fn_slot(*func, *slot, cx, sel);
            }
            // batch-alloc: one column per argument, shared by all lanes.
            let cols: Vec<Arc<ColumnVec>> = args
                .iter()
                .map(|a| eval(a, cx, sel))
                .collect::<Result<_>>()?;
            eval_fn(*func, &cols, sel, n)
        }
        // A sublink runs its body through the executor: the interpreter
        // evaluates it lane by lane, on the selected lanes only.
        CompiledExpr::Interp(e) => {
            // batch-alloc: the result column.
            let mut out = vec![Value::Null; n];
            for_lanes!(sel, i => {
                out[i] = eval_row(cx.exec, e, &Env::new(cx.rows[i], cx.params))?;
            });
            Ok(Arc::new(ColumnVec::Vals(out)))
        }
        // `batched` keeps these out of batch-running nodes; one that got
        // here anyway aborts the batch to the row replay.
        CompiledExpr::Case { .. } => Err(batch_abort()),
    }
}

// ----------------------------------------------------------------------
// Typed operand views
// ----------------------------------------------------------------------

/// Integer lane source: a typed column, a broadcast constant, or the NULL
/// constant (which short-circuits the whole kernel to NULL).
enum IntSrc<'a> {
    Slice(&'a [i64], &'a NullBitmap),
    Const(i64),
    Null,
}

impl IntSrc<'_> {
    /// The lane's value, `None` for NULL.
    #[inline]
    fn lane(&self, i: usize) -> Option<i64> {
        match self {
            IntSrc::Slice(v, nulls) => (!nulls.is_null(i)).then(|| v[i]),
            IntSrc::Const(x) => Some(*x),
            IntSrc::Null => None,
        }
    }

    /// The lane's value, assuming no NULL lanes (dense loops only).
    #[inline]
    fn dense(&self, i: usize) -> i64 {
        match self {
            IntSrc::Slice(v, _) => v[i],
            IntSrc::Const(x) => *x,
            IntSrc::Null => unreachable!("dense loops exclude the NULL constant"),
        }
    }

    /// True when no selected lane can be NULL.
    fn none_null(&self) -> bool {
        match self {
            IntSrc::Slice(_, nulls) => nulls.none_null(),
            IntSrc::Const(_) => true,
            IntSrc::Null => false,
        }
    }
}

fn int_src(c: &ColumnVec) -> Option<IntSrc<'_>> {
    match c {
        ColumnVec::Ints(v, nulls) => Some(IntSrc::Slice(v, nulls)),
        ColumnVec::Const(Value::Int(x), _) => Some(IntSrc::Const(*x)),
        ColumnVec::Const(Value::Null, _) => Some(IntSrc::Null),
        _ => None,
    }
}

/// Text lane source for comparison kernels.
enum TextSrc<'a> {
    Slice(&'a [Arc<str>], &'a NullBitmap),
    Const(&'a str),
    Null,
}

impl TextSrc<'_> {
    #[inline]
    fn lane(&self, i: usize) -> Option<&str> {
        match self {
            TextSrc::Slice(v, nulls) => (!nulls.is_null(i)).then(|| &*v[i]),
            TextSrc::Const(s) => Some(s),
            TextSrc::Null => None,
        }
    }
}

fn text_src(c: &ColumnVec) -> Option<TextSrc<'_>> {
    match c {
        ColumnVec::Texts(v, nulls) => Some(TextSrc::Slice(v, nulls)),
        ColumnVec::Const(Value::Text(s), _) => Some(TextSrc::Const(s)),
        ColumnVec::Const(Value::Null, _) => Some(TextSrc::Null),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Binary kernels
// ----------------------------------------------------------------------

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
    )
}

#[inline]
fn cmp_holds(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::NotEq => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::LtEq => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::GtEq => ord != Less,
        _ => unreachable!("comparison ops only"),
    }
}

fn arith_op(op: BinOp) -> Option<ArithOp> {
    Some(match op {
        BinOp::Add => ArithOp::Add,
        BinOp::Sub => ArithOp::Sub,
        BinOp::Mul => ArithOp::Mul,
        BinOp::Div => ArithOp::Div,
        BinOp::Mod => ArithOp::Mod,
        _ => return None,
    })
}

/// The dense integer-arithmetic loop: no NULL lanes, full selection, op
/// dispatch hoisted out of the loop. On a checked-op failure the exact
/// row-path error comes from re-running the lane through
/// [`ops::arith_int`].
fn arith_int_dense(
    aop: ArithOp,
    ls: &IntSrc<'_>,
    rs: &IntSrc<'_>,
    out: &mut [i64],
    n: usize,
) -> Result<()> {
    macro_rules! dense_loop {
        ($f:expr) => {
            for i in 0..n {
                let (x, y) = (ls.dense(i), rs.dense(i));
                match $f(x, y) {
                    Some(v) => out[i] = v,
                    None => {
                        // Always an error here: the checked op failed.
                        ops::arith_int(aop, x, y)?;
                        return Err(batch_abort());
                    }
                }
            }
        };
    }
    match aop {
        ArithOp::Add => dense_loop!(i64::checked_add),
        ArithOp::Sub => dense_loop!(i64::checked_sub),
        ArithOp::Mul => dense_loop!(i64::checked_mul),
        ArithOp::Div => dense_loop!(|x: i64, y: i64| if y == 0 { None } else { x.checked_div(y) }),
        ArithOp::Mod => dense_loop!(|x: i64, y: i64| if y == 0 { None } else { x.checked_rem(y) }),
    }
    Ok(())
}

fn eval_binary(
    op: BinOp,
    l: &ColumnVec,
    r: &ColumnVec,
    sel: &Sel,
    n: usize,
) -> Result<Arc<ColumnVec>> {
    // Typed int arithmetic: the single hottest scan kernel.
    if let Some(aop) = arith_op(op) {
        if let (Some(ls), Some(rs)) = (int_src(l), int_src(r)) {
            if matches!(ls, IntSrc::Null) || matches!(rs, IntSrc::Null) {
                return Ok(Arc::new(ColumnVec::Const(Value::Null, n)));
            }
            let mut out = vec![0i64; n];
            if matches!(sel, Sel::All(_)) && ls.none_null() && rs.none_null() {
                arith_int_dense(aop, &ls, &rs, &mut out, n)?;
                return Ok(Arc::new(ColumnVec::Ints(out, NullBitmap::new_valid(n))));
            }
            let mut nulls = NullBitmap::new_valid(n);
            for_lanes!(sel, i => {
                match (ls.lane(i), rs.lane(i)) {
                    (Some(x), Some(y)) => match ops::arith_int(aop, x, y)? {
                        Value::Int(v) => out[i] = v,
                        // INVARIANT: arith_int on ints yields Int.
                        _ => return Err(batch_abort()),
                    },
                    _ => nulls.set_null(i),
                }
            });
            return Ok(Arc::new(ColumnVec::Ints(out, nulls)));
        }
        return lanewise2(l, r, sel, n, |a, b| ops::arith(aop, a, b));
    }
    if is_cmp(op) {
        // Typed int and text comparisons; everything else (mixed
        // numerics, type errors) through the reference `sql_compare`.
        // The per-op outcome table (`holds[ordering]`) keeps the lane
        // loop free of operator dispatch.
        use std::cmp::Ordering::*;
        let (on_lt, on_eq, on_gt) = (
            cmp_holds(op, Less),
            cmp_holds(op, Equal),
            cmp_holds(op, Greater),
        );
        if let (Some(ls), Some(rs)) = (int_src(l), int_src(r)) {
            if matches!(ls, IntSrc::Null) || matches!(rs, IntSrc::Null) {
                return Ok(Arc::new(ColumnVec::Const(Value::Null, n)));
            }
            let mut out = vec![false; n];
            if matches!(sel, Sel::All(_)) && ls.none_null() && rs.none_null() {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = match ls.dense(i).cmp(&rs.dense(i)) {
                        Less => on_lt,
                        Equal => on_eq,
                        Greater => on_gt,
                    };
                }
                return Ok(Arc::new(ColumnVec::Bools(out, NullBitmap::new_valid(n))));
            }
            let mut nulls = NullBitmap::new_valid(n);
            for_lanes!(sel, i => {
                match (ls.lane(i), rs.lane(i)) {
                    (Some(x), Some(y)) => {
                        out[i] = match x.cmp(&y) {
                            Less => on_lt,
                            Equal => on_eq,
                            Greater => on_gt,
                        };
                    }
                    _ => nulls.set_null(i),
                }
            });
            return Ok(Arc::new(ColumnVec::Bools(out, nulls)));
        }
        if let (Some(ls), Some(rs)) = (text_src(l), text_src(r)) {
            if matches!(ls, TextSrc::Null) || matches!(rs, TextSrc::Null) {
                return Ok(Arc::new(ColumnVec::Const(Value::Null, n)));
            }
            let mut out = vec![false; n];
            let mut nulls = NullBitmap::new_valid(n);
            for_lanes!(sel, i => {
                match (ls.lane(i), rs.lane(i)) {
                    (Some(x), Some(y)) => {
                        out[i] = match x.cmp(y) {
                            Less => on_lt,
                            Equal => on_eq,
                            Greater => on_gt,
                        };
                    }
                    _ => nulls.set_null(i),
                }
            });
            return Ok(Arc::new(ColumnVec::Bools(out, nulls)));
        }
    }
    let f: fn(&Value, &Value) -> Result<Value> = match op {
        BinOp::Eq => ops::eq,
        BinOp::NotEq => ops::neq,
        BinOp::Lt => ops::lt,
        BinOp::LtEq => ops::lte,
        BinOp::Gt => ops::gt,
        BinOp::GtEq => ops::gte,
        BinOp::Concat => ops::concat,
        BinOp::NotDistinctFrom => |a, b| Ok(ops::not_distinct(a, b)),
        BinOp::DistinctFrom => |a, b| Ok(ops::distinct(a, b)),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            unreachable!("arithmetic handled above")
        }
        BinOp::And | BinOp::Or => unreachable!("AND/OR compile to chains"),
    };
    lanewise2(l, r, sel, n, f)
}

// ----------------------------------------------------------------------
// AND/OR chains with selection narrowing
// ----------------------------------------------------------------------

/// Kleene chain evaluation. `absorb` is the absorbing truth value
/// (`false` for AND, `true` for OR): once a lane reaches it, later chain
/// elements are not evaluated there — mirroring the row path's
/// short-circuit, which is what keeps batch and row errors identical.
fn eval_chain(
    items: &[CompiledExpr],
    cx: &mut Cx<'_>,
    sel: &Sel,
    n: usize,
    absorb: bool,
) -> Result<Arc<ColumnVec>> {
    // batch-alloc: per-lane chain state, one set per batch.
    let mut absorbed = vec![false; n];
    let mut saw_null = vec![false; n];
    let mut alive = sel.clone();
    for item in items {
        if alive.count() == 0 {
            break;
        }
        let col = eval(item, cx, &alive)?;
        // batch-alloc: the narrowed selection for the next chain element.
        let mut next: Vec<u32> = Vec::with_capacity(alive.count());
        for_lanes!(&alive, i => {
            match bool_lane(&col, i)? {
                Some(b) if b == absorb => absorbed[i] = true,
                Some(_) => next.push(i as u32),
                None => {
                    saw_null[i] = true;
                    next.push(i as u32);
                }
            }
        });
        alive = Sel::Idx(next);
    }
    let mut out = vec![false; n];
    let mut nulls = NullBitmap::new_valid(n);
    for_lanes!(sel, i => {
        if absorbed[i] {
            out[i] = absorb;
        } else if saw_null[i] {
            nulls.set_null(i);
        } else {
            out[i] = !absorb;
        }
    });
    Ok(Arc::new(ColumnVec::Bools(out, nulls)))
}

/// A lane as a three-valued boolean, with the row path's error on
/// non-boolean values.
#[inline]
fn bool_lane(col: &ColumnVec, i: usize) -> Result<Option<bool>> {
    match col {
        ColumnVec::Bools(v, nulls) => Ok(if nulls.is_null(i) { None } else { Some(v[i]) }),
        ColumnVec::Const(v, _) => v.as_bool(),
        other => other.get(i).as_bool(),
    }
}

// ----------------------------------------------------------------------
// Scalar-function kernels
// ----------------------------------------------------------------------

fn eval_fn(
    func: ScalarFunc,
    cols: &[Arc<ColumnVec>],
    sel: &Sel,
    n: usize,
) -> Result<Arc<ColumnVec>> {
    // Typed text kernels for the three single-argument string functions
    // the projection benches lean on. `to_uppercase`/`to_lowercase`
    // agree with the ASCII-only variants on ASCII input, so the kernel
    // may take the allocation-lighter byte path per lane.
    if cols.len() == 1 {
        if let (ScalarFunc::Upper | ScalarFunc::Lower | ScalarFunc::Length, Some(src)) =
            (func, text_src_checked(&cols[0]))
        {
            return match src {
                TextSrc::Null => Ok(Arc::new(ColumnVec::Const(Value::Null, n))),
                src => match func {
                    ScalarFunc::Length => {
                        let mut out = vec![0i64; n];
                        let mut nulls = NullBitmap::new_valid(n);
                        for_lanes!(sel, i => {
                            match src.lane(i) {
                                None => nulls.set_null(i),
                                Some(s) => {
                                    out[i] = if s.is_ascii() {
                                        s.len() as i64
                                    } else {
                                        s.chars().count() as i64
                                    };
                                }
                            }
                        });
                        Ok(Arc::new(ColumnVec::Ints(out, nulls)))
                    }
                    _ => {
                        let upper = func == ScalarFunc::Upper;
                        let mut nulls = NullBitmap::new_valid(n);
                        // batch-alloc: scratch recase buffer reused across
                        // lanes, so each lane pays one allocation (the
                        // `Arc<str>` result) instead of two.
                        let mut buf = String::new();
                        let mut recase_lane = |s: &str| -> Arc<str> {
                            if s.is_ascii() {
                                buf.clear();
                                buf.push_str(s);
                                if upper {
                                    buf.make_ascii_uppercase();
                                } else {
                                    buf.make_ascii_lowercase();
                                }
                                // per-lane alloc: the result string.
                                Arc::from(buf.as_str())
                            } else {
                                // per-lane alloc: Unicode recase result.
                                Arc::from(recase(s, upper))
                            }
                        };
                        let empty: Arc<str> = Arc::from("");
                        let out = match sel {
                            Sel::All(_) => {
                                // Dense: build by pushing, skipping the
                                // placeholder refcount churn a pre-filled
                                // vector would pay on every overwrite.
                                let mut out: Vec<Arc<str>> = Vec::with_capacity(n);
                                for i in 0..n {
                                    match src.lane(i) {
                                        None => {
                                            nulls.set_null(i);
                                            out.push(empty.clone());
                                        }
                                        Some(s) => out.push(recase_lane(s)),
                                    }
                                }
                                out
                            }
                            sel => {
                                let mut out = vec![empty; n];
                                for_lanes!(sel, i => {
                                    match src.lane(i) {
                                        None => nulls.set_null(i),
                                        Some(s) => out[i] = recase_lane(s),
                                    }
                                });
                                out
                            }
                        };
                        Ok(Arc::new(ColumnVec::Texts(out, nulls)))
                    }
                },
            };
        }
    }
    // Generic path: materialize each lane's arguments and call the very
    // function the row interpreter calls.
    let mut out = vec![Value::Null; n];
    // batch-alloc: argument buffer reused across lanes.
    let mut vals: Vec<Value> = Vec::with_capacity(cols.len());
    for_lanes!(sel, i => {
        vals.clear();
        for c in cols {
            vals.push(c.get(i));
        }
        out[i] = crate::eval::eval_scalar_fn(func, &vals)?;
    });
    Ok(Arc::new(ColumnVec::Vals(out)))
}

/// Fused `upper`/`lower`/`length` over a raw slot: reads each lane's
/// value straight out of the row, so no column is gathered and no text
/// refcounts move. Odd-typed lanes route through the reference
/// [`crate::eval::eval_scalar_fn`] so errors match the row path.
fn eval_fn_slot(func: ScalarFunc, slot: usize, cx: &Cx<'_>, sel: &Sel) -> Result<Arc<ColumnVec>> {
    let n = cx.n;
    if cx.rows.iter().any(|t| slot >= t.len()) {
        // Row too narrow: the row path owns the error.
        return Err(batch_abort());
    }
    if func == ScalarFunc::Length {
        let mut out = vec![0i64; n];
        let mut nulls = NullBitmap::new_valid(n);
        for_lanes!(sel, i => {
            match cx.rows[i].get(slot) {
                Value::Null => nulls.set_null(i),
                Value::Text(s) => {
                    out[i] = if s.is_ascii() {
                        s.len() as i64
                    } else {
                        s.chars().count() as i64
                    };
                }
                v => {
                    crate::eval::eval_scalar_fn(func, std::slice::from_ref(v))?;
                    return Err(batch_abort());
                }
            }
        });
        return Ok(Arc::new(ColumnVec::Ints(out, nulls)));
    }
    let upper = func == ScalarFunc::Upper;
    let mut nulls = NullBitmap::new_valid(n);
    // batch-alloc: scratch recase buffer reused across lanes.
    let mut buf = String::new();
    let empty: Arc<str> = Arc::from("");
    let recased = |buf: &mut String, s: &str| -> Arc<str> {
        if s.is_ascii() {
            buf.clear();
            buf.push_str(s);
            if upper {
                buf.make_ascii_uppercase();
            } else {
                buf.make_ascii_lowercase();
            }
            // per-lane alloc: the result string.
            Arc::from(buf.as_str())
        } else {
            // per-lane alloc: Unicode recase result.
            Arc::from(recase(s, upper))
        }
    };
    let out = match sel {
        Sel::All(_) => {
            // Dense: push-built, no placeholder refcount churn.
            let mut out: Vec<Arc<str>> = Vec::with_capacity(n);
            for i in 0..n {
                match cx.rows[i].get(slot) {
                    Value::Null => {
                        nulls.set_null(i);
                        out.push(empty.clone());
                    }
                    Value::Text(s) => out.push(recased(&mut buf, s)),
                    v => {
                        crate::eval::eval_scalar_fn(func, std::slice::from_ref(v))?;
                        return Err(batch_abort());
                    }
                }
            }
            out
        }
        sel => {
            let mut out = vec![empty.clone(); n];
            for_lanes!(sel, i => {
                match cx.rows[i].get(slot) {
                    Value::Null => nulls.set_null(i),
                    Value::Text(s) => out[i] = recased(&mut buf, s),
                    v => {
                        crate::eval::eval_scalar_fn(func, std::slice::from_ref(v))?;
                        return Err(batch_abort());
                    }
                }
            });
            out
        }
    };
    Ok(Arc::new(ColumnVec::Texts(out, nulls)))
}

fn recase(s: &str, upper: bool) -> String {
    if upper {
        s.to_uppercase()
    } else {
        s.to_lowercase()
    }
}

/// Like [`text_src`], but `None` for any column that could hold a
/// non-text, non-null lane (those must take the generic path so type
/// errors match the row interpreter).
fn text_src_checked(c: &ColumnVec) -> Option<TextSrc<'_>> {
    text_src(c)
}

// ----------------------------------------------------------------------
// Generic lane-at-a-time fallbacks
// ----------------------------------------------------------------------

/// Apply `f` — one of the reference [`ops`] functions — per selected
/// lane. NULL handling lives in `f` itself, exactly as on the row path.
fn lanewise1(
    c: &ColumnVec,
    sel: &Sel,
    n: usize,
    f: impl Fn(&Value) -> Result<Value>,
) -> Result<Arc<ColumnVec>> {
    let mut out = vec![Value::Null; n];
    for_lanes!(sel, i => {
        out[i] = f(&c.get(i))?;
    });
    Ok(Arc::new(ColumnVec::Vals(out)))
}

fn lanewise2(
    l: &ColumnVec,
    r: &ColumnVec,
    sel: &Sel,
    n: usize,
    f: impl Fn(&Value, &Value) -> Result<Value>,
) -> Result<Arc<ColumnVec>> {
    let mut out = vec![Value::Null; n];
    for_lanes!(sel, i => {
        out[i] = f(&l.get(i), &r.get(i))?;
    });
    Ok(Arc::new(ColumnVec::Vals(out)))
}

// ----------------------------------------------------------------------
// Operator-facing entry points
// ----------------------------------------------------------------------

/// Run one batch of rows through an optional filter and an optional
/// projection (a fused scan's, a `Filter`'s or a `Project`'s), appending
/// passing (projected) rows to `out`. On `Err` the caller must discard
/// any rows this call appended and re-run the batch through the row
/// path.
pub(crate) fn filter_project(
    exec: &Executor,
    filter: Option<&CompiledExpr>,
    project: Option<&CompiledProjection>,
    rows: &[&Tuple],
    params: &[Value],
    out: &mut Vec<Tuple>,
) -> Result<()> {
    let mut cx = Cx::new(exec, rows, params);
    let n = rows.len();
    let sel = match filter {
        None => Sel::All(n),
        Some(f) => {
            let col = eval(f, &mut cx, &Sel::All(n))?;
            // batch-alloc: the surviving-lane list.
            let mut keep: Vec<u32> = Vec::new();
            let all = Sel::All(n);
            for_lanes!(&all, i => {
                if bool_lane(&col, i)? == Some(true) {
                    keep.push(i as u32);
                }
            });
            Sel::Idx(keep)
        }
    };
    match project {
        None => {
            for_lanes!(&sel, i => {
                out.push(rows[i].clone());
            });
        }
        Some(CompiledProjection::Gather(g)) => {
            // Slot-and-constant projections stay row-wise gathers (one
            // allocation per surviving row, the values copied straight
            // out of the input row — no kernel can beat it).
            for_lanes!(&sel, i => {
                // per-lane alloc: the output row itself, one allocation.
                // A row too narrow errs, and the row replay owns the
                // error's order.
                out.push(g.apply(rows[i])?);
            });
        }
        Some(CompiledProjection::Exprs(exprs)) => {
            // batch-alloc: one result column per output expression.
            let mut cols: Vec<Arc<ColumnVec>> = Vec::with_capacity(exprs.len());
            for e in exprs {
                cols.push(eval(e, &mut cx, &sel)?);
            }
            if let Sel::All(_) = sel {
                // Dense batch: move values out of uniquely-owned
                // result columns instead of cloning lane by lane, so
                // text payloads transfer into the output tuples with
                // no refcount traffic. Slot-cached columns are shared
                // (the `Cx` cache holds a second `Arc`) and keep the
                // per-lane `get` clone.
                // batch-alloc: per-column value vectors for the pivot.
                let mut moved: Vec<Vec<Value>> = cols
                    .into_iter()
                    .map(|c| match Arc::try_unwrap(c) {
                        Ok(col) => col.into_vals(),
                        Err(shared) => (0..n).map(|i| shared.get(i)).collect(),
                    })
                    .collect();
                for i in 0..n {
                    out.push(
                        moved
                            .iter_mut()
                            .map(|c| std::mem::replace(&mut c[i], Value::Null))
                            // per-lane alloc: the output row itself
                            // (downstream operators consume Tuples).
                            .collect(),
                    );
                }
            } else {
                for_lanes!(&sel, i => {
                    // per-lane alloc: the output row itself.
                    out.push(cols.iter().map(|c| c.get(i)).collect());
                });
            }
        }
    }
    Ok(())
}

/// Evaluate every expression of a projection-shaped list (sort keys)
/// over one batch, returning the result columns. On `Err` the caller
/// re-runs the batch's rows through the row path.
pub(crate) fn eval_all(
    exec: &Executor,
    exprs: &[CompiledExpr],
    rows: &[&Tuple],
    params: &[Value],
) -> Result<Vec<Arc<ColumnVec>>> {
    let mut cx = Cx::new(exec, rows, params);
    let sel = Sel::All(rows.len());
    exprs.iter().map(|e| eval(e, &mut cx, &sel)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_executor() -> Executor {
        Executor::new(Arc::new(perm_storage::Catalog::new()))
    }

    fn ints(vals: &[Option<i64>]) -> ColumnVec {
        let mut v = Vec::new();
        let mut nulls = NullBitmap::new_valid(vals.len());
        for (i, x) in vals.iter().enumerate() {
            match x {
                Some(x) => v.push(*x),
                None => {
                    v.push(0);
                    nulls.set_null(i);
                }
            }
        }
        ColumnVec::Ints(v, nulls)
    }

    #[test]
    fn int_arith_skips_null_lanes() {
        // Lane 1 is NULL with a zero placeholder: a kernel that computed
        // it would raise a division-by-zero the row path never raises.
        let l = ints(&[Some(10), Some(7)]);
        let r = ints(&[Some(5), None]);
        let out = eval_binary(BinOp::Div, &l, &r, &Sel::All(2), 2).unwrap();
        assert_eq!(out.get(0), Value::Int(2));
        assert_eq!(out.get(1), Value::Null);
    }

    #[test]
    fn int_arith_raises_real_division_by_zero() {
        let l = ints(&[Some(1)]);
        let r = ints(&[Some(0)]);
        let err = eval_binary(BinOp::Div, &l, &r, &Sel::All(1), 1).unwrap_err();
        assert!(err.message().contains("division by zero"), "{err}");
    }

    #[test]
    fn selection_vector_masks_error_lanes() {
        // The error lane (division by zero at lane 0) is outside the
        // selection, so the kernel must not touch it.
        let l = ints(&[Some(1), Some(8)]);
        let r = ints(&[Some(0), Some(2)]);
        let out = eval_binary(BinOp::Div, &l, &r, &Sel::Idx(vec![1]), 2).unwrap();
        assert_eq!(out.get(1), Value::Int(4));
    }

    #[test]
    fn selection_vector_over_null_lanes() {
        let c = ints(&[None, Some(3), None, Some(4)]);
        let out = eval_binary(
            BinOp::Mul,
            &c,
            &ColumnVec::Const(Value::Int(2), 4),
            &Sel::Idx(vec![0, 3]),
            4,
        )
        .unwrap();
        assert_eq!(out.get(0), Value::Null);
        assert_eq!(out.get(3), Value::Int(8));
    }

    #[test]
    fn chain_matches_kleene_semantics() {
        // (#0 >= 2) AND (#0 < 4) over [1, 2, NULL, 4]
        let rows: Vec<Tuple> = [Some(1), Some(2), None, Some(4)]
            .iter()
            .map(|v| Tuple::new(vec![v.map_or(Value::Null, Value::Int)]))
            .collect();
        let refs: Vec<&Tuple> = rows.iter().collect();
        let expr = CompiledExpr::And(vec![
            CompiledExpr::Binary {
                op: BinOp::GtEq,
                left: Box::new(CompiledExpr::Slot(0)),
                right: Box::new(CompiledExpr::Const(Value::Int(2))),
            },
            CompiledExpr::Binary {
                op: BinOp::Lt,
                left: Box::new(CompiledExpr::Slot(0)),
                right: Box::new(CompiledExpr::Const(Value::Int(4))),
            },
        ]);
        let exec = test_executor();
        let mut cx = Cx::new(&exec, &refs, &[]);
        let out = eval(&expr, &mut cx, &Sel::All(4)).unwrap();
        assert_eq!(out.get(0), Value::Bool(false));
        assert_eq!(out.get(1), Value::Bool(true));
        assert_eq!(out.get(2), Value::Null);
        assert_eq!(out.get(3), Value::Bool(false));
    }

    #[test]
    fn and_chain_skips_lanes_the_row_path_short_circuits() {
        // (#0 <> 0) AND (10 / #0 > 1): lane 0 divides by zero only if
        // the chain fails to narrow the selection after conjunct one.
        let rows: Vec<Tuple> = [0i64, 5]
            .iter()
            .map(|v| Tuple::new(vec![Value::Int(*v)]))
            .collect();
        let refs: Vec<&Tuple> = rows.iter().collect();
        let expr = CompiledExpr::And(vec![
            CompiledExpr::Binary {
                op: BinOp::NotEq,
                left: Box::new(CompiledExpr::Slot(0)),
                right: Box::new(CompiledExpr::Const(Value::Int(0))),
            },
            CompiledExpr::Binary {
                op: BinOp::Gt,
                left: Box::new(CompiledExpr::Binary {
                    op: BinOp::Div,
                    left: Box::new(CompiledExpr::Const(Value::Int(10))),
                    right: Box::new(CompiledExpr::Slot(0)),
                }),
                right: Box::new(CompiledExpr::Const(Value::Int(1))),
            },
        ]);
        let exec = test_executor();
        let mut cx = Cx::new(&exec, &refs, &[]);
        let out = eval(&expr, &mut cx, &Sel::All(2)).unwrap();
        assert_eq!(out.get(0), Value::Bool(false));
        assert_eq!(out.get(1), Value::Bool(true));
    }

    #[test]
    fn empty_batch_runs_clean() {
        let filter = CompiledExpr::IsNull {
            expr: Box::new(CompiledExpr::Slot(0)),
            negated: false,
        };
        let mut out = Vec::new();
        filter_project(&test_executor(), Some(&filter), None, &[], &[], &mut out).unwrap();
        assert!(out.is_empty());
    }
}
