//! Set operations with both set (`DISTINCT`) and bag (`ALL`) semantics,
//! and `SELECT DISTINCT`. `UNION ALL` holds no state and is not here: it
//! streams its inputs one after the other as an append cursor
//! ([`crate::stream`]).
//!
//! Tuple equality here is grouping equality (NULL == NULL, NaN == NaN),
//! matching SQL's treatment of NULLs in set operations.
//!
//! DISTINCT, `INTERSECT` and `EXCEPT` pass on part of their input, so
//! they keep each surviving row through [`Tuple::detach`]: a row of a
//! gathered block does not keep the whole block alive.
//!
//! Each operator has **one body** — [`setop_kernel`] holds the `(op, all)`
//! logic, [`keep_first`] the first-occurrence dedup — written over a
//! stream of position-tagged rows of *one hash partition*. The serial
//! driver runs it over the whole input, in order, untagged (`()`). A
//! parallel node or a denied reservation hands the rows to the partition
//! driver ([`super::spill`]) as [`SetOp`] / [`Distinct`]: the row itself
//! is the key (equal rows colocate) and the kernel the body.

use std::sync::Arc;

use perm_types::hash::{map_with_capacity, set_with_capacity, FxHashMap, FxHashSet};
use perm_types::{QueryContext, Result, Tuple};

use perm_algebra::plan::SetOpType;

use crate::executor::Executor;
use crate::operators::join::JoinRefs;
use crate::operators::spill::{charge_input, partitioned, Cap, Partitioned, Ran, Rows, Stream};
use crate::physical::{out_arity, PhysicalPlan};

/// The serial driver's input stream: infallible, untagged, in input order.
fn untagged(rows: Vec<Tuple>) -> impl Iterator<Item = Result<((), Tuple)>> {
    rows.into_iter().map(|t| Ok(((), t)))
}

pub(crate) fn run_setop(
    exec: &Executor,
    op: SetOpType,
    all: bool,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    dop: usize,
    spill: bool,
) -> Result<Vec<Tuple>> {
    let l = exec.run_physical(left)?;
    let r = exec.run_physical(right)?;
    // Every variant hashes both sides, so the whole input is charged up
    // front. (`UNION ALL` is an append cursor, [`crate::stream`].)
    let reservation = exec.memory().register("HashSetOp");
    let (sizes, rows) = (l.iter().chain(&r).map(Tuple::size_bytes), l.len() + r.len());
    if let Some(backing) = charge_input(&reservation, sizes, rows, dop, spill)? {
        let width = out_arity(left);
        let inputs = [JoinRefs::rows(l, width)?, JoinRefs::rows(r, width)?].map(Arc::new);
        return partitioned(exec, backing, inputs, Arc::new(SetOp(op, all)));
    }
    let mut out = Vec::new();
    let capacity = l.len() + r.len();
    setop_kernel(
        exec.context(),
        (op, all),
        untagged(l),
        untagged(r),
        capacity,
        |(), t| out.push(t),
    )?;
    Ok(out)
}

/// A set operation `(op, all)` as the partition driver runs it, with
/// [`setop_kernel`] as the body. Every row read is working memory: the
/// kernel's table holds `r`, or (under `UNION`) every distinct row.
pub(super) struct SetOp(pub(super) SetOpType, pub(super) bool);

impl Partitioned<2> for SetOp {
    fn run<I: Stream>(&self, exec: &Executor, [l, r]: [I; 2], cap: Cap, out: &mut Rows) -> Ran {
        let load = |rec: Result<(u64, Tuple)>| {
            let (tag, t) = rec?;
            cap.grow(t.size_bytes())?;
            Ok((tag, t))
        };
        let capacity = l.size_hint().1.unwrap_or(0) + r.size_hint().1.unwrap_or(0);
        let (l, r, emit) = (l.map(load), r.map(load), |tag, t| out.push((tag, t)));
        setop_kernel(exec.context(), (self.0, self.1), l, r, capacity, emit).map_err(|e| (None, e))
    }
}

/// The one body of every hash set operation (`UNION`, and `INTERSECT` /
/// `EXCEPT` with or without `ALL`): run `(op, all)` over the rows of one
/// hash partition — `l` then `r`, each in tag order — and
/// hand every surviving row (always an `l` row, except under `UNION`) to
/// `emit` with its tag, in the order the serial operator outputs them.
/// `capacity` sizes `UNION`'s dedup set.
pub(super) fn setop_kernel<G>(
    ctx: &QueryContext,
    (op, all): (SetOpType, bool),
    l: impl Iterator<Item = Result<(G, Tuple)>>,
    r: impl Iterator<Item = Result<(G, Tuple)>>,
    capacity: usize,
    mut emit: impl FnMut(G, Tuple),
) -> Result<()> {
    match op {
        SetOpType::Union => {
            // Single-probe insert: UNION inputs are mostly distinct, so
            // one hash plus a refcount-bump clone beats a double probe.
            let mut seen = set_with_capacity(capacity);
            for (k, rec) in l.chain(r).enumerate() {
                // Masked cancellation check per 4096 rows.
                if k % 4096 == 0 {
                    ctx.check()?;
                }
                let (tag, t) = rec?;
                if seen.insert(t.clone()) {
                    emit(tag, t);
                }
            }
            Ok(())
        }
        SetOpType::Intersect => filter_left(ctx, l, r, true, all, emit),
        SetOpType::Except => filter_left(ctx, l, r, false, all, emit),
    }
}

/// `INTERSECT` (`keep_hits`) / `EXCEPT` (`!keep_hits`): count `r`'s rows,
/// then keep the `l` rows that do (or do not) find a counterpart there.
/// Under bag semantics (`all`) a hit consumes one `r` occurrence, so the
/// hits are the bag intersection (min(countL, countR) copies) and the
/// misses the bag difference (countL − countR); under set semantics a
/// hit consumes nothing and only the first occurrence of a row survives.
/// Survivors are detached.
fn filter_left<G>(
    ctx: &QueryContext,
    l: impl Iterator<Item = Result<(G, Tuple)>>,
    r: impl Iterator<Item = Result<(G, Tuple)>>,
    keep_hits: bool,
    all: bool,
    mut emit: impl FnMut(G, Tuple),
) -> Result<()> {
    // In-memory streams report their length; spill readers report
    // nothing and the map grows on demand.
    let mut rcount: FxHashMap<Tuple, usize> = map_with_capacity(r.size_hint().0);
    for (k, rec) in r.enumerate() {
        // Masked cancellation check per 4096 rows.
        if k % 4096 == 0 {
            ctx.check()?;
        }
        *rcount.entry(rec?.1).or_insert(0) += 1;
    }
    let mut seen = FxHashSet::default();
    for (k, rec) in l.enumerate() {
        // Masked cancellation check per 4096 rows.
        if k % 4096 == 0 {
            ctx.check()?;
        }
        let (tag, t) = rec?;
        let hit = match rcount.get_mut(&t) {
            Some(c) if *c > 0 => {
                if all {
                    *c -= 1;
                }
                true
            }
            _ => false,
        };
        if hit == keep_hits && (all || seen.insert(t.clone())) {
            emit(tag, t.detach());
        }
    }
    Ok(())
}

/// Execute a [`PhysicalPlan::HashDistinct`] node.
pub(crate) fn run_distinct(
    exec: &Executor,
    input: &PhysicalPlan,
    dop: usize,
    spill: bool,
) -> Result<Vec<Tuple>> {
    let rows = exec.run_physical(input)?;
    // The dedup set holds (at worst) every input row: charge input
    // bytes. On disk a partition charges only the rows it keeps
    // ([`Distinct`]).
    let reservation = exec.memory().register("HashDistinct");
    let sizes = rows.iter().map(Tuple::size_bytes);
    if let Some(backing) = charge_input(&reservation, sizes, rows.len(), dop, spill)? {
        let inputs = [Arc::new(JoinRefs::rows(rows, out_arity(input))?)];
        return partitioned(exec, backing, inputs, Arc::new(Distinct));
    }
    let mut out = Vec::new();
    keep_first(exec.context(), rows.len(), untagged(rows), |(), t| {
        out.push(t);
        Ok(())
    })?;
    Ok(out)
}

/// DISTINCT as the partition driver runs it, with [`keep_first`] as the
/// body, charging the rows it keeps.
pub(super) struct Distinct;

impl Partitioned<1> for Distinct {
    fn run<I: Stream>(&self, exec: &Executor, [rows]: [I; 1], cap: Cap, out: &mut Rows) -> Ran {
        let capacity = rows.size_hint().1.unwrap_or(0);
        let emit = |tag, t: Tuple| {
            cap.grow(t.size_bytes())?;
            out.push((tag, t));
            Ok(())
        };
        keep_first(exec.context(), capacity, rows, emit).map_err(|e| (None, e))
    }
}

/// The one body of DISTINCT: hand the first occurrence of every distinct
/// row of one hash partition (in tag order), detached, to `emit`; a
/// failing `emit` stops the dedup.
pub(super) fn keep_first<G>(
    ctx: &QueryContext,
    capacity: usize,
    rows: impl Iterator<Item = Result<(G, Tuple)>>,
    mut emit: impl FnMut(G, Tuple) -> Result<()>,
) -> Result<()> {
    let mut seen = set_with_capacity(capacity);
    for (k, rec) in rows.enumerate() {
        // Masked cancellation check per 4096 rows.
        if k % 4096 == 0 {
            ctx.check()?;
        }
        let (tag, t) = rec?;
        // Membership first: DISTINCT inputs are duplicate-heavy (that is
        // what the operator is for), and a duplicate then costs one probe
        // and no clone. Contrast with UNION above, whose mostly-distinct
        // inputs make the single-probe insert the better trade there.
        if !seen.contains(&t) {
            let kept = t.detach();
            seen.insert(t);
            emit(tag, kept)?;
        }
    }
    Ok(())
}
