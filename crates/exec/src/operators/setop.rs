//! Set operations with both set (`DISTINCT`) and bag (`ALL`) semantics,
//! and `SELECT DISTINCT`.
//!
//! Tuple equality here is grouping equality (NULL == NULL), matching SQL's
//! treatment of NULLs in set operations.
//!
//! Each operator has **one body** — [`setop_kernel`] holds the `(op, all)`
//! logic, [`keep_first`] the first-occurrence dedup — written over a
//! stream of position-tagged rows of *one hash partition*, and three thin
//! drivers that only decide how rows reach it:
//!
//! * **serial** — the whole input is the one partition. Rows arrive in
//!   input order, so the kernel's output already is the result: the tag
//!   is `()` and there is no final sort.
//! * **parallel** (`dop > 1`) — [`partition_tagged`] scatters rows by
//!   hash (equal rows colocate), the pool runs the kernel per partition,
//!   and [`restore_order`] sorts the tagged outputs back into input order.
//! * **spilled** (reservation denied) — [`scatter_tagged`] writes the
//!   same partitions to disk, the kernel reads them back one at a time
//!   (charged to the per-query cap only), then [`restore_order`].
//!
//! Which driver runs is decided by what the planner stamped on the node
//! (`dop`, `spill`) and by the reservation denial alone.

use std::cell::Cell;

use perm_types::hash::{map_with_capacity, set_with_capacity, FxHashMap, FxHashSet};
use perm_types::{QueryContext, Result, Tuple};

use perm_algebra::plan::SetOpType;

use crate::executor::Executor;
use crate::memory::{grow_batched, MemoryReservation};
use crate::operators::spill::scatter_tagged;
use crate::parallel::{map_partitions, partition_tagged, restore_order};
use crate::physical::PhysicalPlan;

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
    spill: Option<usize>,
) -> Result<Vec<Tuple>> {
    let l = exec.run_physical(left)?;
    let r = exec.run_physical(right)?;
    if matches!(op, SetOpType::Union) && all {
        // Plain append holds no operator state: nothing to charge or
        // spill.
        let mut out = l;
        out.extend(r);
        return Ok(out);
    }
    let ctx = exec.context();
    // Every other variant hashes both sides, so the whole input is
    // charged up front; a denial switches to the partitioned on-disk
    // strategy instead of failing.
    let reservation = exec.memory().register("HashSetOp");
    if let Err(denied) = grow_batched(
        &reservation,
        l.iter().chain(r.iter()).map(Tuple::size_bytes),
    ) {
        reservation.free();
        let Some(parts) = spill else {
            return Err(denied.into_error());
        };
        return setop_spill(ctx, l, r, op, all, parts, &reservation);
    }
    if dop > 1 {
        // Global position tags: `l` before `r`.
        let roffset = l.len() as u64;
        let lparts = partition_tagged(ctx, l, 0, dop)?;
        let rparts = partition_tagged(ctx, r, roffset, dop)?;
        let worker_ctx = ctx.clone();
        let kept = map_partitions(lparts.into_iter().zip(rparts).collect(), move |(lp, rp)| {
            let mut out = Vec::new();
            let capacity = lp.len() + rp.len();
            setop_kernel(
                &worker_ctx,
                (op, all),
                lp.into_iter().map(Ok),
                rp.into_iter().map(Ok),
                capacity,
                |tag, t| out.push((tag, t)),
            )?;
            Ok(out)
        })?;
        return Ok(restore_order(kept));
    }
    let mut out = Vec::new();
    let capacity = l.len() + r.len();
    setop_kernel(
        ctx,
        (op, all),
        untagged(l),
        untagged(r),
        capacity,
        |(), t| out.push(t),
    )?;
    Ok(out)
}

/// The one body of every hash set operation: run `(op, all)` over the
/// rows of one hash partition — `l` then `r`, each in tag order — and
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
    match (op, all) {
        (SetOpType::Union, true) => unreachable!("append is not hashed"),
        (SetOpType::Union, false) => {
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
        (SetOpType::Intersect, false) => filter_left(ctx, l, r, true, false, emit),
        (SetOpType::Except, false) => filter_left(ctx, l, r, false, false, emit),
        (SetOpType::Intersect, true) => filter_left(ctx, l, r, true, true, emit),
        (SetOpType::Except, true) => filter_left(ctx, l, r, false, true, emit),
    }
}

/// `INTERSECT` (`keep_hits`) / `EXCEPT` (`!keep_hits`): count `r`'s rows,
/// then keep the `l` rows that do (or do not) find a counterpart there.
/// Under bag semantics (`all`) a hit consumes one `r` occurrence, so the
/// hits are the bag intersection (min(countL, countR) copies) and the
/// misses the bag difference (countL − countR); under set semantics a
/// hit consumes nothing and only the first occurrence of a row survives.
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
            emit(tag, t);
        }
    }
    Ok(())
}

/// The spilled driver of [`setop_kernel`]: both sides scatter to
/// partition files by row hash, tagged with their global position (`l`
/// before `r`); each partition streams back through the kernel, every
/// row read charged to the per-query cap only until the partition ends.
fn setop_spill(
    ctx: &QueryContext,
    l: Vec<Tuple>,
    r: Vec<Tuple>,
    op: SetOpType,
    all: bool,
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    let roffset = l.len() as u64;
    let lfiles = scatter_tagged(ctx, l, 0, parts)?;
    let rfiles = scatter_tagged(ctx, r, roffset, parts)?;

    let mut kept: Vec<(u64, Tuple)> = Vec::new();
    for (lreader, rreader) in lfiles
        .into_readers()?
        .into_iter()
        .zip(rfiles.into_readers()?)
    {
        // Partition boundary: cancellation point (temp files are cleaned
        // by the readers' Drop even on the early-return path).
        ctx.check()?;
        let charged = Cell::new(0usize);
        let load = |rec: Result<(u64, Tuple)>| {
            let (tag, row) = rec?;
            let bytes = row.size_bytes();
            res.grow_unpooled(bytes)?;
            charged.set(charged.get() + bytes);
            Ok((tag, row))
        };
        let capacity = lreader.remaining() + rreader.remaining();
        setop_kernel(
            ctx,
            (op, all),
            lreader.map(load),
            rreader.map(load),
            capacity,
            |tag, t| kept.push((tag, t)),
        )?;
        res.shrink(charged.get());
    }
    Ok(restore_order(kept))
}

/// Execute a [`PhysicalPlan::HashDistinct`] node.
pub(crate) fn run_distinct(
    exec: &Executor,
    input: &PhysicalPlan,
    dop: usize,
    spill: Option<usize>,
) -> Result<Vec<Tuple>> {
    let rows = exec.run_physical(input)?;
    let ctx = exec.context();
    // The dedup set holds (at worst) every input row: charge input
    // bytes; a denial switches to the partitioned on-disk dedup, which
    // holds one partition at a time.
    let reservation = exec.memory().register("HashDistinct");
    if let Err(denied) = grow_batched(&reservation, rows.iter().map(Tuple::size_bytes)) {
        reservation.free();
        let Some(parts) = spill else {
            return Err(denied.into_error());
        };
        return distinct_spill(ctx, rows, parts, &reservation);
    }
    if dop > 1 {
        let parts = partition_tagged(ctx, rows, 0, dop)?;
        let worker_ctx = ctx.clone();
        let kept = map_partitions(parts, move |part| {
            let mut out = Vec::new();
            keep_first(
                &worker_ctx,
                part.len(),
                part.into_iter().map(Ok),
                |tag, t| {
                    out.push((tag, t));
                    Ok(())
                },
            )?;
            Ok(out)
        })?;
        return Ok(restore_order(kept));
    }
    let mut out = Vec::new();
    keep_first(ctx, rows.len(), untagged(rows), |(), t| {
        out.push(t);
        Ok(())
    })?;
    Ok(out)
}

/// The one body of DISTINCT: hand the first occurrence of every distinct
/// row of one hash partition (in tag order) to `emit`. `emit` is
/// fallible so the spilled driver can charge exactly the rows it keeps.
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
            seen.insert(t.clone());
            emit(tag, t)?;
        }
    }
    Ok(())
}

/// The spilled driver of [`keep_first`]: rows scatter by their own hash
/// tagged with their input position, and each partition dedups as it
/// streams back, charging only the rows it keeps.
pub(super) fn distinct_spill(
    ctx: &QueryContext,
    rows: Vec<Tuple>,
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    let files = scatter_tagged(ctx, rows, 0, parts)?;
    let mut kept: Vec<(u64, Tuple)> = Vec::new();
    for reader in files.into_readers()? {
        // Partition boundary: cancellation point (temp files are cleaned
        // by the readers' Drop even on the early-return path).
        ctx.check()?;
        let mut charged = 0usize;
        keep_first(ctx, reader.remaining(), reader, |tag, row| {
            let bytes = row.size_bytes();
            res.grow_unpooled(bytes)?;
            charged += bytes;
            kept.push((tag, row));
            Ok(())
        })?;
        res.shrink(charged);
    }
    Ok(restore_order(kept))
}
