//! Join execution: hash join (with a planner-chosen build side), index
//! nested-loop join, and nested-loop join.
//!
//! The strategy, the extracted equi-keys (including the NULL-safe
//! `IS NOT DISTINCT FROM` keys Perm's aggregation join-back emits), the
//! build side and any fused output projection are all decided by the
//! physical planner ([`crate::physical`]); this module only runs the
//! operator it is handed.
//!
//! Each hash operator has **one body and thin drivers**. The hash join's
//! body is [`HashProbe::run`]: probe rows, tagged with their input
//! position, against one built [`JoinTable`], covering every join kind
//! and both build sides. What differs between execution modes is only
//! which rows meet which table:
//!
//! * **serial** — one table over the whole build side, the whole probe
//!   side in order; the output already is the result.
//! * **morsel-parallel** (`dop > 1`) — the same table, shared read-only;
//!   pool workers run the probe per morsel and the outputs concatenate
//!   in morsel order.
//! * **spilled** (build reservation denied) — a Grace join: both sides
//!   scatter to disk by key hash, the probe runs once per partition, and
//!   [`restore_order`] sorts the tagged output back into probe order.
//!
//! The index nested-loop join has the same shape minus the spill driver
//! ([`IndexProbe::run`], serial or per morsel). Which driver runs is
//! decided by the node's `dop` / `spill` stamps and the reservation
//! denial alone.

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perm_storage::{SpillPartitions, Table};
use perm_types::hash::{map_with_capacity, FxHashMap};
use perm_types::{PermError, Result, Tuple, Value};

use perm_algebra::plan::JoinType;

use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::{check_scan_schema, Executor};
use crate::memory::{grow_batched, MemoryReservation};
use crate::operators::{before, positions, RowError};
use crate::parallel::{concat, map_morsels, partition_of, restore_order};
use crate::physical::{BuildSide, PhysicalPlan};

/// Build an output row of a (possibly projected) join.
///
/// `combined` is the already-materialized `left ++ right` row when the
/// residual predicate forced its construction; otherwise the row is built
/// directly from the sides — with a fused projection this picks exactly
/// the projected values and allocates nothing else.
fn emit_row(
    l: &Tuple,
    r: &Tuple,
    nl: usize,
    combined: Option<Tuple>,
    out_slots: Option<&[usize]>,
) -> Tuple {
    match (out_slots, combined) {
        (Some(slots), Some(c)) => c.project(slots),
        (Some(slots), None) => slots
            .iter()
            .map(|&i| {
                if i < nl {
                    l.get(i).clone()
                } else {
                    r.get(i - nl).clone()
                }
            })
            .collect(),
        (None, Some(c)) => c,
        (None, None) => l.concat(r),
    }
}

/// Left-side-only output (semi/anti joins).
fn emit_left(l: &Tuple, out_slots: Option<&[usize]>) -> Tuple {
    match out_slots {
        Some(slots) => l.project(slots),
        None => l.clone(),
    }
}

/// Sentinel wrapper distinguishing "key contains NULL under SQL equality"
/// (never matches) from a NULL-safe key (NULL matches NULL). Single-column
/// keys — the overwhelmingly common case — carry the value inline instead
/// of allocating a vector per row.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    One(Value),
    Many(Vec<Value>),
}

fn build_key(
    exec: &Executor,
    exprs: &[CompiledExpr],
    null_safe: &[bool],
    env: &Env<'_>,
) -> Result<Option<Key>> {
    if let [e] = exprs {
        let v = e.eval(exec, env)?;
        if v.is_null() && !null_safe[0] {
            // SQL equality with NULL never matches: this row joins nothing.
            return Ok(None);
        }
        return Ok(Some(Key::One(v)));
    }
    let mut vals = Vec::with_capacity(exprs.len());
    // no-cancel: bounded by the key arity (a handful of columns per row).
    for (e, &ns) in exprs.iter().zip(null_safe) {
        let v = e.eval(exec, env)?;
        if v.is_null() && !ns {
            return Ok(None);
        }
        vals.push(v);
    }
    Ok(Some(Key::Many(vals)))
}

/// Precomputed key-evaluation plan. The single-`Slot` key — the
/// overwhelmingly common shape after equi-key extraction — reads the
/// value straight out of the row, skipping the per-row `Env` and the
/// compiled-expression dispatch; every other shape falls back to
/// [`build_key`]. A row narrower than the slot also falls back, so the
/// out-of-range error comes from the reference path.
struct KeyBuilder<'e> {
    exprs: &'e [CompiledExpr],
    null_safe: &'e [bool],
    slot: Option<usize>,
}

impl<'e> KeyBuilder<'e> {
    fn new(exprs: &'e [CompiledExpr], null_safe: &'e [bool]) -> KeyBuilder<'e> {
        let slot = match exprs {
            [CompiledExpr::Slot(i)] => Some(*i),
            _ => None,
        };
        KeyBuilder {
            exprs,
            null_safe,
            slot,
        }
    }

    #[inline]
    fn key(&self, exec: &Executor, row: &Tuple, outer: &[Tuple]) -> Result<Option<Key>> {
        if let Some(s) = self.slot {
            if let Some(v) = row.values().get(s) {
                if v.is_null() && !self.null_safe[0] {
                    return Ok(None);
                }
                return Ok(Some(Key::One(v.clone())));
            }
        }
        let env = Env::new(row, outer);
        build_key(exec, self.exprs, self.null_safe, &env)
    }
}

/// Sentinel ending a [`JoinTable`] chain.
const NIL: usize = usize::MAX;

/// The build side of a hash join: the build rows plus a chained hash
/// index over them — one flat `next` array instead of a per-key vector,
/// so exactly one hash-map entry per distinct key and no per-row
/// allocation. The map holds each key's `(head, tail)`; new rows append
/// at the tail, so probing walks `next` in input order directly, with no
/// scratch chain vector.
pub(super) struct JoinTable {
    heads: FxHashMap<Key, (usize, usize)>,
    next: Vec<usize>,
    rows: Vec<Tuple>,
}

/// A compiled hash join: the per-join constants of the one probe loop
/// ([`HashProbe::run`]). Compiled once on the calling thread and owned
/// outright, so the morsel driver hands the same value to every worker
/// (parallel pipelines are sublink-free: nothing compiled here is tied
/// to the compiling executor).
pub(super) struct HashProbe {
    kind: JoinType,
    /// The left input is the build side. The planner picks this only for
    /// inner joins; every other kind builds right and probes left, which
    /// is what the per-probe-row match tracking in `run` preserves.
    build_left: bool,
    build_exprs: Vec<CompiledExpr>,
    probe_exprs: Vec<CompiledExpr>,
    null_safe: Vec<bool>,
    residual: Option<CompiledExpr>,
    nl: usize,
    right_nulls: Tuple,
    out_slots: Option<Vec<usize>>,
    outer: Arc<Vec<Tuple>>,
}

impl HashProbe {
    /// Key expressions and the residual are compiled once per join, then
    /// evaluated per row.
    pub(super) fn compile(exec: &Executor, plan: &PhysicalPlan) -> HashProbe {
        let PhysicalPlan::HashJoin {
            kind,
            keys,
            residual,
            build_side,
            nl,
            nr,
            out_slots,
            ..
        } = plan
        else {
            unreachable!("hash join compiled from non-hash-join node {plan:?}");
        };
        let build_left = matches!(build_side, BuildSide::Left);
        debug_assert!(!build_left || matches!(kind, JoinType::Inner));
        let side = |left: bool| -> Vec<CompiledExpr> {
            keys.iter()
                .map(|k| CompiledExpr::compile(exec, if left { &k.left } else { &k.right }))
                .collect()
        };
        HashProbe {
            kind: *kind,
            build_left,
            build_exprs: side(build_left),
            probe_exprs: side(!build_left),
            null_safe: keys.iter().map(|k| k.null_safe).collect(),
            residual: residual.as_ref().map(|r| CompiledExpr::compile(exec, r)),
            nl: *nl,
            right_nulls: Tuple::nulls(*nr),
            out_slots: out_slots.clone(),
            outer: exec.outer_stack(),
        }
    }

    /// Index `rows` (the build side) by this join's build-side keys.
    pub(super) fn build(&self, exec: &Executor, rows: Vec<Tuple>) -> Result<JoinTable> {
        let keys = KeyBuilder::new(&self.build_exprs, &self.null_safe);
        let mut heads: FxHashMap<Key, (usize, usize)> = map_with_capacity(rows.len());
        let mut next: Vec<usize> = vec![NIL; rows.len()];
        for (i, r) in rows.iter().enumerate() {
            // Masked cancellation check per 4096 build rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if let Some(k) = keys.key(exec, r, &self.outer)? {
                match heads.entry(k) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert((i, i));
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        let (_, tail) = *o.get();
                        next[tail] = i;
                        o.get_mut().1 = i;
                    }
                }
            }
        }
        Ok(JoinTable { heads, next, rows })
    }

    /// The one hash-probe loop. Every probe row (tagged with its input
    /// position) looks its key up in `table`, walks the chain of build
    /// rows in build order, applies the residual, and hands the join
    /// kind's output to `emit` with the probe row's tag — which the
    /// serial and morsel drivers drop and the Grace join keeps.
    /// `build_matched` is FULL's unmatched-build-row tracking;
    /// `budget_base` counts rows already emitted elsewhere toward the
    /// runaway-result guard.
    pub(super) fn run<P: Borrow<Tuple>>(
        &self,
        exec: &Executor,
        table: &JoinTable,
        rows: impl Iterator<Item = Result<(u64, P)>>,
        mut build_matched: Option<&mut [bool]>,
        budget_base: usize,
        mut emit: impl FnMut(u64, Tuple),
    ) -> std::result::Result<(), RowError> {
        let (kind, nl, outer) = (self.kind, self.nl, self.outer.as_slice());
        let out_slots = self.out_slots.as_deref();
        let keys = KeyBuilder::new(&self.probe_exprs, &self.null_safe);
        let mut emitted = budget_base;
        let fatal = |e| (None, e);
        for (n, rec) in rows.enumerate() {
            // Masked cancellation check per 4096 probe rows.
            if n % 4096 == 0 {
                exec.check_cancelled().map_err(fatal)?;
            }
            let (pos, p) = rec.map_err(fatal)?;
            let p = p.borrow();
            let at = |e| (Some(pos), e);
            let mut matched = false;
            let mut bi = match keys.key(exec, p, outer).map_err(at)? {
                Some(key) => table.heads.get(&key).map_or(NIL, |&(head, _)| head),
                // SQL equality with NULL: this row joins nothing.
                None => NIL,
            };
            // no-cancel: chain walk; emission checks the row budget and
            // the probe loop above checks per row batch.
            while bi != NIL {
                let cur = bi;
                // Advance before the body: a residual miss `continue`s.
                bi = table.next[cur];
                let b = &table.rows[cur];
                // Orient the combined row as left ++ right.
                let (l, r) = if self.build_left { (b, p) } else { (p, b) };
                // The combined row is only materialized when the
                // residual predicate needs an environment to run in.
                let mut combined = None;
                if let Some(pred) = &self.residual {
                    let c = l.concat(r);
                    let env = Env::new(&c, outer);
                    if pred.eval_bool(exec, &env).map_err(at)? != Some(true) {
                        continue;
                    }
                    combined = Some(c);
                }
                matched = true;
                if let Some(m) = build_matched.as_deref_mut() {
                    m[cur] = true;
                }
                match kind {
                    JoinType::Semi | JoinType::Anti => {}
                    _ => {
                        emit(pos, emit_row(l, r, nl, combined, out_slots));
                        emitted += 1;
                    }
                }
                exec.check_row_budget(emitted).map_err(at)?;
                if matches!(kind, JoinType::Semi) {
                    break;
                }
            }
            // Per-probe-row epilogue (probe side = left: a left build is
            // inner-only and falls through).
            let epilogue = match kind {
                JoinType::Semi if matched => emit_left(p, out_slots),
                JoinType::Anti if !matched => emit_left(p, out_slots),
                JoinType::Left | JoinType::Full if !matched => {
                    emit_row(p, &self.right_nulls, nl, None, out_slots)
                }
                _ => continue,
            };
            emit(pos, epilogue);
            emitted += 1;
        }
        Ok(())
    }
}

/// The hash-join driver: run the inputs, charge the build side, then let
/// the reservation's answer and the node's `dop` pick how probe rows
/// reach [`HashProbe::run`].
pub(crate) fn hash_join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    let PhysicalPlan::HashJoin {
        left,
        right,
        kind,
        dop,
        spill,
        ..
    } = plan
    else {
        unreachable!("hash_join on non-hash-join node");
    };
    let probe = HashProbe::compile(exec, plan);
    let lrows = exec.run_physical(left)?;
    let rrows = exec.run_physical(right)?;
    let (build_rows, probe_rows) = if probe.build_left {
        (lrows, rrows)
    } else {
        (rrows, lrows)
    };

    // Charge the build side before building: the hash table retains
    // every build row (plus key copies). A denial turns the join into a
    // Grace join over spill partitions.
    let reservation = exec.memory().register("HashJoin build");
    if let Err(denied) = grow_batched(&reservation, build_rows.iter().map(Tuple::size_bytes)) {
        reservation.free();
        let Some(parts) = spill else {
            return Err(denied.into_error());
        };
        return hash_join_spill(exec, &probe, build_rows, probe_rows, *parts, &reservation);
    }
    let table = probe.build(exec, build_rows)?;

    if *dop > 1 {
        // Morsel driver: the build ran on the calling thread (the planner
        // put the smaller input there); probe rows are claimed in morsels
        // by pool workers against the shared read-only table. FULL joins
        // track build-side matches *across* probe rows and are never
        // handed a `dop > 1` by the planner.
        debug_assert!(!matches!(kind, JoinType::Full), "FULL joins stay serial");
        let total = probe_rows.len();
        return probe_morsels(exec, *dop, total, move |sub, range, base, out| {
            probe
                .run(
                    sub,
                    &table,
                    positions(&probe_rows[range]),
                    None,
                    base,
                    |_, t| out.push(t),
                )
                .map_err(|(_, e)| e)
        });
    }

    // Serial driver: the whole probe side, in order, on this thread.
    let mut build_matched = matches!(kind, JoinType::Full).then(|| vec![false; table.rows.len()]);
    let mut out = Vec::with_capacity(probe_rows.len());
    let matched = build_matched.as_deref_mut();
    probe
        .run(exec, &table, positions(&probe_rows), matched, 0, |_, t| {
            out.push(t)
        })
        .map_err(|(_, e)| e)?;
    if let Some(build_matched) = build_matched {
        // FULL epilogue: build (right) rows no probe row matched.
        let left_nulls = Tuple::nulls(probe.nl);
        let out_slots = probe.out_slots.as_deref();
        for (i, r) in table.rows.iter().enumerate() {
            // Masked cancellation check per 4096 epilogue rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if !build_matched[i] {
                out.push(emit_row(&left_nulls, r, probe.nl, None, out_slots));
            }
        }
    }
    Ok(out)
}

/// The morsel driver both probes share: pool workers (each with its own
/// executor) run `body(worker executor, morsel range, budget base, out)`
/// per claimed morsel, and the outputs concatenate in morsel order — so
/// the result, including LEFT null padding and SEMI/ANTI row selection,
/// is exactly the serial one. The budget base is the rows emitted by
/// *completed* morsels: each worker checks its local output against the
/// budget minus everyone else's, so a runaway join aborts incrementally
/// like the serial loop does instead of after the full result
/// materialized.
fn probe_morsels<F>(exec: &Executor, dop: usize, total: usize, body: F) -> Result<Vec<Tuple>>
where
    F: Fn(&Executor, Range<usize>, usize, &mut Vec<Tuple>) -> Result<()> + Send + Sync + 'static,
{
    let worker = exec.worker_factory();
    let emitted = AtomicUsize::new(0);
    let parts = map_morsels(exec.context(), dop, total, move |range| {
        let mut out = Vec::new();
        body(&worker(), range, emitted.load(Ordering::Relaxed), &mut out)?;
        emitted.fetch_add(out.len(), Ordering::Relaxed);
        Ok(out)
    })?;
    let out = concat(parts);
    exec.check_row_budget(out.len())?;
    Ok(out)
}

/// Grace hash join over spill partitions — the driver when the build
/// side's reservation is denied. Both sides scatter to disk by key hash
/// (equal keys colocate), each partition rebuilds its table and runs
/// [`HashProbe::run`] over probe rows tagged by their input position,
/// and [`restore_order`] restores the serial output order (within one
/// probe row, emissions already occur in serial candidate order).
///
/// Error ordering also matches the serial path. Build-key errors surface
/// during the build scatter, in build-row order, before any probe work —
/// exactly when the in-memory build loop raises them. A probe-side
/// key error at row `j` stops the probe scatter but lets the partitions
/// (holding only rows before `j`) run: a residual error at an earlier
/// probe row beats it, and across partitions the smallest probe position
/// wins.
///
/// FULL joins track unmatched build rows across the whole build side and
/// are planned with `spill: None`; they never reach this path.
fn hash_join_spill(
    exec: &Executor,
    probe: &HashProbe,
    build_rows: Vec<Tuple>,
    probe_rows: Vec<Tuple>,
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    debug_assert!(
        !matches!(probe.kind, JoinType::Full),
        "FULL joins never spill"
    );
    let outer = probe.outer.as_slice();
    let build_keys = KeyBuilder::new(&probe.build_exprs, &probe.null_safe);
    let probe_keys = KeyBuilder::new(&probe.probe_exprs, &probe.null_safe);

    // Scatter the build side by key hash. Rows whose key is NULL under
    // plain equality match nothing, and for non-FULL joins an unmatched
    // build row is never emitted: drop them here.
    let mut bfiles = SpillPartitions::create(parts)?;
    for (i, row) in build_rows.iter().enumerate() {
        // Masked cancellation check per 4096 scattered rows.
        if i % 4096 == 0 {
            exec.check_cancelled()?;
        }
        if let Some(key) = build_keys.key(exec, row, outer)? {
            bfiles.push(partition_of(&key, parts), i as u64, row)?;
        }
    }
    drop(build_rows);

    // Scatter the probe side, tagged with probe position. NULL-key probe
    // rows match nothing but still drive the LEFT/ANTI epilogue, so they
    // land in partition 0 (any partition works) — except when the build
    // side is the left one: that is inner-join-only, no epilogue.
    let mut pfiles = SpillPartitions::create(parts)?;
    let mut best_err: Option<(u64, PermError)> = None;
    for (j, row) in probe_rows.iter().enumerate() {
        // Masked cancellation check per 4096 scattered rows.
        if j % 4096 == 0 {
            exec.check_cancelled()?;
        }
        match probe_keys.key(exec, row, outer) {
            Ok(Some(key)) => pfiles.push(partition_of(&key, parts), j as u64, row)?,
            Ok(None) if !probe.build_left => pfiles.push(0, j as u64, row)?,
            Ok(None) => {}
            Err(e) => {
                best_err = Some((j as u64, e));
                break;
            }
        }
    }
    drop(probe_rows);

    let mut emitted: Vec<(u64, Tuple)> = Vec::new();
    for (breader, preader) in bfiles
        .into_readers()?
        .into_iter()
        .zip(pfiles.into_readers()?)
    {
        // Partition boundary: cancellation point (temp files are cleaned
        // by the readers' Drop even on the early-return path).
        exec.check_cancelled()?;
        // Rebuild this partition's table; records read back in build
        // order, so per-key chains match the in-memory table's. The
        // partition's rows are this path's working memory: charged to
        // the per-query cap only, released when the partition ends.
        let mut charged = 0usize;
        let mut part_build: Vec<Tuple> = Vec::with_capacity(breader.remaining());
        for (bi, rec) in breader.enumerate() {
            // Masked cancellation check per 4096 reloaded rows.
            if bi % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let (_, row) = rec?;
            let bytes = row.size_bytes();
            res.grow_unpooled(bytes)?;
            charged += bytes;
            part_build.push(row);
        }
        // Re-evaluation of (deterministic) keys that already succeeded
        // during the scatter.
        let table = probe.build(exec, part_build)?;
        let rows = preader.take_while(before(&best_err));
        let base = emitted.len();
        match probe.run(exec, &table, rows, None, base, |j, t| emitted.push((j, t))) {
            Ok(()) => {}
            Err((Some(j), e)) => best_err = Some((j, e)),
            Err((None, e)) => return Err(e),
        }
        res.shrink(charged);
    }
    if let Some((_, e)) = best_err {
        return Err(e);
    }
    Ok(restore_order(emitted))
}

/// A compiled index nested-loop join: the per-join constants of the one
/// index-probe loop ([`IndexProbe::run`]); owned and shared with morsel
/// workers like [`HashProbe`].
struct IndexProbe {
    kind: JoinType,
    column: usize,
    key: CompiledExpr,
    inner_filter: Option<CompiledExpr>,
    inner_project: Option<Vec<usize>>,
    residual: Option<CompiledExpr>,
    nl: usize,
    right_nulls: Tuple,
    out_slots: Option<Vec<usize>>,
    outer: Arc<Vec<Tuple>>,
}

impl IndexProbe {
    /// The one index-probe loop: for each outer row, evaluate the key
    /// expression and probe `inner`'s hash index; apply the fused inner
    /// filter/projection and the residual condition to each candidate.
    /// `budget_base` as in [`HashProbe::run`].
    fn run(
        &self,
        exec: &Executor,
        inner: &Table,
        rows: &[Tuple],
        budget_base: usize,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        let (kind, column, nl, outer) = (self.kind, self.column, self.nl, self.outer.as_slice());
        let out_slots = self.out_slots.as_deref();
        let index = inner.index_on(column);
        // Fallback candidates when the index vanished since planning: a
        // linear scan comparing the probe key (same semantics, slower).
        let mut linear: Vec<usize> = Vec::new();
        for (pi, l) in rows.iter().enumerate() {
            // Masked cancellation check per 4096 outer rows.
            if pi % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let key_val = self.key.eval(exec, &Env::new(l, outer))?;
            let mut matched = false;
            if !key_val.is_null() {
                let candidates: &[usize] = match index {
                    Some(idx) => idx.lookup(&key_val),
                    None => {
                        linear.clear();
                        // no-cancel: index-vanished fallback scan; the
                        // outer loop checks per row batch.
                        for (i, row) in inner.rows().iter().enumerate() {
                            if !row.get(column).is_null() && row.get(column) == &key_val {
                                linear.push(i);
                            }
                        }
                        &linear
                    }
                };
                // no-cancel: candidate walk; emission calls
                // check_row_budget and the outer loop checks per row batch.
                for &ri in candidates {
                    let base = &inner.rows()[ri];
                    if let Some(f) = &self.inner_filter {
                        let env = Env::new(base, outer);
                        if f.eval_bool(exec, &env)? != Some(true) {
                            continue;
                        }
                    }
                    let inner_row = match &self.inner_project {
                        Some(slots) => base.project(slots),
                        None => base.clone(),
                    };
                    let mut combined = None;
                    if let Some(pred) = &self.residual {
                        let c = l.concat(&inner_row);
                        let env = Env::new(&c, outer);
                        if pred.eval_bool(exec, &env)? != Some(true) {
                            continue;
                        }
                        combined = Some(c);
                    }
                    matched = true;
                    match kind {
                        JoinType::Semi | JoinType::Anti => {}
                        _ => out.push(emit_row(l, &inner_row, nl, combined, out_slots)),
                    }
                    exec.check_row_budget(budget_base + out.len())?;
                    if matches!(kind, JoinType::Semi) {
                        break;
                    }
                }
            }
            match kind {
                JoinType::Semi if matched => out.push(emit_left(l, out_slots)),
                JoinType::Anti if !matched => out.push(emit_left(l, out_slots)),
                JoinType::Left if !matched => {
                    out.push(emit_row(l, &self.right_nulls, nl, None, out_slots));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The index nested-loop join driver: serial runs [`IndexProbe::run`]
/// over every outer row; `dop > 1` runs it per morsel on pool workers
/// reading the shared index.
pub(crate) fn index_nl_join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    let PhysicalPlan::IndexNLJoin {
        outer: outer_plan,
        kind,
        table,
        schema,
        column,
        key,
        inner_filter,
        inner_project,
        residual,
        nl,
        out_slots,
        dop,
        ..
    } = plan
    else {
        unreachable!("index_nl_join on non-INLJ node");
    };
    let lrows = exec.run_physical(outer_plan)?;
    let t = exec.catalog().table(table)?;
    check_scan_schema(t, table, schema)?;
    // Width of the inner *output* row (after the fused projection).
    let inner_width = inner_project.as_ref().map_or(schema.len(), Vec::len);
    let probe = IndexProbe {
        kind: *kind,
        column: *column,
        key: CompiledExpr::compile(exec, key),
        inner_filter: inner_filter
            .as_ref()
            .map(|f| CompiledExpr::compile(exec, f)),
        inner_project: inner_project.clone(),
        residual: residual.as_ref().map(|r| CompiledExpr::compile(exec, r)),
        nl: *nl,
        right_nulls: Tuple::nulls(inner_width),
        out_slots: out_slots.clone(),
        outer: exec.outer_stack(),
    };
    if *dop > 1 {
        let table = table.clone();
        let total = lrows.len();
        return probe_morsels(exec, *dop, total, move |sub, range, base, out| {
            let inner = sub.catalog().table(&table)?;
            probe.run(sub, inner, &lrows[range], base, out)
        });
    }
    let mut out = Vec::new();
    probe.run(exec, t, &lrows, 0, &mut out)?;
    Ok(out)
}

/// Nested-loop join: every left row against every right row (non-equi
/// conditions, cross joins, ablations). Always serial, never spills.
pub(crate) fn nested_loop(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    let PhysicalPlan::NLJoin {
        left,
        right,
        kind,
        condition,
        nl,
        nr,
        out_slots,
        ..
    } = plan
    else {
        unreachable!("nested_loop on non-NLJ node");
    };
    let (kind, nl) = (*kind, *nl);
    let out_slots = out_slots.as_deref();
    let lrows = exec.run_physical(left)?;
    let rrows = exec.run_physical(right)?;
    let outer = exec.outer_stack();
    let condition = condition.as_ref().map(|c| CompiledExpr::compile(exec, c));
    let right_nulls = Tuple::nulls(*nr);
    let mut right_matched = vec![false; rrows.len()];
    let mut out = Vec::new();
    let mut pairs = 0usize;
    for l in &lrows {
        // Masked cancellation check per 4096 evaluated pairs (the inner
        // loop advances the same counter, so the quadratic worst case
        // still observes cancellation promptly).
        if pairs.is_multiple_of(4096) {
            exec.check_cancelled()?;
        }
        let mut matched = false;
        for (ri, r) in rrows.iter().enumerate() {
            if pairs.is_multiple_of(4096) {
                exec.check_cancelled()?;
            }
            pairs += 1;
            let mut combined = None;
            let ok = match &condition {
                None => true,
                Some(c) => {
                    let row = l.concat(r);
                    let env = Env::new(&row, &outer);
                    let ok = c.eval_bool(exec, &env)? == Some(true);
                    combined = Some(row);
                    ok
                }
            };
            if !ok {
                continue;
            }
            matched = true;
            right_matched[ri] = true;
            match kind {
                JoinType::Semi | JoinType::Anti => {}
                _ => out.push(emit_row(l, r, nl, combined, out_slots)),
            }
            exec.check_row_budget(out.len())?;
            if matches!(kind, JoinType::Semi) {
                break;
            }
        }
        match kind {
            JoinType::Semi if matched => out.push(emit_left(l, out_slots)),
            JoinType::Anti if !matched => out.push(emit_left(l, out_slots)),
            JoinType::Left | JoinType::Full if !matched => {
                out.push(emit_row(l, &right_nulls, nl, None, out_slots));
            }
            _ => {}
        }
    }
    if matches!(kind, JoinType::Full) {
        let left_nulls = Tuple::nulls(nl);
        for (i, r) in rrows.iter().enumerate() {
            // Masked cancellation check per 4096 epilogue rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if !right_matched[i] {
                out.push(emit_row(&left_nulls, r, nl, None, out_slots));
            }
        }
    }
    Ok(out)
}
