//! Join execution: hash join (with a planner-chosen build side), index
//! nested-loop join, and nested-loop join.
//!
//! The strategy, the extracted equi-keys (including the NULL-safe
//! `IS NOT DISTINCT FROM` keys Perm's aggregation join-back emits), the
//! build side and any fused output projection are all decided by the
//! physical planner ([`crate::physical`]); this module only runs the
//! operator it is handed.
//!
//! **Joins return row references.** A join's output is a [`JoinRefs`],
//! not rows: its *sources* (each non-join input's materialized rows, or
//! a base table read in place: an index nested-loop join's inner table
//! or a bare scan's), `k` row ids per output row — one per source,
//! [`NULL_ROW`] on an outer join's padded side — and a `(source, slot)`
//! output layout with the fused projection already folded in. A join
//! over a join reads its keys through the child's layout and appends
//! ids, so a chain of joins copies no value and allocates no row until
//! its consumer asks. A `HashAggregate` over a join reads its keys and
//! arguments the same way ([`RowRef`]) and gathers each witness row
//! behind its group's head; every other consumer gets rows from
//! [`JoinRefs::gather`]. Both go through one kernel, [`gather_row`],
//! which builds a row in one allocation. A residual predicate, or a key
//! that is not a plain column, is evaluated over a scratch row gathered
//! for it.
//!
//! Each join has **one body and thin drivers**. The hash join's body is
//! [`HashProbe::run`]: a range of probe rows against one built
//! [`JoinTable`], covering every join kind and both build sides. What
//! differs between execution modes is only which rows meet which table:
//!
//! * **serial** — one table over the whole build side, every probe row
//!   in order; the ids it appends already are the result.
//! * **morsel-parallel** (`dop > 1`) — the same table, shared read-only;
//!   pool workers probe one morsel range each and the ids concatenate in
//!   morsel order. Sources are `Arc`-shared, and a base-table source is
//!   resolved through each worker's catalog snapshot.
//! * **spilled** (build reservation denied) — a Grace join: both inputs
//!   are gathered and scatter to disk by key hash, the body runs once per
//!   partition over the rows read back, each partition's output is
//!   gathered under its probe rows' input positions, and
//!   [`restore_order`] sorts it back into probe order.
//!
//! The index nested-loop join has the same shape minus the spill driver
//! ([`IndexProbe::run`], serial or per morsel). Which driver runs is
//! decided by the node's `dop` / `spill` stamps and the reservation
//! denial alone.

use std::borrow::{Borrow, Cow};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perm_storage::{SpillPartitions, Table};
use perm_types::hash::{map_with_capacity, FxHashMap};
use perm_types::{PermError, Result, Schema, Tuple, Value};

use perm_algebra::plan::JoinType;

use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::{check_scan_schema, Executor};
use crate::memory::{grow_batched, MemoryReservation};
use crate::operators::{before, RowError};
use crate::parallel::{concat, map_morsels, partition_of, restore_order};
use crate::physical::{out_arity, BuildSide, PhysicalPlan};

/// The row id of an outer join's padding: it gathers as NULLs and reads
/// as a NULL key. Real ids stay below it ([`id_count`]).
const NULL_ROW: u32 = u32::MAX;

/// What a [`NULL_ROW`] id reads as.
static NULL: Value = Value::Null;

/// One output column of a join: slot `.1` of the row source `.0` points
/// at.
type Col = (usize, usize);

/// Where a join's rows come from.
#[derive(Clone)]
enum Source {
    /// A non-join input's materialized rows.
    Rows(Arc<Vec<Tuple>>),
    /// A base table (an index nested-loop join's inner table, or a bare
    /// scan's), resolved through the reading executor's catalog snapshot.
    Table(Arc<str>),
}

/// A join's output as row references: `sources.len()` ids per output
/// row (row-major), read through `layout`.
pub(super) struct JoinRefs {
    sources: Vec<Source>,
    ids: Vec<u32>,
    layout: Vec<Col>,
}

/// `n` rows as `u32` ids, every one below [`NULL_ROW`]. The row budget
/// keeps join outputs far below this; a larger input is refused rather
/// than silently wrapped.
fn id_count(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| {
        PermError::Execution(format!(
            "join input of {n} rows exceeds the addressable row ids"
        ))
    })
}

/// Columns of `left ++ right`: left's, then right's with their sources
/// shifted past left's `kl`.
fn concat_layout(left: &[Col], kl: usize, right: &[Col]) -> Vec<Col> {
    left.iter()
        .copied()
        .chain(right.iter().map(|&(s, c)| (s + kl, c)))
        .collect()
}

impl JoinRefs {
    /// Materialized rows of `width` columns as refs over one source,
    /// read whole.
    pub(super) fn rows(rows: Vec<Tuple>, width: usize) -> Result<JoinRefs> {
        let n = id_count(rows.len())?;
        Ok(JoinRefs {
            sources: vec![Source::Rows(Arc::new(rows))],
            ids: (0..n).collect(),
            layout: (0..width).map(|c| (0, c)).collect(),
        })
    }

    /// The output of a `kind` join of `left` and `right` made of `ids`:
    /// left's sources then right's (SEMI/ANTI: left's alone), projected
    /// by the fused `out_slots`.
    pub(super) fn joined(
        kind: JoinType,
        left: &JoinRefs,
        right: &JoinRefs,
        out_slots: Option<&[usize]>,
        ids: Vec<u32>,
    ) -> JoinRefs {
        let (sources, layout) = if kind.produces_both_sides() {
            (
                left.sources.iter().chain(&right.sources).cloned().collect(),
                concat_layout(&left.layout, left.sources.len(), &right.layout),
            )
        } else {
            (left.sources.clone(), left.layout.clone())
        };
        let layout = match out_slots {
            Some(slots) => slots.iter().map(|&i| layout[i]).collect(),
            None => layout,
        };
        JoinRefs {
            sources,
            ids,
            layout,
        }
    }

    /// Output columns per row.
    pub(super) fn width(&self) -> usize {
        self.layout.len()
    }

    /// Output rows.
    pub(super) fn len(&self) -> usize {
        self.ids.len() / self.sources.len()
    }

    /// Resolve the sources for reading through `exec` (a base table
    /// through its catalog snapshot).
    pub(super) fn view<'a>(&'a self, exec: &'a Executor) -> Result<View<'a>> {
        let rows = self
            .sources
            .iter()
            .map(|s| match s {
                Source::Rows(rows) => Ok(rows.as_slice()),
                Source::Table(name) => Ok(exec.catalog().table(name)?.rows()),
            })
            .collect::<Result<Vec<&[Tuple]>>>()?;
        let identity = rows.len() == 1
            && self.layout.iter().enumerate().all(|(i, &c)| c == (0, i))
            && rows[0].first().is_none_or(|t| t.len() == self.layout.len());
        Ok(View {
            rows,
            ids: &self.ids,
            layout: &self.layout,
            identity,
        })
    }

    /// The rows, in order: each built once by [`gather_row`] (a refcount
    /// bump when the refs are one input read whole).
    pub(super) fn gather(&self, exec: &Executor) -> Result<Vec<Tuple>> {
        let view = self.view(exec)?;
        let mut out = Vec::with_capacity(view.len());
        for r in 0..view.len() {
            // Masked cancellation check per 4096 gathered rows.
            if r % 4096 == 0 {
                exec.check_cancelled()?;
            }
            // per-lane alloc: the output row, built in one allocation.
            out.push(view.row(r).into_owned());
        }
        Ok(out)
    }
}

/// The value column `at` of one output row reads: `ids` are that row's
/// ids, `rows` the resolved sources.
#[inline]
fn read<'a>(rows: &[&'a [Tuple]], ids: &[u32], (s, c): Col) -> &'a Value {
    match ids[s] {
        NULL_ROW => &NULL,
        id => rows[s][id as usize].get(c),
    }
}

/// The gather kernel: `prefix`, then one output row's values through
/// `layout`, built in one allocation (the iterator's length is exact).
fn gather_row(prefix: &[Value], rows: &[&[Tuple]], ids: &[u32], layout: &[Col]) -> Tuple {
    prefix
        .iter()
        .cloned()
        .chain(layout.iter().map(|&at| read(rows, ids, at).clone()))
        .collect()
}

/// [`JoinRefs`] with their sources resolved: what the bodies read.
pub(super) struct View<'a> {
    rows: Vec<&'a [Tuple]>,
    ids: &'a [u32],
    layout: &'a [Col],
    /// One source read whole: an output row *is* its source row.
    identity: bool,
}

impl<'a> View<'a> {
    fn k(&self) -> usize {
        self.rows.len()
    }

    pub(super) fn len(&self) -> usize {
        self.ids.len() / self.k()
    }

    /// Output columns per row.
    pub(super) fn width(&self) -> usize {
        self.layout.len()
    }

    /// Row `r`'s ids, one per source.
    fn ids(&self, r: usize) -> &'a [u32] {
        let k = self.k();
        &self.ids[r * k..(r + 1) * k]
    }

    fn value(&self, r: usize, col: usize) -> &'a Value {
        read(&self.rows, self.ids(r), self.layout[col])
    }

    /// Row `r` as a tuple: borrowed when the refs are one input read
    /// whole, gathered otherwise.
    fn row(&self, r: usize) -> Cow<'a, Tuple> {
        if self.identity {
            Cow::Borrowed(&self.rows[0][self.ids[r] as usize])
        } else {
            Cow::Owned(gather_row(&[], &self.rows, self.ids(r), self.layout))
        }
    }

    /// `prefix` followed by row `r`, in one allocation (a witness row
    /// behind its group's head).
    pub(super) fn gather_behind(&self, prefix: &[Value], r: usize) -> Tuple {
        gather_row(prefix, &self.rows, self.ids(r), self.layout)
    }

    /// Bytes row `r` would hold as a tuple ([`Tuple::size_bytes`]), so
    /// reservations charge exactly what the gathered rows would.
    pub(super) fn size_bytes(&self, r: usize) -> usize {
        let ids = self.ids(r);
        2 * std::mem::size_of::<usize>()
            + self
                .layout
                .iter()
                .map(|&at| read(&self.rows, ids, at).size_bytes())
                .sum::<usize>()
    }

    /// Rows `range` as a body's input stream, tagged with their
    /// positions.
    pub(super) fn positions(
        &self,
        range: Range<usize>,
    ) -> impl Iterator<Item = Result<(u64, RefRow<'_, 'a>)>> {
        range.map(move |r| Ok((r as u64, RefRow { view: self, r })))
    }
}

/// One input row of a body that reads materialized tuples and join refs
/// alike: columns by position, or the whole row as a tuple.
pub(super) trait RowRef {
    fn width(&self) -> usize;
    /// Column `col` (`col < width()`).
    fn value(&self, col: usize) -> &Value;
    /// The row as a tuple, gathered if it is not one already.
    fn tuple(&self) -> Cow<'_, Tuple>;
}

impl<T: Borrow<Tuple>> RowRef for T {
    fn width(&self) -> usize {
        self.borrow().len()
    }

    fn value(&self, col: usize) -> &Value {
        self.borrow().get(col)
    }

    fn tuple(&self) -> Cow<'_, Tuple> {
        Cow::Borrowed(self.borrow())
    }
}

/// Row `r` of a [`View`].
pub(super) struct RefRow<'v, 'a> {
    view: &'v View<'a>,
    r: usize,
}

impl RowRef for RefRow<'_, '_> {
    fn width(&self) -> usize {
        self.view.width()
    }

    fn value(&self, col: usize) -> &Value {
        self.view.value(self.r, col)
    }

    fn tuple(&self) -> Cow<'_, Tuple> {
        self.view.row(self.r)
    }
}

/// A join's residual condition, evaluated over a scratch row gathered
/// as `left ++ right`.
struct Residual<'a> {
    pred: &'a CompiledExpr,
    rows: Vec<&'a [Tuple]>,
    layout: Vec<Col>,
}

impl<'a> Residual<'a> {
    fn new(pred: &'a CompiledExpr, left: &View<'a>, right: &View<'a>) -> Residual<'a> {
        Residual {
            pred,
            rows: left.rows.iter().chain(&right.rows).copied().collect(),
            layout: concat_layout(left.layout, left.k(), right.layout),
        }
    }

    /// Whether the candidate whose ids were just appended at
    /// `out[start..]` passes; a miss or an evaluation error takes its ids
    /// back, so `out` only ever holds whole output rows.
    fn keeps(
        &self,
        exec: &Executor,
        outer: &[Tuple],
        out: &mut Vec<u32>,
        start: usize,
    ) -> Result<bool> {
        let scratch = gather_row(&[], &self.rows, &out[start..], &self.layout);
        let keep = self.pred.eval_bool(exec, &Env::new(&scratch, outer));
        if !matches!(keep, Ok(Some(true))) {
            out.truncate(start);
        }
        Ok(keep? == Some(true))
    }
}

/// Append `k` padding ids (an outer join's missing side).
fn pad(out: &mut Vec<u32>, k: usize) {
    out.extend(std::iter::repeat_n(NULL_ROW, k));
}

/// A probe row's closing output once its candidates are walked: SEMI
/// keeps the row if it matched, ANTI if it did not, LEFT/FULL pad an
/// unmatched row with `pad_k` NULL ids. Returns whether a row was added.
fn close_row(kind: JoinType, matched: bool, ids: &[u32], pad_k: usize, out: &mut Vec<u32>) -> bool {
    match kind {
        JoinType::Semi if matched => out.extend_from_slice(ids),
        JoinType::Anti if !matched => out.extend_from_slice(ids),
        JoinType::Left | JoinType::Full if !matched => {
            out.extend_from_slice(ids);
            pad(out, pad_k);
        }
        _ => return false,
    }
    true
}

/// A base table read in place: looked up through `exec`'s catalog and
/// checked against the plan's `schema`, with its row count as ids.
fn base_table<'e>(exec: &'e Executor, table: &str, schema: &Schema) -> Result<(&'e Table, u32)> {
    let t = exec.catalog().table(table)?;
    check_scan_schema(t, table, schema)?;
    Ok((t, id_count(t.rows().len())?))
}

/// A join's (or aggregate's) input as refs: a join child hands its refs
/// up unbuilt, a bare scan points at its base table (copying no row
/// handle), and any other child runs and is wrapped.
pub(super) fn refs_of(exec: &Executor, plan: &PhysicalPlan) -> Result<JoinRefs> {
    match plan {
        PhysicalPlan::HashJoin { .. } => hash_join_refs(exec, plan),
        PhysicalPlan::IndexNLJoin { .. } => index_nl_join_refs(exec, plan),
        PhysicalPlan::NLJoin { .. } => nested_loop_refs(exec, plan),
        PhysicalPlan::FusedScanProjectFilter {
            table,
            schema,
            filter: None,
            project: None,
            ..
        } => {
            let (_, n) = base_table(exec, table, schema)?;
            Ok(JoinRefs {
                sources: vec![Source::Table(Arc::from(table.as_str()))],
                ids: (0..n).collect(),
                layout: (0..schema.len()).map(|c| (0, c)).collect(),
            })
        }
        _ => JoinRefs::rows(exec.run_physical(plan)?, out_arity(plan)),
    }
}

/// Run a hash join and gather its rows.
pub(crate) fn hash_join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    hash_join_refs(exec, plan)?.gather(exec)
}

/// Run an index nested-loop join and gather its rows.
pub(crate) fn index_nl_join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    index_nl_join_refs(exec, plan)?.gather(exec)
}

/// Run a nested-loop join and gather its rows.
pub(crate) fn nested_loop(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    nested_loop_refs(exec, plan)?.gather(exec)
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
/// value straight through the input's layout, skipping the per-row `Env`
/// and the compiled-expression dispatch; every other shape evaluates
/// [`build_key`] over the row as a tuple (gathered for a join input). A
/// row narrower than the slot also falls back, so the out-of-range error
/// comes from the reference path.
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

    /// The key of row `r` of `side`.
    #[inline]
    fn key(
        &self,
        exec: &Executor,
        side: &View<'_>,
        r: usize,
        outer: &[Tuple],
    ) -> Result<Option<Key>> {
        if let Some(s) = self.slot.filter(|&s| s < side.width()) {
            let v = side.value(r, s);
            if v.is_null() && !self.null_safe[0] {
                return Ok(None);
            }
            return Ok(Some(Key::One(v.clone())));
        }
        let row = side.row(r);
        build_key(exec, self.exprs, self.null_safe, &Env::new(&row, outer))
    }
}

/// Sentinel ending a [`JoinTable`] chain.
const NIL: usize = usize::MAX;

/// A chained hash index over the build side's rows — one flat `next`
/// array instead of a per-key vector, so exactly one hash-map entry per
/// distinct key and no per-row allocation. The map holds each key's
/// `(head, tail)` build row; new rows append at the tail, so probing
/// walks `next` in input order directly, with no scratch chain vector.
pub(super) struct JoinTable {
    heads: FxHashMap<Key, (usize, usize)>,
    next: Vec<usize>,
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
    /// Input arities (left, right) and the fused output projection: the
    /// shape of a spilled partition's output.
    widths: (usize, usize),
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
            widths: (*nl, *nr),
            out_slots: out_slots.clone(),
            outer: exec.outer_stack(),
        }
    }

    /// Output columns per row.
    fn out_width(&self) -> usize {
        let (nl, nr) = self.widths;
        match &self.out_slots {
            Some(slots) => slots.len(),
            None if self.kind.produces_both_sides() => nl + nr,
            None => nl,
        }
    }

    /// Ids per output row: both sides' sources, or the probe (left)
    /// side's for SEMI/ANTI.
    fn out_k(&self, left: &JoinRefs, right: &JoinRefs) -> usize {
        if self.kind.produces_both_sides() {
            left.sources.len() + right.sources.len()
        } else {
            left.sources.len()
        }
    }

    /// Index the build side's rows by this join's build-side keys.
    pub(super) fn build(&self, exec: &Executor, build: &View<'_>) -> Result<JoinTable> {
        let keys = KeyBuilder::new(&self.build_exprs, &self.null_safe);
        let n = build.len();
        let mut heads: FxHashMap<Key, (usize, usize)> = map_with_capacity(n);
        let mut next: Vec<usize> = vec![NIL; n];
        for i in 0..n {
            // Masked cancellation check per 4096 build rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if let Some(k) = keys.key(exec, build, i, &self.outer)? {
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
        Ok(JoinTable { heads, next })
    }

    /// The one hash-probe loop. Every probe row in `rows` looks its key
    /// up in `table` (built over `build`), walks the chain of build rows
    /// in build order, applies the residual, and appends the join kind's
    /// output ids to `out` — left's then right's, or the probe row's
    /// alone for SEMI/ANTI. An evaluation error carries the probe row's
    /// index. `build_matched` is FULL's unmatched-build-row tracking;
    /// `budget_base` counts rows already emitted elsewhere toward the
    /// runaway-result guard.
    #[allow(clippy::too_many_arguments)] // the probe's full input
    pub(super) fn run(
        &self,
        exec: &Executor,
        table: &JoinTable,
        build: &View<'_>,
        probe: &View<'_>,
        rows: Range<usize>,
        mut build_matched: Option<&mut [bool]>,
        budget_base: usize,
        out: &mut Vec<u32>,
    ) -> std::result::Result<(), RowError> {
        let (kind, outer) = (self.kind, self.outer.as_slice());
        let (left, right) = if self.build_left {
            (build, probe)
        } else {
            (probe, build)
        };
        let residual = self
            .residual
            .as_ref()
            .map(|p| Residual::new(p, left, right));
        let keys = KeyBuilder::new(&self.probe_exprs, &self.null_safe);
        let mut emitted = budget_base;
        let fatal = |e| (None, e);
        for (n, r) in rows.enumerate() {
            // Masked cancellation check per 4096 probe rows.
            if n % 4096 == 0 {
                exec.check_cancelled().map_err(fatal)?;
            }
            let at = |e| (Some(r as u64), e);
            let pids = probe.ids(r);
            let mut matched = false;
            let mut bi = match keys.key(exec, probe, r, outer).map_err(at)? {
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
                // Append the candidate's ids as left ++ right; a residual
                // miss and SEMI/ANTI take them back.
                let start = out.len();
                if self.build_left {
                    out.extend_from_slice(build.ids(cur));
                    out.extend_from_slice(pids);
                } else {
                    out.extend_from_slice(pids);
                    out.extend_from_slice(build.ids(cur));
                }
                if let Some(residual) = &residual {
                    if !residual.keeps(exec, outer, out, start).map_err(at)? {
                        continue;
                    }
                }
                matched = true;
                if let Some(m) = build_matched.as_deref_mut() {
                    m[cur] = true;
                }
                match kind {
                    JoinType::Semi | JoinType::Anti => out.truncate(start),
                    _ => emitted += 1,
                }
                exec.check_row_budget(emitted).map_err(at)?;
                if matches!(kind, JoinType::Semi) {
                    break;
                }
            }
            // The probe side is the left one here: a left build is
            // inner-only and closes nothing.
            if close_row(kind, matched, pids, build.k(), out) {
                emitted += 1;
            }
        }
        Ok(())
    }

    /// One Grace partition: build a table over `build` rows, probe it with
    /// the position-tagged `probe` rows, and append the output to `out`,
    /// gathered, under its probe rows' tags; an evaluation error carries
    /// its probe row's tag. Arguments otherwise as in [`HashProbe::run`].
    pub(super) fn probe_tagged(
        &self,
        exec: &Executor,
        build: Vec<Tuple>,
        probe: Vec<(u64, Tuple)>,
        build_matched: Option<&mut [bool]>,
        budget_base: usize,
        out: &mut Vec<(u64, Tuple)>,
    ) -> std::result::Result<(), RowError> {
        let fatal = |e| (None, e);
        let (nl, nr) = self.widths;
        let (tags, probe): (Vec<u64>, Vec<Tuple>) = probe.into_iter().unzip();
        let (build, probe) = if self.build_left {
            (JoinRefs::rows(build, nl), JoinRefs::rows(probe, nr))
        } else {
            (JoinRefs::rows(build, nr), JoinRefs::rows(probe, nl))
        };
        let (build, probe) = (build.map_err(fatal)?, probe.map_err(fatal)?);
        let (bv, pv) = (
            build.view(exec).map_err(fatal)?,
            probe.view(exec).map_err(fatal)?,
        );
        let table = self.build(exec, &bv).map_err(fatal)?;
        let mut ids = Vec::new();
        let ran = self.run(
            exec,
            &table,
            &bv,
            &pv,
            0..pv.len(),
            build_matched,
            budget_base,
            &mut ids,
        );
        if let Err((None, e)) = ran {
            return Err((None, e));
        }
        let (left, right) = if self.build_left {
            (&build, &probe)
        } else {
            (&probe, &build)
        };
        let joined = JoinRefs::joined(self.kind, left, right, self.out_slots.as_deref(), ids);
        let view = joined.view(exec).map_err(fatal)?;
        // Where each output row keeps its probe row's id: a left build
        // puts the probe side second.
        let probe_at = usize::from(self.build_left);
        for o in 0..view.len() {
            // Masked cancellation check per 4096 gathered rows.
            if o % 4096 == 0 {
                exec.check_cancelled().map_err(fatal)?;
            }
            let tag = tags[view.ids(o)[probe_at] as usize];
            // per-lane alloc: the output row, built in one allocation.
            out.push((tag, view.row(o).into_owned()));
        }
        ran.map_err(|(j, e)| (j.map(|j| tags[j as usize]), e))
    }
}

/// The hash-join driver: run the inputs, charge the build side, then let
/// the reservation's answer and the node's `dop` pick how probe rows
/// reach [`HashProbe::run`].
fn hash_join_refs(exec: &Executor, plan: &PhysicalPlan) -> Result<JoinRefs> {
    let PhysicalPlan::HashJoin {
        left,
        right,
        kind,
        out_slots,
        dop,
        spill,
        ..
    } = plan
    else {
        unreachable!("hash_join on non-hash-join node");
    };
    let (kind, out_slots) = (*kind, out_slots.as_deref());
    let probe = HashProbe::compile(exec, plan);
    let left = refs_of(exec, left)?;
    let right = refs_of(exec, right)?;
    let k = probe.out_k(&left, &right);
    let (lv, rv) = (left.view(exec)?, right.view(exec)?);
    let (bv, pv) = if probe.build_left {
        (&lv, &rv)
    } else {
        (&rv, &lv)
    };

    // Charge the build side before building: the hash table retains
    // every build row (plus key copies), charged as the rows it would
    // hold gathered. A denial turns the join into a Grace join over
    // spill partitions.
    let reservation = exec.memory().register("HashJoin build");
    if let Err(denied) = grow_batched(&reservation, (0..bv.len()).map(|r| bv.size_bytes(r))) {
        reservation.free();
        let Some(parts) = spill else {
            return Err(denied.into_error());
        };
        return hash_join_spill(exec, &probe, &left, &right, *parts, &reservation);
    }
    let table = probe.build(exec, bv)?;
    let total = pv.len();

    if *dop > 1 {
        // Morsel driver: the build ran on the calling thread (the planner
        // put the smaller input there); probe rows are claimed in morsels
        // by pool workers against the shared read-only table. FULL joins
        // track build-side matches *across* probe rows and are never
        // handed a `dop > 1` by the planner.
        debug_assert!(!matches!(kind, JoinType::Full), "FULL joins stay serial");
        let (left, right) = (Arc::new(left), Arc::new(right));
        let (l, r) = (Arc::clone(&left), Arc::clone(&right));
        let ids = probe_morsels(exec, *dop, total, k, move |sub, range, base, out| {
            let (lv, rv) = (l.view(sub)?, r.view(sub)?);
            let (bv, pv) = if probe.build_left {
                (&lv, &rv)
            } else {
                (&rv, &lv)
            };
            probe
                .run(sub, &table, bv, pv, range, None, base, out)
                .map_err(|(_, e)| e)
        })?;
        return Ok(JoinRefs::joined(kind, &left, &right, out_slots, ids));
    }

    // Serial driver: the whole probe side, in order, on this thread.
    let mut build_matched = matches!(kind, JoinType::Full).then(|| vec![false; bv.len()]);
    let mut ids = Vec::with_capacity(total * k);
    let matched = build_matched.as_deref_mut();
    probe
        .run(exec, &table, bv, pv, 0..total, matched, 0, &mut ids)
        .map_err(|(_, e)| e)?;
    if let Some(build_matched) = build_matched {
        // FULL epilogue: build (right) rows no probe row matched, behind
        // a padded left side.
        for (i, &m) in build_matched.iter().enumerate() {
            // Masked cancellation check per 4096 epilogue rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if !m {
                pad(&mut ids, lv.k());
                ids.extend_from_slice(rv.ids(i));
            }
        }
    }
    Ok(JoinRefs::joined(kind, &left, &right, out_slots, ids))
}

/// The morsel driver both probes share: pool workers (each with its own
/// executor) run `body(worker executor, morsel range, budget base, out)`
/// per claimed morsel, appending `k` ids per output row, and the ids
/// concatenate in morsel order — so the result, including LEFT padding
/// and SEMI/ANTI row selection, is exactly the serial one. The budget
/// base is the rows emitted by *completed* morsels: each worker checks
/// its local output against the budget minus everyone else's, so a
/// runaway join aborts incrementally like the serial loop does instead
/// of after the full result materialized.
fn probe_morsels<F>(
    exec: &Executor,
    dop: usize,
    total: usize,
    k: usize,
    body: F,
) -> Result<Vec<u32>>
where
    F: Fn(&Executor, Range<usize>, usize, &mut Vec<u32>) -> Result<()> + Send + Sync + 'static,
{
    let worker = exec.worker_factory();
    let emitted = AtomicUsize::new(0);
    let (parts, ran) = map_morsels(exec.context(), dop, total, move |range, out| {
        body(&worker(), range, emitted.load(Ordering::Relaxed), out)?;
        emitted.fetch_add(out.len() / k, Ordering::Relaxed);
        Ok(())
    });
    ran?;
    let out = concat(parts);
    exec.check_row_budget(out.len() / k)?;
    Ok(out)
}

/// Grace hash join over spill partitions — the driver when the build
/// side's reservation is denied. Both inputs are gathered row by row as
/// they scatter to disk by key hash (spill files hold rows; equal keys
/// colocate). Each partition rebuilds its table and runs
/// [`HashProbe::run`] over its probe rows ([`HashProbe::probe_tagged`]),
/// its output is gathered under the probe rows' input positions, and
/// [`restore_order`] restores the serial output order (within one probe
/// row, emissions already occur in serial candidate order).
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
    left: &JoinRefs,
    right: &JoinRefs,
    parts: usize,
    res: &MemoryReservation,
) -> Result<JoinRefs> {
    debug_assert!(
        !matches!(probe.kind, JoinType::Full),
        "FULL joins never spill"
    );
    let outer = probe.outer.as_slice();
    let build_keys = KeyBuilder::new(&probe.build_exprs, &probe.null_safe);
    let probe_keys = KeyBuilder::new(&probe.probe_exprs, &probe.null_safe);
    let (build, probe_side) = if probe.build_left {
        (left, right)
    } else {
        (right, left)
    };

    // Scatter the build side by key hash. Rows whose key is NULL under
    // plain equality match nothing, and for non-FULL joins an unmatched
    // build row is never emitted: drop them here.
    let mut bfiles = SpillPartitions::create(parts)?;
    {
        let view = build.view(exec)?;
        for i in 0..view.len() {
            // Masked cancellation check per 4096 scattered rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if let Some(key) = build_keys.key(exec, &view, i, outer)? {
                bfiles.push(partition_of(&key, parts), i as u64, &view.row(i))?;
            }
        }
    }

    // Scatter the probe side, tagged with probe position. NULL-key probe
    // rows match nothing but still drive the LEFT/ANTI epilogue, so they
    // land in partition 0 (any partition works) — except when the build
    // side is the left one: that is inner-join-only, no epilogue.
    let mut pfiles = SpillPartitions::create(parts)?;
    let mut best_err: Option<(u64, PermError)> = None;
    {
        let view = probe_side.view(exec)?;
        for j in 0..view.len() {
            // Masked cancellation check per 4096 scattered rows.
            if j % 4096 == 0 {
                exec.check_cancelled()?;
            }
            match probe_keys.key(exec, &view, j, outer) {
                Ok(Some(key)) => pfiles.push(partition_of(&key, parts), j as u64, &view.row(j))?,
                Ok(None) if !probe.build_left => pfiles.push(0, j as u64, &view.row(j))?,
                Ok(None) => {}
                Err(e) => {
                    best_err = Some((j as u64, e));
                    break;
                }
            }
        }
    }

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
        // batch-alloc: one build buffer per partition.
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
        // The partition's probe rows, up to the earliest known error.
        // batch-alloc: one probe buffer per partition.
        let mut part_probe = Vec::new();
        for (pi, rec) in preader.take_while(before(&best_err)).enumerate() {
            // Masked cancellation check per 4096 reloaded rows.
            if pi % 4096 == 0 {
                exec.check_cancelled()?;
            }
            part_probe.push(rec?);
        }
        // Re-evaluation of (deterministic) keys that already succeeded
        // during the scatter.
        let base = emitted.len();
        match probe.probe_tagged(exec, part_build, part_probe, None, base, &mut emitted) {
            Ok(()) => {}
            Err((Some(tag), e)) => best_err = Some((tag, e)),
            Err((None, e)) => return Err(e),
        }
        res.shrink(charged);
    }
    if let Some((_, e)) = best_err {
        return Err(e);
    }
    JoinRefs::rows(restore_order(emitted), probe.out_width())
}

/// A compiled index nested-loop join: the per-join constants of the one
/// index-probe loop ([`IndexProbe::run`]); owned and shared with morsel
/// workers like [`HashProbe`].
struct IndexProbe {
    kind: JoinType,
    column: usize,
    key: CompiledExpr,
    inner_filter: Option<CompiledExpr>,
    /// The inner output row over the base row (the fused projection).
    inner_layout: Vec<Col>,
    residual: Option<CompiledExpr>,
    outer: Arc<Vec<Tuple>>,
}

impl IndexProbe {
    /// The one index-probe loop: for each outer row in `rows`, evaluate
    /// the key and probe `inner`'s hash index; apply the fused inner
    /// filter and the residual condition to each candidate, appending
    /// the outer row's ids and the inner row's id (`budget_base` as in
    /// [`HashProbe::run`]).
    fn run(
        &self,
        exec: &Executor,
        inner: &Table,
        left: &View<'_>,
        rows: Range<usize>,
        budget_base: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        let (kind, column, outer) = (self.kind, self.column, self.outer.as_slice());
        let index = inner.index_on(column);
        let inner_rows = inner.rows();
        let inner_view = View {
            rows: vec![inner_rows],
            ids: &[],
            layout: &self.inner_layout,
            identity: false,
        };
        let residual = self
            .residual
            .as_ref()
            .map(|p| Residual::new(p, left, &inner_view));
        let keys = KeyBuilder::new(std::slice::from_ref(&self.key), &[false]);
        let mut emitted = budget_base;
        // Fallback candidates when the index vanished since planning: a
        // linear scan comparing the probe key (same semantics, slower).
        let mut linear: Vec<usize> = Vec::new();
        for (n, r) in rows.enumerate() {
            // Masked cancellation check per 4096 outer rows.
            if n % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let lids = left.ids(r);
            let mut matched = false;
            // A NULL key matches nothing.
            if let Some(Key::One(key_val)) = keys.key(exec, left, r, outer)? {
                let candidates: &[usize] = match index {
                    Some(idx) => idx.lookup(&key_val),
                    None => {
                        linear.clear();
                        // no-cancel: index-vanished fallback scan; the
                        // outer loop checks per row batch.
                        for (i, row) in inner_rows.iter().enumerate() {
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
                    if let Some(f) = &self.inner_filter {
                        let env = Env::new(&inner_rows[ri], outer);
                        if f.eval_bool(exec, &env)? != Some(true) {
                            continue;
                        }
                    }
                    let start = out.len();
                    out.extend_from_slice(lids);
                    // The driver checked the table's row count fits an id.
                    out.push(ri as u32);
                    if let Some(residual) = &residual {
                        if !residual.keeps(exec, outer, out, start)? {
                            continue;
                        }
                    }
                    matched = true;
                    match kind {
                        JoinType::Semi | JoinType::Anti => out.truncate(start),
                        _ => emitted += 1,
                    }
                    exec.check_row_budget(emitted)?;
                    if matches!(kind, JoinType::Semi) {
                        break;
                    }
                }
            }
            if close_row(kind, matched, lids, 1, out) {
                emitted += 1;
            }
        }
        Ok(())
    }
}

/// The index nested-loop join driver: serial runs [`IndexProbe::run`]
/// over every outer row; `dop > 1` runs it per morsel on pool workers
/// reading the shared index.
fn index_nl_join_refs(exec: &Executor, plan: &PhysicalPlan) -> Result<JoinRefs> {
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
        out_slots,
        dop,
        ..
    } = plan
    else {
        unreachable!("index_nl_join on non-INLJ node");
    };
    let (kind, out_slots) = (*kind, out_slots.as_deref());
    let left = refs_of(exec, outer_plan)?;
    let (t, _) = base_table(exec, table, schema)?;
    let inner_layout: Vec<Col> = match inner_project {
        Some(slots) => slots.iter().map(|&c| (0, c)).collect(),
        None => (0..schema.len()).map(|c| (0, c)).collect(),
    };
    let inner = JoinRefs {
        sources: vec![Source::Table(Arc::from(table.as_str()))],
        ids: Vec::new(),
        layout: inner_layout.clone(),
    };
    let probe = IndexProbe {
        kind,
        column: *column,
        key: CompiledExpr::compile(exec, key),
        inner_filter: inner_filter
            .as_ref()
            .map(|f| CompiledExpr::compile(exec, f)),
        inner_layout,
        residual: residual.as_ref().map(|r| CompiledExpr::compile(exec, r)),
        outer: exec.outer_stack(),
    };
    let k = left.sources.len() + usize::from(kind.produces_both_sides());
    if *dop > 1 {
        let total = left.len();
        let left = Arc::new(left);
        let (l, table) = (Arc::clone(&left), table.clone());
        let ids = probe_morsels(exec, *dop, total, k, move |sub, range, base, out| {
            let inner = sub.catalog().table(&table)?;
            probe.run(sub, inner, &l.view(sub)?, range, base, out)
        })?;
        return Ok(JoinRefs::joined(kind, &left, &inner, out_slots, ids));
    }
    let lv = left.view(exec)?;
    let mut ids = Vec::new();
    probe.run(exec, t, &lv, 0..lv.len(), 0, &mut ids)?;
    Ok(JoinRefs::joined(kind, &left, &inner, out_slots, ids))
}

/// Nested-loop join: every left row against every right row (non-equi
/// conditions, cross joins, ablations). Always serial, never spills.
fn nested_loop_refs(exec: &Executor, plan: &PhysicalPlan) -> Result<JoinRefs> {
    let PhysicalPlan::NLJoin {
        left,
        right,
        kind,
        condition,
        out_slots,
        ..
    } = plan
    else {
        unreachable!("nested_loop on non-NLJ node");
    };
    let kind = *kind;
    let left = refs_of(exec, left)?;
    let right = refs_of(exec, right)?;
    let (lv, rv) = (left.view(exec)?, right.view(exec)?);
    let outer = exec.outer_stack();
    let condition = condition.as_ref().map(|c| CompiledExpr::compile(exec, c));
    let condition = condition.as_ref().map(|c| Residual::new(c, &lv, &rv));
    let mut right_matched = vec![false; rv.len()];
    let mut out = Vec::new();
    let (mut pairs, mut emitted) = (0usize, 0usize);
    for l in 0..lv.len() {
        // Masked cancellation check per 4096 evaluated pairs (the inner
        // loop advances the same counter, so the quadratic worst case
        // still observes cancellation promptly).
        if pairs.is_multiple_of(4096) {
            exec.check_cancelled()?;
        }
        let lids = lv.ids(l);
        let mut matched = false;
        for (ri, m) in right_matched.iter_mut().enumerate() {
            if pairs.is_multiple_of(4096) {
                exec.check_cancelled()?;
            }
            pairs += 1;
            let start = out.len();
            out.extend_from_slice(lids);
            out.extend_from_slice(rv.ids(ri));
            if let Some(condition) = &condition {
                if !condition.keeps(exec, &outer, &mut out, start)? {
                    continue;
                }
            }
            matched = true;
            *m = true;
            match kind {
                JoinType::Semi | JoinType::Anti => out.truncate(start),
                _ => emitted += 1,
            }
            exec.check_row_budget(emitted)?;
            if matches!(kind, JoinType::Semi) {
                break;
            }
        }
        if close_row(kind, matched, lids, rv.k(), &mut out) {
            emitted += 1;
        }
    }
    if matches!(kind, JoinType::Full) {
        for (i, &m) in right_matched.iter().enumerate() {
            // Masked cancellation check per 4096 epilogue rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            if !m {
                pad(&mut out, lv.k());
                out.extend_from_slice(rv.ids(i));
            }
        }
    }
    Ok(JoinRefs::joined(
        kind,
        &left,
        &right,
        out_slots.as_deref(),
        out,
    ))
}
