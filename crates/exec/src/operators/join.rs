//! Join execution: hash join (with a planner-chosen build side), index
//! nested-loop join, and nested-loop join.
//!
//! The strategy, the extracted equi-keys (including the NULL-safe
//! `IS NOT DISTINCT FROM` keys Perm's aggregation join-back emits), the
//! build side and any fused output projection are all decided by the
//! physical planner ([`crate::physical`]); this module only runs the
//! operator it is handed.
//!
//! The build, the probe, the Grace scatter and the index probe take their
//! keys from one [`KeyPlan`] ([`super::key`]), so they match exactly the
//! pairs the nested-loop join's condition accepts: under `=` no NULL or
//! NaN, under `IS NOT DISTINCT FROM` NULL = NULL and NaN = NaN.
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
//! [`JoinRefs::gather`]. Every gathered output — a join's rows, a
//! spilled partition's, an aggregate's — is one row block
//! ([`RowBlock`]): one allocation, not one per row. A residual
//! predicate, or a key that is not a plain column, is evaluated over a
//! scratch row gathered for it.
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
//! * **spilled** (build reservation denied) — a Grace join through the
//!   partition driver ([`super::spill`]): both inputs scatter to disk by
//!   key hash, gathered a chunk at a time, the body runs once per partition
//!   over the rows read back, and each partition's output is gathered
//!   under its probe rows' input positions for the driver to put back in
//!   probe order.
//!
//! The index nested-loop join has the same shape minus the spill driver
//! ([`IndexProbe::run`], serial or per morsel). Which driver runs is
//! decided by the node's `dop` and may-spill flag and the reservation
//! denial alone. All three join loops — the hash probe, the index probe
//! and the nested loop — weigh each candidate through one step
//! ([`Candidates`]).

use std::borrow::{Borrow, Cow};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perm_storage::Table;
use perm_types::hash::{map_with_capacity, FxHashMap};
use perm_types::{PermError, Result, RowBlock, Schema, Tuple, Value};

use perm_algebra::plan::JoinType;

use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::{check_scan_schema, Executor};
use crate::operators::key::{HashKey, Input, KeyPlan, Match};
use crate::operators::spill::{
    charge_input, partition_of, partitioned, Cap, Partitioned, Ran, Rows, Stream,
};
use crate::operators::RowError;
use crate::parallel::{concat, map_morsels};
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

    /// The rows, in order, gathered into one block ([`View::gather`]).
    pub(super) fn gather(&self, exec: &Executor) -> Result<Vec<Tuple>> {
        let view = self.view(exec)?;
        let mut gather = view.gathering(view.len(), 0);
        let mut out = Vec::with_capacity(view.len());
        for r in 0..view.len() {
            // Masked cancellation check per 4096 gathered rows.
            if r % 4096 == 0 {
                exec.check_cancelled()?;
            }
            out.push(view.gather(&[], r, &mut gather));
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

/// Rows of one [`View`] being gathered into one row block.
pub(super) struct Gather<'a> {
    /// `None` when the rows are their source rows, shared.
    block: Option<RowBlock>,
    /// The row being gathered: each source's row, `None` on a padded
    /// side.
    sources: Vec<Option<&'a [Value]>>,
}

impl Gather<'_> {
    /// `prefix` followed by `width` NULLs, in the block: a global witness
    /// aggregate's row over no input.
    pub(super) fn padded(&mut self, prefix: &[Value], width: usize) -> Tuple {
        let nulls = std::iter::repeat_n(Value::Null, width);
        match &mut self.block {
            Some(block) => block.push(prefix.iter().cloned().chain(nulls)),
            // Shared rows have no prefix.
            None => nulls.collect(),
        }
    }
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

    /// Row `r`'s values, in column order.
    pub(super) fn values(&self, r: usize) -> impl ExactSizeIterator<Item = &'a Value> + '_ {
        let ids = self.ids(r);
        self.layout.iter().map(move |&at| read(&self.rows, ids, at))
    }

    /// Row `r` as its source row, when the refs are one input read whole.
    fn source_row(&self, r: usize) -> Option<&'a Tuple> {
        self.identity.then(|| &self.rows[0][self.ids[r] as usize])
    }

    /// A gather of up to `n` rows, each behind `prefix` values: one
    /// block, or none when the rows are their source rows and nothing
    /// precedes them.
    pub(super) fn gathering(&self, n: usize, prefix: usize) -> Gather<'a> {
        let shared = self.identity && prefix == 0;
        Gather {
            block: (!shared).then(|| RowBlock::new(n, prefix + self.width())),
            sources: Vec::with_capacity(self.k()),
        }
    }

    /// `prefix` followed by row `r`, as a tuple: the source row shared (a
    /// refcount bump), or gathered into `gather`'s block, from
    /// [`View::gathering`] with `prefix`'s width.
    pub(super) fn gather(&self, prefix: &[Value], r: usize, gather: &mut Gather<'a>) -> Tuple {
        let Some(block) = &mut gather.block else {
            return self.rows[0][self.ids[r] as usize].clone();
        };
        // Each source's row is looked up once, not once per column.
        let sources = &mut gather.sources;
        sources.clear();
        sources.extend(
            (self.ids(r).iter().zip(&self.rows)).map(|(&id, rows)| match id {
                NULL_ROW => None,
                id => Some(rows[id as usize].values()),
            }),
        );
        let row = self.layout.iter().map(|&(s, c)| match sources[s] {
            Some(values) => &values[c],
            None => &NULL,
        });
        block.push(prefix.iter().chain(row).cloned())
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
        range.map(move |r| Ok((r as u64, self.at(r))))
    }

    /// Row `r`, read through the refs.
    pub(super) fn at(&self, r: usize) -> RefRow<'_, 'a> {
        RefRow { view: self, r }
    }
}

/// One input row of a body that reads materialized tuples and join refs
/// alike: columns by position, or the whole row as a tuple.
pub(super) trait RowRef {
    fn width(&self) -> usize;
    /// Column `col` (`col < width()`).
    fn value(&self, col: usize) -> &Value;
    /// The row as a tuple: a scratch row, gathered for evaluation, if it
    /// is not one already.
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
        match self.view.source_row(self.r) {
            Some(t) => Cow::Borrowed(t),
            None => Cow::Owned(self.view.values(self.r).cloned().collect()),
        }
    }
}

/// Hashes as the row's tuple would: its width, then its values.
impl Hash for RefRow<'_, '_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.width().hash(state);
        self.view.values(self.r).for_each(|v| v.hash(state));
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
        params: &[Value],
        out: &mut Vec<u32>,
        start: usize,
    ) -> Result<bool> {
        let ids = &out[start..];
        let scratch: Tuple = (self.layout.iter())
            .map(|&at| read(&self.rows, ids, at).clone())
            .collect();
        let keep = self.pred.eval_bool(exec, &Env::new(&scratch, params));
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

/// The candidate step of the three join loops, one probe row at a time.
struct Candidates<'a> {
    kind: JoinType,
    residual: Option<Residual<'a>>,
    params: &'a [Value],
    /// Rows emitted so far, counted toward the runaway-result guard.
    emitted: usize,
    /// The current probe row has matched.
    matched: bool,
}

impl<'a> Candidates<'a> {
    fn new(
        kind: JoinType,
        residual: Option<Residual<'a>>,
        params: &'a [Value],
        emitted: usize,
    ) -> Candidates<'a> {
        Candidates {
            kind,
            residual,
            params,
            emitted,
            matched: false,
        }
    }

    /// Weigh the candidate whose ids were just appended at `out[start..]`:
    /// a residual miss (or error) takes them back; a match takes SEMI/ANTI
    /// ids back (they close the probe row alone) and counts toward the row
    /// budget. Returns whether it matched.
    fn admit(&mut self, exec: &Executor, out: &mut Vec<u32>, start: usize) -> Result<bool> {
        if let Some(residual) = &self.residual {
            if !residual.keeps(exec, self.params, out, start)? {
                return Ok(false);
            }
        }
        self.matched = true;
        match self.kind {
            JoinType::Semi | JoinType::Anti => out.truncate(start),
            _ => self.emitted += 1,
        }
        exec.check_row_budget(self.emitted)?;
        Ok(true)
    }

    /// Whether the current probe row's walk is over: SEMI needs one match.
    fn done(&self) -> bool {
        self.matched && matches!(self.kind, JoinType::Semi)
    }

    /// The probe row's closing output once its candidates are walked:
    /// SEMI keeps the row (`ids`) if it matched, ANTI if it did not,
    /// LEFT/FULL pad an unmatched row with `pad_k` NULL ids.
    fn close(&mut self, ids: &[u32], pad_k: usize, out: &mut Vec<u32>) {
        let matched = std::mem::take(&mut self.matched);
        match self.kind {
            JoinType::Semi if matched => out.extend_from_slice(ids),
            JoinType::Anti if !matched => out.extend_from_slice(ids),
            JoinType::Left | JoinType::Full if !matched => {
                out.extend_from_slice(ids);
                pad(out, pad_k);
            }
            _ => return,
        }
        self.emitted += 1;
    }
}

/// FULL's epilogue: the right rows no left row matched (`!matched[i]`),
/// behind a padded left side.
fn full_epilogue(
    exec: &Executor,
    matched: &[bool],
    left: &View<'_>,
    right: &View<'_>,
    out: &mut Vec<u32>,
) -> Result<()> {
    for (i, &m) in matched.iter().enumerate() {
        // Masked cancellation check per 4096 epilogue rows.
        if i % 4096 == 0 {
            exec.check_cancelled()?;
        }
        if !m {
            pad(out, left.k());
            out.extend_from_slice(right.ids(i));
        }
    }
    Ok(())
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

/// Run a join node (hash, index nested-loop or nested-loop) and gather
/// its rows.
pub(crate) fn join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    refs_of(exec, plan)?.gather(exec)
}

/// Sentinel ending a [`JoinTable`] chain.
const NIL: usize = usize::MAX;

/// A chained hash index over the build side's rows — one flat `next`
/// array instead of a per-key vector, so exactly one hash-map entry per
/// distinct key and no per-row allocation. The map holds each key's
/// `(head, tail)` build row; new rows append at the tail, so probing
/// walks `next` in input order directly, with no scratch chain vector.
pub(super) struct JoinTable {
    heads: FxHashMap<HashKey, (usize, usize)>,
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
    build_keys: KeyPlan,
    probe_keys: KeyPlan,
    residual: Option<CompiledExpr>,
    /// Input arities (left, right) and the fused output projection: the
    /// shape of a spilled partition's output.
    widths: (usize, usize),
    out_slots: Option<Vec<usize>>,
    params: Arc<[Value]>,
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
        let side = |left: bool| {
            let keys = keys.iter().map(|k| {
                let rule = if k.null_safe {
                    Match::NotDistinct
                } else {
                    Match::Equal
                };
                (if left { &k.left } else { &k.right }, rule)
            });
            KeyPlan::compile(exec, keys)
        };
        HashProbe {
            kind: *kind,
            build_left,
            build_keys: side(build_left),
            probe_keys: side(!build_left),
            residual: residual.as_ref().map(|r| CompiledExpr::compile(exec, r)),
            widths: (*nl, *nr),
            out_slots: out_slots.clone(),
            params: exec.params(),
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
        let n = build.len();
        let mut heads: FxHashMap<HashKey, (usize, usize)> = map_with_capacity(n);
        let mut next: Vec<usize> = vec![NIL; n];
        for i in 0..n {
            // Masked cancellation check per 4096 build rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let key = self
                .build_keys
                .key(exec, &mut Input::new(&build.at(i)), &self.params)?;
            if let Some(k) = key {
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
        let params = &*self.params;
        let (left, right) = if self.build_left {
            (build, probe)
        } else {
            (probe, build)
        };
        let residual = self
            .residual
            .as_ref()
            .map(|p| Residual::new(p, left, right));
        let mut walk = Candidates::new(self.kind, residual, params, budget_base);
        let fatal = |e| (None, e);
        for (n, r) in rows.enumerate() {
            // Masked cancellation check per 4096 probe rows.
            if n % 4096 == 0 {
                exec.check_cancelled().map_err(fatal)?;
            }
            let at = |e| (Some(r as u64), e);
            let pids = probe.ids(r);
            let key = self
                .probe_keys
                .key(exec, &mut Input::new(&probe.at(r)), params);
            let mut bi = match key.map_err(at)? {
                Some(key) => table.heads.get(&key).map_or(NIL, |&(head, _)| head),
                // An `=` key with NULL or NaN: this row joins nothing.
                None => NIL,
            };
            // no-cancel: chain walk; emission checks the row budget and
            // the probe loop above checks per row batch.
            while bi != NIL {
                let cur = bi;
                bi = table.next[cur];
                // Append the candidate's ids as left ++ right.
                let start = out.len();
                if self.build_left {
                    out.extend_from_slice(build.ids(cur));
                    out.extend_from_slice(pids);
                } else {
                    out.extend_from_slice(pids);
                    out.extend_from_slice(build.ids(cur));
                }
                if walk.admit(exec, out, start).map_err(at)? {
                    if let Some(m) = build_matched.as_deref_mut() {
                        m[cur] = true;
                    }
                    if walk.done() {
                        break;
                    }
                }
            }
            // The probe side is the left one here: a left build is
            // inner-only and closes nothing.
            walk.close(pids, build.k(), out);
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
        let mut gather = view.gathering(view.len(), 0);
        for o in 0..view.len() {
            // Masked cancellation check per 4096 gathered rows.
            if o % 4096 == 0 {
                exec.check_cancelled().map_err(fatal)?;
            }
            let tag = tags[view.ids(o)[probe_at] as usize];
            out.push((tag, view.gather(&[], o, &mut gather)));
        }
        ran.map_err(|(j, e)| (j.map(|j| tags[j as usize]), e))
    }
}

/// The spilled (Grace) join as the partition driver runs it, over
/// `[build, probe]`.
impl Partitioned<2> for HashProbe {
    /// A row without a key (NULL or NaN under `=`) matches nothing: such
    /// a build row is dropped (FULL joins never spill), such a probe row
    /// still drives the LEFT/ANTI epilogue in partition 0 — unless the
    /// build side is the left, inner-only one. Build positions come
    /// first, so a build-key error beats every probe-side one, as the
    /// in-memory build's does.
    /// Inline in the scatter loop: out of line it measured ≈25% slower.
    #[inline]
    fn key(&self, exec: &Executor, k: usize, row: &RefRow, parts: usize) -> Result<Option<usize>> {
        let keys = if k == 0 {
            &self.build_keys
        } else {
            &self.probe_keys
        };
        Ok(match keys.key(exec, &mut Input::new(row), &self.params)? {
            Some(key) => Some(partition_of(&key, parts)),
            None if k == 1 && !self.build_left => Some(0),
            None => None,
        })
    }

    /// [`HashProbe::probe_tagged`] one partition: its build rows are the
    /// working memory, charged; `out`, the earlier partitions' output,
    /// counts toward the row budget. Keys that succeeded during the
    /// scatter are evaluated again, deterministically.
    fn run<I: Stream>(&self, exec: &Executor, [b, p]: [I; 2], cap: Cap, out: &mut Rows) -> Ran {
        let load = |(n, rec): (usize, Result<(u64, Tuple)>)| {
            // Masked cancellation check per 4096 reloaded build rows.
            if n % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let (_, t) = rec?;
            cap.grow(t.size_bytes())?;
            Ok(t)
        };
        let fatal = |e| (None, e);
        let build = b
            .enumerate()
            .map(load)
            .collect::<Result<_>>()
            .map_err(fatal)?;
        let probe = p.collect::<Result<_>>().map_err(fatal)?;
        self.probe_tagged(exec, build, probe, None, out.len(), out)
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
    let probe = Arc::new(HashProbe::compile(exec, plan));
    let left = Arc::new(refs_of(exec, left)?);
    let right = Arc::new(refs_of(exec, right)?);
    let k = probe.out_k(&left, &right);
    let (lv, rv) = (left.view(exec)?, right.view(exec)?);
    let (bv, pv) = if probe.build_left {
        (&lv, &rv)
    } else {
        (&rv, &lv)
    };

    // Charge the build side before building: the hash table retains
    // every build row (plus key copies), charged as the rows it would
    // hold gathered. A denial turns the join into a Grace join.
    let reservation = exec.memory().register("HashJoin build");
    let (sizes, rows) = ((0..bv.len()).map(|r| bv.size_bytes(r)), bv.len() + pv.len());
    if let Some(backing) = charge_input(&reservation, sizes, rows, 1, *spill)? {
        // A Grace join through the partition driver.
        let inputs = if probe.build_left {
            [left, right]
        } else {
            [right, left]
        };
        let width = probe.out_width();
        let rows = partitioned(exec, backing, inputs, probe)?;
        return JoinRefs::rows(rows, width);
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
        full_epilogue(exec, &build_matched, &lv, &rv, &mut ids)?;
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

/// A compiled index nested-loop join: the per-join constants of the one
/// index-probe loop ([`IndexProbe::run`]); owned and shared with morsel
/// workers like [`HashProbe`].
struct IndexProbe {
    kind: JoinType,
    column: usize,
    key: KeyPlan,
    inner_filter: Option<CompiledExpr>,
    /// The inner output row over the base row (the fused projection).
    inner_layout: Vec<Col>,
    residual: Option<CompiledExpr>,
    params: Arc<[Value]>,
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
        let (column, params) = (self.column, &*self.params);
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
        let mut walk = Candidates::new(self.kind, residual, params, budget_base);
        // Fallback candidates when the index vanished since planning: a
        // linear scan comparing the probe key (same semantics, slower).
        let mut linear: Vec<usize> = Vec::new();
        for (n, r) in rows.enumerate() {
            // Masked cancellation check per 4096 outer rows.
            if n % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let lids = left.ids(r);
            // A NULL or NaN key matches nothing.
            if let Some(key) = self.key.key(exec, &mut Input::new(&left.at(r)), params)? {
                let key_val = &key.values()[0];
                let candidates: &[usize] = match index {
                    Some(idx) => idx.lookup(key_val),
                    None => {
                        linear.clear();
                        // no-cancel: index-vanished fallback scan; the
                        // outer loop checks per row batch.
                        for (i, row) in inner_rows.iter().enumerate() {
                            if row.get(column) == key_val {
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
                        let env = Env::new(&inner_rows[ri], params);
                        if f.eval_bool(exec, &env)? != Some(true) {
                            continue;
                        }
                    }
                    let start = out.len();
                    out.extend_from_slice(lids);
                    // The driver checked the table's row count fits an id.
                    out.push(ri as u32);
                    if walk.admit(exec, out, start)? && walk.done() {
                        break;
                    }
                }
            }
            walk.close(lids, 1, out);
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
        key: KeyPlan::compile(exec, [(key, Match::Equal)]),
        inner_filter: inner_filter
            .as_ref()
            .map(|f| CompiledExpr::compile(exec, f)),
        inner_layout,
        residual: residual.as_ref().map(|r| CompiledExpr::compile(exec, r)),
        params: exec.params(),
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
/// and cross joins, the NLJ reference). Always serial, never spills.
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
    let params = exec.params();
    let condition = condition.as_ref().map(|c| CompiledExpr::compile(exec, c));
    let condition = condition.as_ref().map(|c| Residual::new(c, &lv, &rv));
    let mut walk = Candidates::new(kind, condition, &params, 0);
    let mut right_matched = vec![false; rv.len()];
    let mut out = Vec::new();
    let mut pairs = 0usize;
    for l in 0..lv.len() {
        // Masked cancellation check per 4096 evaluated pairs (the inner
        // loop advances the same counter, so the quadratic worst case
        // still observes cancellation promptly).
        if pairs.is_multiple_of(4096) {
            exec.check_cancelled()?;
        }
        let lids = lv.ids(l);
        for (ri, m) in right_matched.iter_mut().enumerate() {
            if pairs.is_multiple_of(4096) {
                exec.check_cancelled()?;
            }
            pairs += 1;
            let start = out.len();
            out.extend_from_slice(lids);
            out.extend_from_slice(rv.ids(ri));
            if walk.admit(exec, &mut out, start)? {
                *m = true;
                if walk.done() {
                    break;
                }
            }
        }
        walk.close(lids, rv.k(), &mut out);
    }
    if matches!(kind, JoinType::Full) {
        full_epilogue(exec, &right_matched, &lv, &rv, &mut out)?;
    }
    Ok(JoinRefs::joined(
        kind,
        &left,
        &right,
        out_slots.as_deref(),
        out,
    ))
}
