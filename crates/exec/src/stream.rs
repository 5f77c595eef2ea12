//! The one pull driver: a chunk cursor over a physical plan.
//!
//! Every plan runs through a `Cursor` tree, and its one pull,
//! `next_chunk(exec, want)`, is the whole driving contract. Its two
//! consumers only differ in how much they ask for:
//!
//! * [`Executor::run_physical`] drains the cursor with `want =
//!   usize::MAX` — one chunk per node, so a node's body runs once over
//!   its whole input (the materialized result);
//! * [`TupleStream`] pulls the way a PostgreSQL client consumes a
//!   portal, with a demand that starts at one row and doubles up to
//!   [`BATCH_ROWS`], and stops pulling when its consumer stops.
//!
//! The pipeline nodes produce rows on demand: a scan reads `want` base
//! rows per pull (a table's rows or an index's id list, read in place)
//! through the node's one [`Pipe::run`] — at `dop > 1` it reads ahead, in
//! windows that double per pull up to `dop` morsels, and runs each
//! window's morsels on the worker pool — a standalone filter or
//! projection runs its pipe over its input's chunk, and a `LIMIT` asks
//! its input for `offset + limit` rows (further ahead, doubling, while a
//! filter below it comes back short). A row error inside a chunk is
//! raised at the *next* pull, after the chunk's rows before it, so a
//! `LIMIT k` over scans, filters and projections returns exactly the rows
//! and errors of a row-at-a-time executor, whichever consumer pulls it.
//! A `UNION ALL` pulls its left input until it is exhausted, then its
//! right. Blocking operators (joins, aggregation, sorts, the other set
//! operations, DISTINCT, `VALUES`) run their body once on the first pull
//! (`Executor::run_blocking`) and hand the result out `want` rows at a
//! time. The cursor evaluates nothing itself, so a pulled row is the row
//! the body computes. A blocking body's rows share row blocks, so a
//! `LIMIT` or a filter-only pipe over one keeps the rows it passes on
//! through [`Tuple::detach`].
//!
//! One blocking node may not block: a DISTINCT whose input the
//! executor's snapshot proves duplicate-free (a key column of a base
//! table survives to its output, see `duplicate_free`) has nothing to
//! remove, so its cursor is its input's. The decision is made per
//! execution, against the snapshot — a prepared plan may run against a
//! later one where the key no longer holds — and a filter or projection
//! over a scan leaf left without a pipe becomes the leaf's pipe.
//!
//! The cursor tree is built from the **physical** plan, so every
//! strategy decision (fusion, index usage, join algorithms inside
//! blocking subtrees, sublink bodies) was already made by the planner. A
//! draining cursor borrows its blocking subtrees from the plan; a stream
//! owns copies (sharing the plan's sublink bodies).
//!
//! The stream owns its [`Executor`] — and through it an immutable catalog
//! snapshot — so it keeps yielding a consistent result however long the
//! consumer takes, even while concurrent sessions run DDL against the
//! shared catalog.

use std::borrow::Cow;
use std::sync::Arc;

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::{AggOutput, SetOpType};
use perm_storage::Catalog;
use perm_types::{PermError, Result, Schema, Tuple, Value};

use crate::executor::{check_scan_schema, Executor};
use crate::kernels::BATCH_ROWS;
use crate::operators::scan::Pipe;
use crate::parallel::{concat, map_morsels, MORSEL_ROWS};
use crate::physical::PhysicalPlan;

/// A pull-based result: `Iterator<Item = Result<Tuple>>` over a plan.
///
/// Created by [`Executor::into_stream_physical`]. The stream is fused: after the
/// first error (or the natural end) it yields `None` forever.
pub struct TupleStream {
    exec: Executor,
    cursor: Cursor<'static>,
    /// The last pulled chunk, handed out row by row.
    chunk: std::vec::IntoIter<Tuple>,
    /// Demand of the next pull: 1, then doubling up to [`BATCH_ROWS`].
    want: usize,
    done: bool,
}

impl TupleStream {
    /// How many base-table rows the streamable scans have pulled so far.
    ///
    /// Rows read inside materialized (blocking) subtrees are not counted —
    /// the counter measures exactly the early-termination benefit: a
    /// `LIMIT k` over a streamable chain stops after pulling the few scan
    /// rows it needed.
    pub fn rows_scanned(&self) -> usize {
        self.cursor.rows_scanned()
    }
}

impl Iterator for TupleStream {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        // no-cancel: a pull that reads or hands out rows checks first
        // (`Cursor::next_chunk`).
        loop {
            if let Some(t) = self.chunk.next() {
                return Some(Ok(t));
            }
            if self.done {
                return None;
            }
            match self.cursor.next_chunk(&self.exec, self.want) {
                Ok(Some(rows)) => {
                    self.chunk = rows.into_iter();
                    self.want = (self.want * 2).min(BATCH_ROWS);
                }
                Ok(None) => self.done = true,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

impl Executor {
    /// Consume this executor into a pull-based stream over a statement's
    /// physical plan, validating its base-table scans against the
    /// executor's catalog snapshot up front.
    pub fn into_stream_physical(self, plan: &PhysicalPlan) -> Result<TupleStream> {
        let cursor = Cursor::build(&self, plan, |p| Cow::Owned(p.clone()))?;
        Ok(TupleStream {
            exec: self,
            cursor,
            chunk: Vec::new().into_iter(),
            want: 1,
            done: false,
        })
    }
}

/// One node of the cursor tree. Pipeline nodes hold just the state they
/// need (compiled out of the plan, so a stream is self-contained); a
/// blocking node holds its subtree until the first pull runs it.
pub(crate) enum Cursor<'p> {
    Scan(Scan),
    /// A standalone filter or projection over any input; `failed` is a
    /// row error deferred to the next pull (see [`Scan`]).
    Pipe {
        input: Box<Cursor<'p>>,
        pipe: Pipe,
        failed: Option<PermError>,
    },
    /// OFFSET / LIMIT: `skip` rows still to drop, `remaining` to pass, and
    /// the least demand of the next pull — doubled whenever a pull comes
    /// back short, so a selective filter below is read in growing chunks
    /// instead of `offset + limit` rows at a time.
    Limit {
        input: Box<Cursor<'p>>,
        skip: usize,
        remaining: Option<usize>,
        ahead: usize,
    },
    /// `UNION ALL`: the left input's rows until it is exhausted (an
    /// exhausted cursor stays exhausted), then the right's.
    Append(Box<Cursor<'p>>, Box<Cursor<'p>>),
    /// A blocking subtree, not yet run: borrowed from the plan when
    /// draining, owned in a stream.
    Pending(Cow<'p, PhysicalPlan>),
    /// A blocking subtree's result, handed out `want` rows per pull.
    Buffered(std::vec::IntoIter<Tuple>),
}

/// A scan leaf: base rows read in place — a table's rows, or the id list
/// of one index key — `next` of them consumed so far.
///
/// A row error in a chunk is deferred: the pull hands out the rows before
/// the failing one and keeps the error in `failed` for the next pull, so a
/// consumer that needs no more rows — a satisfied `LIMIT` — never raises
/// it, however far ahead the chunk read.
pub(crate) struct Scan {
    /// The pre-folded catalog key: the table is re-resolved per pull (the
    /// borrow rules forbid caching `&Table` next to the owning snapshot)
    /// with an allocation-free map lookup.
    table: String,
    /// `Some((column, key))`: read `column`'s index entry for `key`.
    index: Option<(usize, Value)>,
    /// The node's filter / projection; `None` passes base rows through.
    pipe: Option<Arc<Pipe>>,
    dop: usize,
    /// At `dop > 1`, the least base rows the next pull reads: doubled per
    /// pull up to `dop` morsels, so a stream whose demand stays below a
    /// morsel still reaches every worker after a few pulls.
    ahead: usize,
    next: usize,
    failed: Option<PermError>,
}

impl<'p> Cursor<'p> {
    /// Build the cursor over `plan`, checking every scan against the
    /// executor's catalog snapshot. `hold` keeps a blocking subtree:
    /// `Cow::Borrowed` to drain it now, an owned copy for a stream.
    pub(crate) fn build<'q>(
        exec: &Executor,
        plan: &'q PhysicalPlan,
        hold: fn(&'q PhysicalPlan) -> Cow<'p, PhysicalPlan>,
    ) -> Result<Cursor<'p>> {
        Ok(match plan {
            PhysicalPlan::FusedScanProjectFilter {
                table,
                schema,
                filter,
                project,
                dop,
                ..
            } => Cursor::Scan(Scan::new(
                exec,
                table,
                schema,
                None,
                filter.as_ref(),
                project.as_deref(),
                *dop,
            )?),
            PhysicalPlan::IndexScan {
                table,
                schema,
                column,
                key,
                residual,
                project,
                ..
            } => {
                let (index, full);
                let filter = if exec
                    .catalog()
                    .table(table)?
                    .index_lookup(*column, key)
                    .is_some()
                {
                    index = Some((*column, key.clone()));
                    residual.as_ref()
                } else {
                    // The index vanished since planning (e.g. the table
                    // was rebuilt): scan the table with the full predicate.
                    index = None;
                    full = ScalarExpr::conjunction(
                        std::iter::once(ScalarExpr::eq(
                            ScalarExpr::Column(*column),
                            ScalarExpr::Literal(key.clone()),
                        ))
                        .chain(residual.clone())
                        .collect(),
                    );
                    Some(&full)
                };
                let scan = Scan::new(exec, table, schema, index, filter, project.as_deref(), 1)?;
                Cursor::Scan(scan)
            }
            PhysicalPlan::Filter { input, predicate } => Cursor::build(exec, input, hold)?
                .piped(plan, Pipe::compile(exec, Some(predicate), None)),
            PhysicalPlan::Project { input, exprs } => Cursor::build(exec, input, hold)?
                .piped(plan, Pipe::compile(exec, None, Some(exprs))),
            PhysicalPlan::Limit {
                input,
                limit,
                offset,
            } => Cursor::Limit {
                input: Box::new(Cursor::build(exec, input, hold)?),
                skip: *offset as usize,
                remaining: limit.map(|l| l as usize),
                ahead: 0,
            },
            PhysicalPlan::SubPlans { input, .. } => {
                exec.enter_statement(plan);
                Cursor::build(exec, input, hold)?
            }
            PhysicalPlan::HashSetOp {
                op: SetOpType::Union,
                all: true,
                left,
                right,
                ..
            } => Cursor::Append(
                Box::new(Cursor::build(exec, left, hold)?),
                Box::new(Cursor::build(exec, right, hold)?),
            ),
            // Nothing to remove: the DISTINCT is its input's cursor.
            PhysicalPlan::HashDistinct { input, .. } if duplicate_free(exec.catalog(), input) => {
                perm_fault::exec_point("exec.distinct.passthrough", "HashDistinct")?;
                Cursor::build(exec, input, hold)?
            }
            other => Cursor::Pending(hold(other)),
        })
    }

    /// `pipe`, compiled from the filter or projection `node`, over this
    /// cursor: a scan leaf without a pipe of its own takes it, so its base
    /// rows are filtered or projected where they are read instead of
    /// copied first — serially if `node` holds a sublink, which only the
    /// calling thread can evaluate.
    fn piped(self, node: &PhysicalPlan, pipe: Pipe) -> Cursor<'p> {
        match self {
            Cursor::Scan(scan) if scan.pipe.is_none() => {
                let safe = node.exprs().iter().all(|e| !e.contains_subquery());
                Cursor::Scan(Scan {
                    pipe: Some(Arc::new(pipe)),
                    dop: if safe { scan.dop } else { 1 },
                    ..scan
                })
            }
            input => Cursor::Pipe {
                input: Box::new(input),
                pipe,
                failed: None,
            },
        }
    }

    /// Pull every remaining row: the materialized result.
    pub(crate) fn drain(mut self, exec: &Executor) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        // no-cancel: a pull that reads or hands out rows checks first
        // (`next_chunk`).
        while let Some(rows) = self.next_chunk(exec, usize::MAX)? {
            if out.is_empty() {
                out = rows;
            } else {
                out.extend(rows);
            }
        }
        Ok(out)
    }

    /// The one pull: the next chunk for a demand of `want` rows — a leaf
    /// reads `want`, a parallel scan or a `LIMIT` may read further ahead —
    /// possibly empty while a filter rejects a chunk, or `None` once the
    /// node is exhausted. It is the pull's one cancellation point: the
    /// leaf checks before it reads or hands out rows — never at an
    /// exhausted node, so a statement whose work is done keeps its result.
    fn next_chunk(&mut self, exec: &Executor, want: usize) -> Result<Option<Vec<Tuple>>> {
        match self {
            Cursor::Scan(scan) => scan.next_chunk(exec, want),
            Cursor::Pipe {
                input,
                pipe,
                failed,
            } => {
                if let Some(e) = failed.take() {
                    return Err(e);
                }
                let Some(rows) = input.next_chunk(exec, want)? else {
                    return Ok(None);
                };
                let mut out = Vec::new();
                *failed = pipe.run(exec, rows.iter(), &mut out).err();
                if pipe.passes_rows() && input.blocking() {
                    detach(&mut out);
                }
                Ok(Some(out))
            }
            Cursor::Limit {
                input,
                skip,
                remaining,
                ahead,
            } => {
                if *remaining == Some(0) {
                    return Ok(None);
                }
                let need = skip.saturating_add(remaining.map_or(want, |r| r.min(want)));
                let demand = need.max(*ahead);
                let Some(mut rows) = input.next_chunk(exec, demand)? else {
                    return Ok(None);
                };
                if rows.len() < demand {
                    *ahead = demand.saturating_mul(2);
                }
                let skipped = (*skip).min(rows.len());
                rows.drain(..skipped);
                *skip -= skipped;
                if let Some(r) = remaining {
                    rows.truncate(*r);
                    *r -= rows.len();
                }
                if input.blocking() {
                    detach(&mut rows);
                }
                Ok(Some(rows))
            }
            Cursor::Append(left, right) => match left.next_chunk(exec, want)? {
                Some(rows) => Ok(Some(rows)),
                None => right.next_chunk(exec, want),
            },
            Cursor::Pending(plan) => {
                exec.check_cancelled()?;
                let mut rows = exec.run_blocking(plan)?.into_iter();
                let chunk = hand_out(&mut rows, want);
                *self = Cursor::Buffered(rows);
                Ok(chunk)
            }
            Cursor::Buffered(rows) if rows.len() == 0 => Ok(None),
            Cursor::Buffered(rows) => {
                exec.check_cancelled()?;
                Ok(hand_out(rows, want))
            }
        }
    }

    /// Whether the rows come from a blocking body: gathered into blocks
    /// a row keeps alive whole, unlike a scan's base or projected rows.
    fn blocking(&self) -> bool {
        match self {
            Cursor::Scan(_) => false,
            Cursor::Pipe { input, .. } | Cursor::Limit { input, .. } => input.blocking(),
            Cursor::Append(left, right) => left.blocking() || right.blocking(),
            Cursor::Pending(_) | Cursor::Buffered(_) => true,
        }
    }

    fn rows_scanned(&self) -> usize {
        match self {
            Cursor::Scan(scan) => scan.next,
            Cursor::Pipe { input, .. } | Cursor::Limit { input, .. } => input.rows_scanned(),
            Cursor::Append(left, right) => left.rows_scanned() + right.rows_scanned(),
            Cursor::Pending(_) | Cursor::Buffered(_) => 0,
        }
    }
}

/// Whether `plan`, run against the snapshot `catalog`, can yield no row
/// twice. A base scan can when the snapshot's exact statistics show a key
/// column — no NULL, as many distinct values as rows — that the scan
/// emits as a bare slot (or emits the whole row); the statistics count
/// distinct values with the same `Value` equality DISTINCT removes
/// duplicates by. Filters, limits and sorts keep the property of their
/// input; DISTINCT, a set operation without `ALL` and an aggregate that
/// emits its groups create it.
fn duplicate_free(catalog: &Catalog, plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::FusedScanProjectFilter { table, project, .. }
        | PhysicalPlan::IndexScan { table, project, .. } => {
            let Ok(t) = catalog.table(table) else {
                return false;
            };
            let stats = t.stats();
            let emitted = |c: usize| {
                project.as_ref().is_none_or(|p| {
                    p.iter()
                        .any(|e| matches!(e, ScalarExpr::Column(k) if *k == c))
                })
            };
            stats
                .columns
                .iter()
                .enumerate()
                .any(|(c, s)| s.null_count == 0 && s.n_distinct == stats.row_count && emitted(c))
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Sort { input, .. } => duplicate_free(catalog, input),
        PhysicalPlan::HashDistinct { .. } => true,
        PhysicalPlan::HashSetOp { all, .. } => !all,
        PhysicalPlan::HashAggregate { output, .. } => *output == AggOutput::Groups,
        _ => false,
    }
}

/// Keep each of `rows` on its own ([`Tuple::detach`]): a node that passes
/// on part of a blocking input's rows does not keep the rest alive.
fn detach(rows: &mut [Tuple]) {
    // no-cancel: bounded by one pulled chunk.
    for t in rows {
        *t = t.detach();
    }
}

/// The next at most `want` buffered rows; the whole buffer, while
/// unadvanced, is handed over without a copy.
fn hand_out(rows: &mut std::vec::IntoIter<Tuple>, want: usize) -> Option<Vec<Tuple>> {
    match rows.len() {
        0 => None,
        n if want >= n => Some(std::mem::take(rows).collect()),
        _ => Some(rows.by_ref().take(want).collect()),
    }
}

impl Scan {
    /// A scan of `table`, checked against the plan's `schema`, compiling
    /// the node's pipe if it has a filter or a projection.
    fn new(
        exec: &Executor,
        table: &str,
        schema: &Schema,
        index: Option<(usize, Value)>,
        filter: Option<&ScalarExpr>,
        project: Option<&[ScalarExpr]>,
        dop: usize,
    ) -> Result<Scan> {
        check_scan_schema(exec.catalog().table(table)?, table, schema)?;
        let pipe = (filter.is_some() || project.is_some())
            .then(|| Arc::new(Pipe::compile(exec, filter, project)));
        Ok(Scan {
            table: Catalog::key_of(table),
            index,
            pipe,
            dop,
            ahead: 0,
            next: 0,
            failed: None,
        })
    }

    /// The next `want` base rows, through the node's pipe; a parallel
    /// scan reads at least `ahead` and runs a window of several morsels on
    /// the worker pool, reassembled in morsel order up to the first morsel
    /// that failed.
    fn next_chunk(&mut self, exec: &Executor, want: usize) -> Result<Option<Vec<Tuple>>> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        let t = exec.catalog().table_by_key(&self.table)?;
        let ids = match &self.index {
            Some((column, key)) => t.index_lookup(*column, key),
            None => None,
        };
        let total = ids.map_or(t.rows().len(), <[usize]>::len);
        let start = self.next;
        if start >= total {
            return Ok(None);
        }
        exec.check_cancelled()?;
        let parallel = self.dop > 1 && ids.is_none() && self.pipe.is_some();
        let want = if parallel { want.max(self.ahead) } else { want };
        self.ahead = want.saturating_mul(2).min(self.dop * MORSEL_ROWS);
        let end = start + want.min(total - start);
        self.next = end;
        let rows = t.rows();
        let mut out = Vec::new();
        let ran = match (&self.pipe, ids) {
            (None, None) => {
                out.extend_from_slice(&rows[start..end]);
                Ok(())
            }
            (None, Some(ids)) => {
                out.extend(ids[start..end].iter().map(|&r| rows[r].clone()));
                Ok(())
            }
            (Some(pipe), Some(ids)) => {
                pipe.run(exec, ids[start..end].iter().map(|&r| &rows[r]), &mut out)
            }
            (Some(pipe), None) if parallel && end - start > MORSEL_ROWS => {
                let morsels = (end - start).div_ceil(MORSEL_ROWS);
                let worker = exec.worker_factory();
                let table = self.table.clone();
                let pipe = Arc::clone(pipe);
                let (parts, ran) = map_morsels(
                    exec.context(),
                    self.dop.min(morsels),
                    end - start,
                    move |range, out| {
                        let sub = worker();
                        let rows = sub.catalog().table_by_key(&table)?.rows();
                        let window = rows[start + range.start..start + range.end].iter();
                        pipe.run(&sub, window, out)
                    },
                );
                out = concat(parts);
                ran
            }
            (Some(pipe), None) => pipe.run(exec, rows[start..end].iter(), &mut out),
        };
        self.failed = ran.err();
        Ok(Some(out))
    }
}
