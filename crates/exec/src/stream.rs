//! Pull-based execution: a cursor tree that yields tuples one at a time.
//!
//! [`TupleStream`] drives a top-level plan cursor-style, the way a
//! PostgreSQL client consumes a portal: `next()` pulls one row, and the
//! pipeline-friendly operators — sequential scans (with their fused
//! filters and projections), standalone filters/projections, limits —
//! produce it on demand. A `LIMIT k` over a streamable chain therefore
//! pulls only as many base-table rows as it needs instead of
//! materializing the whole input first. The stream evaluates nothing
//! itself: it is a *driver* of the scan/filter/project body
//! ([`Pipe`]) — the serial cursor pulls one row at a time through
//! `Pipe::row`, the exchange producers run whole morsels through
//! `Pipe::run` — so a streamed row is the row [`Executor::run_physical`]
//! computes. Blocking operators (joins, aggregation, sorts, set
//! operations, DISTINCT) have no incremental form in this executor; a
//! blocking subtree is materialized through [`Executor::run_physical`]
//! on first pull and drained from its buffer.
//!
//! The cursor tree is built from the **physical** plan, so every
//! strategy decision (fusion, index usage, join algorithms inside
//! blocking subtrees) was already made by the planner.
//!
//! The stream owns its [`Executor`] — and through it an immutable catalog
//! snapshot — so it keeps yielding a consistent result however long the
//! consumer takes, even while concurrent sessions run DDL against the
//! shared catalog.

use std::collections::HashMap;
use std::sync::Arc;

use perm_algebra::plan::LogicalPlan;
use perm_storage::Catalog;
use perm_types::{PermError, Result, Tuple};

use crate::executor::Executor;
use crate::operators::scan::Pipe;
use crate::parallel::{Channel, MorselQueue, MORSEL_ROWS};
use crate::physical::PhysicalPlan;

/// A pull-based result: `Iterator<Item = Result<Tuple>>` over a plan.
///
/// Created by [`Executor::into_stream`]. The stream is fused: after the
/// first error (or the natural end) it yields `None` forever.
pub struct TupleStream {
    exec: Executor,
    cursor: Cursor,
    rows_scanned: usize,
    pulls: usize,
    done: bool,
}

impl TupleStream {
    /// Build a stream over a physical plan, validating its base-table
    /// scans against the executor's catalog snapshot up front.
    pub fn new(exec: Executor, plan: &PhysicalPlan) -> Result<TupleStream> {
        let cursor = Cursor::build(&exec, plan)?;
        Ok(TupleStream {
            exec,
            cursor,
            rows_scanned: 0,
            pulls: 0,
            done: false,
        })
    }

    /// How many base-table rows the streamable scans have pulled so far.
    ///
    /// Rows read inside materialized (blocking) subtrees are not counted —
    /// the counter measures exactly the early-termination benefit: a
    /// `LIMIT k` over a streamable chain stops after pulling the few scan
    /// rows it needed.
    pub fn rows_scanned(&self) -> usize {
        self.rows_scanned
    }
}

impl Iterator for TupleStream {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        if self.done {
            return None;
        }
        // Masked cancellation check per 1024 pulls: covers the cursor
        // variants with no per-row check of their own (plain scans,
        // drained buffers).
        self.pulls += 1;
        if self.pulls.is_multiple_of(1024) {
            if let Err(e) = self.exec.check_cancelled() {
                self.done = true;
                return Some(Err(e));
            }
        }
        let item = self.cursor.next(&self.exec, &mut self.rows_scanned);
        match &item {
            None | Some(Err(_)) => self.done = true,
            Some(Ok(_)) => {}
        }
        item
    }
}

impl Executor {
    /// Consume this executor into a pull-based stream over `plan` (the
    /// logical plan is lowered through the physical planner first).
    ///
    /// The plan must be a *top-level* plan (no outer scopes in flight);
    /// streams are built per statement, exactly like [`Executor::run`]
    /// calls at the top level.
    pub fn into_stream(self, plan: &LogicalPlan) -> Result<TupleStream> {
        let physical = self.physical(plan);
        self.check_lowering(plan, &physical)?;
        TupleStream::new(self, &physical)
    }

    /// [`Executor::into_stream`] over an already-lowered physical plan
    /// (prepared statements cache the lowering).
    pub fn into_stream_physical(self, plan: &PhysicalPlan) -> Result<TupleStream> {
        TupleStream::new(self, plan)
    }
}

/// One node of the cursor tree. Streamable operators hold just the state
/// they need (compiled out of the plan, so the stream is self-contained);
/// everything else lazily materializes via [`Executor::run_physical`].
enum Cursor {
    /// Base-table scan: yields `rows()[next]` on each pull. Holds the
    /// pre-folded catalog key so the per-pull re-resolution (the borrow
    /// rules forbid caching `&Table` next to the owning snapshot) is an
    /// allocation-free map lookup.
    Scan { key: String, next: usize },
    /// Streaming filter and/or projection: pulls from the input until a
    /// row passes the pipe (compiled once at stream construction).
    Pipe { input: Box<Cursor>, pipe: Pipe },
    /// Streaming OFFSET/LIMIT: stops pulling once exhausted.
    Limit {
        input: Box<Cursor>,
        skip: usize,
        remaining: Option<usize>,
    },
    /// A blocking subtree, not yet executed.
    Pending(Box<PhysicalPlan>),
    /// A materialized buffer being drained.
    Drained(std::vec::IntoIter<Tuple>),
    /// A parallel scan behind an exchange: producer threads push morsel
    /// results through a bounded channel, the consumer reorders them.
    Exchange(ExchangeCursor),
}

/// The consumer side of a scan exchange.
///
/// `dop` producer threads claim morsels of the base table, run the shared
/// [`Pipe`] over each, and send `(morsel index, rows scanned, result)`
/// through a **bounded** channel — so a consumer that stops pulling
/// (e.g. a satisfied `LIMIT`) back-pressures the producers after a few
/// morsels, preserving the early-termination benefit at morsel
/// granularity. The consumer reassembles morsels in index order, so the
/// stream yields exactly the serial scan order; dropping the cursor
/// closes the channel and joins the producers.
///
/// Producers are dedicated threads, not pool workers: a stream can stay
/// open indefinitely, and parking pool workers on it would starve other
/// queries' parallel operators.
/// What a producer sends per morsel: `(morsel index, base rows scanned,
/// filtered/projected result)`.
type MorselMsg = (usize, usize, Result<Vec<Tuple>>);

pub(crate) struct ExchangeCursor {
    rx: Arc<Channel<MorselMsg>>,
    queue: Arc<MorselQueue>,
    pending: HashMap<usize, (usize, Result<Vec<Tuple>>)>,
    next_idx: usize,
    expected: usize,
    current: std::vec::IntoIter<Tuple>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExchangeCursor {
    fn spawn(exec: &Executor, table: &str, pipe: Pipe, dop: usize) -> Result<ExchangeCursor> {
        let total = exec.catalog().table(table)?.rows().len();
        let queue = Arc::new(MorselQueue::new(total, MORSEL_ROWS));
        let pipe = Arc::new(pipe);
        // Built before the first spawn: if a later spawn fails, dropping
        // the cursor aborts and joins the producers already running.
        let mut cursor = ExchangeCursor {
            rx: Arc::new(Channel::bounded(dop * 2)),
            expected: queue.morsel_count(),
            queue,
            pending: HashMap::new(),
            next_idx: 0,
            current: Vec::new().into_iter(),
            handles: Vec::with_capacity(dop),
        };
        // no-cancel: thread start-up, bounded by dop.
        for i in 0..dop {
            let worker = exec.worker_factory();
            let queue = Arc::clone(&cursor.queue);
            let tx = Arc::clone(&cursor.rx);
            let ctx = exec.context().clone();
            let table = table.to_string();
            let pipe = Arc::clone(&pipe);
            let producer = move || {
                let sub = worker();
                // Cancellation is observed at every morsel claim; a
                // producer panic is contained to this query as a typed
                // error sent through the channel.
                while let Some((idx, range)) = queue.claim() {
                    let scanned = range.len();
                    let result = ctx
                        .check()
                        .and_then(|()| {
                            perm_fault::exec_point("exec.exchange.send", "exchange producer")
                        })
                        .and_then(|()| {
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                sub.catalog()
                                    .table(&table)
                                    .and_then(|t| pipe.run(&sub, t.rows()[range].iter()))
                            }))
                            .unwrap_or_else(|p| Err(crate::parallel::panic_error(p)))
                        });
                    let failed = result.is_err();
                    if tx.send((idx, scanned, result)).is_err() {
                        break; // consumer went away
                    }
                    if failed {
                        queue.abort();
                        break;
                    }
                }
            };
            // The OS can refuse a thread (process or cgroup limits): that
            // fails this statement, not the caller's thread.
            perm_fault::exec_point("exec.exchange.spawn", "exchange producer spawn")?;
            let handle = std::thread::Builder::new()
                .name(format!("perm-exchange-{i}"))
                .spawn(producer)
                .map_err(|e| {
                    PermError::Execution(format!("cannot start exchange producer: {e}"))
                })?;
            cursor.handles.push(handle);
        }
        Ok(cursor)
    }

    fn next(&mut self, scanned: &mut usize) -> Option<Result<Tuple>> {
        // no-cancel: producers check at every morsel claim; a cancelled
        // producer delivers the typed error through the channel, which
        // this loop surfaces in morsel order.
        loop {
            if let Some(t) = self.current.next() {
                return Some(Ok(t));
            }
            if let Some((n, result)) = self.pending.remove(&self.next_idx) {
                self.next_idx += 1;
                *scanned += n;
                match result {
                    Ok(rows) => {
                        self.current = rows.into_iter();
                        continue;
                    }
                    Err(e) => return Some(Err(e)),
                }
            }
            if self.next_idx >= self.expected {
                return None;
            }
            // Morsels complete out of order; buffer until ours arrives.
            // An error aborts the queue, so morsels past it never come —
            // but every earlier morsel was already claimed and will.
            let (idx, n, result) = self.rx.recv()?;
            self.pending.insert(idx, (n, result));
        }
    }
}

impl Drop for ExchangeCursor {
    fn drop(&mut self) {
        self.queue.abort();
        self.rx.close();
        // no-cancel: joining producers after abort, bounded by dop.
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Cursor {
    fn build(exec: &Executor, plan: &PhysicalPlan) -> Result<Cursor> {
        Ok(match plan {
            PhysicalPlan::FusedScanProjectFilter {
                table,
                schema,
                filter,
                project,
                dop,
                ..
            } => {
                // Same staleness check Executor::run_physical performs,
                // done once at stream construction (the snapshot cannot
                // change under us).
                let t = exec.catalog().table(table)?;
                crate::executor::check_scan_schema(t, table, schema)?;
                let scan = Cursor::Scan {
                    key: Catalog::key_of(table),
                    next: 0,
                };
                if filter.is_none() && project.is_none() {
                    return Ok(scan);
                }
                let pipe = Pipe::compile(exec, filter.as_ref(), project.as_deref());
                if *dop > 1 {
                    return Ok(Cursor::Exchange(ExchangeCursor::spawn(
                        exec, table, pipe, *dop,
                    )?));
                }
                Cursor::Pipe {
                    input: Box::new(scan),
                    pipe,
                }
            }
            PhysicalPlan::Filter { input, predicate } => Cursor::Pipe {
                input: Box::new(Cursor::build(exec, input)?),
                pipe: Pipe::compile(exec, Some(predicate), None),
            },
            PhysicalPlan::Project { input, exprs } => Cursor::Pipe {
                input: Box::new(Cursor::build(exec, input)?),
                pipe: Pipe::compile(exec, None, Some(exprs)),
            },
            PhysicalPlan::Limit {
                input,
                limit,
                offset,
            } => Cursor::Limit {
                input: Box::new(Cursor::build(exec, input)?),
                skip: *offset as usize,
                remaining: limit.map(|l| l as usize),
            },
            // Index scans, joins, aggregates, sorts, set ops, DISTINCT and
            // VALUES are blocking (or already small): materialize on first
            // pull.
            other => Cursor::Pending(Box::new(other.clone())),
        })
    }

    fn next(&mut self, exec: &Executor, scanned: &mut usize) -> Option<Result<Tuple>> {
        match self {
            Cursor::Scan { key, next } => {
                let t = match exec.catalog().table_by_key(key) {
                    Ok(t) => t,
                    Err(e) => return Some(Err(e)),
                };
                let row = t.rows().get(*next)?.clone();
                *next += 1;
                *scanned += 1;
                Some(Ok(row))
            }
            Cursor::Pipe { input, pipe } => loop {
                // A selective predicate can reject rows for a long time
                // without yielding: check cancellation on every pull.
                if let Err(e) = exec.check_cancelled() {
                    return Some(Err(e));
                }
                let t = match input.next(exec, scanned)? {
                    Ok(t) => t,
                    Err(e) => return Some(Err(e)),
                };
                match pipe.row(exec, &t).transpose() {
                    Some(item) => return Some(item),
                    None => continue,
                }
            },
            Cursor::Limit {
                input,
                skip,
                remaining,
            } => {
                // OFFSET burns rows without yielding any: check
                // cancellation on every skipped pull.
                while *skip > 0 {
                    if let Err(e) = exec.check_cancelled() {
                        return Some(Err(e));
                    }
                    match input.next(exec, scanned)? {
                        Ok(_) => *skip -= 1,
                        Err(e) => return Some(Err(e)),
                    }
                }
                if let Some(r) = remaining {
                    if *r == 0 {
                        return None;
                    }
                    *r -= 1;
                }
                input.next(exec, scanned)
            }
            Cursor::Pending(plan) => {
                let rows = match exec.run_physical(plan) {
                    Ok(rows) => rows,
                    Err(e) => return Some(Err(e)),
                };
                *self = Cursor::Drained(rows.into_iter());
                self.next(exec, scanned)
            }
            Cursor::Drained(iter) => iter.next().map(Ok),
            Cursor::Exchange(ex) => ex.next(scanned),
        }
    }
}
