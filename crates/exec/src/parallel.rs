//! Morsel-driven parallel execution: the in-tree worker pool, the
//! channels it communicates over, and the morsel/chunk schedulers the
//! parallel operators are built from.
//!
//! The design follows the morsel-driven model: a pipeline's input is cut
//! into fixed-size row ranges (*morsels*), a planner-chosen number of
//! workers pull morsels from a shared queue until it is drained, and the
//! per-morsel results are reassembled **in morsel order**, so a parallel
//! operator emits exactly the rows — in exactly the order — its serial
//! counterpart would. Operators whose merge is order-sensitive
//! (aggregation, sort) use contiguous *chunks* instead: each worker owns
//! one contiguous range and partial states merge in chunk order.
//! Operators that need equal rows to meet (DISTINCT, set operations) use
//! *hash partitions*: the one partition driver (`operators::spill`)
//! scatters them through [`map_chunks`] and runs them with
//! [`run_workers`], one worker per partition.
//!
//! These schedulers are **drivers** and nothing else: every operator
//! body lives in [`crate::operators`] — the parallel scan and sort next
//! to their bodies in `operators::scan` / `operators::sort` — each
//! written once and shared with the serial driver (one partition or run,
//! already in order: no tags, no sort, no merge) and the spill paths.
//! Closures handed to [`map_morsels`] / [`map_chunks`] compile nothing:
//! they share the node's one compiled body.
//!
//! Everything here is built from `std` only (the environment has no
//! crates.io access): [`Channel`] is a crossbeam-style Mutex + Condvar
//! MPMC channel, `WorkerPool` a fixed set of detached threads feeding
//! off an unbounded job channel. The pool is global and lazily created,
//! and it is the only place a thread is started; tasks submitted to it
//! are finite — a stream's parallel scan submits one window of morsels
//! per pull ([`crate::stream`]), so no worker waits on a consumer.
//!
//! # Error and determinism contract
//!
//! Workers never evaluate expressions containing sublinks (the planner
//! only assigns a degree of parallelism > 1 to subquery-free pipelines),
//! so each worker runs against its own lightweight
//! [`Executor`](crate::Executor) (from the parent's
//! `Executor::worker_factory`) over the shared catalog snapshot. A worker that hits an error stops claiming
//! morsels and the merge step re-raises the error of the
//! **lowest-indexed** failed morsel — which is exactly the error serial
//! execution would have raised first, because morsels are claimed in
//! increasing order and every morsel before the failed one completed
//! without error.
//!
//! # Lifecycle contract
//!
//! Every morsel claim is a cooperative cancellation point
//! ([`QueryContext::check`]), so a cancelled statement stops within a
//! bounded number of morsels per worker. Worker panics are **contained**:
//! `run_workers` converts a panicking worker into a typed
//! `PermError::Execution` for the submitting query only — the pool
//! threads stay alive (each job runs under `catch_unwind`) and sibling
//! queries never observe the panic.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use perm_types::{PermError, QueryContext, Result};

/// Rows per morsel. Small enough that the morsel queue load-balances
/// skewed filters; large enough that per-morsel setup (a worker
/// executor) is noise.
pub const MORSEL_ROWS: usize = 2048;

/// Default minimum estimated input rows before the planner considers a
/// pipeline worth parallelizing at all.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 10_000;

/// The machine's available parallelism (1 if it cannot be determined).
pub fn auto_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Size of the global worker pool: at least 4 threads even on small
/// machines (so forced-DOP tests exercise real interleavings), capped at
/// 16. The planner clamps its chosen DOP to this, so an operator never
/// pays chunk/merge fan-in it cannot actually run concurrently.
pub fn pool_parallelism() -> usize {
    auto_parallelism().clamp(4, 16)
}

// ----------------------------------------------------------------------
// Channel
// ----------------------------------------------------------------------

/// A crossbeam-style unbounded MPMC channel: `Mutex<VecDeque>` + a
/// condvar. The pool's job queue and each submission's result queue;
/// neither is ever closed.
pub struct Channel<T> {
    queue: Mutex<VecDeque<T>>,
    not_empty: Condvar,
}

impl<T> Channel<T> {
    pub fn new() -> Channel<T> {
        Channel {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
        }
    }

    pub fn send(&self, value: T) {
        self.queue.lock().expect("channel lock").push_back(value);
        self.not_empty.notify_one();
    }

    /// Receive the next value, blocking while the channel is empty.
    pub fn recv(&self) -> T {
        let mut queue = self.queue.lock().expect("channel lock");
        // no-cancel: condvar wait loop; senders observe cancellation at
        // their morsel claims and send promptly.
        loop {
            if let Some(v) = queue.pop_front() {
                return v;
            }
            queue = self.not_empty.wait(queue).expect("channel lock");
        }
    }
}

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The global execution worker pool: a fixed set of detached threads
/// pulling finite jobs from an unbounded channel. Pool workers never
/// submit work back into the pool (parallel operators materialize their
/// inputs on the calling thread first), so a caller blocked on its jobs
/// always makes progress — there is no nested-parallelism deadlock.
pub(crate) struct WorkerPool {
    jobs: Arc<Channel<Job>>,
}

impl WorkerPool {
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let size = pool_parallelism();
            let jobs: Arc<Channel<Job>> = Arc::new(Channel::new());
            // no-cancel: pool construction, bounded by the pool size.
            for i in 0..size {
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("perm-exec-{i}"))
                    .spawn(move || {
                        // no-cancel: the pool outlives every query; jobs
                        // observe cancellation via their own contexts.
                        loop {
                            // Keep the pool alive whatever a job does;
                            // run_workers reports the panic as a typed
                            // error to the submitting thread.
                            let _ = catch_unwind(AssertUnwindSafe(jobs.recv()));
                        }
                    })
                    .expect("spawn pool worker");
            }
            WorkerPool { jobs }
        })
    }

    fn submit(&self, job: Job) {
        self.jobs.send(job);
    }
}

/// Convert a worker's panic payload into a typed, *contained* error:
/// the query that submitted the work fails with an `Execution` error
/// naming the panic; the pool threads and every sibling query are
/// unaffected.
pub(crate) fn panic_error(payload: Box<dyn std::any::Any + Send>) -> PermError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    PermError::Execution(format!("worker panicked (contained): {msg}"))
}

/// Run `task(0..dop)` on the pool and return the per-worker results in
/// worker order. Blocks until every worker finished. A panicking worker
/// is contained: after the other workers complete, the panic surfaces as
/// a typed `Execution` error — never as an unwind into the caller.
pub(crate) fn run_workers<T, F>(dop: usize, task: F) -> Result<Vec<T>>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    debug_assert!(dop >= 1);
    if dop == 1 {
        return match catch_unwind(AssertUnwindSafe(|| task(0))) {
            Ok(v) => Ok(vec![v]),
            Err(p) => Err(panic_error(p)),
        };
    }
    let task = Arc::new(task);
    let results: Arc<Channel<(usize, std::thread::Result<T>)>> = Arc::new(Channel::new());
    let pool = WorkerPool::global();
    // no-cancel: job submission, bounded by dop.
    for w in 0..dop {
        let task = Arc::clone(&task);
        let results = Arc::clone(&results);
        pool.submit(Box::new(move || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                // Chaos site: a `panic` action exercises containment, a
                // `stall` a slow worker. (Error actions surface through
                // `exec.morsel.claim`, which returns `Result`.)
                if let Err(e) = perm_fault::exec_point("exec.worker.start", "pool worker") {
                    panic!("{e}");
                }
                task(w)
            }));
            results.send((w, r));
        }));
    }
    let mut out: Vec<Option<T>> = (0..dop).map(|_| None).collect();
    let mut first_panic: Option<PermError> = None;
    // no-cancel: result collection, bounded by dop; each worker observes
    // cancellation through the query context inside its task.
    for _ in 0..dop {
        let (w, r) = results.recv();
        match r {
            Ok(v) => out[w] = Some(v),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(panic_error(p));
                }
            }
        }
    }
    if let Some(e) = first_panic {
        return Err(e);
    }
    Ok(out
        .into_iter()
        .map(|o| {
            // INVARIANT: no panic occurred, so every worker sent Ok.
            o.expect("every worker reported")
        })
        .collect())
}

// ----------------------------------------------------------------------
// Morsel and chunk scheduling
// ----------------------------------------------------------------------

/// A shared queue of row-range morsels over `0..total`, claimed in
/// increasing order. `abort` stops further claims (a worker errored);
/// already-claimed morsels run to completion, which is what makes the
/// lowest-failed-morsel error rule exact.
pub(crate) struct MorselQueue {
    next: AtomicUsize,
    total: usize,
    step: usize,
    abort: AtomicBool,
}

impl MorselQueue {
    pub(crate) fn new(total: usize, step: usize) -> MorselQueue {
        MorselQueue {
            next: AtomicUsize::new(0),
            total,
            step: step.max(1),
            abort: AtomicBool::new(false),
        }
    }

    /// Claim the next `(morsel_index, row_range)`, or `None` when drained
    /// (or aborted).
    pub(crate) fn claim(&self) -> Option<(usize, Range<usize>)> {
        if self.abort.load(Ordering::Relaxed) {
            return None;
        }
        let start = self.next.fetch_add(self.step, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        let end = (start + self.step).min(self.total);
        Some((start / self.step, start..end))
    }

    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }
}

/// Run `f` over every [`MORSEL_ROWS`]-sized morsel of `0..total` on `dop`
/// workers, each morsel writing into its own output, and return the
/// outputs in morsel order up to the first morsel that failed — its
/// output included, so a caller can keep the rows it produced before the
/// failure — together with that morsel's error: exactly what serial
/// execution would have produced and raised. A failure stops every
/// worker at its next claim, and every claim is a cooperative
/// cancellation point: a cancelled `ctx` stops each worker before its
/// next morsel. A contained worker panic yields no outputs.
pub(crate) fn map_morsels<R, F>(
    ctx: &QueryContext,
    dop: usize,
    total: usize,
    f: F,
) -> (Vec<R>, Result<()>)
where
    R: Default + Send + 'static,
    F: Fn(Range<usize>, &mut R) -> Result<()> + Send + Sync + 'static,
{
    let queue = Arc::new(MorselQueue::new(total, MORSEL_ROWS));
    let worker_out = {
        let queue = Arc::clone(&queue);
        let ctx = ctx.clone();
        run_workers(dop, move |_w| {
            let mut acc: Vec<(usize, R, Result<()>)> = Vec::new();
            while let Some((idx, range)) = queue.claim() {
                let mut out = R::default();
                // Cancellation check + chaos site, once per claim.
                let r = ctx
                    .check()
                    .and_then(|()| perm_fault::exec_point("exec.morsel.claim", "morsel worker"))
                    .and_then(|()| f(range, &mut out));
                let failed = r.is_err();
                acc.push((idx, out, r));
                if failed {
                    queue.abort();
                    break;
                }
            }
            acc
        })
    };
    let mut all: Vec<(usize, R, Result<()>)> = match worker_out {
        Ok(w) => w.into_iter().flatten().collect(),
        Err(e) => return (Vec::new(), Err(e)),
    };
    all.sort_unstable_by_key(|(idx, ..)| *idx);
    let mut out = Vec::with_capacity(all.len());
    // no-cancel: reassembly of already-computed morsel results.
    for (_, part, r) in all {
        out.push(part);
        if r.is_err() {
            return (out, r);
        }
    }
    (out, Ok(()))
}

/// Cut `0..total` into at most `dop` contiguous, non-empty ranges.
pub(crate) fn chunk_ranges(total: usize, dop: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return Vec::new();
    }
    let n = dop.clamp(1, total);
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    // no-cancel: range arithmetic, bounded by dop.
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `f` over at most `dop` contiguous chunks of `0..total`, one worker
/// per chunk, returning chunk results in chunk order (first error in
/// chunk order wins — again exactly serial row order). Each chunk starts
/// with a cancellation check; long chunk bodies carry their own checks.
pub(crate) fn map_chunks<R, F>(ctx: &QueryContext, dop: usize, total: usize, f: F) -> Result<Vec<R>>
where
    R: Send + 'static,
    F: Fn(Range<usize>) -> Result<R> + Send + Sync + 'static,
{
    let chunks = chunk_ranges(total, dop);
    if chunks.is_empty() {
        return Ok(Vec::new());
    }
    let n = chunks.len();
    let chunks = Arc::new(chunks);
    let results = {
        let chunks = Arc::clone(&chunks);
        let ctx = ctx.clone();
        run_workers(n, move |w| ctx.check().and_then(|()| f(chunks[w].clone())))
    }?;
    let mut out = Vec::with_capacity(n);
    // no-cancel: reassembly of already-computed chunk results.
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Concatenate per-morsel (or per-partition) outputs in order.
pub(crate) fn concat<T>(parts: Vec<Vec<T>>) -> Vec<T> {
    let n: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(n);
    // no-cancel: reassembly of already-computed morsel outputs.
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_delivers_in_order() {
        let ch: Channel<u32> = Channel::new();
        ch.send(1);
        ch.send(2);
        assert_eq!(ch.recv(), 1);
        assert_eq!(ch.recv(), 2);
    }

    #[test]
    fn run_workers_returns_results_in_worker_order() {
        let got = run_workers(4, |w| w * 10).unwrap();
        assert_eq!(got, vec![0, 10, 20, 30]);
    }

    #[test]
    fn run_workers_contains_panics_as_typed_errors() {
        let r = run_workers(3, |w| {
            if w == 1 {
                panic!("boom");
            }
            w
        });
        let err = r.unwrap_err();
        assert_eq!(err.kind(), "execution");
        assert!(err.to_string().contains("contained"), "{err}");
        assert!(err.to_string().contains("boom"), "{err}");
        // The pool stays healthy: the next submission runs normally.
        assert_eq!(run_workers(2, |w| w).unwrap(), vec![0, 1]);
    }

    #[test]
    fn morsel_queue_covers_the_range_exactly_once() {
        let q = MorselQueue::new(10, 4);
        assert_eq!(q.claim(), Some((0, 0..4)));
        assert_eq!(q.claim(), Some((1, 4..8)));
        assert_eq!(q.claim(), Some((2, 8..10)));
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn map_morsels_reassembles_in_order() {
        let ctx = QueryContext::detached();
        let (out, ran) = map_morsels(&ctx, 4, MORSEL_ROWS * 3 + 7, |r, out| {
            *out = r.start;
            Ok(())
        });
        ran.unwrap();
        assert_eq!(out, vec![0, MORSEL_ROWS, MORSEL_ROWS * 2, MORSEL_ROWS * 3]);
    }

    #[test]
    fn map_morsels_reports_the_first_error_in_morsel_order() {
        use perm_types::PermError;
        let total = MORSEL_ROWS * 6;
        let ctx = QueryContext::detached();
        // Each morsel writes its index before it may fail: the failing
        // morsel's output is kept, nothing after it is.
        let (out, ran) = map_morsels(&ctx, 4, total, |r, out: &mut usize| {
            let idx = r.start / MORSEL_ROWS;
            *out = idx;
            if idx >= 2 {
                Err(PermError::Execution(format!("morsel {idx}")))
            } else {
                Ok(())
            }
        });
        assert_eq!(
            ran.unwrap_err(),
            PermError::Execution("morsel 2".to_string())
        );
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn map_morsels_stops_claiming_after_a_failure() {
        use perm_types::PermError;
        let ctx = QueryContext::detached();
        let ran_morsels = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&ran_morsels);
        let (_, ran) = map_morsels(&ctx, 1, MORSEL_ROWS * 8, move |r, _: &mut ()| {
            counted.fetch_add(1, Ordering::Relaxed);
            if r.start == MORSEL_ROWS {
                Err(PermError::Execution("row error".into()))
            } else {
                Ok(())
            }
        });
        assert!(ran.is_err());
        assert_eq!(
            ran_morsels.load(Ordering::Relaxed),
            2,
            "morsels ran past the failure"
        );
    }

    #[test]
    fn map_morsels_observes_cancellation_at_the_next_claim() {
        let ctx = QueryContext::new(7, None, None);
        ctx.handle().cancel();
        let (out, ran) = map_morsels(&ctx, 4, MORSEL_ROWS * 8, |_, _: &mut ()| Ok(()));
        let err = ran.unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(err.to_string().contains("query 7"), "{err}");
        assert_eq!(out.len(), 1, "only the cancelled morsel reports");
    }

    #[test]
    fn chunk_ranges_are_contiguous_and_cover() {
        for total in [0usize, 1, 5, 100, 101] {
            for dop in 1..6 {
                let ranges = chunk_ranges(total, dop);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, total);
            }
        }
    }
}
