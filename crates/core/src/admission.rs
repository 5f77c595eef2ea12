//! Admission control: the server-side gate between "query planned" and
//! "query running".
//!
//! Spilling ([`perm_exec::MemoryPool`]'s fair-spill policy) keeps any
//! *single* admitted query from failing under pool pressure, but it
//! cannot stop a stampede: enough concurrent queries all spilling at
//! once still thrash. The [`ResourceGovernor`] closes that gap the way
//! a real server does — queries whose estimated peak memory does not
//! fit the remaining budget (or that exceed the session's concurrency
//! cap) *queue* instead of starting, and only fail when the bounded
//! queue overflows or their wait times out.
//!
//! Accounting is by planner estimate ([`perm_exec::estimated_peak_bytes`]),
//! not live pool usage: a freshly admitted query has charged nothing
//! yet, so gating on `pool.used()` would admit a burst that the pool
//! then has to absorb all at once. Each [`AdmissionPermit`] holds its
//! query's estimate for the duration of execution (streams keep the
//! permit until the stream drops) and releases it — waking waiters — on
//! drop, error unwind included.
//!
//! A lone query is always admitted, whatever its estimate: with nothing
//! else running, spilling (not queueing) is the right response to a
//! too-big query, and refusing it would deadlock the queue.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use perm_exec::MemoryPool;
use perm_types::{PermError, QueryContext, Result};

/// Most queries that may wait for admission at once; one more fails
/// immediately instead of queueing.
pub const ADMISSION_QUEUE_BOUND: usize = 64;

#[derive(Debug, Default)]
struct AdmState {
    /// Queries currently admitted (holding a live permit).
    running: usize,
    /// Sum of the running queries' estimated peak bytes.
    admitted_bytes: u64,
    /// Tickets of the queries blocked in [`ResourceGovernor::admit`],
    /// in arrival order. Admission is strictly FIFO — only the head
    /// ticket may be admitted — so a query whose estimate needs the
    /// whole budget cannot be starved by a stream of smaller queries
    /// overtaking it: the pool drains behind it until it fits (a lone
    /// query always fits).
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// The per-server admission gate: the shared [`MemoryPool`] plus the
/// running/queued bookkeeping. One per [`crate::PermServer`],
/// shared (via `Arc`) by every session and live stream.
#[derive(Debug, Default)]
pub struct ResourceGovernor {
    pool: MemoryPool,
    state: Mutex<AdmState>,
    waiters: Condvar,
}

/// Mutex poisoning only happens if a thread panicked mid-update; the
/// counters are each updated atomically under the lock, so the state is
/// still consistent and waiters should keep going rather than cascade
/// the panic.
fn lock(state: &Mutex<AdmState>) -> MutexGuard<'_, AdmState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

impl ResourceGovernor {
    /// The server-wide execution memory pool this governor guards.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// Queries currently admitted (for tests and monitoring).
    pub fn running(&self) -> usize {
        lock(&self.state).running
    }

    /// Queries currently waiting for admission.
    pub fn waiting(&self) -> usize {
        lock(&self.state).queue.len()
    }

    fn fits(&self, st: &AdmState, estimate: u64, max_concurrent: usize) -> bool {
        if st.running == 0 {
            return true;
        }
        if max_concurrent > 0 && st.running >= max_concurrent {
            return false;
        }
        match self.pool.budget() {
            Some(budget) => st.admitted_bytes.saturating_add(estimate) <= budget as u64,
            None => true,
        }
    }

    /// Admit a query whose planner-estimated peak is `estimate` bytes,
    /// blocking (up to `timeout`) while the budget or the session's
    /// concurrency cap is saturated. Waiters are served FIFO. Errors are
    /// typed [`PermError::ResourceExhausted`]: immediately when the
    /// admission queue is full, otherwise only after the timeout.
    ///
    /// The wait is cancellable: a query cancelled (or whose stream is
    /// dropped) while still queued has its ticket removed immediately —
    /// waking the waiters behind it — and fails with the typed
    /// cancellation error instead of occupying a queue slot until its
    /// admission timeout.
    pub fn admit(
        self: &Arc<Self>,
        ctx: &QueryContext,
        estimate: u64,
        max_concurrent: usize,
        timeout: Duration,
    ) -> Result<AdmissionPermit> {
        ctx.check()?;
        perm_fault::exec_point("exec.admission.wait", "admission")?;
        let mut st = lock(&self.state);
        // Fast path: nobody queued ahead and the query fits now.
        if !(st.queue.is_empty() && self.fits(&st, estimate, max_concurrent)) {
            if st.queue.len() >= ADMISSION_QUEUE_BOUND {
                return Err(PermError::ResourceExhausted {
                    operator: format!("admission queue ({ADMISSION_QUEUE_BOUND} queries deep)"),
                    requested: estimate,
                    budget: self.pool.budget().unwrap_or(0) as u64,
                });
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back(ticket);
            let deadline = Instant::now() + timeout;
            // Condvar wakeups only fire when a permit drops; cancellation
            // can happen at any time, so wait in bounded slices and
            // re-check the context each wakeup.
            const CANCEL_SLICE: Duration = Duration::from_millis(10);
            let admitted = loop {
                if let Err(cancelled) = ctx.check() {
                    st.queue.retain(|t| *t != ticket);
                    drop(st);
                    // The next ticket may be admissible now that this one
                    // stopped blocking the head of the queue.
                    self.waiters.notify_all();
                    return Err(cancelled);
                }
                if st.queue.front() == Some(&ticket) && self.fits(&st, estimate, max_concurrent) {
                    st.queue.pop_front();
                    break true;
                }
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break false;
                };
                let (guard, _) = self
                    .waiters
                    .wait_timeout(st, left.min(CANCEL_SLICE))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            };
            if !admitted {
                st.queue.retain(|t| *t != ticket);
                drop(st);
                // The next ticket may be admissible now that this one
                // stopped blocking the head of the queue.
                self.waiters.notify_all();
                return Err(PermError::ResourceExhausted {
                    operator: format!("admission (timed out after {} ms)", timeout.as_millis()),
                    requested: estimate,
                    budget: self.pool.budget().unwrap_or(0) as u64,
                });
            }
        }
        st.running += 1;
        st.admitted_bytes = st.admitted_bytes.saturating_add(estimate);
        drop(st);
        // Capacity may remain for the (new) head waiter.
        self.waiters.notify_all();
        Ok(AdmissionPermit {
            governor: Arc::clone(self),
            estimate,
        })
    }
}

/// Proof that a query was admitted; holds its estimated peak bytes
/// against the governor until dropped (materialized queries drop it
/// when execution returns, streams when the [`crate::RowStream`]
/// drops).
#[derive(Debug)]
pub struct AdmissionPermit {
    governor: Arc<ResourceGovernor>,
    estimate: u64,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut st = lock(&self.governor.state);
        st.running -= 1;
        st.admitted_bytes = st.admitted_bytes.saturating_sub(self.estimate);
        drop(st);
        self.governor.waiters.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(budget: Option<usize>) -> Arc<ResourceGovernor> {
        let g = Arc::new(ResourceGovernor::default());
        g.pool().set_budget(budget);
        g
    }

    fn detached() -> QueryContext {
        QueryContext::detached()
    }

    #[test]
    fn unbounded_governor_admits_everything() {
        let g = governor(None);
        let a = g.admit(&detached(), u64::MAX, 0, Duration::ZERO).unwrap();
        let b = g.admit(&detached(), u64::MAX, 0, Duration::ZERO).unwrap();
        assert_eq!(g.running(), 2);
        drop((a, b));
        assert_eq!(g.running(), 0);
    }

    #[test]
    fn lone_query_is_admitted_over_budget() {
        let g = governor(Some(100));
        let big = g.admit(&detached(), 1_000_000, 0, Duration::ZERO).unwrap();
        assert_eq!(g.running(), 1, "running==0 always admits");
        drop(big);
    }

    #[test]
    fn over_budget_follower_times_out_with_typed_error() {
        let g = governor(Some(100));
        let _first = g.admit(&detached(), 80, 0, Duration::ZERO).unwrap();
        let err = g
            .admit(&detached(), 80, 0, Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err.kind(), "resource");
        assert!(err.message().contains("admission"), "{err}");
        assert!(err.message().contains("80 bytes"), "{err}");
        assert_eq!(g.waiting(), 0, "waiter is deregistered after timeout");
    }

    #[test]
    fn concurrency_cap_queues_until_a_permit_frees() {
        let g = governor(None);
        let first = g.admit(&detached(), 0, 1, Duration::ZERO).unwrap();
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || {
            g2.admit(&detached(), 0, 1, Duration::from_secs(30))
                .map(drop)
        });
        while g.waiting() == 0 {
            std::thread::yield_now();
        }
        drop(first);
        waiter.join().unwrap().unwrap();
        assert_eq!(g.running(), 0);
    }

    #[test]
    fn released_budget_admits_the_next_query() {
        let g = governor(Some(100));
        let first = g.admit(&detached(), 90, 0, Duration::ZERO).unwrap();
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || {
            g2.admit(&detached(), 90, 0, Duration::from_secs(30))
                .map(drop)
        });
        while g.waiting() == 0 {
            std::thread::yield_now();
        }
        drop(first);
        waiter.join().unwrap().unwrap();
    }

    /// Regression (issue 10): a query cancelled while still *queued* —
    /// e.g. its `RowStream` future was dropped, which cancels the
    /// context — must leave the FIFO queue immediately. Before the fix
    /// the dead ticket sat at the head until its admission timeout,
    /// starving every waiter behind it.
    #[test]
    fn cancelled_queued_query_frees_the_slot_for_the_next_waiter() {
        let g = governor(None);
        // Saturate the concurrency cap so followers queue.
        let first = g.admit(&detached(), 0, 1, Duration::ZERO).unwrap();

        // Head-of-queue waiter that gets cancelled while queued.
        let cancelled_ctx = QueryContext::new(1, None, None);
        let handle = cancelled_ctx.handle();
        let g2 = Arc::clone(&g);
        let doomed = std::thread::spawn(move || {
            g2.admit(&cancelled_ctx, 0, 1, Duration::from_secs(30))
                .map(drop)
        });
        while g.waiting() == 0 {
            std::thread::yield_now();
        }

        // Second waiter, behind the doomed one in FIFO order.
        let g3 = Arc::clone(&g);
        let next = std::thread::spawn(move || {
            g3.admit(&detached(), 0, 1, Duration::from_secs(30))
                .map(drop)
        });
        while g.waiting() < 2 {
            std::thread::yield_now();
        }

        // Cancel the head waiter: it must fail typed and leave the queue
        // without waiting out its 30s admission timeout.
        handle.cancel();
        let err = doomed.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        while g.waiting() > 1 {
            std::thread::yield_now();
        }

        // With the dead ticket gone, releasing the running permit admits
        // the surviving waiter promptly.
        drop(first);
        next.join().unwrap().unwrap();
        assert_eq!(g.running(), 0);
        assert_eq!(g.waiting(), 0, "no ghost tickets left behind");
    }
}
