//! Tracked execution memory: the server-wide pool, per-query views of
//! it, and the operator reservations that grow and shrink as tuples are
//! buffered.
//!
//! The model is three layers:
//!
//! * [`MemoryPool`] — one per server: a total byte budget shared by every
//!   concurrently running query. Cloning shares the pool (handles are
//!   `Arc`-backed); the default pool is unbounded.
//! * [`QueryMemory`] — one per query execution: the pool handle plus an
//!   optional per-query cap and the query's own used/peak counters.
//!   Cloning shares the counters, so DOP>1 chunk workers charging through
//!   clones are accounted together.
//! * [`MemoryReservation`] — one per buffering operator instance, handed
//!   out by [`QueryMemory::register`]. Operators [`try_grow`] as they
//!   buffer tuples and the reservation releases everything it still
//!   holds when dropped — including on error unwind — so the pool always
//!   drains back to zero after a query, however it ended.
//!
//! **Fair-spill policy.** A denied grow is not an error: it is the signal
//! to switch to the operator's spilling code path
//! (`crate::operators::spill`). Whichever query happens to push the
//! pool over its budget is the one that spills — memory already granted
//! is never revoked, so earlier reservations keep running in memory.
//! Once spilling, an operator's bounded per-partition working memory is
//! charged against the *per-query* cap only ([`try_grow_unpooled`]):
//! pool pressure makes queries spill, never fail. Only a query that
//! cannot fit even its spill working set under its own cap — or an
//! operator the planner marked non-spillable — surfaces
//! [`PermError::ResourceExhausted`], naming the operator and both byte
//! counts.
//!
//! [`try_grow`]: MemoryReservation::try_grow
//! [`try_grow_unpooled`]: MemoryReservation::try_grow_unpooled

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perm_types::{PermError, Result};

/// Byte budgets use `usize::MAX` as "unbounded".
const UNBOUNDED: usize = usize::MAX;

#[derive(Debug)]
struct PoolInner {
    budget: AtomicUsize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

/// A shared byte budget for execution memory. Cheap to clone (clones
/// share the counters); thread-safe.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl Default for MemoryPool {
    fn default() -> MemoryPool {
        MemoryPool::unbounded()
    }
}

fn raise_peak(peak: &AtomicUsize, candidate: usize) {
    let mut cur = peak.load(Ordering::Relaxed);
    while candidate > cur {
        match peak.compare_exchange_weak(cur, candidate, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// Charge `bytes` against `(used, budget)`, returning false on denial.
fn try_charge(used: &AtomicUsize, peak: &AtomicUsize, budget: usize, bytes: usize) -> bool {
    let mut cur = used.load(Ordering::Relaxed);
    loop {
        let Some(next) = cur.checked_add(bytes) else {
            return false;
        };
        if next > budget {
            return false;
        }
        match used.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                raise_peak(peak, next);
                return true;
            }
            Err(actual) => cur = actual,
        }
    }
}

fn release(used: &AtomicUsize, bytes: usize) {
    let prev = used.fetch_sub(bytes, Ordering::Relaxed);
    debug_assert!(prev >= bytes, "memory accounting released more than held");
}

impl MemoryPool {
    /// A pool with no budget: every grow succeeds (but is still tracked).
    pub fn unbounded() -> MemoryPool {
        MemoryPool::with_budget(UNBOUNDED)
    }

    /// A pool capped at `bytes` (use [`MemoryPool::unbounded`] for none).
    pub fn with_budget(bytes: usize) -> MemoryPool {
        MemoryPool {
            inner: Arc::new(PoolInner {
                budget: AtomicUsize::new(bytes),
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    /// Change the budget. Takes effect for future grows; memory already
    /// granted is never revoked.
    pub fn set_budget(&self, bytes: Option<usize>) {
        self.inner
            .budget
            .store(bytes.unwrap_or(UNBOUNDED), Ordering::Relaxed);
    }

    /// The budget, or `None` when unbounded.
    pub fn budget(&self) -> Option<usize> {
        match self.inner.budget.load(Ordering::Relaxed) {
            UNBOUNDED => None,
            b => Some(b),
        }
    }

    /// Bytes currently reserved across all queries.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of [`MemoryPool::used`] since creation.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    fn try_reserve(&self, bytes: usize) -> bool {
        try_charge(
            &self.inner.used,
            &self.inner.peak,
            self.inner.budget.load(Ordering::Relaxed),
            bytes,
        )
    }

    fn release(&self, bytes: usize) {
        release(&self.inner.used, bytes);
    }
}

#[derive(Debug)]
struct QueryInner {
    pool: MemoryPool,
    cap: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

/// One query's view of the memory pool: the shared pool handle plus an
/// optional per-query cap and per-query counters. Clones share state, so
/// a reservation registered here and cloned into DOP>1 workers charges
/// one set of books.
#[derive(Debug, Clone)]
pub struct QueryMemory {
    inner: Arc<QueryInner>,
}

impl Default for QueryMemory {
    fn default() -> QueryMemory {
        QueryMemory::new(MemoryPool::unbounded(), None)
    }
}

impl QueryMemory {
    /// A query view over `pool`, optionally capped at `cap` bytes.
    pub fn new(pool: MemoryPool, cap: Option<usize>) -> QueryMemory {
        QueryMemory {
            inner: Arc::new(QueryInner {
                pool,
                cap: cap.unwrap_or(UNBOUNDED),
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    /// The per-query cap, or `None` when unbounded.
    pub fn cap(&self) -> Option<usize> {
        match self.inner.cap {
            UNBOUNDED => None,
            c => Some(c),
        }
    }

    /// The pool this query draws from.
    pub fn pool(&self) -> &MemoryPool {
        &self.inner.pool
    }

    /// Bytes this query currently holds (pooled + unpooled).
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of [`QueryMemory::used`].
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Hand out a reservation for one buffering operator. `operator` is
    /// the name a denial surfaces in [`PermError::ResourceExhausted`].
    pub fn register(&self, operator: &str) -> MemoryReservation {
        MemoryReservation {
            inner: Arc::new(ReservationInner {
                query: Arc::clone(&self.inner),
                operator: operator.to_string(),
                pooled: AtomicUsize::new(0),
                unpooled: AtomicUsize::new(0),
            }),
        }
    }
}

/// Which budget denied a grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeniedBy {
    /// The shared pool is full: spill, don't fail.
    Pool,
    /// The per-query cap is exceeded: this query is over its own limit.
    QueryCap,
}

/// A denied grow: the byte counts [`PermError::ResourceExhausted`] needs,
/// plus which layer said no (pool denials should spill, cap denials are
/// the query's own fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryDenied {
    pub operator: String,
    pub requested: u64,
    pub budget: u64,
    pub denied_by: DeniedBy,
}

impl MemoryDenied {
    /// The typed error a denial surfaces as when spilling is impossible.
    pub fn into_error(self) -> PermError {
        PermError::ResourceExhausted {
            operator: self.operator,
            requested: self.requested,
            budget: self.budget,
        }
    }
}

#[derive(Debug)]
struct ReservationInner {
    query: Arc<QueryInner>,
    operator: String,
    /// Bytes charged to both the query and the pool.
    pooled: AtomicUsize,
    /// Bytes charged to the query only (spill-mode working memory).
    unpooled: AtomicUsize,
}

/// One operator's tracked memory. Clones share the underlying accounting;
/// the last clone to drop releases whatever is still held. Operators
/// charge on the calling thread, so workers never hold one.
#[derive(Debug, Clone)]
pub struct MemoryReservation {
    inner: Arc<ReservationInner>,
}

impl MemoryReservation {
    /// The operator name denials report.
    pub fn operator(&self) -> &str {
        &self.inner.operator
    }

    /// Bytes this reservation currently holds.
    pub fn size(&self) -> usize {
        self.inner.pooled.load(Ordering::Relaxed) + self.inner.unpooled.load(Ordering::Relaxed)
    }

    fn denied(&self, requested: usize, budget: usize, denied_by: DeniedBy) -> MemoryDenied {
        MemoryDenied {
            operator: self.inner.operator.clone(),
            requested: requested as u64,
            budget: budget as u64,
            denied_by,
        }
    }

    /// Charge `bytes` against the per-query cap *and* the shared pool.
    /// A denial charges nothing and names the layer that refused.
    pub fn try_grow(&self, bytes: usize) -> std::result::Result<(), MemoryDenied> {
        // Chaos site: an injected denial drives the same spill/deny
        // machinery as real pool pressure; a stall holds an allocation
        // mid-flight so cancellation under memory pressure is exercised.
        match perm_fault::hit("exec.memory.grow") {
            Some(perm_fault::FailAction::Stall(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            Some(perm_fault::FailAction::Panic) => {
                panic!("failpoint exec.memory.grow: injected panic")
            }
            Some(_) => return Err(self.denied(bytes, 0, DeniedBy::Pool)),
            None => {}
        }
        let q = &self.inner.query;
        if !try_charge(&q.used, &q.peak, q.cap, bytes) {
            return Err(self.denied(bytes, q.cap, DeniedBy::QueryCap));
        }
        if !q.pool.try_reserve(bytes) {
            release(&q.used, bytes);
            let budget = q.pool.budget().unwrap_or(UNBOUNDED);
            return Err(self.denied(bytes, budget, DeniedBy::Pool));
        }
        self.inner.pooled.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Charge `bytes` against the per-query cap only — the bounded
    /// working memory of a spilling operator. Pool pressure never denies
    /// this; only the query's own cap can.
    pub fn try_grow_unpooled(&self, bytes: usize) -> std::result::Result<(), MemoryDenied> {
        let q = &self.inner.query;
        if !try_charge(&q.used, &q.peak, q.cap, bytes) {
            return Err(self.denied(bytes, q.cap, DeniedBy::QueryCap));
        }
        self.inner.unpooled.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// [`MemoryReservation::try_grow_unpooled`], surfacing a denial as
    /// the typed [`PermError::ResourceExhausted`].
    pub fn grow_unpooled(&self, bytes: usize) -> Result<()> {
        self.try_grow_unpooled(bytes)
            .map_err(MemoryDenied::into_error)
    }

    /// Give back `bytes` (saturating at what is held; unpooled working
    /// memory is released first).
    pub fn shrink(&self, bytes: usize) {
        let mut left = bytes;
        let unpooled = self.inner.unpooled.load(Ordering::Relaxed).min(left);
        if unpooled > 0 {
            self.inner.unpooled.fetch_sub(unpooled, Ordering::Relaxed);
            release(&self.inner.query.used, unpooled);
            left -= unpooled;
        }
        let pooled = self.inner.pooled.load(Ordering::Relaxed).min(left);
        if pooled > 0 {
            self.inner.pooled.fetch_sub(pooled, Ordering::Relaxed);
            self.inner.query.pool.release(pooled);
            release(&self.inner.query.used, pooled);
        }
    }

    /// Release everything this reservation holds (also done on drop).
    pub fn free(&self) {
        let pooled = self.inner.pooled.swap(0, Ordering::Relaxed);
        let unpooled = self.inner.unpooled.swap(0, Ordering::Relaxed);
        if pooled > 0 {
            self.inner.query.pool.release(pooled);
        }
        if pooled + unpooled > 0 {
            release(&self.inner.query.used, pooled + unpooled);
        }
    }
}

impl Drop for ReservationInner {
    fn drop(&mut self) {
        let pooled = *self.pooled.get_mut();
        let unpooled = *self.unpooled.get_mut();
        if pooled > 0 {
            self.query.pool.release(pooled);
        }
        if pooled + unpooled > 0 {
            release(&self.query.used, pooled + unpooled);
        }
    }
}

/// Grow `reservation` in batches while iterating `sizes`, so buffering
/// operators charge as they go rather than all-or-nothing. Returns the
/// total bytes charged, or the first denial (everything charged so far
/// stays on the reservation — callers free it when switching to spill).
pub(crate) fn grow_batched(
    reservation: &MemoryReservation,
    sizes: impl Iterator<Item = usize>,
) -> std::result::Result<usize, MemoryDenied> {
    const BATCH: usize = 64 * 1024;
    let mut pending = 0usize;
    let mut total = 0usize;
    for s in sizes {
        pending += s;
        if pending >= BATCH {
            reservation.try_grow(pending)?;
            total += pending;
            pending = 0;
        }
    }
    if pending > 0 {
        reservation.try_grow(pending)?;
        total += pending;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_tracks_used_and_peak() {
        let pool = MemoryPool::with_budget(1000);
        let q = QueryMemory::new(pool.clone(), None);
        let r = q.register("op");
        r.try_grow(400).unwrap();
        r.try_grow(500).unwrap();
        assert_eq!(pool.used(), 900);
        let denial = r.try_grow(200).unwrap_err();
        assert_eq!(denial.denied_by, DeniedBy::Pool);
        assert_eq!(denial.requested, 200);
        assert_eq!(denial.budget, 1000);
        r.shrink(300);
        assert_eq!(pool.used(), 600);
        r.try_grow(200).unwrap();
        drop(r);
        drop(q);
        assert_eq!(pool.used(), 0, "drop releases everything");
        assert_eq!(pool.peak(), 900);
    }

    #[test]
    fn query_cap_denies_before_the_pool() {
        let pool = MemoryPool::with_budget(10_000);
        let q = QueryMemory::new(pool.clone(), Some(100));
        let r = q.register("HashAggregate");
        let denial = r.try_grow(150).unwrap_err();
        assert_eq!(denial.denied_by, DeniedBy::QueryCap);
        assert_eq!(denial.budget, 100);
        let err = denial.into_error();
        assert_eq!(err.kind(), "resource");
        assert!(err.message().contains("HashAggregate"), "{err}");
        assert_eq!(pool.used(), 0, "denial charges nothing");
    }

    #[test]
    fn unpooled_growth_ignores_pool_pressure() {
        let pool = MemoryPool::with_budget(10);
        let q = QueryMemory::new(pool.clone(), None);
        let r = q.register("Sort");
        assert!(r.try_grow(100).is_err(), "pool denies");
        r.try_grow_unpooled(100).unwrap();
        assert_eq!(pool.used(), 0, "unpooled memory is not pool-charged");
        assert_eq!(q.used(), 100);
        r.free();
        assert_eq!(q.used(), 0);
    }

    #[test]
    fn clones_share_accounting_across_threads() {
        let pool = MemoryPool::with_budget(100_000);
        let q = QueryMemory::new(pool.clone(), None);
        let r = q.register("HashAggregate");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.try_grow(10).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.size(), 4000);
        assert_eq!(pool.used(), 4000);
        drop(r);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn batched_growth_stops_at_denial_without_losing_accounting() {
        let pool = MemoryPool::with_budget(100 * 1024);
        let q = QueryMemory::new(pool.clone(), None);
        let r = q.register("HashJoin build");
        let denial = grow_batched(&r, std::iter::repeat_n(1024, 1024)).unwrap_err();
        assert_eq!(denial.denied_by, DeniedBy::Pool);
        assert!(pool.used() <= 100 * 1024);
        assert!(pool.used() > 0, "earlier batches stay charged");
        r.free();
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn set_budget_applies_to_future_grows() {
        let pool = MemoryPool::unbounded();
        assert_eq!(pool.budget(), None);
        let q = QueryMemory::new(pool.clone(), None);
        let r = q.register("op");
        r.try_grow(500).unwrap();
        pool.set_budget(Some(600));
        assert!(r.try_grow(200).is_err());
        assert_eq!(pool.used(), 500, "granted memory is never revoked");
    }
}
