//! Spill-to-disk execution for buffering operators.
//!
//! When a buffering operator's memory reservation is denied
//! ([`crate::memory`]), it switches to a partitioned on-disk driver built
//! on [`perm_storage::spill`]'s length-prefixed row files. The contract is
//! exact equivalence: a spilled execution produces the same rows, in the
//! same order, raising the same errors, as the in-memory path it
//! replaces. For the hash operators that holds by construction — the
//! spilled driver feeds the *same kernel* the serial and parallel drivers
//! run, one partition at a time, and
//! [`restore_order`](crate::parallel::restore_order) sorts the tagged
//! output back into input order:
//!
//! * **Distinct** and **set operations** ([`super::setop`]) — rows
//!   scatter by their own hash ([`scatter_tagged`], here) tagged with
//!   their input position; each partition streams back through
//!   `keep_first` / `setop_kernel`.
//! * **Hash join** ([`super::join`]) — Grace join: both sides scatter by
//!   key hash, each partition rebuilds its table and runs the one probe
//!   kernel over probe rows tagged with their input position.
//! * **Aggregation** ([`super::aggregate`]) — input partitions by
//!   group-key hash; groups track their first input position and the
//!   output sorts by it, recovering first-appearance order.
//! * **Sort** ([`super::sort`]) — external sort: contiguous runs are
//!   keyed, stably sorted and written out, then merged k-way with ties
//!   resolved toward the earlier run (= the serial stable order).
//!
//! While spilling, an operator's bounded working memory (one partition
//! at a time) is charged to the per-query cap only
//! ([`crate::memory::MemoryReservation::grow_unpooled`]): pool pressure
//! makes queries spill, never fail.

use perm_storage::SpillPartitions;
use perm_types::{QueryContext, Result, Tuple};

use crate::parallel::partition_of;

/// Scatter `rows` into `parts` partition files by row hash, tagging each
/// with `offset +` its input position — the on-disk mirror of
/// [`crate::parallel::partition_tagged`]. Equal rows colocate and every
/// partition reads back in tag order.
pub(super) fn scatter_tagged(
    ctx: &QueryContext,
    rows: Vec<Tuple>,
    offset: u64,
    parts: usize,
) -> Result<SpillPartitions> {
    let mut files = SpillPartitions::create(parts)?;
    for (i, t) in rows.iter().enumerate() {
        // Masked cancellation check per 4096 scattered rows.
        if i % 4096 == 0 {
            ctx.check()?;
        }
        files.push(partition_of(t, parts), offset + i as u64, t)?;
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemoryPool, MemoryReservation, QueryMemory};
    use crate::operators::setop::distinct_spill;
    use perm_types::Value;

    // Spill files are process-global state: every test here takes
    // `perm_fault::test_guard()` so a sibling's clean-directory assertion
    // cannot see these files.

    fn res() -> (QueryMemory, MemoryReservation) {
        let q = QueryMemory::new(MemoryPool::with_budget(1), None);
        let r = q.register("test");
        (q, r)
    }

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v), Value::Int(v % 3)]))
            .collect()
    }

    #[test]
    fn spilled_distinct_keeps_first_occurrence_order() {
        let _g = perm_fault::test_guard();
        let (_q, r) = res();
        let input = rows(&[4, 1, 4, 2, 1, 3, 2, 4]);
        let got = distinct_spill(&QueryContext::detached(), input, 3, &r).unwrap();
        assert_eq!(got, rows(&[4, 1, 2, 3]));
        assert_eq!(r.size(), 0);
    }

    #[test]
    fn empty_input_spills_to_empty_output() {
        let _g = perm_fault::test_guard();
        let (_q, r) = res();
        assert!(distinct_spill(&QueryContext::detached(), Vec::new(), 4, &r)
            .unwrap()
            .is_empty());
    }
}
