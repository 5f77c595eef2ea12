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
//! * **Sort** (here, `sort_spill`) — external sort: contiguous runs are
//!   keyed, stably sorted and written out, then merged k-way with ties
//!   resolved toward the earlier run (= the serial stable order).
//!
//! While spilling, an operator's bounded working memory (one partition
//! at a time) is charged to the per-query cap only
//! ([`crate::memory::MemoryReservation::grow_unpooled`]): pool pressure
//! makes queries spill, never fail.

use perm_algebra::plan::SortKey;
use perm_storage::{SpillPartitions, SpillWriter};
use perm_types::{QueryContext, Result, Tuple, Value};

use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::Executor;
use crate::memory::MemoryReservation;
use crate::parallel::{chunk_ranges, cmp_keys, merge_runs, partition_of};

/// External sort: key + stably sort + spill contiguous runs, then k-way
/// merge. Runs cover the input in order, so key-evaluation errors
/// surface in input-row order exactly as the serial path raises them,
/// and merge ties resolve toward the earlier (lower-input-position) run,
/// matching the serial stable sort.
pub(crate) fn sort_spill(
    exec: &Executor,
    rows: Vec<Tuple>,
    keys: &[SortKey],
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    let outer = exec.outer_stack();
    let compiled: Vec<CompiledExpr> = keys
        .iter()
        .map(|k| CompiledExpr::compile(exec, &k.expr))
        .collect();
    let kn = keys.len();

    let mut writers: Vec<SpillWriter> = Vec::new();
    for range in chunk_ranges(rows.len(), parts) {
        // Run boundary: cancellation point (written runs are temp files
        // cleaned by Drop even on the early-return path).
        exec.check_cancelled()?;
        let mut charged = 0usize;
        let mut keyed: Vec<(Vec<Value>, &Tuple)> = Vec::with_capacity(range.len());
        for (ri, t) in rows[range].iter().enumerate() {
            // Masked cancellation check per 4096 keyed rows.
            if ri % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let env = Env::new(t, &outer);
            let mut ks = Vec::with_capacity(kn);
            // no-cancel: bounded by the sort-key count.
            for c in &compiled {
                ks.push(c.eval(exec, &env)?);
            }
            let bytes = t.size_bytes() + ks.iter().map(Value::size_bytes).sum::<usize>();
            res.grow_unpooled(bytes)?;
            charged += bytes;
            keyed.push((ks, t));
        }
        keyed.sort_by(|(a, _), (b, _)| cmp_keys(a, b, keys));
        let mut w = SpillWriter::create()?;
        for (wi, (ks, t)) in keyed.into_iter().enumerate() {
            // Masked cancellation check per 4096 written rows.
            if wi % 4096 == 0 {
                exec.check_cancelled()?;
            }
            // Composite record: the computed keys, then the row — split
            // back apart at read time.
            let composite: Tuple = ks.into_iter().chain(t.iter().cloned()).collect();
            w.push(0, &composite)?;
        }
        res.shrink(charged);
        writers.push(w);
    }
    drop(rows);

    // Merge: split each composite record back into (keys, row).
    let mut total = 0usize;
    let mut runs = Vec::with_capacity(writers.len());
    // no-cancel: opening the runs, bounded by the run count.
    for w in writers {
        let reader = w.into_reader()?;
        total += reader.remaining();
        runs.push(reader.map(move |rec| {
            let mut vals = rec?.1.into_values();
            let rest = vals.split_off(kn);
            Ok((vals, Tuple::new(rest)))
        }));
    }
    merge_runs(exec.context(), runs, keys, total)
}

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
    use crate::memory::{MemoryPool, QueryMemory};
    use crate::operators::setop::distinct_spill;
    use perm_storage::Catalog;
    use std::sync::Arc;

    // Spill files are process-global state: every test here takes
    // `perm_fault::test_guard()` so the clean-directory assertion of the
    // cancellation test cannot see a sibling's files.

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
    fn external_sort_matches_in_memory_stable_sort() {
        let _g = perm_fault::test_guard();
        let exec = Executor::new(Arc::new(Catalog::new()));
        let (_q, r) = res();
        let input = rows(&[5, 3, 8, 3, 1, 9, 3, 7, 2, 5, 0, 6]);
        let keys = vec![SortKey {
            expr: perm_algebra::expr::ScalarExpr::Column(1),
            desc: false,
        }];
        let mut expected = input.clone();
        expected.sort_by_key(|t| match t.get(1) {
            Value::Int(i) => *i,
            _ => unreachable!(),
        });
        let got = sort_spill(&exec, input, &keys, 4, &r).unwrap();
        assert_eq!(got, expected, "stable order must survive the spill");
        assert_eq!(r.size(), 0, "working memory fully released");
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
        let exec = Executor::new(Arc::new(Catalog::new()));
        let (_q, r) = res();
        assert!(sort_spill(&exec, Vec::new(), &[], 4, &r)
            .unwrap()
            .is_empty());
        assert!(distinct_spill(&QueryContext::detached(), Vec::new(), 4, &r)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cancelled_spill_sort_cleans_its_temp_files() {
        let _g = perm_fault::test_guard();
        let ctx = QueryContext::new(11, None, None);
        ctx.handle().cancel();
        let catalog = Arc::new(Catalog::new());
        let exec = Executor::new(catalog).with_context(ctx);
        let (_q, r) = res();
        let input = rows(&[5, 3, 8, 3, 1, 9, 3, 7, 2, 5, 0, 6]);
        let keys = vec![SortKey {
            expr: perm_algebra::expr::ScalarExpr::Column(1),
            desc: false,
        }];
        let err = sort_spill(&exec, input, &keys, 4, &r).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert_eq!(r.size(), 0, "working memory released on cancellation");
        assert!(
            perm_storage::spill_dir_is_clean(),
            "cancelled sort left spill temp files"
        );
    }
}
