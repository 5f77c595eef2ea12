//! Sorting.
//!
//! The body is [`SortRun`]: the sort keys compiled once, with the
//! batch-or-row decision ([`crate::kernels::batched`]), and
//! [`SortRun::run`], which keys one contiguous run of rows — a batch at a
//! time through the kernels, row by row when the keys do not run batches
//! or the kernels abort — and stably sorts it. The drivers in
//! [`run_sort`] only decide what the runs are: the whole input (serial:
//! nothing to merge), one run per chunk on the pool (`dop > 1`) or one
//! run per spill file (reservation denied), the latter two put together
//! by [`SortRun::merge_runs`]. Runs cover the input in order and the
//! merge resolves ties toward the earlier run, so any split reproduces
//! the single stable sort, and a key-evaluation error is raised at the
//! row serial execution fails on.

use std::borrow::Borrow;
use std::sync::Arc;

use perm_algebra::plan::SortKey;
use perm_storage::SpillWriter;
use perm_types::{QueryContext, Result, Tuple, Value};

use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::Executor;
use crate::kernels::{self, BATCH_ROWS};
use crate::memory::MemoryReservation;
use crate::operators::spill::{charge_input, Backing};
use crate::parallel::{chunk_ranges, map_chunks};
use crate::physical::PhysicalPlan;

/// A row with its evaluated sort keys.
pub(super) type Keyed = (Vec<Value>, Tuple);

pub(crate) fn run_sort(
    exec: &Executor,
    input: &PhysicalPlan,
    keys: &[SortKey],
    dop: usize,
    spill: bool,
) -> Result<Vec<Tuple>> {
    let rows = exec.run_physical(input)?;
    let sorter = SortRun::compile(exec, keys);
    // The sort buffer holds every input row plus its computed keys:
    // charge input bytes, as the hash operators do; a denial switches to
    // the external run-sort + k-way merge, one run per spill partition.
    let reservation = exec.memory().register("Sort");
    let sizes = rows.iter().map(Tuple::size_bytes);
    if let Some(Backing::Disk(_, runs)) = charge_input(&reservation, sizes, rows.len(), 1, spill)? {
        return sort_spill(exec, &sorter, rows, runs, &reservation);
    }
    if dop > 1 {
        // Workers key and stably sort contiguous chunks; the serial k-way
        // merge rebuilds exactly the order the serial stable sort produces.
        let total = rows.len();
        let worker = exec.worker_factory();
        let sorter = Arc::new(sorter);
        let chunk_sorter = Arc::clone(&sorter);
        let chunks = map_chunks(exec.context(), dop, total, move |range| {
            let run = chunk_sorter.run(&worker(), rows[range].iter().collect())?;
            Ok(run.into_iter().map(|(ks, t)| (ks, t.clone())).collect())
        })?;
        let runs = chunks
            .into_iter()
            .map(|c: Vec<Keyed>| c.into_iter().map(Ok))
            .collect();
        return sorter.merge_runs(exec.context(), runs, total);
    }
    let run = sorter.run(exec, rows)?;
    Ok(run.into_iter().map(|(_, t)| t).collect())
}

/// The compiled sort keys of one `Sort` node.
pub(super) struct SortRun {
    /// One compiled expression and one descending flag per sort key.
    compiled: Vec<CompiledExpr>,
    desc: Vec<bool>,
    /// Key whole batches through the kernels.
    pub(super) batched: bool,
    params: Arc<[Value]>,
}

impl SortRun {
    pub(super) fn compile(exec: &Executor, keys: &[SortKey]) -> SortRun {
        let compiled: Vec<CompiledExpr> = keys
            .iter()
            .map(|k| CompiledExpr::compile(exec, &k.expr))
            .collect();
        SortRun {
            desc: keys.iter().map(|k| k.desc).collect(),
            batched: kernels::batched(exec.columnar(), &compiled),
            compiled,
            params: exec.params(),
        }
    }

    /// Key every row of one run, in order, then stably sort the run. The
    /// run is borrowed (`&Tuple`: chunk and spill drivers) or owned
    /// (`Tuple`: the serial driver, whose rows move through the sort).
    pub(super) fn run<R: Borrow<Tuple>>(
        &self,
        exec: &Executor,
        rows: Vec<R>,
    ) -> Result<Vec<(Vec<Value>, R)>> {
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        let mut batch: Vec<&Tuple> = Vec::new();
        for chunk in rows.chunks(BATCH_ROWS) {
            // Batch boundary: cancellation point.
            exec.check_cancelled()?;
            let cols = if self.batched {
                batch.clear();
                batch.extend(chunk.iter().map(Borrow::borrow));
                kernels::eval_all(exec, &self.compiled, &batch, &self.params).ok()
            } else {
                None
            };
            match cols {
                Some(cols) => {
                    keys.extend((0..chunk.len()).map(|i| cols.iter().map(|c| c.get(i)).collect()))
                }
                // Row keys, or the kernels aborted: the row interpreter raises
                // the batch's first error in row order.
                None => {
                    // no-cancel: one batch, bounded by BATCH_ROWS.
                    for t in chunk {
                        let env = Env::new(t.borrow(), &self.params);
                        let ks = self.compiled.iter().map(|c| c.eval(exec, &env));
                        keys.push(ks.collect::<Result<_>>()?);
                    }
                }
            }
        }
        let mut keyed: Vec<(Vec<Value>, R)> = keys.into_iter().zip(rows).collect();
        keyed.sort_by(|(a, _), (b, _)| self.cmp(a, b));
        Ok(keyed)
    }

    /// The sort order over evaluated key rows — the single definition,
    /// shared by the run sort and the merge so the two can never drift
    /// apart.
    fn cmp(&self, a: &[Value], b: &[Value]) -> std::cmp::Ordering {
        // no-cancel: bounded by the (tiny) sort-key count.
        for (i, &desc) in self.desc.iter().enumerate() {
            let ord = a[i].sort_cmp(&b[i]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Stable k-way merge of sorted runs: smallest key wins, ties take the
    /// earlier run (runs cover the input in order, so this reproduces the
    /// stable serial order). The run count is small (≤ dop or the spill
    /// fanout), so a linear scan of the heads beats heap bookkeeping.
    pub(super) fn merge_runs<I>(
        &self,
        ctx: &QueryContext,
        mut runs: Vec<I>,
        capacity: usize,
    ) -> Result<Vec<Tuple>>
    where
        I: Iterator<Item = Result<Keyed>>,
    {
        let mut heads: Vec<Option<Keyed>> = Vec::with_capacity(runs.len());
        // no-cancel: head priming, bounded by the run count.
        for run in &mut runs {
            heads.push(run.next().transpose()?);
        }
        let mut out = Vec::with_capacity(capacity);
        loop {
            // Masked cancellation check: once per 4096 merged rows keeps the
            // hot merge loop cheap while still bounding cancel latency.
            if out.len() % 4096 == 0 {
                ctx.check()?;
            }
            let mut best: Option<(usize, &[Value])> = None;
            // no-cancel: head scan, bounded by the run count.
            for (i, head) in heads.iter().enumerate() {
                let Some((hk, _)) = head else { continue };
                if best.is_none_or(|(_, bk)| self.cmp(hk, bk) == std::cmp::Ordering::Less) {
                    best = Some((i, hk));
                }
            }
            let Some((b, _)) = best else { break };
            if let Some((_, row)) = heads[b].take() {
                out.push(row);
            }
            heads[b] = runs[b].next().transpose()?;
        }
        Ok(out)
    }
}

/// External sort: sort + spill contiguous runs, then k-way merge. A run's
/// rows and keys are charged to the per-query cap while it is in memory.
fn sort_spill(
    exec: &Executor,
    sorter: &SortRun,
    rows: Vec<Tuple>,
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    let kn = sorter.desc.len();
    let mut writers: Vec<SpillWriter> = Vec::new();
    for range in chunk_ranges(rows.len(), parts) {
        // Run boundary: cancellation point (written runs are temp files
        // cleaned by Drop even on the early-return path).
        exec.check_cancelled()?;
        let keyed = sorter.run(exec, rows[range].iter().collect())?;
        let charged: usize = keyed
            .iter()
            .map(|(ks, t)| t.size_bytes() + ks.iter().map(Value::size_bytes).sum::<usize>())
            .sum();
        res.grow_unpooled(charged)?;
        let mut w = SpillWriter::create()?;
        for (wi, (ks, t)) in keyed.into_iter().enumerate() {
            // Masked cancellation check per 4096 written rows.
            if wi % 4096 == 0 {
                exec.check_cancelled()?;
            }
            // Composite record: the computed keys, then the row — split
            // back apart at read time.
            let composite: Tuple = ks.into_iter().chain(t.iter().cloned()).collect();
            w.push(0, composite.iter())?;
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
    sorter.merge_runs(exec.context(), runs, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemoryPool, QueryMemory};
    use perm_algebra::expr::ScalarExpr;
    use perm_storage::Catalog;

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

    fn by_second_column() -> Vec<SortKey> {
        vec![SortKey {
            expr: ScalarExpr::Column(1),
            desc: false,
        }]
    }

    #[test]
    fn external_sort_matches_in_memory_stable_sort() {
        let _g = perm_fault::test_guard();
        let exec = Executor::new(Arc::new(Catalog::new()));
        let (_q, r) = res();
        let input = rows(&[5, 3, 8, 3, 1, 9, 3, 7, 2, 5, 0, 6]);
        let sorter = SortRun::compile(&exec, &by_second_column());
        let mut expected = input.clone();
        expected.sort_by_key(|t| match t.get(1) {
            Value::Int(i) => *i,
            _ => unreachable!(),
        });
        let got = sort_spill(&exec, &sorter, input, 4, &r).unwrap();
        assert_eq!(got, expected, "stable order must survive the spill");
        assert_eq!(r.size(), 0, "working memory fully released");
    }

    #[test]
    fn empty_input_spills_to_empty_output() {
        let _g = perm_fault::test_guard();
        let exec = Executor::new(Arc::new(Catalog::new()));
        let (_q, r) = res();
        let sorter = SortRun::compile(&exec, &[]);
        assert!(sort_spill(&exec, &sorter, Vec::new(), 4, &r)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cancelled_spill_sort_cleans_its_temp_files() {
        let _g = perm_fault::test_guard();
        let ctx = QueryContext::new(11, None, None);
        ctx.handle().cancel();
        let exec = Executor::new(Arc::new(Catalog::new())).with_context(ctx);
        let (_q, r) = res();
        let input = rows(&[5, 3, 8, 3, 1, 9, 3, 7, 2, 5, 0, 6]);
        let sorter = SortRun::compile(&exec, &by_second_column());
        let err = sort_spill(&exec, &sorter, input, 4, &r).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert_eq!(r.size(), 0, "working memory released on cancellation");
        assert!(
            perm_storage::spill_dir_is_clean(),
            "cancelled sort left spill temp files"
        );
    }
}
