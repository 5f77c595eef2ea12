//! The partition driver of the hash operators, and their spill to disk.
//!
//! A hash operator runs partitioned when its node is parallel or its
//! memory reservation was denied ([`crate::memory`]) on a may-spill node.
//! It supplies a *key* (a row's partition) and its one *body* (the kernel,
//! over one partition) as a [`Partitioned`], and [`partitioned`]:
//!
//! 1. scatters one or two inputs into hash partitions, each row tagged
//!    with its input position; a key error stops the scatter;
//! 2. runs the body on each partition — in memory, concurrently on the
//!    pool ([`Backing::Pool`]), or on disk ([`Backing::Disk`], through
//!    [`perm_storage::SpillPartitions`]), streamed back one partition at
//!    a time, the body charging what it keeps to the per-query cap only;
//! 3. keeps the error with the smallest position, the one serial
//!    execution raises first;
//! 4. restores input order ([`restore_order`]).
//!
//! The body is generic over its row streams, so each backing runs its
//! own compiled copy. The serial driver runs the same body over the whole
//! input as one partition, so a partitioned run returns its rows, order
//! and first error. The fanout is the driver's: `dop` in memory, on disk
//! [`spill_fanout_for_rows`] of the rows scattered ([`charge_input`]).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use perm_storage::{SpillPartitions, SpillReader};
use perm_types::hash::FxHasher;
use perm_types::{PermError, Result, Tuple};

use crate::executor::Executor;
use crate::memory::{grow_batched, MemoryReservation};
use crate::operators::join::{JoinRefs, RefRow};
use crate::operators::RowError;
use crate::parallel::{map_chunks, run_workers, Channel};
use crate::physical::spill_fanout_for_rows;

/// Where a partitioned run keeps its partitions, and how many.
#[derive(Clone, Copy)]
pub(super) enum Backing<'r> {
    /// In memory, one partition per worker of a `dop`-wide run.
    Pool(usize),
    /// On disk, replayed one at a time, their working memory charged here
    /// to the query's cap only.
    Disk(&'r MemoryReservation, usize),
}

/// Charge a hash operator's input (`sizes`) to `res` and pick its driver:
/// serial (`None`) or the pool when it fits, the disk — sized for the
/// `rows` to scatter — when denied and the node `may_spill`, else the
/// denial.
pub(super) fn charge_input(
    res: &MemoryReservation,
    sizes: impl Iterator<Item = usize>,
    rows: usize,
    dop: usize,
    may_spill: bool,
) -> Result<Option<Backing<'_>>> {
    let Err(denied) = grow_batched(res, sizes) else {
        return Ok((dop > 1).then_some(Backing::Pool(dop)));
    };
    res.free();
    if !may_spill {
        return Err(denied.into_error());
    }
    Ok(Some(Backing::Disk(res, spill_fanout_for_rows(rows as f64))))
}

/// Partition index of a row or key: high hash bits, so the per-partition
/// hash tables built afterwards (which consume the *low* bits for
/// buckets) don't lose entropy to the partitioning.
pub(super) fn partition_of<T: Hash>(t: &T, partitions: usize) -> usize {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    ((h.finish() >> 32) as usize) % partitions
}

/// Sort position-tagged output rows back into input order and drop the
/// tags. The sort is stable because a join emits several rows per probe
/// position, already in serial candidate order.
pub(super) fn restore_order(mut tagged: Vec<(u64, Tuple)>) -> Vec<Tuple> {
    tagged.sort_by_key(|(tag, _)| *tag);
    tagged.into_iter().map(|(_, t)| t).collect()
}

/// One partition's rows of one input, `(position, row)` in position order.
pub(super) type Rows = Vec<(u64, Tuple)>;

/// What a partition's body returns.
pub(super) type Ran = std::result::Result<(), RowError>;

/// How a body reads one input's [`Rows`] of a partition.
pub(super) trait Stream: Iterator<Item = Result<(u64, Tuple)>> {}

impl<I: Iterator<Item = Result<(u64, Tuple)>>> Stream for I {}

/// A hash operator as the driver runs it: its key and its one body.
pub(super) trait Partitioned<const N: usize>: Send + Sync + 'static {
    /// The partition of a `row` of input `k`, `None` for a row that
    /// cannot contribute. By default the row's own hash: equal rows meet.
    fn key(&self, _: &Executor, _: usize, row: &RefRow, parts: usize) -> Result<Option<usize>> {
        Ok(Some(partition_of(row, parts)))
    }

    /// Run over one partition, `rows[k]` streaming input `k`'s share:
    /// append position-tagged output to `out` (on disk it also holds the
    /// partitions before) and charge what the body keeps to `cap`.
    fn run<I: Stream>(&self, exec: &Executor, rows: [I; N], cap: Cap, out: &mut Rows) -> Ran;
}

/// The cap a body charges what it keeps to: on disk the query's own,
/// given back when the partition ends; in memory none, the input was
/// charged whole.
#[derive(Clone, Copy)]
pub(super) struct Cap<'r>(Option<&'r MemoryReservation>);

impl Cap<'_> {
    pub(super) fn grow(self, bytes: usize) -> Result<()> {
        self.0.map_or(Ok(()), |res| res.grow_unpooled(bytes))
    }
}

/// Keep the earliest evaluation error; a positionless one is final.
fn absorb(first: &mut Option<(u64, PermError)>, ran: Ran) -> Result<()> {
    match ran {
        Err((Some(tag), e)) if first.as_ref().is_none_or(|(t, _)| tag < *t) => {
            *first = Some((tag, e));
        }
        Err((None, e)) => return Err(e),
        _ => {}
    }
    Ok(())
}

/// Run `op` over partitions of its `inputs` (module docs); a second
/// input's positions follow the first's.
pub(super) fn partitioned<const N: usize, P: Partitioned<N>>(
    exec: &Executor,
    backing: Backing<'_>,
    inputs: [Arc<JoinRefs>; N],
    op: Arc<P>,
) -> Result<Vec<Tuple>> {
    let mut first_err = None;
    let out = match backing {
        Backing::Pool(dop) => in_memory(exec, dop, inputs, op, &mut first_err)?,
        Backing::Disk(res, parts) => on_disk(exec, (res, parts), inputs, &*op, &mut first_err)?,
    };
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(restore_order(out)),
    }
}

/// Steps 1 and 2 in memory: each input scattered chunk-parallel into
/// `dop` buckets per chunk, concatenated in chunk order; then one
/// partition per pool worker.
fn in_memory<const N: usize, P: Partitioned<N>>(
    exec: &Executor,
    dop: usize,
    inputs: [Arc<JoinRefs>; N],
    op: Arc<P>,
    first_err: &mut Option<(u64, PermError)>,
) -> Result<Rows> {
    let mut parts: [Vec<Rows>; N] = std::array::from_fn(|_| vec![Vec::new(); dop]);
    let mut offset = 0;
    // no-cancel: bounded by the input count; the chunks check.
    for (k, refs) in inputs.into_iter().enumerate() {
        let (total, op, worker) = (refs.len(), Arc::clone(&op), exec.worker_factory());
        let chunks = map_chunks(exec.context(), dop, total, move |range| {
            let sub = worker();
            let view = refs.view(&sub)?;
            let mut gather = view.gathering(range.len(), 0);
            let mut buckets = vec![Vec::new(); dop];
            for (n, i) in range.enumerate() {
                // Masked cancellation check per 4096 scattered rows.
                if n % 4096 == 0 {
                    sub.check_cancelled()?;
                }
                let tag = offset + i as u64;
                match op.key(&sub, k, &view.at(i), dop) {
                    Ok(Some(p)) => buckets[p].push((tag, view.gather(&[], i, &mut gather))),
                    Ok(None) => {}
                    Err(e) => return Ok((buckets, Some((tag, e)))),
                }
            }
            Ok((buckets, None))
        })?;
        // no-cancel: reassembly of already-scattered chunks, bounded by dop.
        for (buckets, err) in chunks {
            // no-cancel: bounded by the fanout.
            for (p, rows) in buckets.into_iter().enumerate() {
                parts[k][p].extend(rows);
            }
            if err.is_some() {
                *first_err = err;
                break;
            }
        }
        if first_err.is_some() {
            // Every later row, in this input or the next, is past it.
            break;
        }
        offset += total as u64;
    }
    // Each worker takes one partition, whichever: the partitions' outputs
    // meet again only in the reorder.
    let queue = Channel::new();
    // no-cancel: bounded by the fanout.
    for p in 0..dop {
        queue.send(parts.each_mut().map(|input| std::mem::take(&mut input[p])));
    }
    let worker = exec.worker_factory();
    let outputs = run_workers(dop, move |_| {
        let rows = queue.recv().map(|rows| rows.into_iter().map(Ok));
        let mut out = Vec::new();
        let ran = op.run(&worker(), rows, Cap(None), &mut out);
        (out, ran)
    })?;
    let mut out = Vec::new();
    // no-cancel: reassembly of already-computed partition outputs.
    for (part, ran) in outputs {
        absorb(first_err, ran)?;
        out.extend(part);
    }
    Ok(out)
}

/// Steps 1 and 2 on disk: each input scattered to `parts` partition
/// files; then one partition at a time read back through the body,
/// whose charges are freed when the partition ends.
fn on_disk<const N: usize, P: Partitioned<N>>(
    exec: &Executor,
    (res, parts): (&MemoryReservation, usize),
    inputs: [Arc<JoinRefs>; N],
    op: &P,
    first_err: &mut Option<(u64, PermError)>,
) -> Result<Rows> {
    let (mut readers, mut offset) = (Vec::with_capacity(N), 0);
    // no-cancel: bounded by the input count; the scatter checks.
    for (k, refs) in inputs.iter().enumerate() {
        let (view, mut files) = (refs.view(exec)?, SpillPartitions::create(parts)?);
        for i in 0..view.len() {
            // Masked cancellation check per 4096 scattered rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let tag = offset + i as u64;
            match op.key(exec, k, &view.at(i), parts) {
                Ok(Some(p)) => files.push(p, tag, view.values(i))?,
                Ok(None) => {}
                Err(e) => {
                    *first_err = Some((tag, e));
                    break;
                }
            }
        }
        readers.push(files.into_readers()?.into_iter());
        if first_err.is_some() {
            // Every later row, in this input or the next, is past it.
            break;
        }
        offset += view.len() as u64;
    }
    let mut out = Vec::new();
    for _ in 0..parts {
        // Partition boundary: cancellation point (unread files are
        // removed when their readers drop).
        exec.check_cancelled()?;
        let stop = first_err.as_ref().map_or(u64::MAX, |(tag, _)| *tag);
        let rows =
            std::array::from_fn(|k| Replay(readers.get_mut(k).and_then(Iterator::next), stop));
        let ran = op.run(exec, rows, Cap(Some(res)), &mut out);
        // The reservation holds nothing but this partition's charges.
        res.free();
        absorb(first_err, ran)?;
    }
    Ok(out)
}

/// One input's partition file read back up to (not including) position
/// `.1`, the earliest evaluation error known: tags ascend, so nothing
/// from there on can matter. No file: the scatter stopped before the
/// input.
struct Replay(Option<SpillReader>, u64);

impl Iterator for Replay {
    type Item = Result<(u64, Tuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.0.as_mut()?.next()? {
            Ok((tag, _)) if tag >= self.1 => None,
            rec => Some(rec),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.0.as_ref().map_or(0, SpillReader::remaining)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemoryPool, QueryMemory};
    use crate::operators::setop::Distinct;
    use perm_storage::Catalog;
    use perm_types::Value;

    // Spill files are process-global state: every test here takes
    // `perm_fault::test_guard()` so a sibling's clean-directory assertion
    // cannot see these files.

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v), Value::Int(v % 3)]))
            .collect()
    }

    /// DISTINCT through the driver on disk, under a 1-byte pool, at
    /// fanout 3.
    fn spilled_distinct(input: Vec<Tuple>) -> (Result<Vec<Tuple>>, MemoryReservation) {
        let exec = Executor::new(Arc::new(Catalog::new()));
        let q = QueryMemory::new(MemoryPool::with_budget(1), None);
        let res = q.register("test");
        let refs = Arc::new(JoinRefs::rows(input, 2).unwrap());
        let got = partitioned(&exec, Backing::Disk(&res, 3), [refs], Arc::new(Distinct));
        (got, res)
    }

    #[test]
    fn spilled_distinct_keeps_first_occurrence_order() {
        let _g = perm_fault::test_guard();
        let (got, res) = spilled_distinct(rows(&[4, 1, 4, 2, 1, 3, 2, 4]));
        assert_eq!(got.unwrap(), rows(&[4, 1, 2, 3]));
        assert_eq!(res.size(), 0);
    }

    #[test]
    fn empty_input_spills_to_empty_output() {
        let _g = perm_fault::test_guard();
        assert!(spilled_distinct(Vec::new()).0.unwrap().is_empty());
    }

    #[test]
    fn the_fanout_follows_the_backing_and_the_rows_scattered() {
        let fanout = |budget, rows, dop| {
            let res = QueryMemory::new(MemoryPool::with_budget(budget), None).register("test");
            match charge_input(&res, std::iter::once(2), rows, dop, true).unwrap() {
                Some(Backing::Pool(p) | Backing::Disk(_, p)) => p,
                None => 1,
            }
        };
        // In memory: one partition per worker, whatever the input.
        assert_eq!(fanout(1 << 20, 600_000, 4), 4);
        assert_eq!(fanout(1 << 20, 600_000, 1), 1);
        // On disk: the floor for a small input …
        assert_eq!(fanout(1, 1_000, 4), crate::SPILL_PARTITIONS);
        // … and 16 partitions for 600k rows, so each replayed partition
        // still fits in memory.
        assert_eq!(fanout(1, 600_000, 1), 16);
        // A node that may not spill fails with the typed denial.
        let res = QueryMemory::new(MemoryPool::with_budget(1), None).register("test");
        let denied = charge_input(&res, std::iter::once(2), 1, 1, false).err();
        assert_eq!(denied.map(|e| e.kind()), Some("resource"));
        assert_eq!(res.size(), 0);
    }
}
