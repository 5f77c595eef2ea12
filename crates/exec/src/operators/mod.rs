//! Physical operator implementations.
//!
//! Every operator here has **one body** and thin drivers that decide how
//! rows reach it: *serial* (the whole input, in order), *parallel*
//! (morsels, chunks or hash partitions on the worker pool) and *spilled*
//! (partitions or runs read back from disk after a denied memory
//! reservation). The drivers are picked by the node's `dop` and
//! may-spill flag and by the reservation's answer — never by an option.
//! Because all of them run the same body, a parallel or spilled
//! execution returns the serial rows, order and first error by
//! construction.
//!
//! * The **hash operators** — join, aggregation, set operations, DISTINCT
//!   ([`join`], [`aggregate`], [`setop`]) — are written over the rows of
//!   one hash partition, tagged with their input positions. A parallel
//!   DISTINCT or set operation, and any of the four spilled, runs through
//!   the one partition driver ([`spill::partitioned`]), given a key and
//!   the body ([`spill::Partitioned`]); it sizes its own fanout, and on
//!   disk the body streams each partition back and charges what it
//!   keeps. The serial driver runs the body on one partition already in
//!   order. Parallel joins and aggregates split their input into morsels
//!   or chunks instead.
//! * **One hash key** ([`key`]) for joins and aggregation: under `=` a
//!   NULL or NaN value matches nothing, under grouping equality (`IS NOT
//!   DISTINCT FROM`, `GROUP BY`, and the whole rows DISTINCT and set
//!   operations hash) NULL = NULL and NaN = NaN.
//! * **Joins return row references** ([`join::JoinRefs`]): the rows of
//!   each non-join input, one row id per input per output row, and an
//!   output layout. A join or an aggregate over a join reads its input
//!   through that layout, so a chain of joins builds no intermediate
//!   row; every other consumer — the chunk cursor
//!   ([`crate::stream`]) and the partition driver — takes rows from one
//!   gather, which builds each output row in one allocation. The join
//!   bodies append ids serially, per morsel range (the ids concatenate in
//!   morsel order) or per spill partition (gathered under input
//!   positions), so the id lists, and the rows gathered from them, are
//!   the serial ones.
//! * **Scan / filter / project** ([`scan::Pipe`]) is compiled once per
//!   node and written over a borrowed run of rows. Drivers: the chunk
//!   cursor's scan, index scan, `Filter` and `Project` nodes (one chunk
//!   per pull — the whole input when
//!   [`Executor::run_physical`](crate::Executor::run_physical) drains
//!   it), the scan morsels of a parallel scan's window (one morsel per
//!   call, all workers sharing the pipe), and — one row per call through
//!   `Pipe::row` — the `DELETE` / `UPDATE` scans.
//! * **Sort** ([`sort`]) keys and stably sorts one contiguous run.
//!   Drivers: serial (one run, no merge), parallel (a run per chunk, then
//!   the stable k-way merge) and spilled (runs written to disk, then the
//!   same merge).
//!
//! Every buffering operator takes its in-memory / spill / refuse
//! decision from one call, [`spill::charge_input`], on the calling
//! thread, before any worker starts.

use perm_types::PermError;

pub(crate) mod aggregate;
pub(crate) mod join;
pub(crate) mod key;
pub(crate) mod scan;
pub(crate) mod setop;
pub(crate) mod sort;
pub(crate) mod spill;

#[cfg(test)]
mod tests;

/// Why an operator body stopped early. An evaluation error carries the
/// input position of the row that raised it: the partition driver
/// ([`spill`]) keeps the smallest position across partitions — the error
/// serial execution raises first. Anything else (cancellation, spill
/// I/O, a denied reservation) is positionless and final. The serial,
/// morsel and chunk drivers drop the position.
type RowError = (Option<u64>, PermError);
