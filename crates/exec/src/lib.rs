//! # perm-exec
//!
//! The "Planner" and "Executor" stages of the Perm pipeline (paper
//! Figure 3).
//!
//! Because Perm represents provenance computations as ordinary relational
//! queries, the rewritten plan needs no provenance-specific machinery
//! here — it goes through a conventional **two-phase optimizer**:
//!
//! 1. the **logical pass** ([`planner`]) applies rule rewrites (boundary
//!    elimination, filter merging/pushdown with LEFT→INNER demotion,
//!    projection merging), prunes unreferenced columns and reorders
//!    commutable join regions by cost;
//! 2. the **physical planner** ([`physical`]) lowers the result to an
//!    explicit [`PhysicalPlan`] — fused scans, index scans, hash joins
//!    with a chosen build side, index nested-loop joins — using the
//!    unified [`perm_algebra::stats::CardinalityEstimator`] fed from
//!    table statistics ([`CatalogStats`]) — sublink bodies included, once
//!    per statement ([`PhysicalPlan::SubPlans`]).
//!
//! The executor then *interprets* the physical plan without making any
//! strategy decision of its own — including NULL-safe keys for the
//! aggregation join-back, hash aggregation and hash set operations.
//! Correlated sublinks in ordinary (non-provenance) queries run their
//! lowered body once per outer row with the sublink's outer references as
//! parameters; an uncorrelated body runs once per statement.
//!
//! The per-row hot path runs on **compiled expressions** ([`compile`]):
//! each operator lowers its bound expressions once — constants folded,
//! `AND`/`OR` chains flattened, `LIKE` patterns pre-decoded, literal `IN`
//! lists pre-hashed, columns resolved to slots — and the physical plan
//! fuses projection/filter chains into scans and slot-only projections
//! into join output. Rows themselves are `Arc`-shared
//! ([`perm_types::Tuple`]), so operators move references, not values.
//! On a columnar executor ([`Executor::with_columnar`], the default),
//! filters, computed projections and sort keys whose every expression
//! has a kernel evaluate those same compiled expressions over batches of
//! rows ([`kernels`]). The plan carries no row/batch decision: each
//! node's body makes it once, when it compiles.
//!
//! Every plan is driven by one chunk cursor ([`stream`]), consumed two
//! ways: [`Executor::run_physical`] drains it into the whole result,
//! while [`Executor::into_stream_physical`] returns a pull-based
//! [`stream::TupleStream`] that yields tuples on demand. Either way,
//! `LIMIT k` over a streamable operator chain reads only the base rows
//! it needs.
//! The executor owns an `Arc` catalog snapshot, making plans, executors
//! and streams `Send` — the foundation of the concurrent `PermServer`.
//!
//! Execution memory is **governed** ([`memory`]): buffering operators
//! grow a per-query [`MemoryReservation`] as they build hash tables and
//! sort buffers, and a denied grow switches them to a partitioned
//! spill-to-disk driver (`operators`, files written through
//! [`perm_storage::spill`]) whose results are identical — rows, order
//! and errors — to the in-memory path: each operator has one body that
//! its serial, parallel and spilled drivers all run.
//!
//! Every phase of the two-phase optimizer is backed by a **static plan
//! verifier** ([`verify`], plus the logical side in
//! [`perm_algebra::verify`]): in debug and test builds (or with
//! `SessionOptions::verify_plans`) each optimizer/parallelizer pass is
//! re-checked for schema consistency, slot bounds/typing and the
//! parallel-legality rules, and a violation names the responsible pass.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod compile;
pub mod eval;
pub mod executor;
pub mod kernels;
pub mod memory;
pub(crate) mod operators;
mod parallel;
pub mod physical;
pub mod planner;
pub mod stream;
pub mod verify;

pub use adapter::{CatalogAdapter, CatalogStats};
pub use compile::CompiledExpr;
pub use executor::Executor;
pub use memory::{MemoryPool, MemoryReservation, QueryMemory};
pub use operators::scan::Pipe;
pub use parallel::{auto_parallelism, DEFAULT_PARALLEL_THRESHOLD, MORSEL_ROWS};
pub use physical::{
    estimated_peak_bytes, physical_tree, physical_tree_verbose, plan_physical,
    spill_fanout_for_rows, PhysicalPlan, PhysicalPlanner, SubPlan, MAX_SPILL_PARTITIONS,
    SPILL_PARTITIONS, SPILL_PARTITION_TARGET_ROWS,
};
pub use planner::{optimize, optimize_verified, optimize_with, LOGICAL_PHASES};
pub use stream::TupleStream;
pub use verify::verify_physical;

#[cfg(test)]
mod tests;
