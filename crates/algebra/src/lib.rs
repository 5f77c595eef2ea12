//! # perm-algebra
//!
//! Logical relational algebra and the analyzer/binder for the Perm
//! provenance management system.
//!
//! The crate provides the three middle artifacts of the paper's Figure 3
//! pipeline:
//!
//! * [`plan::LogicalPlan`] — the bound query tree (positional expressions,
//!   schema-carrying operators) that the provenance rewriter transforms;
//! * [`binder::Binder`] — the "Parser & Analyzer" stage: name resolution,
//!   typing, view unfolding, and dispatch into the provenance rewriter via
//!   the [`catalog::ProvenanceTransform`] trait when `SELECT PROVENANCE`
//!   appears;
//! * [`printer`] / [`deparse()`] — the algebra-tree and SQL renderings the
//!   Perm-browser shows (Figure 4 markers 2–4); the printer's walker also
//!   draws `perm-exec`'s physical plans for `EXPLAIN`;
//! * [`verify`] — the static plan verifier that checks operator/child
//!   schema consistency, expression typing and the provenance-rewrite
//!   contract after every plan transformation in debug and test builds.

#![forbid(unsafe_code)]

pub mod binder;
pub mod catalog;
pub mod deparse;
pub mod expr;
pub mod plan;
pub mod printer;
pub mod stats;
pub mod typecheck;
pub mod verify;

pub use binder::{bind_statement, Binder, BoundStatement};
pub use catalog::{
    BaseTableMeta, CatalogProvider, EmptyCatalog, ProvenancePlan, ProvenanceTransform,
};
pub use deparse::deparse;
pub use expr::{AggCall, AggFunc, BinOp, ScalarExpr, ScalarFunc, SubqueryExpr, SubqueryKind, UnOp};
pub use plan::{BoundaryKind, JoinType, LogicalPlan, SetOpType, SortKey};
pub use printer::{plan_tree, plan_tree_with_schema};
pub use stats::{CardinalityEstimator, FixedCardinalities, UnknownCardinality};
pub use typecheck::{agg_type, expr_type};
pub use verify::{
    cannot_hold_on_null, verify_logical, verify_provenance_schema, verify_schema_preserved,
};
