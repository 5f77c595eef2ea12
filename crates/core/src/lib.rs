//! # perm-core
//!
//! The Perm provenance management system (PMS) facade: the end-to-end
//! pipeline of the SIGMOD'09 demo paper's Figure 3.
//!
//! ```text
//! SQL/SQL-PLE ─▶ Parser & Analyzer ─▶ Provenance Rewriter ─▶ Planner ─▶ Executor
//!                (perm-sql,            (perm-rewrite)          (perm-exec)
//!                 perm-algebra)
//! ```
//!
//! # One way in
//!
//! SQL text goes through a [`Session`] on a [`PermServer`] — the shape
//! the paper's Perm has inside PostgreSQL: one shared catalog, cheap
//! cloneable session handles (`Send + Sync`, queries take `&self`),
//! [`Prepared`] statements that cache the provenance-rewritten optimized
//! plan across executions, and pull-based [`RowStream`] results that stop
//! scanning when the consumer stops pulling.
//!
//! ```
//! use perm_core::fixtures::forum_db;
//!
//! let db = forum_db(); // a session on the paper's Figure 1 database
//! let result = db
//!     .query("SELECT PROVENANCE mId, text FROM messages")
//!     .unwrap();
//! assert_eq!(
//!     result.columns,
//!     vec![
//!         "mid",
//!         "text",
//!         "prov_public_messages_mid",
//!         "prov_public_messages_text",
//!         "prov_public_messages_uid"
//!     ]
//! );
//! ```
//!
//! ```
//! use perm_core::PermServer;
//!
//! let server = PermServer::new();
//! let writer = server.session();
//! writer.run_script("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2);").unwrap();
//!
//! let reader = server.session(); // e.g. on another thread
//! let prepared = reader.prepare("SELECT PROVENANCE x FROM t").unwrap();
//! assert_eq!(prepared.execute().unwrap().row_count(), 2);
//!
//! let first = reader.query_stream("SELECT x FROM t LIMIT 1").unwrap().next();
//! assert!(first.unwrap().is_ok());
//! ```
//!
//! Features, per the paper: lazy and eager provenance ([`eager`]), the
//! `INFLUENCE` / `COPY` / `LINEAGE` contribution semantics, external
//! provenance, `BASERELATION`, rewrite-strategy toggles
//! ([`options::SessionOptions`]), the stage trace of Figure 3
//! ([`pipeline::StageTrace`]) and the browser panels of Figure 4
//! ([`browser::BrowserPanels`]).

#![forbid(unsafe_code)]

pub mod admission;
pub mod browser;
pub mod db;
pub mod eager;
pub mod fixtures;
pub mod options;
pub mod pipeline;
mod prepared;
pub mod result;
pub mod server;
mod session;
mod write;

pub use admission::{AdmissionPermit, ResourceGovernor, ADMISSION_QUEUE_BOUND};
pub use browser::BrowserPanels;
pub use eager::materialize_provenance;
pub use options::{DurabilityOptions, SessionOptions, DEFAULT_CHECKPOINT_EVERY};
pub use pipeline::{Stage, StageTrace};
pub use prepared::Prepared;
pub use result::{QueryResult, RowStream, StatementResult};
pub use server::PermServer;
pub use session::Session;

// Re-export the pieces users touch through the facade.
pub use perm_exec::{MemoryPool, QueryMemory};
pub use perm_rewrite::{
    ContributionSemantics, CopyMode, RewriteOptions, StrategyMode, UnionStrategy,
};
pub use perm_storage::FsyncPolicy;
pub use perm_types::{CancelHandle, CancelReason, PermError, QueryContext, Result, Tuple, Value};
