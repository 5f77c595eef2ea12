//! # perm
//!
//! The workspace facade crate for the Perm provenance management system
//! reproduction (Glavic & Alonso, SIGMOD 2009). It re-exports the layered
//! crates so applications can depend on one name:
//!
//! * [`core`] ([`perm_core`]) — the engine facade: the concurrent
//!   `PermServer` / `Session` / `Prepared` API driving parse → analyze →
//!   provenance-rewrite → plan → execute;
//! * [`sql`] ([`perm_sql`]) — SQL + SQL-PLE parser;
//! * [`algebra`] ([`perm_algebra`]) — logical plans, binder, deparser;
//! * [`rewrite`] ([`perm_rewrite`]) — the provenance rewrite rules;
//! * [`exec`] ([`perm_exec`]) — optimizer and executor;
//! * [`storage`] ([`perm_storage`]) — catalog and tables;
//! * [`types`] ([`perm_types`]) — values, schemas, tuples.
//!
//! ```
//! use perm::core::fixtures::forum_db;
//!
//! let db = forum_db(); // a session on the paper's Figure 1 database
//! let rows = db.query("SELECT PROVENANCE text FROM messages WHERE mid = 4").unwrap();
//! assert_eq!(rows.columns[1], "prov_public_messages_mid");
//! ```
//!
//! Many sessions over one catalog, prepared statements and streaming
//! results start from [`PermServer`]:
//!
//! ```
//! use perm::PermServer;
//!
//! let server = PermServer::new();
//! let session = server.session();
//! session.run_script("CREATE TABLE t (x int); INSERT INTO t VALUES (1), (2);").unwrap();
//! let prepared = session.prepare("SELECT PROVENANCE x FROM t").unwrap();
//! assert_eq!(prepared.execute().unwrap().row_count(), 2);
//! ```

pub use perm_algebra as algebra;
pub use perm_core as core;
pub use perm_exec as exec;
pub use perm_rewrite as rewrite;
pub use perm_sql as sql;
pub use perm_storage as storage;
pub use perm_types as types;

// The most common entry points, at the top level.
pub use perm_core::{
    BrowserPanels, ContributionSemantics, PermServer, Prepared, QueryResult, RowStream, Session,
    SessionOptions, StageTrace, StatementResult,
};
pub use perm_types::{PermError, Result, Tuple, Value};
