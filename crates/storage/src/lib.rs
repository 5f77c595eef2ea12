//! # perm-storage
//!
//! In-memory storage substrate for the Perm provenance management system:
//! the catalog of tables and views, heap tables, hash indexes and table
//! statistics.
//!
//! Two storage-level features exist specifically for Perm:
//!
//! * **Provenance column metadata** ([`table::Table::provenance_columns`]):
//!   when a `SELECT PROVENANCE` result is materialized (*eager* provenance,
//!   `CREATE TABLE p AS SELECT PROVENANCE …`), the catalog records which of
//!   the table's columns are provenance attributes. A later provenance query
//!   over `p` then propagates these columns as *external provenance* instead
//!   of rewriting — the incremental computation path of the demo paper.
//! * **Views** ([`view::View`]) store their defining query un-analyzed; the
//!   analyzer unfolds them per use, which is what lets the rewriter either
//!   descend into the view (default) or stop at it (`BASERELATION`).
//!
//! On-disk codepaths:
//!
//! * [`spill`]: length-prefixed row files the executor's buffering
//!   operators scatter partitions into when a memory reservation is
//!   denied, read back partition by partition.
//! * [`wal`] + [`durable`]: the durability subsystem — a checksummed
//!   write-ahead log of committed statements, snapshot checkpoints of
//!   the catalog (atomic rename + log truncation), and crash recovery
//!   that replays the log tail and truncates torn final records. Every
//!   write/fsync/rename/read in them goes through a named [`perm_fault`]
//!   failpoint (`PERM_FAILPOINTS`).
//!
//! For concurrent servers, [`shared::SharedCatalog`] wraps a [`Catalog`]
//! in copy-on-write snapshots behind a reader/writer lock: readers plan
//! and execute lock-free against immutable snapshots while writers apply
//! DDL/DML through a write guard. The copy-on-write unit is one table: a
//! write copies the table it mutates and shares every other one with the
//! snapshots, and it maintains that table's statistics in place
//! ([`stats`]) rather than leaving the next reader to rescan them.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod durable;
pub mod index;
pub mod shared;
pub mod spill;
pub mod stats;
pub mod table;
pub mod view;
pub mod wal;

pub use catalog::{Catalog, Relation};
pub use durable::{DurableStore, OpenOutcome, CHECKPOINT_FILE, CHECKPOINT_TMP, WAL_FILE};
pub use index::HashIndex;
pub use shared::{CatalogWriteGuard, SharedCatalog};
pub use spill::{spill_dir_is_clean, SpillPartitions, SpillReader, SpillWriter};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
pub use view::View;
pub use wal::{FsyncPolicy, TailState, WalRecord, WalWriter};
