//! A concurrently shareable catalog: copy-on-write snapshots behind one
//! reader/writer lock.
//!
//! The server keeps the catalog as `Arc<RwLock<Arc<Catalog>>>`. Readers
//! take the lock only long enough to clone the inner [`Arc`] — a
//! [`SharedCatalog::snapshot`] — and then plan and execute entirely
//! lock-free against that immutable snapshot. Writers take the write lock
//! and mutate through [`Arc::make_mut`]: if no snapshot is outstanding the
//! mutation happens in place; if readers still hold snapshots (for example
//! a streaming result that is mid-scan), the catalog is cloned first and
//! the readers keep their consistent view. The unit of copy-on-write is
//! one table: the catalog clone copies a map of per-relation `Arc`s, and
//! only the table a write mutates is copied (see [`Catalog::table_mut`]);
//! every other table stays shared with the snapshots. This is the
//! storage-level foundation of the `PermServer` / `Session` API.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

use crate::catalog::Catalog;

/// A catalog handle that many sessions can hold at once.
///
/// Cloning the handle is cheap and every clone refers to the same
/// underlying catalog; use [`SharedCatalog::snapshot`] for reads and
/// [`SharedCatalog::write`] for DDL/DML.
#[derive(Debug, Default, Clone)]
pub struct SharedCatalog {
    inner: Arc<RwLock<Arc<Catalog>>>,
}

impl SharedCatalog {
    /// Share an existing catalog.
    pub fn new(catalog: Catalog) -> SharedCatalog {
        SharedCatalog {
            inner: Arc::new(RwLock::new(Arc::new(catalog))),
        }
    }

    /// A consistent, immutable snapshot of the current catalog state.
    ///
    /// Costs one `Arc` clone under a briefly-held read lock; the snapshot
    /// stays valid (and unchanged) however long the caller keeps it, even
    /// across concurrent DDL.
    pub fn snapshot(&self) -> Arc<Catalog> {
        // A poisoned lock only means another thread panicked mid-access;
        // the `Arc` swap itself is atomic, so the contents are still
        // coherent and reads may proceed.
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Exclusive write access for DDL/DML.
    ///
    /// The returned guard dereferences to [`Catalog`]; the first mutable
    /// access clones the catalog's relation map if (and only if)
    /// snapshots are still outstanding, and a mutated table is copied on
    /// the same condition, so readers never observe an update half-done.
    pub fn write(&self) -> CatalogWriteGuard<'_> {
        CatalogWriteGuard(self.inner.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether two handles share the same underlying catalog.
    pub fn ptr_eq(&self, other: &SharedCatalog) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl From<Catalog> for SharedCatalog {
    fn from(catalog: Catalog) -> SharedCatalog {
        SharedCatalog::new(catalog)
    }
}

/// Write guard over a [`SharedCatalog`]; dereferences to [`Catalog`].
pub struct CatalogWriteGuard<'a>(RwLockWriteGuard<'a, Arc<Catalog>>);

impl CatalogWriteGuard<'_> {
    /// The catalog as of this point in the write: a snapshot that later
    /// mutation through this guard will *not* change (copy-on-write).
    /// Used to evaluate the read part of a statement (e.g. the query of
    /// `CREATE TABLE AS`) while holding the write lock.
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.0)
    }

    /// Replace the catalog with a previously-taken snapshot
    /// (see [`CatalogWriteGuard::snapshot`]): the rollback half of an
    /// atomic statement. Any mutation made through this guard since that
    /// snapshot is discarded in O(1).
    pub fn restore(&mut self, snapshot: Arc<Catalog>) {
        *self.0 = snapshot;
    }
}

impl Deref for CatalogWriteGuard<'_> {
    type Target = Catalog;

    fn deref(&self) -> &Catalog {
        &self.0
    }
}

impl DerefMut for CatalogWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use perm_types::{Column, DataType, Schema, Tuple, Value};

    fn table(name: &str) -> Table {
        Table::new(name, Schema::new(vec![Column::new("x", DataType::Int)]))
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let shared = SharedCatalog::default();
        shared.write().create_table(table("t")).unwrap();
        let before = shared.snapshot();
        {
            let mut w = shared.write();
            w.table_mut("t")
                .unwrap()
                .insert(Tuple::new(vec![Value::Int(1)]))
                .unwrap();
        }
        assert_eq!(before.table("t").unwrap().row_count(), 0, "old snapshot");
        assert_eq!(shared.snapshot().table("t").unwrap().row_count(), 1);
    }

    #[test]
    fn in_place_mutation_without_outstanding_snapshots() {
        let shared = SharedCatalog::default();
        shared.write().create_table(table("t")).unwrap();
        let p1 = {
            let w = shared.write();
            w.snapshot()
        };
        let addr1 = Arc::as_ptr(&p1);
        drop(p1);
        {
            let mut w = shared.write();
            w.table_mut("t")
                .unwrap()
                .insert(Tuple::new(vec![Value::Int(1)]))
                .unwrap();
        }
        // No snapshot was alive during the write, so make_mut mutated in
        // place and the allocation is unchanged.
        assert_eq!(Arc::as_ptr(&shared.snapshot()), addr1);
    }

    #[test]
    fn clones_share_state() {
        let a = SharedCatalog::default();
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        a.write().create_table(table("t")).unwrap();
        assert!(b.snapshot().table("t").is_ok());
    }

    #[test]
    fn restore_rolls_back_to_a_snapshot() {
        let shared = SharedCatalog::default();
        shared.write().create_table(table("t")).unwrap();
        {
            let mut w = shared.write();
            let before = w.snapshot();
            w.table_mut("t")
                .unwrap()
                .insert(Tuple::new(vec![Value::Int(1)]))
                .unwrap();
            w.create_table(table("u")).unwrap();
            w.restore(before);
        }
        let c = shared.snapshot();
        assert_eq!(c.table("t").unwrap().row_count(), 0, "insert rolled back");
        assert!(c.table("u").is_err(), "DDL rolled back");
    }

    #[test]
    fn a_write_copies_only_the_table_it_mutates() {
        let shared = SharedCatalog::default();
        shared.write().create_table(table("t")).unwrap();
        shared.write().create_table(table("u")).unwrap();
        let old = shared.snapshot();
        shared
            .write()
            .table_mut("t")
            .unwrap()
            .insert(Tuple::new(vec![Value::Int(1)]))
            .unwrap();
        let new = shared.snapshot();
        assert!(!Arc::ptr_eq(&old, &new), "the held snapshot forced a copy");
        assert!(std::ptr::eq(
            old.table("u").unwrap(),
            new.table("u").unwrap()
        ));
        assert!(!std::ptr::eq(
            old.table("t").unwrap(),
            new.table("t").unwrap()
        ));
        assert_eq!(old.table("t").unwrap().row_count(), 0, "old snapshot");
    }

    #[test]
    fn write_guard_snapshot_is_pre_mutation() {
        let shared = SharedCatalog::default();
        let mut w = shared.write();
        let before = w.snapshot();
        w.create_table(table("t")).unwrap();
        assert!(before.table("t").is_err(), "snapshot predates the write");
        assert!(w.table("t").is_ok());
    }
}
