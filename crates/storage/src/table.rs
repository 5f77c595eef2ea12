//! In-memory heap tables.

use std::sync::OnceLock;

use perm_types::{PermError, Result, Schema, Tuple, Value};

use crate::index::HashIndex;
use crate::stats::{MaintainedStats, TableStats};

/// An in-memory heap table: a schema plus a vector of tuples.
///
/// Tables optionally carry **provenance column metadata**: the positions of
/// columns that hold provenance attributes. This is how eagerly-materialized
/// provenance (`CREATE TABLE p AS SELECT PROVENANCE …`) is remembered, so
/// that a later `SELECT PROVENANCE … FROM p` treats those columns as
/// external provenance and propagates them untouched instead of duplicating
/// `p`'s columns.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Tuple>,
    provenance_columns: Vec<usize>,
    indexes: Vec<HashIndex>,
    /// Statistics computed on first use through a shared reference (so
    /// read-only sessions on a shared catalog can fill it), then
    /// maintained in place by every mutation.
    stats: OnceLock<MaintainedStats>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            provenance_columns: Vec::new(),
            indexes: Vec::new(),
            stats: OnceLock::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The positions of this table's provenance columns (empty for ordinary
    /// tables).
    pub fn provenance_columns(&self) -> &[usize] {
        &self.provenance_columns
    }

    /// Record which columns are provenance attributes (eager provenance).
    pub fn set_provenance_columns(&mut self, cols: Vec<usize>) -> Result<()> {
        for &c in &cols {
            if c >= self.schema.len() {
                return Err(PermError::Catalog(format!(
                    "provenance column index {c} out of range for table '{}' with {} columns",
                    self.name,
                    self.schema.len()
                )));
            }
        }
        self.provenance_columns = cols;
        Ok(())
    }

    /// Append a tuple after validating arity, types (with implicit
    /// coercion) and NOT NULL constraints.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        let coerced = self.check_tuple(tuple)?;
        self.push_raw(coerced);
        Ok(())
    }

    /// Append many tuples; stops at the first invalid one.
    pub fn insert_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<usize> {
        let mut n = 0;
        for t in tuples {
            self.insert(t)?;
            n += 1;
        }
        Ok(n)
    }

    /// Append a tuple that is already known to match the schema
    /// (engine-internal materialization). Indexes gain the new row id;
    /// the statistics, once computed, count the row in place.
    pub fn push_raw(&mut self, tuple: Tuple) {
        let row_id = self.rows.len();
        for idx in &mut self.indexes {
            idx.insert(&tuple, row_id);
        }
        if let Some(s) = self.stats.get_mut() {
            s.add(&tuple);
        }
        self.rows.push(tuple);
    }

    fn check_tuple(&self, tuple: Tuple) -> Result<Tuple> {
        if tuple.len() != self.schema.len() {
            return Err(PermError::Catalog(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.schema.len(),
                tuple.len()
            )));
        }
        let mut values = Vec::with_capacity(tuple.len());
        for (i, v) in tuple.into_values().into_iter().enumerate() {
            let col = self.schema.column(i);
            if v.is_null() {
                if !col.nullable {
                    return Err(PermError::Catalog(format!(
                        "null value in column '{}' of table '{}' violates NOT NULL",
                        col.name, self.name
                    )));
                }
                values.push(v);
                continue;
            }
            if col.ty.accepts(v.data_type()) {
                // Implicit Int -> Float widening still normalizes storage.
                if col.ty != v.data_type() && col.ty != perm_types::DataType::Unknown {
                    values.push(v.cast(col.ty)?);
                } else {
                    values.push(v);
                }
            } else {
                // One cast attempt (e.g. text column receiving an int).
                values.push(v.cast(col.ty).map_err(|_| {
                    PermError::Catalog(format!(
                        "column '{}' of table '{}' is {}, got {} ({})",
                        col.name,
                        self.name,
                        col.ty,
                        v,
                        v.data_type()
                    ))
                })?);
            }
        }
        Ok(Tuple::new(values))
    }

    /// Remove all rows.
    pub fn truncate(&mut self) {
        self.rows.clear();
        for idx in &mut self.indexes {
            idx.clear();
        }
        if let Some(s) = self.stats.get_mut() {
            s.clear();
        }
    }

    /// Remove the rows whose positions are in `doomed` (`DELETE`),
    /// returning how many were removed. Each index drops the removed ids
    /// and renumbers the rest (row ids shift down past them); the
    /// statistics, once computed, drop each removed row in
    /// place and settle once, so the cost model never plans against stale
    /// row counts.
    pub fn delete_rows(&mut self, doomed: &[usize]) -> usize {
        if doomed.is_empty() {
            return 0;
        }
        let mut kill = vec![false; self.rows.len()];
        for &i in doomed {
            kill[i] = true;
        }
        let before = self.rows.len();
        let mut it = kill.iter();
        let mut stats = self.stats.get_mut();
        self.rows.retain(|row| {
            // INVARIANT: `kill` was built with one entry per row, so the
            // iterator cannot run out before `retain` does.
            let doomed = *it.next().expect("mask covers all rows");
            if doomed {
                if let Some(s) = &mut stats {
                    s.remove(row);
                }
            }
            !doomed
        });
        if let Some(s) = stats {
            s.settle();
        }
        if !self.indexes.is_empty() {
            // A surviving row's new id: its old one less the removed
            // rows below it.
            let mut below = 0;
            let new_ids: Vec<Option<usize>> = kill
                .iter()
                .enumerate()
                .map(|(id, &doomed)| {
                    below += usize::from(doomed);
                    (!doomed).then(|| id - below)
                })
                .collect();
            for idx in &mut self.indexes {
                idx.delete(&new_ids);
            }
        }
        before - self.rows.len()
    }

    /// Replace the rows at the given positions (`UPDATE`; a later
    /// replacement of the same position wins), validating each
    /// replacement against the schema (types coerced, NOT NULL enforced).
    /// Row ids do not shift, so each index moves only the rows whose
    /// indexed value changed; the statistics, once computed, are updated
    /// for the changed columns and settle once. Nothing is written if any
    /// replacement fails.
    pub fn update_rows(&mut self, updates: Vec<(usize, Tuple)>) -> Result<usize> {
        let checked: Vec<(usize, Tuple)> = updates
            .into_iter()
            .map(|(i, t)| Ok((i, self.check_tuple(t)?)))
            .collect::<Result<_>>()?;
        let n = checked.len();
        let mut stats = self.stats.get_mut();
        let mut old_rows = Vec::with_capacity(n);
        for (i, t) in checked {
            if let Some(s) = &mut stats {
                s.replace(&self.rows[i], &t);
            }
            old_rows.push((i, std::mem::replace(&mut self.rows[i], t)));
        }
        if let Some(s) = stats {
            s.settle();
        }
        if !self.indexes.is_empty() {
            // A row replaced twice moves once, from its first old value.
            old_rows.sort_by_key(|&(i, _)| i);
            old_rows.dedup_by_key(|&mut (i, _)| i);
            let moved: Vec<(usize, &Tuple, &Tuple)> = old_rows
                .iter()
                .map(|(i, old)| (*i, old, &self.rows[*i]))
                .collect();
            for idx in &mut self.indexes {
                idx.rekey(&moved);
            }
        }
        Ok(n)
    }

    /// Create a hash index on `column` (idempotent).
    pub fn create_index(&mut self, column: usize) -> Result<()> {
        if column >= self.schema.len() {
            return Err(PermError::Catalog(format!(
                "cannot index column {column} of table '{}' ({} columns)",
                self.name,
                self.schema.len()
            )));
        }
        if self.index_on(column).is_some() {
            return Ok(());
        }
        let mut idx = HashIndex::new(column);
        for (row_id, t) in self.rows.iter().enumerate() {
            idx.insert(t, row_id);
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// The columns that carry a hash index, in creation order (used by
    /// checkpoints to rebuild indexes on recovery).
    pub fn index_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(HashIndex::column).collect()
    }

    /// The hash index on `column`, if one exists.
    pub fn index_on(&self, column: usize) -> Option<&HashIndex> {
        self.indexes.iter().find(|i| i.column() == column)
    }

    /// Row ids matching `column = key` via index, or `None` if unindexed.
    pub fn index_lookup(&self, column: usize, key: &Value) -> Option<&[usize]> {
        self.index_on(column).map(|i| i.lookup(key))
    }

    /// Current statistics, computed on first use and from then on kept
    /// exact by every mutation. Works through shared references, so any
    /// number of concurrent readers of a shared catalog get (and reuse)
    /// the same statistics.
    pub fn stats(&self) -> &TableStats {
        self.stats
            .get_or_init(|| MaintainedStats::compute(&self.schema, &self.rows))
            .stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::{Column, DataType};

    fn users() -> Table {
        Table::new(
            "users",
            Schema::new(vec![
                Column::new("uid", DataType::Int).not_null(),
                Column::new("name", DataType::Text),
            ]),
        )
    }

    #[test]
    fn insert_validates_arity() {
        let mut t = users();
        let err = t.insert(Tuple::new(vec![Value::Int(1)])).unwrap_err();
        assert_eq!(err.kind(), "catalog");
        assert!(err.message().contains("expects 2 values"));
    }

    #[test]
    fn insert_enforces_not_null() {
        let mut t = users();
        let err = t
            .insert(Tuple::new(vec![Value::Null, Value::text("Bert")]))
            .unwrap_err();
        assert!(err.message().contains("NOT NULL"));
    }

    #[test]
    fn insert_allows_null_in_nullable_column() {
        let mut t = users();
        t.insert(Tuple::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn insert_coerces_int_to_float() {
        let mut t = Table::new(
            "m",
            Schema::new(vec![Column::new("score", DataType::Float)]),
        );
        t.insert(Tuple::new(vec![Value::Int(3)])).unwrap();
        assert_eq!(t.rows()[0].get(0), &Value::Float(3.0));
    }

    #[test]
    fn insert_casts_to_text_column() {
        let mut t = Table::new("m", Schema::new(vec![Column::new("s", DataType::Text)]));
        t.insert(Tuple::new(vec![Value::Int(42)])).unwrap();
        assert_eq!(t.rows()[0].get(0), &Value::text("42"));
    }

    #[test]
    fn insert_rejects_uncastable_value() {
        let mut t = Table::new("m", Schema::new(vec![Column::new("x", DataType::Int)]));
        assert!(t.insert(Tuple::new(vec![Value::text("abc")])).is_err());
    }

    #[test]
    fn provenance_columns_are_recorded_and_validated() {
        let mut t = users();
        t.set_provenance_columns(vec![1]).unwrap();
        assert_eq!(t.provenance_columns(), &[1]);
        assert!(t.set_provenance_columns(vec![9]).is_err());
    }

    #[test]
    fn index_is_maintained_across_inserts() {
        let mut t = users();
        t.create_index(0).unwrap();
        t.insert(Tuple::new(vec![Value::Int(1), Value::text("Bert")]))
            .unwrap();
        t.insert(Tuple::new(vec![Value::Int(2), Value::text("Gert")]))
            .unwrap();
        t.insert(Tuple::new(vec![Value::Int(1), Value::text("Bert2")]))
            .unwrap();
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[0, 2]);
        assert_eq!(t.index_lookup(0, &Value::Int(3)).unwrap(), &[] as &[usize]);
        assert!(t.index_lookup(1, &Value::text("Bert")).is_none());
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = users();
        t.insert(Tuple::new(vec![Value::Int(7), Value::Null]))
            .unwrap();
        t.create_index(0).unwrap();
        assert_eq!(t.index_lookup(0, &Value::Int(7)).unwrap(), &[0]);
    }

    #[test]
    fn create_index_out_of_range() {
        assert!(users().create_index(5).is_err());
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut t = users();
        t.create_index(0).unwrap();
        t.insert(Tuple::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[] as &[usize]);
    }

    #[test]
    fn stats_cache_invalidates_on_insert() {
        let mut t = users();
        t.insert(Tuple::new(vec![Value::Int(1), Value::text("a")]))
            .unwrap();
        assert_eq!(t.stats().row_count, 1);
        t.insert(Tuple::new(vec![Value::Int(2), Value::text("b")]))
            .unwrap();
        assert_eq!(t.stats().row_count, 2);
    }

    fn three_users() -> Table {
        let mut t = users();
        t.insert_all([
            Tuple::new(vec![Value::Int(1), Value::text("a")]),
            Tuple::new(vec![Value::Int(2), Value::text("b")]),
            Tuple::new(vec![Value::Int(3), Value::text("c")]),
        ])
        .unwrap();
        t
    }

    #[test]
    fn delete_removes_rows_rebuilds_indexes_and_invalidates_stats() {
        let mut t = three_users();
        t.create_index(0).unwrap();
        assert_eq!(t.stats().row_count, 3, "stats cached before the delete");
        assert_eq!(t.delete_rows(&[0, 2]), 2);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.rows()[0].get(0), &Value::Int(2));
        // Row ids shifted: the survivor is now row 0 in the index.
        assert_eq!(t.index_lookup(0, &Value::Int(2)).unwrap(), &[0]);
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[] as &[usize]);
        // The cost model sees the new row count immediately.
        assert_eq!(t.stats().row_count, 1);
        assert_eq!(t.delete_rows(&[]), 0, "empty delete is a no-op");
    }

    #[test]
    fn update_replaces_rows_rebuilds_indexes_and_invalidates_stats() {
        let mut t = three_users();
        t.create_index(0).unwrap();
        assert_eq!(t.stats().columns[0].n_distinct, 3);
        t.update_rows(vec![(0, Tuple::new(vec![Value::Int(2), Value::text("z")]))])
            .unwrap();
        assert_eq!(t.rows()[0].get(1), &Value::text("z"));
        // Two rows now share key 2; the old key 1 entry is gone.
        assert_eq!(t.index_lookup(0, &Value::Int(2)).unwrap(), &[0, 1]);
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), &[] as &[usize]);
        assert_eq!(t.stats().columns[0].n_distinct, 2, "stats recomputed");
    }

    #[test]
    fn update_validates_before_writing() {
        let mut t = three_users();
        let err = t
            .update_rows(vec![
                (0, Tuple::new(vec![Value::Int(9), Value::text("ok")])),
                (1, Tuple::new(vec![Value::Null, Value::text("bad")])),
            ])
            .unwrap_err();
        assert!(err.message().contains("NOT NULL"), "{err}");
        // Nothing was written: the first assignment did not apply either.
        assert_eq!(t.rows()[0].get(0), &Value::Int(1));
    }
}
