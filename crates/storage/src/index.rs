//! Hash indexes over heap tables.

use std::collections::HashMap;

use perm_types::{Tuple, Value};

/// An equality hash index on a single column.
///
/// The index maps a column value to the row ids holding it, in ascending
/// row-id order. NULL keys are indexed too (under [`Value::Null`], which
/// hashes and compares as equal to itself in grouping semantics) — this
/// matters for the NULL-safe (`IS NOT DISTINCT FROM`) joins that Perm's
/// aggregation rewrite produces, where an index point-lookup on NULL must
/// find NULL rows.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    column: usize,
    entries: HashMap<Value, Vec<usize>>,
}

impl HashIndex {
    pub fn new(column: usize) -> HashIndex {
        HashIndex {
            column,
            entries: HashMap::new(),
        }
    }

    /// The indexed column position.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Register `tuple` (stored at `row_id`) in the index.
    pub fn insert(&mut self, tuple: &Tuple, row_id: usize) {
        self.entries
            .entry(tuple.get(self.column).clone())
            .or_default()
            .push(row_id);
    }

    /// Move the rows of one `UPDATE` (where row ids do not shift) whose
    /// indexed value changed. `moved` holds `(row_id, old, new)` in
    /// ascending row-id order, each id once. Each list a move touches is
    /// filtered once and merged once, so every list stays identical to a
    /// rebuilt index's (index nested-loop joins emit rows in that order)
    /// at a cost linear in the lists touched.
    pub(crate) fn rekey(&mut self, moved: &[(usize, &Tuple, &Tuple)]) {
        let mut gone: HashMap<&Value, Vec<usize>> = HashMap::new();
        let mut came: HashMap<&Value, Vec<usize>> = HashMap::new();
        for &(row_id, old, new) in moved {
            let (old, new) = (old.get(self.column), new.get(self.column));
            if old != new {
                gone.entry(old).or_default().push(row_id);
                came.entry(new).or_default().push(row_id);
            }
        }
        for (key, out) in gone {
            // INVARIANT: every stored row is listed once, in ascending id
            // order, under the key its indexed column holds.
            let ids = self.entries.get_mut(key).expect("indexed row has a key");
            // Both lists ascend, so one cursor over `out` finds each id.
            let mut out = out.iter().peekable();
            ids.retain(|id| out.next_if_eq(&id).is_none());
            assert!(out.next().is_none(), "every moved row was listed");
            if ids.is_empty() {
                self.entries.remove(key);
            }
        }
        for (key, ins) in came {
            let ids = self.entries.entry(key.clone()).or_default();
            ids.extend(ins);
            // Two ascending runs: the stable sort merges them in one pass.
            ids.sort();
        }
    }

    /// Drop the rows of one `DELETE` and renumber the rest: `new_ids[id]`
    /// is a surviving row's id after the delete, `None` for a removed
    /// one. Renumbering keeps the order, so every list stays ascending,
    /// and no key is rehashed.
    pub(crate) fn delete(&mut self, new_ids: &[Option<usize>]) {
        self.entries.retain(|_, ids| {
            ids.retain_mut(|id| match new_ids[*id] {
                Some(new) => {
                    *id = new;
                    true
                }
                None => false,
            });
            !ids.is_empty()
        });
    }

    /// The row ids whose indexed column equals `key` (grouping equality:
    /// NULL finds NULL, `Int(2)` finds `Float(2.0)`).
    pub fn lookup(&self, key: &Value) -> &[usize] {
        self.entries.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(v: Value) -> Tuple {
        Tuple::new(vec![Value::Int(0), v])
    }

    #[test]
    fn lookup_returns_matching_row_ids_in_order() {
        let mut idx = HashIndex::new(1);
        idx.insert(&tup(Value::Int(5)), 0);
        idx.insert(&tup(Value::Int(7)), 1);
        idx.insert(&tup(Value::Int(5)), 2);
        assert_eq!(idx.lookup(&Value::Int(5)), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Int(7)), &[1]);
        assert_eq!(idx.lookup(&Value::Int(9)), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn null_keys_are_indexed() {
        let mut idx = HashIndex::new(1);
        idx.insert(&tup(Value::Null), 0);
        idx.insert(&tup(Value::Int(1)), 1);
        idx.insert(&tup(Value::Null), 2);
        assert_eq!(idx.lookup(&Value::Null), &[0, 2]);
    }

    #[test]
    fn mixed_numeric_keys_unify() {
        let mut idx = HashIndex::new(1);
        idx.insert(&tup(Value::Int(2)), 0);
        idx.insert(&tup(Value::Float(2.0)), 1);
        assert_eq!(idx.lookup(&Value::Int(2)), &[0, 1]);
        assert_eq!(idx.lookup(&Value::Float(2.0)), &[0, 1]);
    }

    #[test]
    fn clear_empties_the_index() {
        let mut idx = HashIndex::new(0);
        idx.insert(&Tuple::new(vec![Value::Int(1)]), 0);
        idx.clear();
        assert_eq!(idx.lookup(&Value::Int(1)), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 0);
    }
}
