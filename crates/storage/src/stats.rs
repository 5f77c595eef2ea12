//! Table statistics feeding the planner's cost model.
//!
//! The statistics are deliberately simple (exact row counts, exact distinct
//! counts, null counts, min/max) because tables are in-memory and modest in
//! size; what matters for Perm is that the **cost-based rewrite-strategy
//! chooser** and the join planner share one source of cardinality truth.
//!
//! They stay exact under writes: a table computes them on first use, then
//! every insert, update, delete and truncate maintains them in place
//! through `MaintainedStats`, which keeps each column's value
//! multiplicities next to the statistics. A write costs what it changes,
//! not a rescan of the table: a statement that removes a column's last
//! copy of its min or max only marks that column, and one `settle` at the
//! end of the statement rescans each marked column's distinct values once.

use std::collections::HashMap;

use perm_types::{Schema, Tuple, Value};

/// Per-column statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct non-null values.
    pub n_distinct: usize,
    /// Number of NULLs.
    pub null_count: usize,
    /// Minimum non-null value (by SQL sort order), if any.
    pub min: Option<Value>,
    /// Maximum non-null value, if any.
    pub max: Option<Value>,
}

impl ColumnStats {
    fn empty() -> ColumnStats {
        ColumnStats {
            n_distinct: 0,
            null_count: 0,
            min: None,
            max: None,
        }
    }

    /// Estimated selectivity of `col = <literal>`: `1 / n_distinct`,
    /// clamped to (0, 1].
    pub fn eq_selectivity(&self) -> f64 {
        if self.n_distinct == 0 {
            1.0
        } else {
            1.0 / self.n_distinct as f64
        }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// An empty-table statistics object with the right number of columns.
    pub fn empty(n_columns: usize) -> TableStats {
        TableStats {
            row_count: 0,
            columns: vec![ColumnStats::empty(); n_columns],
        }
    }

    /// Scan `rows` once and compute exact statistics.
    pub fn compute(schema: &Schema, rows: &[Tuple]) -> TableStats {
        MaintainedStats::compute(schema, rows).stats
    }

    /// Estimated selectivity of an equality predicate on column `col`.
    pub fn eq_selectivity(&self, col: usize) -> f64 {
        self.columns
            .get(col)
            .map_or(0.1, ColumnStats::eq_selectivity)
    }
}

/// [`TableStats`] plus each column's non-null value multiplicities: what
/// a write needs to keep the statistics exact without a rescan. The maps
/// are long-lived and keyed by user data, so they keep std's SipHash.
#[derive(Debug, Clone)]
pub(crate) struct MaintainedStats {
    stats: TableStats,
    counts: Vec<HashMap<Value, usize>>,
    /// Columns whose min or max lost its last copy since the last
    /// [`MaintainedStats::settle`].
    unsettled: Vec<bool>,
}

impl MaintainedStats {
    fn empty(n_columns: usize) -> MaintainedStats {
        MaintainedStats {
            stats: TableStats::empty(n_columns),
            counts: vec![HashMap::new(); n_columns],
            unsettled: vec![false; n_columns],
        }
    }

    /// The statistics of `rows`: a fold of the [`MaintainedStats::add`]
    /// that inserts call.
    pub(crate) fn compute(schema: &Schema, rows: &[Tuple]) -> MaintainedStats {
        rows.iter()
            .fold(MaintainedStats::empty(schema.len()), |mut s, row| {
                s.add(row);
                s
            })
    }

    /// The statistics; a statement that removed rows must have called
    /// [`MaintainedStats::settle`] first.
    pub(crate) fn stats(&self) -> &TableStats {
        debug_assert!(!self.unsettled.contains(&true), "statistics read unsettled");
        &self.stats
    }

    /// Count one more row.
    pub(crate) fn add(&mut self, row: &Tuple) {
        self.stats.row_count += 1;
        for (i, v) in row.values().iter().enumerate().take(self.counts.len()) {
            self.add_value(i, v);
        }
    }

    /// Count one row fewer; `row` must have been added. Call
    /// [`MaintainedStats::settle`] after the statement's last removal.
    pub(crate) fn remove(&mut self, row: &Tuple) {
        self.stats.row_count -= 1;
        for (i, v) in row.values().iter().enumerate().take(self.counts.len()) {
            self.remove_value(i, v);
        }
    }

    /// Replace the added row `old` by `new`, touching only the columns
    /// whose value changed. Call [`MaintainedStats::settle`] after the
    /// statement's last replacement.
    pub(crate) fn replace(&mut self, old: &Tuple, new: &Tuple) {
        let pairs = old.values().iter().zip(new.values());
        for (i, (o, n)) in pairs.enumerate().take(self.counts.len()) {
            if o != n {
                self.add_value(i, n);
                self.remove_value(i, o);
            }
        }
    }

    /// Recompute the min and max of every column whose extreme a removal
    /// took away: one pass over that column's distinct values per
    /// statement, however many rows it removed.
    pub(crate) fn settle(&mut self) {
        for (col, unsettled) in self.unsettled.iter_mut().enumerate() {
            if std::mem::take(unsettled) {
                let keys = self.counts[col].keys();
                let cs = &mut self.stats.columns[col];
                cs.min = keys.clone().min_by(|a, b| a.sort_cmp(b)).cloned();
                cs.max = keys.max_by(|a, b| a.sort_cmp(b)).cloned();
            }
        }
    }

    /// Forget every row.
    pub(crate) fn clear(&mut self) {
        *self = MaintainedStats::empty(self.counts.len());
    }

    fn add_value(&mut self, col: usize, v: &Value) {
        let cs = &mut self.stats.columns[col];
        if v.is_null() {
            cs.null_count += 1;
            return;
        }
        let counts = &mut self.counts[col];
        match counts.get_mut(v) {
            Some(c) => *c += 1,
            None => {
                counts.insert(v.clone(), 1);
                cs.n_distinct += 1;
            }
        }
        if cs.min.as_ref().is_none_or(|m| v.sort_cmp(m).is_lt()) {
            cs.min = Some(v.clone());
        }
        if cs.max.as_ref().is_none_or(|m| v.sort_cmp(m).is_gt()) {
            cs.max = Some(v.clone());
        }
    }

    fn remove_value(&mut self, col: usize, v: &Value) {
        let cs = &mut self.stats.columns[col];
        if v.is_null() {
            cs.null_count -= 1;
            return;
        }
        let counts = &mut self.counts[col];
        // INVARIANT: every stored row was counted by `add`, so each of its
        // non-null values has a multiplicity of at least one.
        let c = counts.get_mut(v).expect("removed value was counted");
        *c -= 1;
        if *c > 0 {
            return;
        }
        counts.remove(v);
        cs.n_distinct -= 1;
        // Only the last copy of an extreme moves it; `settle` finds the
        // new one. (While a column is unsettled, `add_value` may compare
        // against a removed extreme; `settle` overwrites the result.)
        if cs.min.as_ref() == Some(v) || cs.max.as_ref() == Some(v) {
            self.unsettled[col] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Text),
        ])
    }

    fn rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::text("a")]),
            Tuple::new(vec![Value::Int(2), Value::Null]),
            Tuple::new(vec![Value::Int(2), Value::text("b")]),
            Tuple::new(vec![Value::Int(3), Value::text("a")]),
        ]
    }

    #[test]
    fn counts_and_distincts() {
        let s = TableStats::compute(&schema(), &rows());
        assert_eq!(s.row_count, 4);
        assert_eq!(s.columns[0].n_distinct, 3);
        assert_eq!(s.columns[0].null_count, 0);
        assert_eq!(s.columns[1].n_distinct, 2);
        assert_eq!(s.columns[1].null_count, 1);
    }

    #[test]
    fn min_max_follow_sql_sort_order() {
        let s = TableStats::compute(&schema(), &rows());
        assert_eq!(s.columns[0].min, Some(Value::Int(1)));
        assert_eq!(s.columns[0].max, Some(Value::Int(3)));
        assert_eq!(s.columns[1].min, Some(Value::text("a")));
        assert_eq!(s.columns[1].max, Some(Value::text("b")));
    }

    #[test]
    fn empty_table_stats() {
        let s = TableStats::compute(&schema(), &[]);
        assert_eq!(s.row_count, 0);
        assert_eq!(s.columns[0].n_distinct, 0);
        assert_eq!(s.columns[0].min, None);
        assert_eq!(s.eq_selectivity(0), 1.0);
    }

    #[test]
    fn selectivity_is_inverse_distinct() {
        let s = TableStats::compute(&schema(), &rows());
        assert!((s.eq_selectivity(0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.eq_selectivity(9), 0.1, "unknown column falls back");
    }
}
