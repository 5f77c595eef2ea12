//! Typed column vectors: the data layout of vectorized execution.
//!
//! The executor's kernels work on a batch of up to
//! [`DEFAULT_BATCH_ROWS`] row references. They gather each slot an
//! expression reads, lazily and once per batch, into a typed vector
//! ([`ColumnVec`]) with a [`NullBitmap`] — the way arrow-style engines
//! lay out execution memory — run tight typed loops over those columns,
//! and build the output [`Tuple`]s directly. There is no batch container:
//! the rows stay where they are, and only the referenced columns are
//! ever pivoted.
//!
//! Columns are adaptively typed: a gather starts from the values it sees,
//! so a column whose non-null values are all `Int` becomes
//! [`ColumnVec::Ints`] and mixed-type columns degrade to the generic
//! [`ColumnVec::Vals`] — never an error, just a slower lane.

use std::sync::Arc;

use crate::tuple::Tuple;
use crate::value::Value;

/// Target number of rows per batch: small enough that a batch's working
/// set stays cache-resident, large enough to amortize per-batch setup.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// A validity bitmap: bit `i` is **set** when lane `i` is NULL (the less
/// common case, so an all-valid column is an all-zero — cheaply tested —
/// bitmap).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NullBitmap {
    words: Vec<u64>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    /// An all-valid bitmap over `len` lanes.
    pub fn new_valid(len: usize) -> NullBitmap {
        NullBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
            nulls: 0,
        }
    }

    /// Number of lanes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark lane `i` NULL.
    pub fn set_null(&mut self, i: usize) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        if self.words[w] & (1 << b) == 0 {
            self.words[w] |= 1 << b;
            self.nulls += 1;
        }
    }

    /// True when lane `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// True when no lane is NULL (the hot-loop fast path: kernels skip
    /// the per-lane bitmap probe entirely).
    #[inline]
    pub fn none_null(&self) -> bool {
        self.nulls == 0
    }

    /// True when every lane is NULL.
    pub fn all_null(&self) -> bool {
        self.nulls == self.len
    }

    /// Number of NULL lanes.
    pub fn null_count(&self) -> usize {
        self.nulls
    }
}

/// One column of a batch: typed storage plus a null bitmap. The payload
/// vector always has one slot per lane; NULL lanes hold an arbitrary
/// placeholder the bitmap masks out (kernels must consult the bitmap
/// before trusting a lane).
#[derive(Debug, Clone)]
pub enum ColumnVec {
    /// Every lane holds the same value (broadcast constants, outer refs).
    Const(Value, usize),
    Ints(Vec<i64>, NullBitmap),
    Floats(Vec<f64>, NullBitmap),
    Bools(Vec<bool>, NullBitmap),
    Texts(Vec<Arc<str>>, NullBitmap),
    /// Mixed-type escape hatch: plain values, evaluated lane-at-a-time.
    Vals(Vec<Value>),
}

impl ColumnVec {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Const(_, n) => *n,
            ColumnVec::Ints(v, _) => v.len(),
            ColumnVec::Floats(v, _) => v.len(),
            ColumnVec::Bools(v, _) => v.len(),
            ColumnVec::Texts(v, _) => v.len(),
            ColumnVec::Vals(v) => v.len(),
        }
    }

    /// True when the column covers no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when lane `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Const(v, _) => v.is_null(),
            ColumnVec::Ints(_, n)
            | ColumnVec::Floats(_, n)
            | ColumnVec::Bools(_, n)
            | ColumnVec::Texts(_, n) => n.is_null(i),
            ColumnVec::Vals(v) => v[i].is_null(),
        }
    }

    /// Materialize lane `i` as a [`Value`] (a refcount bump for text).
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnVec::Const(v, _) => v.clone(),
            ColumnVec::Ints(v, n) => {
                if n.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            ColumnVec::Floats(v, n) => {
                if n.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(v[i])
                }
            }
            ColumnVec::Bools(v, n) => {
                if n.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(v[i])
                }
            }
            ColumnVec::Texts(v, n) => {
                if n.is_null(i) {
                    Value::Null
                } else {
                    Value::Text(Arc::clone(&v[i]))
                }
            }
            ColumnVec::Vals(v) => v[i].clone(),
        }
    }

    /// Consume the column into one [`Value`] per lane. Unlike a
    /// [`ColumnVec::get`] loop this *moves* text payloads (no refcount
    /// traffic), which is what the executor's batch-to-row pivot wants
    /// for uniquely-owned result columns.
    pub fn into_vals(self) -> Vec<Value> {
        fn expand<T>(v: Vec<T>, nulls: &NullBitmap, wrap: impl Fn(T) -> Value) -> Vec<Value> {
            v.into_iter()
                .enumerate()
                .map(|(i, x)| {
                    if nulls.is_null(i) {
                        Value::Null
                    } else {
                        wrap(x)
                    }
                })
                .collect()
        }
        match self {
            ColumnVec::Const(v, n) => vec![v; n],
            ColumnVec::Ints(v, nulls) => expand(v, &nulls, Value::Int),
            ColumnVec::Floats(v, nulls) => expand(v, &nulls, Value::Float),
            ColumnVec::Bools(v, nulls) => expand(v, &nulls, Value::Bool),
            ColumnVec::Texts(v, nulls) => expand(v, &nulls, Value::Text),
            ColumnVec::Vals(v) => v,
        }
    }

    /// Gather slot `slot` of each row into a typed column. Rows narrower
    /// than `slot + 1` gather as NULL — slot-bound errors are the row
    /// path's to raise, and the executor only batches verified plans.
    pub fn gather(rows: &[&Tuple], slot: usize) -> ColumnVec {
        // Probe for the first non-null value to pick the typed layout;
        // a type change mid-column restarts into the generic layout.
        let n = rows.len();
        let first = rows
            .iter()
            .map(|t| {
                if slot < t.len() {
                    t.get(slot)
                } else {
                    &Value::Null
                }
            })
            .find(|v| !v.is_null());
        match first {
            None => {
                // All-NULL column.
                let mut nulls = NullBitmap::new_valid(n);
                for i in 0..n {
                    nulls.set_null(i);
                }
                ColumnVec::Ints(vec![0; n], nulls)
            }
            Some(Value::Int(_)) => gather_typed(rows, slot, 0i64, |v| match v {
                Value::Int(x) => Some(*x),
                _ => None,
            })
            .map_or_else(|| gather_vals(rows, slot), |(v, n)| ColumnVec::Ints(v, n)),
            Some(Value::Float(_)) => gather_typed(rows, slot, 0f64, |v| match v {
                Value::Float(x) => Some(*x),
                _ => None,
            })
            .map_or_else(|| gather_vals(rows, slot), |(v, n)| ColumnVec::Floats(v, n)),
            Some(Value::Bool(_)) => gather_typed(rows, slot, false, |v| match v {
                Value::Bool(x) => Some(*x),
                _ => None,
            })
            .map_or_else(|| gather_vals(rows, slot), |(v, n)| ColumnVec::Bools(v, n)),
            Some(Value::Text(_)) => {
                let empty: Arc<str> = Arc::from("");
                gather_typed(rows, slot, empty, |v| match v {
                    Value::Text(s) => Some(Arc::clone(s)),
                    _ => None,
                })
                .map_or_else(|| gather_vals(rows, slot), |(v, n)| ColumnVec::Texts(v, n))
            }
            Some(Value::Null) => unreachable!("find() skips nulls"),
        }
    }
}

/// Typed gather worker: `None` when a non-null lane does not match the
/// probed type (mixed column).
fn gather_typed<T: Clone>(
    rows: &[&Tuple],
    slot: usize,
    placeholder: T,
    extract: impl Fn(&Value) -> Option<T>,
) -> Option<(Vec<T>, NullBitmap)> {
    let n = rows.len();
    let mut out = Vec::with_capacity(n);
    let mut nulls = NullBitmap::new_valid(n);
    for (i, t) in rows.iter().enumerate() {
        let v = if slot < t.len() {
            t.get(slot)
        } else {
            &Value::Null
        };
        if v.is_null() {
            nulls.set_null(i);
            out.push(placeholder.clone());
        } else {
            out.push(extract(v)?);
        }
    }
    Some((out, nulls))
}

fn gather_vals(rows: &[&Tuple], slot: usize) -> ColumnVec {
    ColumnVec::Vals(
        rows.iter()
            .map(|t| {
                if slot < t.len() {
                    t.get(slot).clone()
                } else {
                    Value::Null
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn all_null_column_gathers_with_full_bitmap() {
        let rows = [t(vec![Value::Null]), t(vec![Value::Null])];
        let refs: Vec<&Tuple> = rows.iter().collect();
        let c = ColumnVec::gather(&refs, 0);
        match &c {
            ColumnVec::Ints(_, nulls) => {
                assert!(nulls.all_null());
                assert_eq!(nulls.null_count(), 2);
                assert!(!nulls.none_null());
            }
            other => panic!("expected placeholder Ints column, got {other:?}"),
        }
        assert_eq!(c.get(0), Value::Null);
        assert!(c.is_null(1));
    }

    #[test]
    fn typed_gather_with_interleaved_nulls() {
        let rows = [
            t(vec![Value::Int(1)]),
            t(vec![Value::Null]),
            t(vec![Value::Int(3)]),
        ];
        let refs: Vec<&Tuple> = rows.iter().collect();
        let c = ColumnVec::gather(&refs, 0);
        match &c {
            ColumnVec::Ints(v, nulls) => {
                assert_eq!(v[0], 1);
                assert!(nulls.is_null(1));
                assert!(!nulls.is_null(2));
                assert_eq!(nulls.null_count(), 1);
            }
            other => panic!("expected Ints, got {other:?}"),
        }
        assert_eq!(c.get(1), Value::Null);
    }

    #[test]
    fn mixed_types_degrade_to_vals() {
        let rows = [t(vec![Value::Int(1)]), t(vec![Value::text("x")])];
        let refs: Vec<&Tuple> = rows.iter().collect();
        match ColumnVec::gather(&refs, 0) {
            ColumnVec::Vals(v) => assert_eq!(v[1], Value::text("x")),
            other => panic!("expected Vals, got {other:?}"),
        }
    }

    #[test]
    fn unwanted_slots_stay_ungathered() {
        // A gather reads only its own slot: slot 0 mixes types, and
        // slot 1 still gathers as a typed column.
        let rows = [
            t(vec![Value::Int(1), Value::Int(2)]),
            t(vec![Value::text("x"), Value::Int(3)]),
        ];
        let refs: Vec<&Tuple> = rows.iter().collect();
        match ColumnVec::gather(&refs, 1) {
            ColumnVec::Ints(v, nulls) => {
                assert_eq!(v, [2, 3]);
                assert!(nulls.none_null());
            }
            other => panic!("expected Ints, got {other:?}"),
        }
    }

    #[test]
    fn short_rows_gather_as_null() {
        let rows = [
            t(vec![Value::Int(1), Value::Int(2)]),
            t(vec![Value::Int(3)]),
        ];
        let refs: Vec<&Tuple> = rows.iter().collect();
        let c = ColumnVec::gather(&refs, 1);
        assert!(c.is_null(1));
        assert_eq!(c.get(0), Value::Int(2));
    }

    #[test]
    fn const_columns_broadcast() {
        let c = ColumnVec::Const(Value::text("k"), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(c.get(4), Value::text("k"));
        assert!(!c.is_null(0));
        let n = ColumnVec::Const(Value::Null, 2);
        assert!(n.is_null(1));
    }
}
