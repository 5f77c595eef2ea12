//! The one hash key of the equality-keyed operators: the hash join's
//! build, probe and Grace scatter, the index probe and hash aggregation.
//!
//! A [`KeyPlan`] is compiled once per node from the key expressions and
//! one match rule per key column ([`Match`]): under SQL `=` a NULL or NaN
//! value compares unknown with everything (`ops::eq`), so a row with one
//! gets no key; under grouping equality (`IS NOT DISTINCT FROM`, `GROUP
//! BY`) NULL = NULL and NaN = NaN, exactly [`Value`]'s `Eq` and `Hash`.
//! Either way two admitted keys are equal exactly when the SQL comparison
//! says so. A key reads its row through [`Input`]: a plain slot in place
//! ([`RowRef`], a join input's layout included), anything else over the
//! row gathered as a tuple, at most once per row.

use std::borrow::Cow;

use perm_algebra::expr::ScalarExpr;
use perm_types::{Result, Tuple, Value};

use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::Executor;
use crate::operators::join::RowRef;

/// How one key column matches.
#[derive(Clone, Copy)]
pub(super) enum Match {
    /// SQL `=`: NULL and NaN match nothing.
    Equal,
    /// Grouping equality: NULL = NULL, NaN = NaN.
    NotDistinct,
}

impl Match {
    /// Whether `v` can match anything under this rule.
    #[inline]
    fn admits(self, v: &Value) -> bool {
        match self {
            Match::NotDistinct => true,
            Match::Equal => !v.is_null() && !matches!(v, Value::Float(f) if f.is_nan()),
        }
    }
}

/// A row's hash key: one value inline (the common single-column key
/// allocates nothing), several in one allocation.
#[derive(PartialEq, Eq, Hash, Clone)]
pub(super) enum HashKey {
    One(Value),
    Many(Box<[Value]>),
}

impl HashKey {
    /// The key of a global aggregate's one group.
    pub(super) fn empty() -> HashKey {
        HashKey::Many(Box::default())
    }

    /// The key's values, in key-column order.
    pub(super) fn values(&self) -> &[Value] {
        match self {
            HashKey::One(v) => std::slice::from_ref(v),
            HashKey::Many(vs) => vs,
        }
    }

    /// Bytes the key holds (spill working-memory accounting).
    pub(super) fn size_bytes(&self) -> usize {
        self.values().iter().map(Value::size_bytes).sum()
    }
}

/// One input row as the key and argument expressions read it: a plain
/// slot straight through [`RowRef::value`], anything else over the row
/// as a tuple, gathered on first use.
pub(super) struct Input<'r, R> {
    row: &'r R,
    tuple: Option<Cow<'r, Tuple>>,
}

impl<'r, R: RowRef> Input<'r, R> {
    pub(super) fn new(row: &'r R) -> Input<'r, R> {
        Input { row, tuple: None }
    }

    /// `e` over the row. A slot past the row's width falls back to the
    /// evaluator, so the out-of-range error is the reference one.
    #[inline]
    pub(super) fn eval(
        &mut self,
        exec: &Executor,
        e: &CompiledExpr,
        params: &[Value],
    ) -> Result<Value> {
        if let CompiledExpr::Slot(i) = e {
            if *i < self.row.width() {
                return Ok(self.row.value(*i).clone());
            }
        }
        let row = self.row;
        let tuple = self.tuple.get_or_insert_with(|| row.tuple());
        e.eval(exec, &Env::new(tuple, params))
    }
}

/// A node's key expressions, compiled once, with each column's match
/// rule.
pub(super) struct KeyPlan {
    exprs: Vec<CompiledExpr>,
    rules: Vec<Match>,
}

impl KeyPlan {
    pub(super) fn compile<'e>(
        exec: &Executor,
        keys: impl IntoIterator<Item = (&'e ScalarExpr, Match)>,
    ) -> KeyPlan {
        let (exprs, rules) = keys
            .into_iter()
            .map(|(e, rule)| (CompiledExpr::compile(exec, e), rule))
            .unzip();
        KeyPlan { exprs, rules }
    }

    /// A `GROUP BY` key: every column under grouping equality.
    pub(super) fn grouping(exec: &Executor, group_by: &[ScalarExpr]) -> KeyPlan {
        KeyPlan::compile(exec, group_by.iter().map(|e| (e, Match::NotDistinct)))
    }

    /// The key of `input`'s row, `None` if an `=` column holds NULL or
    /// NaN. Columns evaluate in order and stop at the first such value,
    /// so a later column's error is not raised for a row that matches
    /// nothing.
    #[inline]
    pub(super) fn key<R: RowRef>(
        &self,
        exec: &Executor,
        input: &mut Input<'_, R>,
        params: &[Value],
    ) -> Result<Option<HashKey>> {
        if let [e] = self.exprs.as_slice() {
            // A plain slot is read in place and cloned only when admitted.
            if let CompiledExpr::Slot(s) = e {
                if *s < input.row.width() {
                    let v = input.row.value(*s);
                    return Ok(self.rules[0].admits(v).then(|| HashKey::One(v.clone())));
                }
            }
            let v = input.eval(exec, e, params)?;
            return Ok(self.rules[0].admits(&v).then_some(HashKey::One(v)));
        }
        // Exactly the capacity needed: the boxed slice keeps the one
        // allocation.
        let mut vals = Vec::with_capacity(self.exprs.len());
        // no-cancel: bounded by the key arity (a handful of columns per row).
        for (e, rule) in self.exprs.iter().zip(&self.rules) {
            let v = input.eval(exec, e, params)?;
            if !rule.admits(&v) {
                return Ok(None);
            }
            vals.push(v);
        }
        Ok(Some(HashKey::Many(vals.into_boxed_slice())))
    }
}
