//! Hash aggregation with SQL NULL semantics, `DISTINCT` aggregates and the
//! `any_value` leniency aggregate.
//!
//! Groups are keyed by the one hash key ([`super::key`]) under grouping
//! equality: NULL = NULL and NaN = NaN. The input is charged once, on the
//! calling thread ([`charge_input`]), before the serial loop or the chunk
//! workers (`dop > 1`) run — or, denied on a may-spill node, the
//! partition driver on disk ([`Grouped`]).

use std::sync::Arc;

use perm_types::hash::{FxHashMap, FxHashSet};
use perm_types::ops;
use perm_types::{PermError, Result, RowBlock, Tuple, Value};

use perm_algebra::expr::{AggCall, AggFunc, ScalarExpr};
use perm_algebra::plan::AggOutput;

use crate::compile::CompiledExpr;
use crate::executor::Executor;
use crate::operators::join::{refs_of, JoinRefs, RefRow, RowRef, View};
use crate::operators::key::{HashKey, Input, KeyPlan};
use crate::operators::spill::{
    charge_input, partition_of, partitioned, Cap, Partitioned, Ran, Rows, Stream,
};
use crate::operators::RowError;
use crate::parallel::map_chunks;
use crate::physical::PhysicalPlan;

/// Running state of one aggregate within one group.
enum AggState {
    Count(i64),
    /// sum and avg share the accumulator. Integer inputs accumulate
    /// exactly in `int_total` (an `i128`, so any realistic number of
    /// `i64`s sums without precision loss); float inputs go to
    /// `float_total`. Only a genuine overflow — or a float input —
    /// promotes the result to `Float`.
    Sum {
        int_total: i128,
        float_total: f64,
        /// A float input was seen: the result is typed `Float`.
        float_seen: bool,
        /// `int_total` overflowed i128 and was folded into `float_total`.
        int_overflow: bool,
        seen: i64,
        avg: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    AnyValue(Option<Value>),
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        match call.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                int_total: 0,
                float_total: 0.0,
                float_seen: false,
                int_overflow: false,
                seen: 0,
                avg: false,
            },
            AggFunc::Avg => AggState::Sum {
                int_total: 0,
                float_total: 0.0,
                float_seen: true,
                int_overflow: false,
                seen: 0,
                avg: true,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::AnyValue => AggState::AnyValue(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(c) => {
                // count(*) gets v = None (counts rows); count(x) skips NULL.
                match v {
                    None => *c += 1,
                    Some(x) if !x.is_null() => *c += 1,
                    Some(_) => {}
                }
            }
            AggState::Sum {
                int_total,
                float_total,
                float_seen,
                int_overflow,
                seen,
                ..
            } => {
                // INVARIANT: the binder rejects argument-less SUM/AVG.
                let x = v.expect("sum/avg have an argument");
                if x.is_null() {
                    return Ok(());
                }
                match x {
                    Value::Int(i) => {
                        if *int_overflow {
                            *float_total += *i as f64;
                        } else {
                            match int_total.checked_add(i128::from(*i)) {
                                Some(t) => *int_total = t,
                                None => {
                                    // ~2^64 max-magnitude inputs needed;
                                    // degrade to float rather than error.
                                    *int_overflow = true;
                                    *float_total += *int_total as f64 + *i as f64;
                                    *int_total = 0;
                                }
                            }
                        }
                    }
                    Value::Float(f) => {
                        *float_total += f;
                        *float_seen = true;
                    }
                    other => {
                        return Err(PermError::Value(format!(
                            "sum/avg over non-numeric value {other}"
                        )))
                    }
                }
                *seen += 1;
            }
            AggState::MinMax { best, is_min } => {
                // INVARIANT: the binder rejects argument-less MIN/MAX.
                let x = v.expect("min/max have an argument");
                if x.is_null() {
                    return Ok(());
                }
                if improves(x, best.as_ref(), *is_min)? {
                    *best = Some(x.clone());
                }
            }
            AggState::AnyValue(slot) => {
                // INVARIANT: the binder rejects argument-less ANY_VALUE.
                let x = v.expect("any_value has an argument");
                if slot.is_none() && !x.is_null() {
                    *slot = Some(x.clone());
                }
            }
        }
        Ok(())
    }

    /// Fold `other` — the partial state of a *later* contiguous input
    /// chunk — into `self`. Comparisons keep the (new value, running
    /// best) argument order of [`AggState::update`], so a type-mismatch
    /// error surfaces the same way serial execution raises it. Float
    /// sums re-associate (partial sums add once per chunk instead of
    /// once per row), the standard parallel-aggregation trade.
    fn merge(&mut self, other: AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Sum {
                    int_total,
                    float_total,
                    float_seen,
                    int_overflow,
                    seen,
                    ..
                },
                AggState::Sum {
                    int_total: bt,
                    float_total: bft,
                    float_seen: bfs,
                    int_overflow: bio,
                    seen: bsn,
                    ..
                },
            ) => {
                *float_total += bft;
                *float_seen |= bfs;
                *seen += bsn;
                if *int_overflow || bio {
                    // Either side already degraded to float: fold both
                    // integer remainders in and stay degraded.
                    *float_total += *int_total as f64 + bt as f64;
                    *int_total = 0;
                    *int_overflow = true;
                } else {
                    match int_total.checked_add(bt) {
                        Some(t) => *int_total = t,
                        None => {
                            *int_overflow = true;
                            *float_total += *int_total as f64 + bt as f64;
                            *int_total = 0;
                        }
                    }
                }
            }
            (AggState::MinMax { best, is_min }, AggState::MinMax { best: ob, .. }) => {
                if let Some(x) = ob {
                    if improves(&x, best.as_ref(), *is_min)? {
                        *best = Some(x);
                    }
                }
            }
            (AggState::AnyValue(slot), AggState::AnyValue(ob)) => {
                if slot.is_none() {
                    *slot = ob;
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum {
                int_total,
                float_total,
                float_seen,
                int_overflow,
                seen,
                avg,
            } => {
                if seen == 0 {
                    return Value::Null;
                }
                let total = int_total as f64 + float_total;
                if avg {
                    Value::Float(total / seen as f64)
                } else if float_seen || int_overflow {
                    Value::Float(total)
                } else if let Ok(exact) = i64::try_from(int_total) {
                    // Pure integer sum: exact, no f64 round-trip.
                    Value::Int(exact)
                } else {
                    // Genuine i64 overflow: promote to Float.
                    Value::Float(int_total as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::AnyValue(slot) => slot.unwrap_or(Value::Null),
        }
    }
}

/// Does `x` replace the running MIN/MAX `best`? The (new value, running
/// best) argument order is the one a type-mismatch error reports.
fn improves(x: &Value, best: Option<&Value>, is_min: bool) -> Result<bool> {
    let Some(b) = best else { return Ok(true) };
    let want = if is_min {
        std::cmp::Ordering::Less
    } else {
        std::cmp::Ordering::Greater
    };
    Ok(ops::sql_compare(x, b)? == Some(want))
}

/// One group's accumulators plus per-aggregate DISTINCT filters.
struct GroupState {
    states: Vec<AggState>,
    distinct_seen: Vec<Option<FxHashSet<Value>>>,
}

impl GroupState {
    fn new(calls: &[AggCall]) -> GroupState {
        GroupState {
            states: calls.iter().map(AggState::new).collect(),
            distinct_seen: calls
                .iter()
                .map(|c| {
                    if c.distinct {
                        Some(FxHashSet::default())
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }
}

/// One group of a partial: the position tag of the row that opened it,
/// its key and its accumulators.
struct Group {
    pos: u64,
    key: HashKey,
    state: GroupState,
}

/// Partial aggregation state over one stretch of input: the groups in
/// first-appearance order, the index from key to group, and — when the
/// aggregate emits witnesses — the group of every accumulated row, in
/// input order.
#[derive(Default)]
pub(super) struct AggPartial {
    groups: Vec<Group>,
    index: FxHashMap<HashKey, usize>,
    members: Vec<usize>,
}

/// The one accumulate loop, shared by the serial driver (the whole
/// input), every chunk-parallel worker (one contiguous chunk) and the
/// spilled driver (one hash partition read back from disk): fold
/// position-tagged `rows` — a join's refs or materialized tuples, see
/// [`RowRef`] — into a fresh partial. `on_new_group` lets the spilled
/// driver charge each group it opens; `witnesses` records each row's
/// group for [`finish`]. An evaluation error carries the position of the
/// row that raised it (see [`RowError`]).
pub(super) fn accumulate<R: RowRef>(
    exec: &Executor,
    rows: impl Iterator<Item = Result<(u64, R)>>,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    params: &[Value],
    mut on_new_group: impl FnMut(&HashKey) -> Result<()>,
    witnesses: bool,
) -> std::result::Result<AggPartial, RowError> {
    // Group-by keys and aggregate arguments are compiled once, evaluated
    // per row (plain-column keys and arguments by direct slot copy).
    let group_c = KeyPlan::grouping(exec, group_by);
    let arg_c: Vec<Option<CompiledExpr>> = aggs
        .iter()
        .map(|call| call.arg.as_ref().map(|e| CompiledExpr::compile(exec, e)))
        .collect();

    // Group order: first appearance (deterministic output for tests; final
    // ordering comes from ORDER BY anyway).
    let mut partial = AggPartial::default();
    let fatal = |e| (None, e);
    for (ri, rec) in rows.enumerate() {
        // Masked cancellation check per 4096 accumulated rows.
        if ri % 4096 == 0 {
            exec.check_cancelled().map_err(fatal)?;
        }
        let (pos, t) = rec.map_err(fatal)?;
        let at = |e| (Some(pos), e);
        let mut input = Input::new(&t);
        let key = group_c.key(exec, &mut input, params).map_err(at)?;
        // INVARIANT: grouping equality admits every value, so every row
        // has a key.
        let key = key.expect("grouping keys admit every row");
        // One hash per row: the entry API probes once, and only a *new*
        // group clones its key into the group list.
        let g = match partial.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                on_new_group(v.key()).map_err(fatal)?;
                partial.groups.push(Group {
                    pos,
                    key: v.key().clone(),
                    state: GroupState::new(aggs),
                });
                *v.insert(partial.groups.len() - 1)
            }
        };
        if witnesses {
            partial.members.push(g);
        }
        let state = &mut partial.groups[g].state;
        // no-cancel: bounded by the aggregate-call count.
        for (i, arg_expr) in arg_c.iter().enumerate() {
            let arg = match arg_expr {
                Some(e) => Some(input.eval(exec, e, params).map_err(at)?),
                None => None,
            };
            if let (Some(seen), Some(v)) = (&mut state.distinct_seen[i], &arg) {
                if v.is_null() || !seen.insert(v.clone()) {
                    continue; // duplicate (or NULL) under DISTINCT
                }
            }
            state.states[i].update(arg.as_ref()).map_err(at)?;
        }
    }
    Ok(partial)
}

/// Fold `later` (a strictly later contiguous chunk) into `into`. New
/// groups append in `later`'s first-appearance order, so the merged
/// order is global first-appearance order — exactly the serial order —
/// and `later`'s row memberships, renumbered, follow `into`'s.
pub(super) fn merge_partials(into: &mut AggPartial, later: AggPartial) -> Result<()> {
    let mut renumber = Vec::with_capacity(later.groups.len());
    // no-cancel: merge of already-computed partial states.
    for Group { pos, key, state } in later.groups {
        match into.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let target = &mut into.groups[*e.get()].state;
                debug_assert!(
                    state.distinct_seen.iter().all(Option::is_none),
                    "DISTINCT aggregates are planned serial"
                );
                // no-cancel: bounded by the aggregate-call count.
                for (t, s) in target.states.iter_mut().zip(state.states) {
                    t.merge(s)?;
                }
                renumber.push(*e.get());
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                into.groups.push(Group {
                    pos,
                    key: v.key().clone(),
                    state,
                });
                renumber.push(*v.insert(into.groups.len() - 1));
            }
        }
    }
    into.members
        .extend(later.members.into_iter().map(|g| renumber[g]));
    Ok(())
}

/// Turn a partial into output rows, in its first-appearance order, one
/// block for all of them; `tag` sees each group's opening position (the
/// spilled driver keeps it to restore the global order, the others drop
/// it).
///
/// With `witnesses = Some(rows)` — row `i` of `rows` is the partial's
/// accumulated row `i` — each group emits its member rows in input
/// order, each gathered once behind the group's columns and aggregates;
/// a global aggregate over no rows emits its one row NULL-extended, as
/// the join-back it replaces does.
pub(super) fn finish<O>(
    exec: &Executor,
    mut partial: AggPartial,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    witnesses: Option<&View<'_>>,
    tag: impl Fn(u64, Tuple) -> O,
) -> Result<Vec<O>> {
    // A global aggregate over an empty input still yields one row.
    if group_by.is_empty() && partial.groups.is_empty() {
        partial.groups.push(Group {
            pos: 0,
            key: HashKey::empty(),
            state: GroupState::new(aggs),
        });
    }
    let mut block = RowBlock::new(partial.groups.len(), group_by.len() + aggs.len());
    // no-cancel: output assembly from already-computed group states.
    let heads = partial.groups.into_iter().map(|Group { pos, key, state }| {
        let aggs = state.states.into_iter().map(AggState::finish);
        (pos, block.push(key.values().iter().cloned().chain(aggs)))
    });
    let Some(rows) = witnesses else {
        return Ok(heads.map(|(pos, t)| tag(pos, t)).collect());
    };
    let heads: Vec<(u64, Tuple)> = heads.collect();
    // Counting sort of the accumulated rows by group: `start[g]..start[g
    // + 1]` of `order` lists group g's rows in input order.
    let mut start = vec![0usize; heads.len() + 1];
    // no-cancel: one counter bump per row; the emit loop below checks.
    for &g in &partial.members {
        start[g + 1] += 1;
    }
    let empty = (0..heads.len()).filter(|&g| start[g + 1] == 0).count();
    // no-cancel: bounded by the group count.
    for g in 0..heads.len() {
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut order = vec![0usize; partial.members.len()];
    // no-cancel: one store per row; the emit loop below checks.
    for (i, &g) in partial.members.iter().enumerate() {
        order[next[g]] = i;
        next[g] += 1;
    }
    let n = order.len() + empty;
    let mut gather = rows.gathering(n, group_by.len() + aggs.len());
    let mut out = Vec::with_capacity(n);
    for (g, (pos, head)) in heads.iter().enumerate() {
        let members = &order[start[g]..start[g + 1]];
        if members.is_empty() {
            out.push(tag(*pos, gather.padded(head.values(), rows.width())));
        }
        for &i in members {
            // Masked cancellation check per 4096 emitted rows.
            if out.len() % 4096 == 0 {
                exec.check_cancelled()?;
            }
            out.push(tag(*pos, rows.gather(head.values(), i, &mut gather)));
        }
    }
    Ok(out)
}

pub(crate) fn run_aggregate(
    exec: &Executor,
    input: &PhysicalPlan,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    dop: usize,
    spill: bool,
    output: AggOutput,
) -> Result<Vec<Tuple>> {
    // A join input stays refs: keys and arguments read through its
    // layout, and witness rows are gathered once, in `finish`.
    let refs = Arc::new(refs_of(exec, input)?);
    let params = exec.params();
    // A witness aggregate's input arity: the NULL padding of a global
    // aggregate over no rows.
    let witnesses = (output == AggOutput::Witnesses).then(|| refs.width());

    // Global aggregates keep O(1) state regardless of input size:
    // nothing to charge, nothing to spill. Grouped aggregation charges
    // the input bytes — the hash table's keys and states are bounded by
    // them — and a denial switches to the partitioned on-disk path. A
    // witness aggregate holds every input row until it emits them, so it
    // charges them too; a global one has no partitions to spill to.
    let charge = !group_by.is_empty() || witnesses.is_some();
    let spill = spill && !group_by.is_empty();
    let reservation = exec.memory().register("HashAggregate");
    let view = refs.view(exec)?;
    if charge {
        let sizes = (0..view.len()).map(|r| view.size_bytes(r));
        if let Some(backing) = charge_input(&reservation, sizes, view.len(), 1, spill)? {
            let op = Arc::new(Grouped::new(exec, group_by, aggs, witnesses));
            return partitioned(exec, backing, [Arc::clone(&refs)], op);
        }
    }

    let partial = if dop > 1 {
        // Chunk-parallel: each worker accumulates one contiguous chunk
        // into a private hash table; partials merge in chunk order. The
        // input was charged whole above, on this thread.
        let worker = exec.worker_factory();
        let group_by_owned: Arc<Vec<ScalarExpr>> = Arc::new(group_by.to_vec());
        let aggs_owned: Arc<Vec<AggCall>> = Arc::new(aggs.to_vec());
        let (refs, params) = (Arc::clone(&refs), params.clone());
        let partials = map_chunks(exec.context(), dop, view.len(), move |range| {
            let sub = worker();
            let view = refs.view(&sub)?;
            accumulate(
                &sub,
                view.positions(range),
                &group_by_owned,
                &aggs_owned,
                &params,
                |_| Ok(()),
                witnesses.is_some(),
            )
            .map_err(|(_, e)| e)
        })?;
        let mut iter = partials.into_iter();
        let mut acc = iter.next().unwrap_or_default();
        // no-cancel: merge of already-computed partials, bounded by dop.
        for p in iter {
            merge_partials(&mut acc, p)?;
        }
        acc
    } else {
        accumulate(
            exec,
            view.positions(0..view.len()),
            group_by,
            aggs,
            &params,
            |_| Ok(()),
            witnesses.is_some(),
        )
        .map_err(|(_, e)| e)?
    };
    finish(
        exec,
        partial,
        group_by,
        aggs,
        witnesses.map(|_| &view),
        |_, t| t,
    )
}

/// A grouped aggregate (of a witness aggregate, the input arity
/// `witnesses`) as the partition driver runs it: keyed by the group key,
/// with [`accumulate`] / [`finish`] as the body. Groups (and a witness
/// aggregate's kept rows) are emitted under the position that opened the
/// group, so the driver's stable reorder restores the serial order. As in
/// the serial loop (a row's key, then its arguments), a key error at `i`
/// stops the scatter, but an argument error before `i` still wins.
pub(super) struct Grouped {
    keys: KeyPlan,
    group_by: Vec<ScalarExpr>,
    aggs: Vec<AggCall>,
    params: Arc<[Value]>,
    witnesses: Option<usize>,
}

impl Grouped {
    pub(super) fn new(
        exec: &Executor,
        group_by: &[ScalarExpr],
        aggs: &[AggCall],
        witnesses: Option<usize>,
    ) -> Grouped {
        debug_assert!(!group_by.is_empty(), "global aggregates never spill");
        let distinct = aggs.iter().any(|c| c.distinct);
        debug_assert!(!distinct, "DISTINCT aggregates never spill");
        Grouped {
            keys: KeyPlan::grouping(exec, group_by),
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
            params: exec.params(),
            witnesses,
        }
    }
}

impl Partitioned<1> for Grouped {
    fn key(&self, exec: &Executor, _: usize, row: &RefRow, parts: usize) -> Result<Option<usize>> {
        let key = self.keys.key(exec, &mut Input::new(row), &self.params)?;
        Ok(key.map(|key| partition_of(&key, parts)))
    }

    /// Charges what the in-memory table would hold: each group's key and
    /// states, and a witness aggregate's kept rows.
    fn run<I: Stream>(&self, exec: &Executor, [rows]: [I; 1], cap: Cap, out: &mut Rows) -> Ran {
        let (fatal, mut kept) = (|e| (None, e), Vec::new());
        let rows = rows.map(|rec| {
            let (tag, t) = rec?;
            if self.witnesses.is_some() {
                cap.grow(t.size_bytes())?;
                kept.push(t.clone());
            }
            Ok((tag, t))
        });
        let group_bytes = 32 * self.aggs.len().max(1);
        let on_new_group = |key: &HashKey| cap.grow(key.size_bytes() + group_bytes);
        let (group_by, aggs, params) = (&self.group_by, &self.aggs, &self.params);
        let witnesses = self.witnesses.is_some();
        let partial = accumulate(exec, rows, group_by, aggs, params, on_new_group, witnesses)?;
        let kept = self.witnesses.map(|width| JoinRefs::rows(kept, width));
        let kept = kept.transpose().map_err(fatal)?;
        let view = kept.as_ref().map(|k| k.view(exec)).transpose();
        let (view, tagged) = (view.map_err(fatal)?, |tag, t| (tag, t));
        let rows = finish(exec, partial, group_by, aggs, view.as_ref(), tagged);
        out.extend(rows.map_err(fatal)?);
        Ok(())
    }
}
