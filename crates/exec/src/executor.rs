//! The executor ("Executor" stage of Figure 3): interprets a
//! [`PhysicalPlan`] against the storage catalog.
//!
//! The executor makes **no strategy decisions**: join algorithms, build
//! sides, index usage and operator fusion are all chosen by the physical
//! planner ([`crate::physical`]) — this module only runs the operators it
//! is handed. (Whether a node evaluates its expressions row by row or
//! over columnar batches is not in the plan either: the node's body
//! decides it where the kernels run, [`crate::kernels`].)
//!
//! There is one driver, the chunk cursor of [`crate::stream`]:
//! [`Executor::run_physical`] drains it and
//! [`Executor::into_stream_physical`] pulls it on demand. It runs physical
//! plans only: a statement's sublink bodies arrive lowered, under its
//! [`PhysicalPlan::SubPlans`] root.
//!
//! Every operator body lives in `crate::operators`; this module provides
//! the [`Executor`] itself, the dispatch of a blocking node to its body,
//! `VALUES` and sublink evaluation.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::Arc;

use perm_types::{ops, PermError, QueryContext, Result, Tuple, Value};

use perm_algebra::expr::{SubqueryExpr, SubqueryKind};
use perm_storage::Catalog;

use crate::compile::{hashed_in, try_hash_list, HashedList};
use crate::eval::{eval, in_semantics, Env};
use crate::memory::QueryMemory;
use crate::operators::{aggregate, join, setop, sort};
use crate::physical::{PhysicalPlan, SubPlan};
use crate::stream::Cursor;

/// Safety valve against runaway plans (cross products of cross products).
/// Generous enough for every workload in the repository; prevents a demo
/// query from eating the machine.
const MAX_ROWS: usize = 50_000_000;

/// The running statement's lowered sublink bodies and a result slot
/// for each (filled only for an uncorrelated sublink).
#[derive(Default)]
struct Sublinks {
    subplans: Arc<[SubPlan]>,
    slots: Vec<Option<Slot>>,
}

/// What a sublink's body produced: its rows, or — for an uncorrelated
/// `IN` — their first column hashed as an `IN` list is.
#[derive(Clone)]
enum Slot {
    Rows(Arc<Vec<Tuple>>),
    In(Arc<HashedList>),
}

/// The executor. Owns a catalog snapshot, the running statement's
/// sublink bodies and results, and the parameters of the sublink body it
/// is running (if any).
///
/// The catalog is an [`Arc`] snapshot rather than a borrow so that an
/// executor — and the streams it produces, see [`crate::stream`] — can be
/// sent to another thread and can outlive the server's catalog lock.
/// Results and plans are `Send`, so one prepared plan can be executed from
/// many threads, each with its own executor.
pub struct Executor {
    catalog: Arc<Catalog>,
    /// The running sublink body's parameters, shared behind an `Arc` so
    /// operators borrow them with a refcount bump (outside a correlated
    /// body they are empty).
    params: RefCell<Arc<[Value]>>,
    sublinks: RefCell<Sublinks>,
    /// This query's view of the server memory pool. Buffering operators
    /// register reservations here; the default is unbounded.
    memory: QueryMemory,
    /// Run filters, computed projections and sort keys over columnar
    /// batches where every expression has a kernel ([`crate::kernels`]);
    /// off = the row interpreter everywhere (the reference semantics, and
    /// the baseline the equivalence property pins the batch path
    /// against).
    columnar: bool,
    /// This statement's lifecycle context: cancellation token + optional
    /// deadline, checked cooperatively at batch boundaries and operator
    /// loops. The default detached context never cancels.
    context: QueryContext,
}

impl Executor {
    pub fn new(catalog: Arc<Catalog>) -> Executor {
        Executor {
            catalog,
            params: RefCell::new(Arc::from([])),
            sublinks: RefCell::default(),
            memory: QueryMemory::default(),
            columnar: true,
            context: QueryContext::detached(),
        }
    }

    /// Attach the statement's lifecycle context (cancellation token and
    /// deadline). Every long-running loop below this executor checks it
    /// cooperatively, so `cancel()` stops the statement within a bounded
    /// amount of work.
    pub fn with_context(mut self, ctx: QueryContext) -> Executor {
        self.context = ctx;
        self
    }

    /// The statement's lifecycle context (parallel workers and streams
    /// clone it into their sub-executors).
    pub fn context(&self) -> &QueryContext {
        &self.context
    }

    /// Cooperative cancellation point: the typed `Cancelled` error once
    /// this statement is cancelled or past its deadline. One relaxed
    /// atomic load while the statement is live.
    #[inline]
    pub fn check_cancelled(&self) -> Result<()> {
        self.context.check()
    }

    /// Attach tracked execution memory: buffering operators charge their
    /// state against `memory` (and through it the server pool) and
    /// switch to their spill paths when a grow is denied.
    pub fn with_memory(mut self, memory: QueryMemory) -> Executor {
        self.memory = memory;
        self
    }

    /// This query's memory accounting.
    pub fn memory(&self) -> &QueryMemory {
        &self.memory
    }

    /// Has no effect: parallelism is the physical planner's setting
    /// ([`crate::PhysicalPlanner::max_parallelism`]). Kept so existing
    /// callers build.
    pub fn with_parallelism(self, _max_parallelism: usize, _parallel_threshold: usize) -> Executor {
        self
    }

    /// Enable or disable columnar batch execution (on by default). With
    /// it off every operator runs the row interpreter — the reference
    /// semantics the batch path is pinned against.
    pub fn with_columnar(mut self, on: bool) -> Executor {
        self.columnar = on;
        self
    }

    /// True if nodes whose expressions all have kernels run over columnar
    /// batches.
    pub fn columnar(&self) -> bool {
        self.columnar
    }

    /// Has no effect: plans are verified where they are lowered
    /// ([`crate::PhysicalPlanner::plan_verified`]). Kept so existing
    /// callers build.
    pub fn with_verification(self, _on: bool) -> Executor {
        self
    }

    /// The catalog snapshot this executor reads from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The one way a worker thread gets its executor: a shareable factory
    /// over what a worker inherits from its parent — the catalog
    /// snapshot, the lifecycle context and the columnar switch. The
    /// sublink bodies and the memory handle stay behind: workers never
    /// evaluate a sublink (sublink pipelines are planned serial) and
    /// operators charge their reservations on the calling thread.
    pub(crate) fn worker_factory(&self) -> impl Fn() -> Executor + Send + Sync + 'static {
        let catalog = Arc::clone(&self.catalog);
        let context = self.context.clone();
        let columnar = self.columnar;
        move || {
            Executor::new(Arc::clone(&catalog))
                .with_columnar(columnar)
                .with_context(context.clone())
        }
    }

    /// Execute a physical plan and materialize its result: build the one
    /// chunk cursor over it ([`crate::stream`]) and drain it.
    pub fn run_physical(&self, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
        Cursor::build(self, plan, Cow::Borrowed)?.drain(self)
    }

    /// Run a blocking node's body once, over its materialized inputs: the
    /// first pull of the node's cursor.
    pub(crate) fn run_blocking(&self, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
        match plan {
            PhysicalPlan::Values { rows, .. } => {
                // Each expression is evaluated exactly once, so the
                // interpreter is the right tool here — compilation would
                // only add overhead.
                let empty = Tuple::empty();
                let params = self.params();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let env = Env::new(&empty, &params);
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(eval(self, e, &env)?);
                    }
                    out.push(Tuple::new(vals));
                }
                Ok(out)
            }
            PhysicalPlan::HashJoin { .. }
            | PhysicalPlan::NLJoin { .. }
            | PhysicalPlan::IndexNLJoin { .. } => join::join(self, plan),
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                dop,
                spill,
                output,
            } => aggregate::run_aggregate(self, input, group_by, aggs, *dop, *spill, *output),
            PhysicalPlan::HashDistinct { input, dop, spill } => {
                setop::run_distinct(self, input, *dop, *spill)
            }
            PhysicalPlan::HashSetOp {
                op,
                all,
                left,
                right,
                dop,
                spill,
            } => setop::run_setop(self, *op, *all, left, right, *dop, *spill),
            PhysicalPlan::Sort {
                input,
                keys,
                dop,
                spill,
            } => sort::run_sort(self, input, keys, *dop, *spill),
            PhysicalPlan::FusedScanProjectFilter { .. }
            | PhysicalPlan::IndexScan { .. }
            | PhysicalPlan::Filter { .. }
            | PhysicalPlan::Project { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::SubPlans { .. } => {
                unreachable!("pipeline nodes and the statement root are cursors, never blocking")
            }
        }
    }

    /// Start the statement rooted at `plan`: take the lowered sublink
    /// bodies of a [`PhysicalPlan::SubPlans`] root, with empty result
    /// slots. A caller driving a [`crate::Pipe`] itself calls this first.
    pub fn enter_statement(&self, plan: &PhysicalPlan) {
        if let PhysicalPlan::SubPlans { subplans, .. } = plan {
            *self.sublinks.borrow_mut() = Sublinks {
                subplans: Arc::clone(subplans),
                slots: vec![None; subplans.len()],
            };
        }
    }

    /// Evaluate a sublink for the row in `env` through its lowered body,
    /// found by the identity of the sublink's body. A correlated body runs
    /// per call, its outer references bound as parameters; an
    /// uncorrelated one reads none, so it runs once per statement into its
    /// slot — for `IN` the first column hashed by [`try_hash_list`] and
    /// probed by [`hashed_in`], which answer as [`in_semantics`] over the
    /// rows does.
    pub(crate) fn eval_sublink(&self, sq: &SubqueryExpr, env: &Env<'_>) -> Result<Value> {
        let subplans = Arc::clone(&self.sublinks.borrow().subplans);
        let Some(i) = subplans.iter().position(|s| Arc::ptr_eq(&s.body, &sq.plan)) else {
            return Err(PermError::Execution(
                "sublink body was not lowered with its statement".into(),
            ));
        };
        // INVARIANT: the binder attaches an operand to every IN sublink.
        let operand = || sq.operand.as_deref().expect("IN has operand");
        let correlated = !sq.outer_refs.is_empty();
        let hashed = sq.kind == SubqueryKind::In && !correlated;
        // The operand of a hashed IN comes first: a NULL one never runs
        // the body.
        let needle = hashed.then(|| eval(self, operand(), env)).transpose()?;
        if needle.as_ref().is_some_and(Value::is_null) {
            return Ok(Value::Null);
        }
        let cached = self.sublinks.borrow().slots[i].clone();
        let slot = match cached {
            Some(slot) if !correlated => slot,
            _ => {
                let body = &subplans[i].plan;
                let rows = if correlated {
                    let params = (sq.outer_refs.iter())
                        .map(|e| eval(self, e, env))
                        .collect::<Result<_>>()?;
                    let saved = std::mem::replace(&mut *self.params.borrow_mut(), params);
                    let rows = self.run_physical(body);
                    *self.params.borrow_mut() = saved;
                    rows?
                } else {
                    self.run_physical(body)?
                };
                let list = hashed.then(|| try_hash_list(rows.iter().map(|t| t.get(0))));
                let slot = match list.flatten() {
                    Some(list) => Slot::In(Arc::new(list)),
                    None => Slot::Rows(Arc::new(rows)),
                };
                if !correlated {
                    self.sublinks.borrow_mut().slots[i] = Some(slot.clone());
                }
                slot
            }
        };
        let r = match (slot, sq.kind) {
            (Slot::Rows(rows), SubqueryKind::Exists) => {
                return Ok(Value::Bool(rows.is_empty() == sq.negated))
            }
            (Slot::Rows(rows), SubqueryKind::Scalar) => {
                return match rows.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(rows[0].get(0).clone()),
                    n => Err(PermError::Execution(format!(
                        "scalar subquery returned {n} rows"
                    ))),
                }
            }
            (slot, _) => {
                let needle = match needle {
                    Some(needle) => needle,
                    None => eval(self, operand(), env)?,
                };
                match slot {
                    Slot::In(list) => hashed_in(&needle, &list)?,
                    Slot::Rows(rows) => in_semantics(&needle, rows.iter().map(|t| t.get(0)))?,
                }
            }
        };
        if sq.negated {
            ops::not(&r)
        } else {
            Ok(r)
        }
    }

    /// The running body's parameters (operators that evaluate
    /// expressions need them to build `Env`s). A refcount bump, not a
    /// copy.
    pub(crate) fn params(&self) -> Arc<[Value]> {
        Arc::clone(&self.params.borrow())
    }

    /// Guard helper for operators that multiply cardinalities.
    pub fn check_row_budget(&self, n: usize) -> Result<()> {
        if n > MAX_ROWS {
            return Err(PermError::Execution(format!(
                "intermediate result exceeds {MAX_ROWS} rows; aborting"
            )));
        }
        Ok(())
    }
}

/// Validate that `table`'s current schema still matches the plan's scan
/// schema — column names and types, not just arity (qualifiers are
/// bind-time aliases and may differ). A table dropped and re-created
/// since planning must fail execution rather than silently return
/// differently-shaped rows under the old column names.
pub(crate) fn check_scan_schema(
    t: &perm_storage::Table,
    table: &str,
    schema: &perm_types::Schema,
) -> Result<()> {
    let stored = t.schema();
    let stale = stored.len() != schema.len()
        || stored
            .iter()
            .zip(schema.iter())
            .any(|(s, p)| s.name != p.name || s.ty != p.ty);
    if stale {
        return Err(PermError::Execution(format!(
            "table '{table}' changed schema since planning; re-plan (or re-prepare) the statement"
        )));
    }
    Ok(())
}
