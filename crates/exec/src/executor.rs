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
//! [`Executor::into_stream_physical`] pulls it on demand. Sessions lower
//! a statement's plan themselves and hand it to one of the two; callers
//! holding a [`LogicalPlan`] (sublink subplans, tests) go through
//! [`Executor::run`], which lowers the plan once per executor (cached by
//! plan identity) and drains the result.
//!
//! Every operator body lives in `crate::operators`; this module provides
//! the [`Executor`] itself, the dispatch of a blocking node to its body,
//! `VALUES` and the subquery result caches.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use perm_types::hash::{set_with_capacity, FxHashSet};
use perm_types::{PermError, QueryContext, Result, Tuple, Value};

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::LogicalPlan;
use perm_storage::Catalog;

use crate::eval::{eval, Env};
use crate::memory::QueryMemory;
use crate::operators::{aggregate, join, setop, sort};
use crate::physical::{PhysicalPlan, PhysicalPlanner};
use crate::stream::Cursor;

/// Cached first-column set of an uncorrelated IN subquery: the hashed
/// non-NULL values plus whether a NULL was present.
type InSet = Arc<(FxHashSet<Value>, bool)>;

/// Safety valve against runaway plans (cross products of cross products).
/// Generous enough for every workload in the repository; prevents a demo
/// query from eating the machine.
const MAX_ROWS: usize = 50_000_000;

/// The executor. Owns a catalog snapshot, the parameters of the sublink
/// body it is running (if any) and a cache of uncorrelated sublink
/// results.
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
    subquery_cache: RefCell<HashMap<usize, Arc<Vec<Tuple>>>>,
    /// Hashed first-column sets of uncorrelated IN subqueries
    /// (`(values, has_null)`), keyed by plan identity.
    in_set_cache: RefCell<HashMap<usize, InSet>>,
    /// Physical lowerings of logical plans run through this executor,
    /// keyed by plan identity (sublink subplans are lowered once, then
    /// re-executed per outer row).
    physical_cache: RefCell<HashMap<usize, Arc<PhysicalPlan>>>,
    /// Expressions cloned by the compiler ([`CompiledExpr::Interp`]),
    /// kept alive for the executor's lifetime: the three caches above
    /// key on plan/sublink *addresses*, so a clone must never be freed
    /// (and its address reused) while this executor can still serve a
    /// cache hit for it.
    kept_exprs: RefCell<Vec<Arc<ScalarExpr>>>,
    /// Disable hash joins: the nested-loop (NLJ) reference that the
    /// equivalence properties check every join strategy against.
    nested_loop_only: bool,
    /// Parallelism cap handed to the physical planner when this executor
    /// lowers logical plans itself (`0` = the machine's parallelism).
    max_parallelism: usize,
    /// Row threshold below which lowered pipelines stay serial.
    parallel_threshold: usize,
    /// Run the static plan verifier on every plan this executor lowers,
    /// even in release builds (debug builds verify inside the planner
    /// regardless). Each plan identity is verified at most once.
    verify: bool,
    verified: RefCell<FxHashSet<usize>>,
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
            subquery_cache: RefCell::new(HashMap::new()),
            in_set_cache: RefCell::new(HashMap::new()),
            physical_cache: RefCell::new(HashMap::new()),
            kept_exprs: RefCell::new(Vec::new()),
            nested_loop_only: false,
            max_parallelism: 0,
            parallel_threshold: crate::parallel::DEFAULT_PARALLEL_THRESHOLD,
            verify: false,
            verified: RefCell::new(FxHashSet::default()),
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

    /// Configure the parallelism the physical planner may choose when
    /// this executor lowers logical plans (`max_parallelism` 0 = auto,
    /// 1 = serial; `parallel_threshold` = minimum estimated input rows).
    pub fn with_parallelism(
        mut self,
        max_parallelism: usize,
        parallel_threshold: usize,
    ) -> Executor {
        self.max_parallelism = max_parallelism;
        self.parallel_threshold = parallel_threshold.max(1);
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

    /// Re-verify every plan this executor lowers ([`crate::verify`]), even
    /// in release builds; a violation surfaces as a planner error naming
    /// the failing invariant instead of executing a corrupt plan.
    pub fn with_verification(mut self, on: bool) -> Executor {
        self.verify = on;
        self
    }

    /// An executor that runs every join as a nested loop (the reference).
    pub fn new_nested_loop_only(catalog: Arc<Catalog>) -> Executor {
        Executor {
            nested_loop_only: true,
            ..Executor::new(catalog)
        }
    }

    /// The catalog snapshot this executor reads from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The one way a worker thread gets its executor: a shareable factory
    /// over what a worker inherits from its parent — the catalog
    /// snapshot, the lifecycle context and the columnar switch. Planner
    /// settings and the memory handle stay behind: workers never lower
    /// logical plans (sublink pipelines are planned serial) and operators
    /// charge their reservations on the calling thread.
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

    /// True if hash joins are disabled.
    pub fn nested_loop_only(&self) -> bool {
        self.nested_loop_only
    }

    /// Register an expression clone that must stay allocated as long as
    /// this executor lives (see `kept_exprs`), returning it shared.
    pub(crate) fn keep_alive(&self, e: ScalarExpr) -> Arc<ScalarExpr> {
        let arc = Arc::new(e);
        self.kept_exprs.borrow_mut().push(Arc::clone(&arc));
        arc
    }

    /// Lower a logical plan through the physical planner, caching by plan
    /// identity. Sublink subplans are lowered once and re-executed per
    /// outer row; the cached lowering is only valid while the plan the
    /// pointer refers to is alive (same contract as the subquery caches).
    pub fn physical(&self, plan: &LogicalPlan) -> Arc<PhysicalPlan> {
        let key = plan as *const LogicalPlan as usize;
        if let Some(hit) = self.physical_cache.borrow().get(&key) {
            return Arc::clone(hit);
        }
        let lowered = Arc::new(
            PhysicalPlanner::new(&self.catalog)
                .nested_loop_only(self.nested_loop_only)
                .max_parallelism(self.max_parallelism)
                .parallel_threshold(self.parallel_threshold)
                .plan(plan),
        );
        self.physical_cache
            .borrow_mut()
            .insert(key, Arc::clone(&lowered));
        lowered
    }

    /// Verify a lowering once per plan identity when this executor was
    /// built [`Executor::with_verification`]. Correlated sublink subplans
    /// re-run per outer row, so the memo keeps the hot path at one hash
    /// probe.
    pub(crate) fn check_lowering(&self, plan: &LogicalPlan, physical: &PhysicalPlan) -> Result<()> {
        if !self.verify {
            return Ok(());
        }
        let key = plan as *const LogicalPlan as usize;
        if self.verified.borrow().contains(&key) {
            return Ok(());
        }
        crate::verify::verify_physical(physical, "physical-planning")?;
        self.verified.borrow_mut().insert(key);
        Ok(())
    }

    /// Execute a logical plan: lower it (cached), then run the physical
    /// plan. All strategy decisions happen in the lowering.
    pub fn run(&self, plan: &LogicalPlan) -> Result<Vec<Tuple>> {
        let physical = self.physical(plan);
        self.check_lowering(plan, &physical)?;
        self.run_physical(&physical)
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
            | PhysicalPlan::Limit { .. } => {
                unreachable!("pipeline nodes are cursors, never blocking")
            }
        }
    }

    /// Execute a sublink body with `params` as its parameters.
    pub(crate) fn run_with_params(
        &self,
        plan: &LogicalPlan,
        params: Arc<[Value]>,
    ) -> Result<Vec<Tuple>> {
        let saved = std::mem::replace(&mut *self.params.borrow_mut(), params);
        let result = self.run(plan);
        *self.params.borrow_mut() = saved;
        result
    }

    /// The hashed set of first-column values of an uncorrelated IN
    /// subquery (executed and hashed once). Returns the set and whether it
    /// contains NULL (needed for IN's three-valued semantics).
    pub fn run_cached_in_set(&self, plan: &LogicalPlan) -> Result<InSet> {
        let key = plan as *const LogicalPlan as usize;
        if let Some(hit) = self.in_set_cache.borrow().get(&key) {
            return Ok(Arc::clone(hit));
        }
        let rows = self.run_cached(plan)?;
        let mut set = set_with_capacity(rows.len());
        let mut has_null = false;
        for t in rows.iter() {
            let v = t.get(0);
            if v.is_null() {
                has_null = true;
            } else {
                set.insert(v.clone());
            }
        }
        let entry = Arc::new((set, has_null));
        self.in_set_cache
            .borrow_mut()
            .insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Execute an uncorrelated subplan once, caching by plan identity.
    pub fn run_cached(&self, plan: &LogicalPlan) -> Result<Arc<Vec<Tuple>>> {
        let key = plan as *const LogicalPlan as usize;
        if let Some(hit) = self.subquery_cache.borrow().get(&key) {
            return Ok(Arc::clone(hit));
        }
        // An uncorrelated body reads no parameter, so whichever are
        // bound cannot change its rows.
        let rows = Arc::new(self.run(plan)?);
        self.subquery_cache
            .borrow_mut()
            .insert(key, Arc::clone(&rows));
        Ok(rows)
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
