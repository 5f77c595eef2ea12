//! The physical plan IR and the cost-based physical planner — phase 2 of
//! the two-phase optimizer (phase 1, the logical pass, is
//! [`crate::planner`]).
//!
//! A [`LogicalPlan`] says *what* to compute; a [`PhysicalPlan`] says
//! *how*. The planner makes every execution-strategy decision **here**,
//! at plan time, so the executor ([`crate::executor`]) is a pure
//! interpreter of explicit operators:
//!
//! * **Scan fusion** — `Project? → Filter? → Scan` chains collapse into
//!   one [`PhysicalPlan::FusedScanProjectFilter`] that reads base rows
//!   borrowed and materializes only its output.
//! * **Index scans** — a `col = literal` conjunct over an indexed column
//!   becomes an [`PhysicalPlan::IndexScan`] (point lookup + residual
//!   predicate).
//! * **Join strategy** — equi-joins run as [`PhysicalPlan::HashJoin`]
//!   with a cost-chosen `build_side`, or as
//!   [`PhysicalPlan::IndexNLJoin`] when the inner side is a (filtered,
//!   projected) base-table scan with a hash index on the join column and
//!   the outer side is small; everything else is an
//!   [`PhysicalPlan::NLJoin`].
//! * **Projection fusion** — a slot-only projection over a join is folded
//!   into the join's `out_slots`, so combined rows are never materialized.
//!
//! # Cost model
//!
//! Costs come from the unified [`CardinalityEstimator`]
//! (row counts + distinct counts from `perm_storage` table statistics via
//! [`crate::CatalogStats`] — the same numbers the provenance rewriter's
//! strategy chooser reads). The formulas are deliberately coarse:
//!
//! * hash join: `cost = |build| + |probe|` (build + probe, both linear);
//! * index NLJ: `cost = |outer| · (1 + |inner| / d(key))` — one lookup
//!   plus the expected matches per probe;
//! * the build side of an inner hash join is the smaller input (with a
//!   2× hysteresis so ties keep the right side, preserving output order).

use std::fmt::Write as _;
use std::sync::Arc;

use perm_algebra::expr::{AggCall, ScalarExpr, SubqueryExpr};
use perm_algebra::plan::{AggOutput, JoinType, LogicalPlan, SetOpType, SortKey};
use perm_algebra::printer::{self, list, PlanNode};
use perm_algebra::stats::{estimate_rows, CardinalityEstimator};
use perm_storage::Catalog;
use perm_types::{Schema, Value};

use crate::adapter::CatalogStats;
use crate::parallel::{auto_parallelism, pool_parallelism, DEFAULT_PARALLEL_THRESHOLD};

/// Minimum partition count buffering operators use when they spill to
/// disk.
///
/// The plan only says whether a node may spill; a spilling operator
/// sizes its fanout at run time from the rows it actually writes out
/// ([`spill_fanout_for_rows`]).
pub const SPILL_PARTITIONS: usize = 8;

/// Largest spill fanout an operator will pick. Each partition costs one
/// open file per input of a spilling operator, so the fanout is bounded
/// even for huge inputs.
pub const MAX_SPILL_PARTITIONS: usize = 64;

/// Rows one spilled partition should hold so that reading it back fits
/// comfortably in memory; drives [`spill_fanout_for_rows`].
pub const SPILL_PARTITION_TARGET_ROWS: f64 = 65_536.0;

/// The spill partition fanout for an operator spilling `rows` rows: the
/// smallest power of two giving at most [`SPILL_PARTITION_TARGET_ROWS`]
/// per partition, clamped to
/// [`SPILL_PARTITIONS`]`..=`[`MAX_SPILL_PARTITIONS`]. Small inputs keep
/// a small, cheap fanout while a huge build side gets enough partitions
/// that each one fits in memory when read back.
pub fn spill_fanout_for_rows(rows: f64) -> usize {
    let wanted = (rows / SPILL_PARTITION_TARGET_ROWS).ceil();
    if !wanted.is_finite() || wanted <= SPILL_PARTITIONS as f64 {
        return SPILL_PARTITIONS;
    }
    ((wanted as usize).next_power_of_two()).min(MAX_SPILL_PARTITIONS)
}

/// One hashable equi-key pair of a join: `left_expr ⋈ right_expr`, with
/// the right expression rebased to the right input's columns.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiKey {
    pub left: ScalarExpr,
    pub right: ScalarExpr,
    pub null_safe: bool,
}

/// Which input of a [`PhysicalPlan::HashJoin`] the hash table is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSide {
    Left,
    Right,
}

/// A physical query plan: explicit operators with every strategy decision
/// already made. Produced by [`PhysicalPlanner`], consumed by
/// [`crate::Executor::run_physical`] and [`crate::stream::TupleStream`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Sequential base-table scan with fused residual filter and output
    /// projection. With neither, this is a plain `SeqScan`.
    FusedScanProjectFilter {
        table: String,
        /// Expected base schema (staleness check against the catalog).
        schema: Schema,
        /// Residual predicate over the base row.
        filter: Option<ScalarExpr>,
        /// Output expressions over the base row; `None` emits the row.
        project: Option<Vec<ScalarExpr>>,
        est_rows: f64,
        /// Degree of parallelism: morsel-parallel scan when > 1.
        dop: usize,
    },
    /// Hash-index point lookup `column = key`, plus residual predicate
    /// and fused projection. Falls back to a filtered sequential scan at
    /// run time if the index has disappeared since planning.
    IndexScan {
        table: String,
        schema: Schema,
        column: usize,
        key: Value,
        residual: Option<ScalarExpr>,
        project: Option<Vec<ScalarExpr>>,
        est_rows: f64,
    },
    /// Literal rows.
    Values {
        rows: Vec<Vec<ScalarExpr>>,
        arity: usize,
    },
    /// Projection over an arbitrary input.
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<ScalarExpr>,
    },
    /// Filter over an arbitrary input.
    Filter {
        input: Box<PhysicalPlan>,
        predicate: ScalarExpr,
    },
    /// Hash join on extracted equi-keys.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinType,
        keys: Vec<EquiKey>,
        /// Non-equi conjuncts, evaluated over the combined row.
        residual: Option<ScalarExpr>,
        build_side: BuildSide,
        /// Input arities (left, right).
        nl: usize,
        nr: usize,
        /// Fused slot-only output projection over the join output.
        out_slots: Option<Vec<usize>>,
        est_rows: f64,
        /// Degree of parallelism: the probe phase runs morsel-parallel
        /// when > 1 (the build stays on the calling thread).
        dop: usize,
        /// May run as a Grace join over spill partitions when the build
        /// side's memory reservation is denied; `false` = must not spill
        /// (FULL joins, sublink pipelines).
        spill: bool,
    },
    /// Index nested-loop join: for each outer row, probe the inner base
    /// table's hash index with the evaluated key expression.
    IndexNLJoin {
        outer: Box<PhysicalPlan>,
        /// Inner | Left | Semi | Anti (left side preserved).
        kind: JoinType,
        table: String,
        schema: Schema,
        /// Indexed base-table column probed per outer row.
        column: usize,
        /// Key expression over the outer row.
        key: ScalarExpr,
        /// Fused filter over the inner *base* row.
        inner_filter: Option<ScalarExpr>,
        /// Fused slot projection of the inner base row (`None` = whole row).
        inner_project: Option<Vec<usize>>,
        /// Remaining join conjuncts over `outer ++ inner-output`.
        residual: Option<ScalarExpr>,
        nl: usize,
        nr: usize,
        out_slots: Option<Vec<usize>>,
        est_rows: f64,
        /// Degree of parallelism: outer rows probe morsel-parallel when > 1.
        dop: usize,
    },
    /// Nested-loop join (non-equi and cross joins, the NLJ reference).
    NLJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinType,
        condition: Option<ScalarExpr>,
        nl: usize,
        nr: usize,
        out_slots: Option<Vec<usize>>,
        est_rows: f64,
    },
    /// Hash aggregation.
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<ScalarExpr>,
        aggs: Vec<AggCall>,
        /// Degree of parallelism: per-worker partial hash tables over
        /// contiguous input chunks, merged in chunk order, when > 1.
        dop: usize,
        /// May take the grouped spill path when the hash table's memory
        /// reservation is denied; `false` = must not spill (DISTINCT
        /// aggregates, sublink pipelines).
        spill: bool,
        /// One row per group, or one per input row with its group's
        /// columns in front ([`AggOutput::Witnesses`]; the input row
        /// follows the aggregates).
        output: AggOutput,
    },
    /// Hash duplicate elimination.
    HashDistinct {
        input: Box<PhysicalPlan>,
        /// Degree of parallelism: hash-partitioned dedup when > 1.
        dop: usize,
        /// May take the partitioned dedup spill path.
        spill: bool,
    },
    /// Set operation (hash-based; `UNION ALL` is a plain append).
    HashSetOp {
        op: SetOpType,
        all: bool,
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        /// Degree of parallelism: hash-partitioned set logic when > 1.
        dop: usize,
        /// May take the partitioned spill path; `false` = must not spill
        /// (`UNION ALL` append streams, it never buffers).
        spill: bool,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
        /// Degree of parallelism: parallel chunk sort + stable k-way
        /// merge when > 1.
        dop: usize,
        /// May take the external-sort spill path when the sort buffer's
        /// memory reservation is denied; `false` = must not spill
        /// (sublink sort keys).
        spill: bool,
    },
    Limit {
        input: Box<PhysicalPlan>,
        limit: Option<u64>,
        offset: u64,
    },
    /// The root of a statement with sublinks: its plan and the lowered
    /// body of every sublink in it, nested ones included (PostgreSQL's
    /// `PlannedStmt.subplans`). `EXPLAIN` draws `input`, then each body
    /// as a `SubPlan N` section, `N` its place in `subplans` plus one.
    SubPlans {
        input: Box<PhysicalPlan>,
        subplans: Arc<[SubPlan]>,
    },
}

/// One sublink body lowered with its statement. `body` is the sublink's
/// [`SubqueryExpr::plan`], whose `Arc` every clone of the sublink shares:
/// the executor finds `plan` by its identity.
#[derive(Debug, Clone, PartialEq)]
pub struct SubPlan {
    pub body: Arc<LogicalPlan>,
    pub plan: PhysicalPlan,
}

impl PhysicalPlan {
    /// Direct children.
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::FusedScanProjectFilter { .. }
            | PhysicalPlan::IndexScan { .. }
            | PhysicalPlan::Values { .. } => vec![],
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::HashDistinct { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::SubPlans { input, .. } => vec![input],
            PhysicalPlan::IndexNLJoin { outer, .. } => vec![outer],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NLJoin { left, right, .. }
            | PhysicalPlan::HashSetOp { left, right, .. } => vec![left, right],
        }
    }

    /// The degree of parallelism this node executes with (1 = serial;
    /// operators without a parallel implementation are always 1).
    pub fn dop(&self) -> usize {
        match self {
            PhysicalPlan::FusedScanProjectFilter { dop, .. }
            | PhysicalPlan::HashJoin { dop, .. }
            | PhysicalPlan::IndexNLJoin { dop, .. }
            | PhysicalPlan::HashAggregate { dop, .. }
            | PhysicalPlan::HashDistinct { dop, .. }
            | PhysicalPlan::HashSetOp { dop, .. }
            | PhysicalPlan::Sort { dop, .. } => *dop,
            _ => 1,
        }
    }

    /// Whether this node may spill to disk when a memory reservation is
    /// denied (`false`: it does not buffer, or the planner's legality
    /// rules keep it in memory).
    pub fn spill(&self) -> bool {
        match self {
            PhysicalPlan::HashJoin { spill, .. }
            | PhysicalPlan::HashAggregate { spill, .. }
            | PhysicalPlan::HashDistinct { spill, .. }
            | PhysicalPlan::HashSetOp { spill, .. }
            | PhysicalPlan::Sort { spill, .. } => *spill,
            _ => false,
        }
    }

    /// This node's own expressions (not its children's, nor the inside
    /// of sublink bodies).
    pub(crate) fn exprs(&self) -> Vec<&ScalarExpr> {
        match self {
            PhysicalPlan::FusedScanProjectFilter {
                filter, project, ..
            }
            | PhysicalPlan::IndexScan {
                residual: filter,
                project,
                ..
            } => filter.iter().chain(project.iter().flatten()).collect(),
            PhysicalPlan::Values { rows, .. } => rows.iter().flatten().collect(),
            PhysicalPlan::Project { exprs, .. } => exprs.iter().collect(),
            PhysicalPlan::Filter { predicate, .. } => vec![predicate],
            PhysicalPlan::HashJoin { keys, residual, .. } => (keys.iter())
                .flat_map(|k| [&k.left, &k.right])
                .chain(residual)
                .collect(),
            PhysicalPlan::IndexNLJoin {
                key,
                inner_filter,
                residual,
                ..
            } => [key]
                .into_iter()
                .chain(inner_filter)
                .chain(residual)
                .collect(),
            PhysicalPlan::NLJoin { condition, .. } => condition.iter().collect(),
            PhysicalPlan::HashAggregate { group_by, aggs, .. } => (group_by.iter())
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            PhysicalPlan::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
            PhysicalPlan::HashDistinct { .. }
            | PhysicalPlan::HashSetOp { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::SubPlans { .. } => vec![],
        }
    }

    /// Visit every sublink in this node's own expressions (not in its
    /// children's, nor inside sublink bodies).
    pub fn for_each_sublink(&self, f: &mut impl FnMut(&SubqueryExpr)) {
        for e in self.exprs() {
            e.visit(&mut |n| {
                if let ScalarExpr::Subquery(sq) = n {
                    f(sq);
                }
            });
        }
    }

    /// The statement's plan and its lowered sublink bodies: a
    /// [`PhysicalPlan::SubPlans`] root's parts, or `self` and none.
    pub(crate) fn statement(&self) -> (&PhysicalPlan, &[SubPlan]) {
        match self {
            PhysicalPlan::SubPlans { input, subplans } => (input, subplans),
            root => (root, &[]),
        }
    }

    /// Count of plan nodes (diagnostics and tests).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .into_iter()
            .map(PhysicalPlan::node_count)
            .sum::<usize>()
    }

    /// One-line operator description: the label [`physical_tree`] draws,
    /// before its `[dop=…]` and verbose suffixes.
    fn describe(&self) -> String {
        fn rows(est: f64) -> String {
            format!("  (~{} rows)", est.round() as i64)
        }
        match self {
            PhysicalPlan::FusedScanProjectFilter {
                table,
                filter,
                project,
                est_rows,
                ..
            } => {
                if filter.is_none() && project.is_none() {
                    format!("SeqScan({table}){}", rows(*est_rows))
                } else {
                    let mut s = format!("FusedScan({table})");
                    if let Some(f) = filter {
                        let _ = write!(s, " filter={f}");
                    }
                    if let Some(p) = project {
                        let _ = write!(s, " project=[{}]", list(p));
                    }
                    s.push_str(&rows(*est_rows));
                    s
                }
            }
            PhysicalPlan::IndexScan {
                table,
                column,
                key,
                residual,
                project,
                est_rows,
                ..
            } => {
                let mut s = format!("IndexScan({table}.#{column} = {key})");
                if let Some(r) = residual {
                    let _ = write!(s, " filter={r}");
                }
                if let Some(p) = project {
                    let _ = write!(s, " project=[{}]", list(p));
                }
                s.push_str(&rows(*est_rows));
                s
            }
            PhysicalPlan::Values { rows, .. } => format!("Values({} rows)", rows.len()),
            PhysicalPlan::Project { exprs, .. } => format!("Project [{}]", list(exprs)),
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::HashJoin {
                kind,
                keys,
                residual,
                build_side,
                out_slots,
                est_rows,
                ..
            } => {
                let keys = list(keys.iter().map(|k| {
                    let op = if k.null_safe { "<=>" } else { "=" };
                    format!("{} {op} {}", k.left, k.right)
                }));
                let build = match build_side {
                    BuildSide::Left => "left",
                    BuildSide::Right => "right",
                };
                let mut s = format!("HashJoin({}, build={build}) on [{keys}]", kind.name());
                if let Some(r) = residual {
                    let _ = write!(s, " residual={r}");
                }
                if let Some(slots) = out_slots {
                    let _ = write!(s, " project={slots:?}");
                }
                s.push_str(&rows(*est_rows));
                s
            }
            PhysicalPlan::IndexNLJoin {
                kind,
                table,
                column,
                key,
                residual,
                out_slots,
                est_rows,
                ..
            } => {
                let mut s = format!(
                    "IndexNLJoin({}) probe {table}.#{column} = {key}",
                    kind.name()
                );
                if let Some(r) = residual {
                    let _ = write!(s, " residual={r}");
                }
                if let Some(slots) = out_slots {
                    let _ = write!(s, " project={slots:?}");
                }
                s.push_str(&rows(*est_rows));
                s
            }
            PhysicalPlan::NLJoin {
                kind,
                condition,
                out_slots,
                est_rows,
                ..
            } => {
                let mut s = match condition {
                    Some(c) => format!("NLJoin({}) on {c}", kind.name()),
                    None => format!("NLJoin({})", kind.name()),
                };
                if let Some(slots) = out_slots {
                    let _ = write!(s, " project={slots:?}");
                }
                s.push_str(&rows(*est_rows));
                s
            }
            PhysicalPlan::HashAggregate {
                group_by,
                aggs,
                output,
                ..
            } => {
                let witnesses = match output {
                    AggOutput::Groups => "",
                    AggOutput::Witnesses => " emit=witnesses",
                };
                let (g, a) = (list(group_by), list(aggs));
                format!("HashAggregate group=[{g}] aggs=[{a}]{witnesses}")
            }
            PhysicalPlan::HashDistinct { .. } => "HashDistinct".into(),
            PhysicalPlan::HashSetOp { op, all, .. } => match (op, all) {
                (SetOpType::Union, true) => "Append".into(),
                (op, all) => format!("Hash{}{}", op.name(), if *all { "All" } else { "" }),
            },
            PhysicalPlan::Sort { keys, .. } => format!("Sort [{}]", list(keys)),
            PhysicalPlan::Limit { limit, offset, .. } => match limit {
                Some(l) => format!("Limit {l} offset {offset}"),
                None => format!("Offset {offset}"),
            },
            PhysicalPlan::SubPlans { subplans, .. } => format!("SubPlans({})", subplans.len()),
        }
    }
}

/// Render a physical plan as an indented ASCII tree, its sublink bodies
/// as `SubPlan N` sections after it (the `EXPLAIN` artifact).
pub fn physical_tree(plan: &PhysicalPlan) -> String {
    draw(plan, false)
}

/// Like [`physical_tree`], but every buffering operator's line also
/// carries its estimated peak memory (`[est_mem≈…]`, from the same
/// cardinality estimates the cost model uses) and whether it may spill.
/// This is the `EXPLAIN VERBOSE` artifact.
pub fn physical_tree_verbose(plan: &PhysicalPlan) -> String {
    draw(plan, true)
}

impl PlanNode for PhysicalPlan {
    fn children(&self) -> Vec<&Self> {
        PhysicalPlan::children(self)
    }
    fn exprs(&self) -> Vec<&ScalarExpr> {
        PhysicalPlan::exprs(self)
    }
}

fn draw(plan: &PhysicalPlan, verbose: bool) -> String {
    let label = |node: &PhysicalPlan| {
        let mut line = node.describe();
        if node.dop() > 1 {
            let _ = write!(line, " [dop={}]", node.dop());
        }
        let peak = if verbose { node_peak_bytes(node) } else { 0.0 };
        if peak > 0.0 {
            // A spilling node sizes its fanout at run time.
            let spill = if node.spill() { "auto" } else { "never" };
            let _ = write!(line, " [est_mem≈{}] [spill={spill}]", fmt_bytes(peak));
        }
        line
    };
    let (root, subplans) = plan.statement();
    printer::draw(root, label, |sq| {
        (subplans.iter().find(|s| Arc::ptr_eq(&s.body, &sq.plan))).map(|s| &s.plan)
    })
}

/// Coarse per-value heap cost of the plan-time memory model (matches
/// the order of magnitude of [`perm_types::Value::size_bytes`]).
const EST_VALUE_BYTES: f64 = 24.0;
/// Per-row overhead (shared-slice header) in the same model.
const EST_ROW_OVERHEAD: f64 = 16.0;

fn est_row_bytes(width: usize) -> f64 {
    EST_ROW_OVERHEAD + EST_VALUE_BYTES * width.max(1) as f64
}

/// Output arity of a physical node (exact — every operator knows its
/// output width structurally).
pub(crate) fn out_arity(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::FusedScanProjectFilter {
            schema, project, ..
        } => project.as_ref().map_or(schema.len(), Vec::len),
        PhysicalPlan::IndexScan {
            schema, project, ..
        } => project.as_ref().map_or(schema.len(), Vec::len),
        PhysicalPlan::Values { arity, .. } => *arity,
        PhysicalPlan::Project { exprs, .. } => exprs.len(),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::HashDistinct { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::SubPlans { input, .. } => out_arity(input),
        PhysicalPlan::HashJoin {
            kind,
            nl,
            nr,
            out_slots,
            ..
        }
        | PhysicalPlan::IndexNLJoin {
            kind,
            nl,
            nr,
            out_slots,
            ..
        }
        | PhysicalPlan::NLJoin {
            kind,
            nl,
            nr,
            out_slots,
            ..
        } => out_slots.as_ref().map_or(
            // Semi/Anti joins emit only the left schema.
            if kind.produces_both_sides() {
                nl + nr
            } else {
                *nl
            },
            Vec::len,
        ),
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            output,
            ..
        } => {
            let witnesses = match output {
                AggOutput::Groups => 0,
                AggOutput::Witnesses => out_arity(input),
            };
            group_by.len() + aggs.len() + witnesses
        }
        PhysicalPlan::HashSetOp { left, .. } => out_arity(left),
    }
}

/// Estimated output rows of a physical node: the planner's recorded
/// estimate where one exists, coarse selectivity rules elsewhere.
fn est_out_rows(plan: &PhysicalPlan) -> f64 {
    match plan {
        PhysicalPlan::FusedScanProjectFilter { est_rows, .. }
        | PhysicalPlan::IndexScan { est_rows, .. }
        | PhysicalPlan::HashJoin { est_rows, .. }
        | PhysicalPlan::IndexNLJoin { est_rows, .. }
        | PhysicalPlan::NLJoin { est_rows, .. } => *est_rows,
        PhysicalPlan::Values { rows, .. } => rows.len() as f64,
        PhysicalPlan::Project { input, .. } | PhysicalPlan::SubPlans { input, .. } => {
            est_out_rows(input)
        }
        PhysicalPlan::Filter { input, .. } => est_out_rows(input) * 0.5,
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            output,
            ..
        } => {
            if *output == AggOutput::Witnesses {
                est_out_rows(input).max(1.0)
            } else if group_by.is_empty() {
                1.0
            } else {
                (est_out_rows(input) * 0.1).max(1.0)
            }
        }
        PhysicalPlan::HashDistinct { input, .. } => (est_out_rows(input) * 0.5).max(1.0),
        PhysicalPlan::HashSetOp {
            op, left, right, ..
        } => {
            let (l, r) = (est_out_rows(left), est_out_rows(right));
            match op {
                SetOpType::Union => l + r,
                SetOpType::Intersect => l.min(r),
                SetOpType::Except => l,
            }
        }
        PhysicalPlan::Sort { input, .. } => est_out_rows(input),
        PhysicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let cap = limit.map_or(f64::INFINITY, |l| (l + offset) as f64);
            est_out_rows(input).min(cap)
        }
    }
}

/// Estimated peak buffered bytes of one node — 0 for streaming
/// operators, which hold no more than a row at a time.
fn node_peak_bytes(plan: &PhysicalPlan) -> f64 {
    match plan {
        PhysicalPlan::HashJoin {
            left,
            right,
            keys,
            build_side,
            nl,
            nr,
            ..
        } => {
            let (build, width) = match build_side {
                BuildSide::Left => (left, *nl),
                BuildSide::Right => (right, *nr),
            };
            est_out_rows(build) * est_row_bytes(width + keys.len())
        }
        PhysicalPlan::HashAggregate { .. } => est_out_rows(plan) * est_row_bytes(out_arity(plan)),
        PhysicalPlan::HashDistinct { .. } => est_out_rows(plan) * est_row_bytes(out_arity(plan)),
        PhysicalPlan::HashSetOp {
            op,
            all,
            left,
            right,
            ..
        } => {
            if matches!(op, SetOpType::Union) && *all {
                return 0.0; // plain append: streams, never buffers
            }
            (est_out_rows(left) + est_out_rows(right)) * est_row_bytes(out_arity(plan))
        }
        PhysicalPlan::Sort { input, keys, .. } => {
            est_out_rows(input) * est_row_bytes(out_arity(plan) + keys.len())
        }
        _ => 0.0,
    }
}

/// Estimated peak memory of a whole plan in bytes: the sum of every
/// buffering operator's estimate. Coarse by design — admission control
/// uses it to decide *queueing*, never correctness; actual enforcement
/// happens at run time through [`crate::memory::MemoryReservation`].
pub fn estimated_peak_bytes(plan: &PhysicalPlan) -> u64 {
    fn sum(plan: &PhysicalPlan) -> f64 {
        node_peak_bytes(plan) + plan.children().into_iter().map(sum).sum::<f64>()
    }
    sum(plan).min(u64::MAX as f64).max(0.0) as u64
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{} B", b.round() as u64)
    }
}

/// Split an ON condition into hashable equi-key pairs and a residual.
///
/// A conjunct qualifies if it is `a = b` or `a IS NOT DISTINCT FROM b`
/// where one side references only left columns and the other only right
/// columns (and neither contains a sublink).
pub fn extract_equi_keys(cond: &ScalarExpr, nl: usize) -> (Vec<EquiKey>, Option<ScalarExpr>) {
    use perm_algebra::expr::BinOp;
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for c in cond.split_conjunction() {
        let (op_null_safe, l, r) = match c {
            ScalarExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } => (false, left, right),
            ScalarExpr::Binary {
                op: BinOp::NotDistinctFrom,
                left,
                right,
            } => (true, left, right),
            other => {
                residual.push(other.clone());
                continue;
            }
        };
        if l.contains_subquery() || r.contains_subquery() {
            residual.push(c.clone());
            continue;
        }
        let side = |e: &ScalarExpr| -> Option<bool> {
            // Some(true) = pure left, Some(false) = pure right.
            let cols = e.referenced_columns();
            if cols.is_empty() {
                return None; // constant; not usable as a key side marker
            }
            if cols.iter().all(|&i| i < nl) {
                Some(true)
            } else if cols.iter().all(|&i| i >= nl) {
                Some(false)
            } else {
                None
            }
        };
        match (side(l), side(r)) {
            (Some(true), Some(false)) => keys.push(EquiKey {
                left: (**l).clone(),
                right: r.map_columns(&|i| i - nl),
                null_safe: op_null_safe,
            }),
            (Some(false), Some(true)) => keys.push(EquiKey {
                left: (**r).clone(),
                right: l.map_columns(&|i| i - nl),
                null_safe: op_null_safe,
            }),
            _ => residual.push(c.clone()),
        }
    }
    let residual = if residual.is_empty() {
        None
    } else {
        Some(ScalarExpr::conjunction(residual))
    };
    (keys, residual)
}

/// The physical planner: lowers an optimized [`LogicalPlan`] to a
/// [`PhysicalPlan`], making all strategy decisions from the catalog's
/// statistics and indexes.
pub struct PhysicalPlanner<'a> {
    catalog: &'a Catalog,
    nested_loop_only: bool,
    max_parallelism: usize,
    parallel_threshold: usize,
}

/// Lower `plan` against `catalog` (the common entry point).
pub fn plan_physical(catalog: &Catalog, plan: &LogicalPlan) -> PhysicalPlan {
    PhysicalPlanner::new(catalog).plan(plan)
}

impl<'a> PhysicalPlanner<'a> {
    pub fn new(catalog: &'a Catalog) -> PhysicalPlanner<'a> {
        PhysicalPlanner {
            catalog,
            nested_loop_only: false,
            max_parallelism: auto_parallelism(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
        }
    }

    /// Has no effect: the plan carries no row/batch decision. Whether a
    /// node runs over columnar batches is decided by the executor's
    /// columnar switch ([`crate::Executor::with_columnar`]) where the
    /// kernels run ([`crate::kernels`]). Kept so existing callers build.
    pub fn columnar(self, _on: bool) -> PhysicalPlanner<'a> {
        self
    }

    /// Force every join to a nested loop (the equivalence reference).
    pub fn nested_loop_only(mut self, v: bool) -> PhysicalPlanner<'a> {
        self.nested_loop_only = v;
        self
    }

    /// Cap the degree of parallelism per pipeline (`0` = the machine's
    /// available parallelism, `1` = plan everything serial).
    pub fn max_parallelism(mut self, n: usize) -> PhysicalPlanner<'a> {
        self.max_parallelism = if n == 0 { auto_parallelism() } else { n };
        self
    }

    /// Minimum estimated input rows before a pipeline is parallelized
    /// (small queries stay serial and pay zero coordination overhead).
    pub fn parallel_threshold(mut self, rows: usize) -> PhysicalPlanner<'a> {
        self.parallel_threshold = rows.max(1);
        self
    }

    /// Choose a degree of parallelism for a pipeline over `input_rows`
    /// estimated rows. `safe` is false when the pipeline evaluates
    /// expressions a worker thread cannot run (sublinks, which need the
    /// executor's subquery machinery).
    fn choose_dop(&self, input_rows: f64, safe: bool) -> usize {
        if !safe || self.max_parallelism <= 1 || input_rows < self.parallel_threshold as f64 {
            return 1;
        }
        // Enough rows that every worker gets at least half a threshold's
        // worth of work; at least 2 once past the threshold at all. The
        // worker pool is what actually runs the morsels, so a DOP beyond
        // its size would only add chunk/merge fan-in, never concurrency.
        let per_worker = (self.parallel_threshold / 2).max(1);
        let cap = self.max_parallelism.min(pool_parallelism()).max(2);
        ((input_rows as usize) / per_worker).clamp(2, cap)
    }

    /// True if every expression can be evaluated on a worker thread.
    fn safe<'e>(exprs: impl IntoIterator<Item = &'e ScalarExpr>) -> bool {
        exprs.into_iter().all(|e| !e.contains_subquery())
    }

    /// Base-table row count (the input cardinality of a scan pipeline).
    fn table_rows(&self, table: &str) -> f64 {
        self.catalog
            .table(table)
            .map_or(0.0, |t| t.row_count() as f64)
    }

    fn stats(&self) -> CatalogStats<'a> {
        CatalogStats(self.catalog)
    }

    fn est(&self, plan: &LogicalPlan) -> f64 {
        estimate_rows(plan, &self.stats())
    }

    /// Lower a logical plan.
    ///
    /// In debug and test builds the resulting physical tree is re-checked
    /// by the static plan verifier ([`crate::verify`]) and a violation
    /// panics; release builds skip the check unless they opt in through
    /// [`PhysicalPlanner::plan_verified`].
    pub fn plan(&self, plan: &LogicalPlan) -> PhysicalPlan {
        let physical = self.lower_sublinks(self.plan_node(plan));
        #[cfg(debug_assertions)]
        if let Err(e) = crate::verify::verify_physical(&physical, "physical-planning") {
            panic!("{e}");
        }
        physical
    }

    /// Lower a logical plan and run the static plan verifier on the
    /// result regardless of build profile, returning (instead of
    /// panicking on) the first violation. Entry point behind
    /// `SessionOptions::verify_plans` and `EXPLAIN VERIFY`.
    pub fn plan_verified(&self, plan: &LogicalPlan) -> perm_types::Result<PhysicalPlan> {
        let physical = self.lower_sublinks(self.plan_node(plan));
        crate::verify::verify_physical(&physical, "physical-planning")?;
        Ok(physical)
    }

    /// Lower each sublink body in `root` — nested ones too, each once, as
    /// bound (not optimized) — and return `root` under a
    /// [`PhysicalPlan::SubPlans`] node holding them; a plan without
    /// sublinks comes back unchanged. Write statements call this on the
    /// node they build themselves.
    pub fn lower_sublinks(&self, root: PhysicalPlan) -> PhysicalPlan {
        let mut bodies = Vec::new();
        gather_bodies(&root, &mut bodies);
        if bodies.is_empty() {
            return root;
        }
        let mut subplans = Vec::with_capacity(bodies.len());
        // Lowering a body may find more bodies; `bodies` grows behind
        // the cursor.
        while let Some(body) = bodies.get(subplans.len()).cloned() {
            let plan = self.plan_node(&body);
            gather_bodies(&plan, &mut bodies);
            subplans.push(SubPlan { body, plan });
        }
        PhysicalPlan::SubPlans {
            input: Box::new(root),
            subplans: subplans.into(),
        }
    }

    fn plan_node(&self, plan: &LogicalPlan) -> PhysicalPlan {
        match plan {
            // Boundaries are stripped by the logical pass but lower
            // transparently if a caller plans an unoptimized tree.
            LogicalPlan::Boundary { input, .. } => self.plan_node(input),
            LogicalPlan::Scan { table, schema, .. } => PhysicalPlan::FusedScanProjectFilter {
                table: table.clone(),
                schema: schema.clone(),
                filter: None,
                project: None,
                est_rows: self.est(plan),
                dop: self.choose_dop(self.table_rows(table), true),
            },
            LogicalPlan::Values { rows, schema } => PhysicalPlan::Values {
                rows: rows.clone(),
                arity: schema.len(),
            },
            LogicalPlan::Filter { input, predicate } => {
                self.plan_filter(input, predicate, None, self.est(plan))
            }
            LogicalPlan::Project { input, exprs, .. } => self.plan_project(input, exprs, plan),
            LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                ..
            } => self.plan_join(left, right, *kind, condition.as_ref(), None, self.est(plan)),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                output,
                ..
            } => {
                // Partial-aggregate merging cannot reproduce per-group
                // DISTINCT filters, and worker threads cannot run
                // sublinks: both force serial execution.
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                let safe =
                    Self::safe(group_by.iter().chain(args)) && aggs.iter().all(|a| !a.distinct);
                PhysicalPlan::HashAggregate {
                    input: Box::new(self.plan_node(input)),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    dop: self.choose_dop(self.est(input), safe),
                    // The grouped spill path re-partitions and re-merges
                    // like the parallel path does, so it shares the same
                    // legality condition.
                    spill: safe,
                    output: *output,
                }
            }
            LogicalPlan::Distinct { input } => PhysicalPlan::HashDistinct {
                input: Box::new(self.plan_node(input)),
                dop: self.choose_dop(self.est(input), true),
                spill: true,
            },
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
                ..
            } => {
                // UNION ALL is a plain append — nothing to parallelize.
                let append = matches!(op, SetOpType::Union) && *all;
                let input_rows = self.est(left) + self.est(right);
                PhysicalPlan::HashSetOp {
                    op: *op,
                    all: *all,
                    left: Box::new(self.plan_node(left)),
                    right: Box::new(self.plan_node(right)),
                    dop: self.choose_dop(input_rows, !append),
                    spill: !append,
                }
            }
            LogicalPlan::Sort { input, keys } => {
                let safe = Self::safe(keys.iter().map(|k| &k.expr));
                PhysicalPlan::Sort {
                    input: Box::new(self.plan_node(input)),
                    keys: keys.clone(),
                    dop: self.choose_dop(self.est(input), safe),
                    spill: safe,
                }
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => PhysicalPlan::Limit {
                input: Box::new(self.plan_node(input)),
                limit: *limit,
                offset: *offset,
            },
        }
    }

    /// Lower `Filter(input)`, fusing into a scan when possible; `project`
    /// (if given) is an additional projection fused on top.
    fn plan_filter(
        &self,
        input: &LogicalPlan,
        predicate: &ScalarExpr,
        project: Option<&[ScalarExpr]>,
        est_rows: f64,
    ) -> PhysicalPlan {
        // A slot-only projection between the filter and its scan fuses
        // too (column pruning narrows the scan under a sublink filter,
        // which is never pushed through it): the filter reads the scan's
        // slots through it, and it composes with `project`.
        if let Some((scan, slots)) = narrowed_scan(input) {
            let through = |e: &ScalarExpr| e.map_columns(&|i| slots[i]);
            let project: Vec<ScalarExpr> = match project {
                Some(p) => p.iter().map(through).collect(),
                None => slots.iter().map(|&i| ScalarExpr::Column(i)).collect(),
            };
            return self.plan_filter(scan, &through(predicate), Some(&project), est_rows);
        }
        if let LogicalPlan::Scan { table, schema, .. } = input {
            // Index point lookup: `col = literal` on an indexed column.
            if let Some((column, key, residual)) = self.find_index_conjunct(table, predicate) {
                return PhysicalPlan::IndexScan {
                    table: table.clone(),
                    schema: schema.clone(),
                    column,
                    key,
                    residual,
                    project: project.map(<[ScalarExpr]>::to_vec),
                    est_rows,
                };
            }
            let exprs = std::iter::once(predicate).chain(project.unwrap_or_default());
            let dop = self.choose_dop(self.table_rows(table), Self::safe(exprs));
            return PhysicalPlan::FusedScanProjectFilter {
                table: table.clone(),
                schema: schema.clone(),
                filter: Some(predicate.clone()),
                project: project.map(<[ScalarExpr]>::to_vec),
                est_rows,
                dop,
            };
        }
        let filtered = PhysicalPlan::Filter {
            input: Box::new(self.plan_node(input)),
            predicate: predicate.clone(),
        };
        match project {
            Some(exprs) => PhysicalPlan::Project {
                input: Box::new(filtered),
                exprs: exprs.to_vec(),
            },
            None => filtered,
        }
    }

    /// Lower `Project(input)`, fusing into scans and joins.
    fn plan_project(
        &self,
        input: &LogicalPlan,
        exprs: &[ScalarExpr],
        whole: &LogicalPlan,
    ) -> PhysicalPlan {
        // An identity projection (slot i ↦ slot i, full width) only
        // renames columns — names live in the logical schema, so the
        // physical operator is dropped entirely.
        if let Some(slots) = slot_only(exprs) {
            if slots.len() == input.arity() && slots.iter().copied().eq(0..input.arity()) {
                return self.plan_node(input);
            }
        }
        match input {
            LogicalPlan::Scan { table, schema, .. } => PhysicalPlan::FusedScanProjectFilter {
                table: table.clone(),
                schema: schema.clone(),
                filter: None,
                project: Some(exprs.to_vec()),
                est_rows: self.est(whole),
                dop: self.choose_dop(self.table_rows(table), Self::safe(exprs)),
            },
            LogicalPlan::Filter {
                input: finput,
                predicate,
            } if matches!(finput.as_ref(), LogicalPlan::Scan { .. })
                || narrowed_scan(finput).is_some() =>
            {
                self.plan_filter(finput, predicate, Some(exprs), self.est(whole))
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                ..
            } => {
                // Slot-only projections fuse into the join output.
                if let Some(slots) = slot_only(exprs) {
                    self.plan_join(
                        left,
                        right,
                        *kind,
                        condition.as_ref(),
                        Some(slots),
                        self.est(whole),
                    )
                } else {
                    PhysicalPlan::Project {
                        input: Box::new(self.plan_node(input)),
                        exprs: exprs.to_vec(),
                    }
                }
            }
            other => PhysicalPlan::Project {
                input: Box::new(self.plan_node(other)),
                exprs: exprs.to_vec(),
            },
        }
    }

    /// Find a `col = literal` conjunct over an indexed column of `table`;
    /// returns `(column, key, residual predicate)`.
    fn find_index_conjunct(
        &self,
        table: &str,
        predicate: &ScalarExpr,
    ) -> Option<(usize, Value, Option<ScalarExpr>)> {
        use perm_algebra::expr::BinOp;
        let t = self.catalog.table(table).ok()?;
        let conjuncts = predicate.split_conjunction();
        for (i, c) in conjuncts.iter().enumerate() {
            let ScalarExpr::Binary {
                op: BinOp::Eq,
                left,
                right,
            } = c
            else {
                continue;
            };
            let (col, key) = match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Column(c), ScalarExpr::Literal(v))
                | (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => (*c, v),
                _ => continue,
            };
            if key.is_null() {
                continue; // `col = NULL` matches nothing; let eval handle it.
            }
            if t.index_on(col).is_none() {
                continue;
            }
            let residual: Vec<ScalarExpr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, e)| (*e).clone())
                .collect();
            let residual = if residual.is_empty() {
                None
            } else {
                Some(ScalarExpr::conjunction(residual))
            };
            return Some((col, key.clone(), residual));
        }
        None
    }

    /// Lower a join, choosing the strategy by cost.
    fn plan_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: JoinType,
        condition: Option<&ScalarExpr>,
        out_slots: Option<Vec<usize>>,
        est_rows: f64,
    ) -> PhysicalPlan {
        let nl = left.arity();
        let nr = right.arity();
        let (keys, residual) = condition
            .map(|c| extract_equi_keys(c, nl))
            .unwrap_or((vec![], None));

        if keys.is_empty() || self.nested_loop_only {
            return PhysicalPlan::NLJoin {
                left: Box::new(self.plan_node(left)),
                right: Box::new(self.plan_node(right)),
                kind,
                condition: condition.cloned(),
                nl,
                nr,
                out_slots,
                est_rows,
            };
        }

        let stats = self.stats();
        let l_est = self.est(left);
        let r_est = self.est(right);

        // Index nested-loop: the inner (right) side is a base-table scan
        // (possibly filtered / slot-projected) with a hash index on an
        // equi-key column, and probing beats building.
        if matches!(
            kind,
            JoinType::Inner | JoinType::Left | JoinType::Semi | JoinType::Anti
        ) {
            if let Some((table, schema, inner_filter, inner_project)) = as_scan_chain(right) {
                if let Some((ki, base_col)) = keys.iter().enumerate().find_map(|(ki, k)| {
                    if k.null_safe {
                        return None;
                    }
                    let ScalarExpr::Column(j) = k.right else {
                        return None;
                    };
                    let base = inner_project.as_ref().map_or(j, |p| p[j]);
                    stats.has_index(table, base).then_some((ki, base))
                }) {
                    let matches_per_probe = r_est
                        / stats
                            .column_distinct(table, base_col)
                            .unwrap_or_else(|| r_est.sqrt())
                            .max(1.0);
                    let inlj_cost = l_est * (1.0 + matches_per_probe);
                    let hash_cost = l_est + r_est;
                    if inlj_cost < hash_cost {
                        // Remaining keys join the residual, over the
                        // combined `outer ++ inner-output` row.
                        let mut rest: Vec<ScalarExpr> = keys
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != ki)
                            .map(|(_, k)| {
                                let op = if k.null_safe {
                                    perm_algebra::expr::BinOp::NotDistinctFrom
                                } else {
                                    perm_algebra::expr::BinOp::Eq
                                };
                                ScalarExpr::binary(
                                    op,
                                    k.left.clone(),
                                    k.right.map_columns(&|i| i + nl),
                                )
                            })
                            .collect();
                        if let Some(r) = &residual {
                            rest.push(r.clone());
                        }
                        let residual = if rest.is_empty() {
                            None
                        } else {
                            Some(ScalarExpr::conjunction(rest))
                        };
                        let key = keys[ki].left.clone();
                        let safety = [&key].into_iter().chain(inner_filter).chain(&residual);
                        let dop = self.choose_dop(l_est, Self::safe(safety));
                        return PhysicalPlan::IndexNLJoin {
                            outer: Box::new(self.plan_node(left)),
                            kind,
                            table: table.to_string(),
                            schema: schema.clone(),
                            column: base_col,
                            key,
                            inner_filter: inner_filter.cloned(),
                            inner_project,
                            residual,
                            nl,
                            nr,
                            out_slots,
                            est_rows,
                            dop,
                        };
                    }
                }
            }
        }

        // Hash join. Build on the smaller side for inner joins (the other
        // kinds need build-side match tracking that only the right-build
        // implementation provides).
        let build_side = if matches!(kind, JoinType::Inner) && l_est * 2.0 < r_est {
            BuildSide::Left
        } else {
            BuildSide::Right
        };
        // The probe phase is what parallelizes; FULL joins additionally
        // track build-side matches across probe rows, so they stay
        // serial.
        let probe_est = match build_side {
            BuildSide::Left => r_est,
            BuildSide::Right => l_est,
        };
        let sides = keys.iter().flat_map(|k| [&k.left, &k.right]);
        let safe = Self::safe(sides.chain(&residual)) && !matches!(kind, JoinType::Full);
        let dop = self.choose_dop(probe_est, safe);
        PhysicalPlan::HashJoin {
            left: Box::new(self.plan_node(left)),
            right: Box::new(self.plan_node(right)),
            kind,
            keys,
            residual,
            build_side,
            nl,
            nr,
            out_slots,
            est_rows,
            dop,
            // Grace-join repartitioning shares the parallel-probe
            // legality condition: FULL joins and sublink keys stay
            // serial *and* in memory.
            spill: safe,
        }
    }
}

/// Append to `bodies` each sublink body in `plan` it does not hold yet
/// (by identity), without opening the bodies.
fn gather_bodies(plan: &PhysicalPlan, bodies: &mut Vec<Arc<LogicalPlan>>) {
    plan.for_each_sublink(&mut |sq| {
        if !bodies.iter().any(|b| Arc::ptr_eq(b, &sq.plan)) {
            bodies.push(Arc::clone(&sq.plan));
        }
    });
    for child in plan.children() {
        gather_bodies(child, bodies);
    }
}

/// `Some(slots)` if every expression is a plain column reference.
fn slot_only(exprs: &[ScalarExpr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            ScalarExpr::Column(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// `Project(slots) → Scan`: the scan and the slots.
fn narrowed_scan(plan: &LogicalPlan) -> Option<(&LogicalPlan, Vec<usize>)> {
    match plan {
        LogicalPlan::Project { input, exprs, .. }
            if matches!(**input, LogicalPlan::Scan { .. }) =>
        {
            Some((input, slot_only(exprs)?))
        }
        _ => None,
    }
}

/// A recognized scan chain: `(table, schema, filter over base row, slot
/// projection)`.
type ScanChain<'a> = (
    &'a str,
    &'a Schema,
    Option<&'a ScalarExpr>,
    Option<Vec<usize>>,
);

/// Recognize `Project(slots)? → Filter? → Scan` chains — the shape the
/// index nested-loop join can probe directly.
fn as_scan_chain(plan: &LogicalPlan) -> Option<ScanChain<'_>> {
    fn scan_or_filter(p: &LogicalPlan) -> Option<(&str, &Schema, Option<&ScalarExpr>)> {
        match p {
            LogicalPlan::Scan { table, schema, .. } => Some((table, schema, None)),
            LogicalPlan::Filter { input, predicate } => match input.as_ref() {
                LogicalPlan::Scan { table, schema, .. } => Some((table, schema, Some(predicate))),
                _ => None,
            },
            _ => None,
        }
    }
    match plan {
        LogicalPlan::Project { input, exprs, .. } => {
            let slots = slot_only(exprs)?;
            let (t, s, f) = scan_or_filter(input)?;
            Some((t, s, f, Some(slots)))
        }
        other => {
            let (t, s, f) = scan_or_filter(other)?;
            Some((t, s, f, None))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Table;
    use perm_types::{Column, DataType, Tuple};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut big = Table::new(
            "big",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("v", DataType::Int),
            ]),
        );
        for i in 0..1000 {
            big.insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        big.create_index(0).unwrap();
        cat.create_table(big).unwrap();

        let mut small = Table::new(
            "small",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("w", DataType::Int),
            ]),
        );
        for i in 0..10 {
            small
                .insert(Tuple::new(vec![Value::Int(i * 100), Value::Int(i)]))
                .unwrap();
        }
        cat.create_table(small).unwrap();
        cat
    }

    fn scan(cat: &Catalog, name: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: cat.table(name).unwrap().schema().clone(),
            provenance_cols: vec![],
        }
    }

    fn eq(a: usize, b: usize) -> ScalarExpr {
        ScalarExpr::eq(ScalarExpr::Column(a), ScalarExpr::Column(b))
    }

    #[test]
    fn plain_scan_lowers_to_seq_scan() {
        let cat = catalog();
        let p = plan_physical(&cat, &scan(&cat, "big"));
        assert!(matches!(
            p,
            PhysicalPlan::FusedScanProjectFilter {
                filter: None,
                project: None,
                ..
            }
        ));
        assert!(physical_tree(&p).starts_with("SeqScan(big)"), "{p:?}");
    }

    #[test]
    fn indexed_point_filter_lowers_to_index_scan() {
        let cat = catalog();
        let f = LogicalPlan::filter(
            scan(&cat, "big"),
            ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Literal(Value::Int(7))),
        );
        let p = plan_physical(&cat, &f);
        assert!(
            matches!(p, PhysicalPlan::IndexScan { column: 0, .. }),
            "{p:?}"
        );
    }

    #[test]
    fn unindexed_filter_fuses_into_scan() {
        let cat = catalog();
        let f = LogicalPlan::filter(
            scan(&cat, "big"),
            ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Literal(Value::Int(7))),
        );
        let p = plan_physical(&cat, &f);
        assert!(
            matches!(
                p,
                PhysicalPlan::FusedScanProjectFilter {
                    filter: Some(_),
                    ..
                }
            ),
            "{p:?}"
        );
    }

    #[test]
    fn small_outer_with_indexed_inner_chooses_index_nl_join() {
        let cat = catalog();
        let j = LogicalPlan::join(
            scan(&cat, "small"),
            scan(&cat, "big"),
            JoinType::Inner,
            Some(eq(0, 2)),
        )
        .unwrap();
        let p = plan_physical(&cat, &j);
        assert!(
            matches!(p, PhysicalPlan::IndexNLJoin { column: 0, .. }),
            "{p:?}"
        );
    }

    #[test]
    fn large_outer_prefers_hash_join_with_small_build() {
        let cat = catalog();
        // big ⋈ small, no index on small: hash join, built on the right
        // (small) side by default.
        let j = LogicalPlan::join(
            scan(&cat, "big"),
            scan(&cat, "small"),
            JoinType::Inner,
            Some(eq(0, 2)),
        )
        .unwrap();
        let p = plan_physical(&cat, &j);
        assert!(
            matches!(
                p,
                PhysicalPlan::HashJoin {
                    build_side: BuildSide::Right,
                    ..
                }
            ),
            "{p:?}"
        );
        // small ⋈ big with the index cost beaten: swapped operands put
        // the small side left; inner build side flips to the left input.
        let mut cat2 = catalog();
        cat2.table_mut("big").unwrap().truncate();
        for i in 0..1000 {
            cat2.table_mut("big")
                .unwrap()
                .insert(Tuple::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        let j = LogicalPlan::join(
            scan(&cat2, "small"),
            scan(&cat2, "big"),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(3))),
        )
        .unwrap();
        let p = plan_physical(&cat2, &j);
        assert!(
            matches!(
                p,
                PhysicalPlan::HashJoin {
                    build_side: BuildSide::Left,
                    ..
                }
            ),
            "{p:?}"
        );
    }

    #[test]
    fn nested_loop_only_forces_nl_joins() {
        let cat = catalog();
        let j = LogicalPlan::join(
            scan(&cat, "small"),
            scan(&cat, "big"),
            JoinType::Inner,
            Some(eq(0, 2)),
        )
        .unwrap();
        let p = PhysicalPlanner::new(&cat).nested_loop_only(true).plan(&j);
        assert!(matches!(p, PhysicalPlan::NLJoin { .. }), "{p:?}");
    }

    #[test]
    fn slot_projection_fuses_into_join() {
        let cat = catalog();
        let j = LogicalPlan::join(
            scan(&cat, "big"),
            scan(&cat, "small"),
            JoinType::Inner,
            Some(eq(0, 2)),
        )
        .unwrap();
        let proj = LogicalPlan::project_positions(j, &[3, 1]);
        let p = plan_physical(&cat, &proj);
        match p {
            PhysicalPlan::HashJoin { out_slots, .. } => {
                assert_eq!(out_slots, Some(vec![3, 1]));
            }
            other => panic!("expected fused hash join, got {other:?}"),
        }
    }

    #[test]
    fn verbose_tree_annotates_buffering_operators() {
        let cat = catalog();
        let j = LogicalPlan::join(
            scan(&cat, "big"),
            scan(&cat, "small"),
            JoinType::Inner,
            Some(eq(0, 2)),
        )
        .unwrap();
        let p = plan_physical(&cat, &j);
        let t = physical_tree_verbose(&p);
        assert!(t.contains("est_mem≈"), "{t}");
        assert!(t.contains("[spill=auto]"), "{t}");
        // The plain tree stays free of the verbose annotations.
        assert!(!physical_tree(&p).contains("est_mem"), "{t}");
        assert!(estimated_peak_bytes(&p) > 0);

        // A FULL join must never spill, and the verbose tree says so.
        let f = LogicalPlan::join(
            scan(&cat, "big"),
            scan(&cat, "small"),
            JoinType::Full,
            Some(eq(0, 2)),
        )
        .unwrap();
        let pf = plan_physical(&cat, &f);
        assert!(!pf.spill(), "{pf:?}");
        assert!(physical_tree_verbose(&pf).contains("[spill=never]"));
    }

    #[test]
    fn spill_fanout_scales_with_estimated_rows() {
        assert_eq!(spill_fanout_for_rows(0.0), SPILL_PARTITIONS);
        assert_eq!(spill_fanout_for_rows(1000.0), SPILL_PARTITIONS);
        // Up to 8 target-sized partitions stay at the floor.
        assert_eq!(
            spill_fanout_for_rows(8.0 * SPILL_PARTITION_TARGET_ROWS),
            SPILL_PARTITIONS
        );
        assert_eq!(spill_fanout_for_rows(9.0 * SPILL_PARTITION_TARGET_ROWS), 16);
        assert_eq!(spill_fanout_for_rows(1e12), MAX_SPILL_PARTITIONS);
        assert_eq!(spill_fanout_for_rows(f64::INFINITY), SPILL_PARTITIONS);
    }

    #[test]
    fn physical_tree_draws_joins() {
        let cat = catalog();
        let j = LogicalPlan::join(
            scan(&cat, "big"),
            scan(&cat, "small"),
            JoinType::Inner,
            Some(eq(0, 2)),
        )
        .unwrap();
        let t = physical_tree(&plan_physical(&cat, &j));
        assert!(t.contains("HashJoin(Inner"), "{t}");
        assert!(t.contains("├── SeqScan(big)"), "{t}");
        assert!(t.contains("└── SeqScan(small)"), "{t}");
    }
}
