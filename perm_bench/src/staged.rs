//! The traced run: the benchmark drives each statement stage by stage —
//! parse → bind (→ rewrite) → optimize → physical plan → execute — through
//! the public functions `Session::query` itself calls, with the session's
//! own options, and records a span around each call.
//!
//! Spans are recorded from here, around the calls into each crate; spans
//! inside the engine are a later change. They stay in memory and are
//! written out when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use perm_algebra::{
    bind_statement, BoundStatement, LogicalPlan, ProvenancePlan, ProvenanceTransform,
};
use perm_core::db::CatalogCardinalities;
use perm_core::{PermError, PermServer, QueryContext, QueryResult, Result, Session};
use perm_exec::{
    estimated_peak_bytes, optimize_with, CatalogAdapter, Executor, PhysicalPlanner, QueryMemory,
};
use perm_rewrite::Rewriter;
use perm_sql::{parse_statement, ContributionSemantics};

/// The layers a statement passes through, in pipeline order. `Statement`
/// is the root span of a request; its self time is what the drive spends
/// between stages (admission, context, result build). `stage as usize` is
/// the stage's position in [`Stage::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Statement,
    Parse,
    Snapshot,
    Bind,
    Rewrite,
    Optimize,
    PlanPhysical,
    Execute,
}

impl Stage {
    pub const ALL: [Stage; 8] = [
        Stage::Statement,
        Stage::Parse,
        Stage::Snapshot,
        Stage::Bind,
        Stage::Rewrite,
        Stage::Optimize,
        Stage::PlanPhysical,
        Stage::Execute,
    ];

    /// `<crate>.<stage>`: the crate whose public function the span wraps.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Statement => "core.statement",
            Stage::Parse => "sql.parse",
            Stage::Snapshot => "core.snapshot",
            Stage::Bind => "algebra.bind",
            Stage::Rewrite => "rewrite.rewrite",
            Stage::Optimize => "exec.optimize",
            Stage::PlanPhysical => "exec.plan_physical",
            Stage::Execute => "exec.execute",
        }
    }

    /// The work done on a statement before execution. Taking the catalog
    /// snapshot is waiting (for a writer to release the catalog lock), not
    /// front-end work.
    pub fn is_front_end(self) -> bool {
        !matches!(self, Stage::Statement | Stage::Snapshot | Stage::Execute)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a request's root.
    pub parent: Option<usize>,
    pub request_id: u64,
}

/// Self time per stage of one staged statement, in [`Stage::ALL`] order:
/// a span's duration minus what its child spans cover.
pub type SelfTimes = [Duration; Stage::ALL.len()];

/// Times the provenance rewriter from inside the binder's call into it, so
/// `rewrite` is a true child span of `bind` and not a difference of two
/// separately measured runs.
struct TimedRewriter<'a> {
    inner: Rewriter<'a>,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl ProvenanceTransform for TimedRewriter<'_> {
    fn rewrite_provenance(
        &self,
        plan: LogicalPlan,
        semantics: Option<ContributionSemantics>,
    ) -> Result<ProvenancePlan> {
        let start = Instant::now();
        let rewritten = self.inner.rewrite_provenance(plan, semantics);
        self.calls.borrow_mut().push((start, Instant::now()));
        rewritten
    }
}

/// Drives statements stage by stage on one session and keeps the spans.
pub struct StagedDriver {
    session: Session,
    server: PermServer,
    epoch: Instant,
    spans: Vec<Span>,
    requests: u64,
}

impl StagedDriver {
    pub fn new(session: &Session) -> StagedDriver {
        StagedDriver {
            session: session.clone(),
            server: session.server(),
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    fn record(
        &mut self,
        stage: Stage,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            stage,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request_id: self.requests,
        });
        self.spans.len() - 1
    }

    /// What `Session::query` does for a query, one public call at a time.
    /// Returns the materialized result and each stage's self time.
    pub fn query(&mut self, sql: &str) -> Result<(QueryResult, SelfTimes)> {
        let options = *self.session.options();
        self.requests += 1;
        let first_span = self.spans.len();
        let begin = Instant::now();
        // Reserve the root's slot so children can name it as parent.
        let root = self.record(Stage::Statement, begin, begin, None);

        let t = Instant::now();
        let stmt = parse_statement(sql)?;
        self.record(Stage::Parse, t, Instant::now(), Some(root));

        let t = Instant::now();
        let snapshot = self.session.snapshot();
        self.record(Stage::Snapshot, t, Instant::now(), Some(root));
        let estimator = CatalogCardinalities(&snapshot);
        let rewriter = TimedRewriter {
            inner: Rewriter::new(options.rewrite, &estimator),
            calls: RefCell::new(Vec::new()),
        };
        let t = Instant::now();
        let bound = bind_statement(&stmt, &CatalogAdapter(&snapshot), Some(&rewriter))?;
        let bind = self.record(Stage::Bind, t, Instant::now(), Some(root));
        for (start, end) in rewriter.calls.into_inner() {
            self.record(Stage::Rewrite, start, end, Some(bind));
        }
        let BoundStatement::Query(plan) = bound else {
            return Err(PermError::Execution(format!("not a query: {sql}")));
        };

        let t = Instant::now();
        let optimized = optimize_with(plan, &estimator);
        self.record(Stage::Optimize, t, Instant::now(), Some(root));

        let t = Instant::now();
        let physical = PhysicalPlanner::new(&snapshot)
            .max_parallelism(options.max_parallelism)
            .parallel_threshold(options.parallel_row_threshold)
            .columnar(options.columnar)
            .plan(&optimized);
        self.record(Stage::PlanPhysical, t, Instant::now(), Some(root));

        let ctx = QueryContext::new(self.requests, None, None);
        let permit = self.server.governor().admit(
            &ctx,
            estimated_peak_bytes(&physical),
            options.max_concurrent_queries,
            Duration::from_millis(options.admission_timeout_ms),
        )?;
        let schema = optimized.schema().clone();
        let executor = Executor::new(snapshot.clone())
            .with_parallelism(options.max_parallelism, options.parallel_row_threshold)
            .with_verification(options.verify_plans)
            .with_memory(QueryMemory::new(self.server.memory_pool().clone(), None))
            .with_columnar(options.columnar)
            .with_context(ctx);
        let t = Instant::now();
        let rows = executor.run_physical(&physical)?;
        self.record(Stage::Execute, t, Instant::now(), Some(root));
        drop(permit);
        let result = QueryResult::new(&schema, rows);

        let end = Instant::now();
        self.spans[root].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        Ok((result, self_times(&self.spans[first_span..], first_span)))
    }

    /// `[{"name", "start_ns", "end_ns", "parent", "request_id"}, …]`
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.request_id
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time per stage over the spans of one request (`offset` is the
/// index of `spans[0]` in the driver's span list, for parent links).
fn self_times(spans: &[Span], offset: usize) -> SelfTimes {
    let mut ns = [0i128; Stage::ALL.len()];
    for s in spans {
        let duration = i128::from(s.end_ns - s.start_ns);
        ns[s.stage as usize] += duration;
        if let Some(parent) = s.parent {
            ns[spans[parent - offset].stage as usize] -= duration;
        }
    }
    ns.map(|n| Duration::from_nanos(n.max(0) as u64))
}

/// Nodes of the bound plan of `q+` over nodes of the bound plan of `q`,
/// before optimization: how much the rewrite grew the query tree.
pub fn plan_growth(session: &Session, q: &str, prov: &str) -> Result<f64> {
    let nodes = |sql: &str| session.bind_sql(sql).map(|plan| plan.node_count() as f64);
    Ok(nodes(prov)? / nodes(q)?)
}
