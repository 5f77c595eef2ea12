//! The scan / filter / project body.
//!
//! A [`Pipe`] is one node's residual filter and output projection,
//! compiled **once**, together with the node's batch-or-row decision
//! ([`crate::kernels::batched`]). [`Pipe::row`] is the only place a
//! predicate or a projection is evaluated against a row; [`Pipe::run`]
//! is the only loop over rows: a batch at a time through the kernels (a
//! batch they abort on is replayed through `row`), or straight through
//! `row` when the node does not run batches.
//! Its drivers (listed in [`crate::operators`]) only decide which rows it
//! sees, and chunking cannot change the answer: `run` over any split of
//! the input, concatenated, and `row` over each input row, give the same
//! rows in the same order and the same first error as one whole-input
//! `run`, and a failed `run` leaves the rows `row` produced before the
//! failing one (pinned in `operators/tests.rs`).

use std::sync::Arc;

use perm_algebra::expr::ScalarExpr;
use perm_types::{Result, Tuple, Value};

use crate::compile::{CompiledExpr, CompiledProjection};
use crate::eval::Env;
use crate::executor::Executor;
use crate::kernels::{self, BATCH_ROWS};

/// A compiled filter + projection pair over one row shape. `None` filter
/// passes every row; `None` projection emits the row itself.
#[derive(Debug)]
pub struct Pipe {
    filter: Option<CompiledExpr>,
    project: Option<CompiledProjection>,
    /// Run the pair over batches through the kernels.
    pub(super) batched: bool,
    /// The parameters of the sublink body this node runs in, captured
    /// when the node starts executing.
    params: Arc<[Value]>,
}

impl Pipe {
    /// Compile `filter` / `project` against `exec`'s current parameters,
    /// and decide whether [`Pipe::run`] goes through the kernels: on a
    /// columnar executor, when there is a filter or a computed (non-gather)
    /// projection and every one of those expressions has a kernel.
    pub fn compile(
        exec: &Executor,
        filter: Option<&ScalarExpr>,
        project: Option<&[ScalarExpr]>,
    ) -> Pipe {
        let filter = filter.map(|f| CompiledExpr::compile(exec, f));
        let project = project.map(|p| CompiledProjection::compile(exec, p));
        let computed = match &project {
            Some(CompiledProjection::Exprs(exprs)) => exprs.as_slice(),
            _ => &[],
        };
        let batched = kernels::batched(exec.columnar(), filter.iter().chain(computed));
        Pipe {
            filter,
            project,
            batched,
            params: exec.params(),
        }
    }

    /// Whether the pipe passes on its input rows themselves (it has no
    /// projection).
    pub(crate) fn passes_rows(&self) -> bool {
        self.project.is_none()
    }

    /// One input row: `None` if the filter rejects it, else the projected
    /// (or, without a projection, the shared) output row. The reference
    /// semantics of the pipe.
    pub fn row(&self, exec: &Executor, row: &Tuple) -> Result<Option<Tuple>> {
        let env = Env::new(row, &self.params);
        if let Some(f) = &self.filter {
            if f.eval_bool(exec, &env)? != Some(true) {
                return Ok(None);
            }
        }
        Ok(Some(match &self.project {
            Some(p) => p.apply(exec, &env)?,
            None => row.clone(),
        }))
    }

    /// Append the output of every row of `rows` to `out`, in order. Rows
    /// are borrowed and only cloned (a refcount bump) or projected when
    /// they pass. When the pipe runs batches, each batch of [`BATCH_ROWS`]
    /// goes through the kernels, and a batch they abort on — which
    /// discards its partial output — is replayed through [`Pipe::row`],
    /// which reproduces the first error in row order (or succeeds, if
    /// narrowing had already masked the lane). Otherwise every row goes
    /// through `row`. Either way, on an error `out` holds the output of
    /// exactly the rows before the failing one.
    pub fn run<'t>(
        &self,
        exec: &Executor,
        mut rows: impl Iterator<Item = &'t Tuple>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        if self.filter.is_none() {
            out.reserve(rows.size_hint().0);
        }
        if !self.batched {
            for (i, row) in rows.enumerate() {
                // Masked cancellation check per 4096 rows.
                if i % 4096 == 0 {
                    exec.check_cancelled()?;
                }
                out.extend(self.row(exec, row)?);
            }
            return Ok(());
        }
        let mut batch: Vec<&Tuple> = Vec::with_capacity(BATCH_ROWS);
        loop {
            batch.clear();
            batch.extend(rows.by_ref().take(BATCH_ROWS));
            if batch.is_empty() {
                return Ok(());
            }
            // Batch boundary: cancellation point + chaos site.
            exec.check_cancelled()?;
            perm_fault::exec_point("exec.kernel.batch", "batch scan")?;
            let before = out.len();
            let ran = kernels::filter_project(
                exec,
                self.filter.as_ref(),
                self.project.as_ref(),
                &batch,
                &self.params,
                out,
            );
            if ran.is_err() {
                out.truncate(before);
                // no-cancel: one batch, bounded by BATCH_ROWS.
                for row in &batch {
                    out.extend(self.row(exec, row)?);
                }
            }
        }
    }
}
