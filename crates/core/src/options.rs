//! Session options — the knobs the Perm-browser exposes (activate or
//! deactivate rewrite strategies, choose contribution semantics).
//!
//! Options are *per session*: every [`crate::Session`] carries its
//! own copy, so two sessions on the same [`crate::PermServer`] can
//! run the same query under different contribution semantics or rewrite
//! strategies concurrently. `SessionOptions` is `Copy`, which is what
//! makes session handles cheap to clone and hand across threads.

use perm_rewrite::{ContributionSemantics, RewriteOptions, StrategyMode, UnionStrategy};
use perm_storage::FsyncPolicy;

/// Configuration of a durable server ([`crate::PermServer::open_with`]):
/// fsync policy, checkpoint cadence and fault injection. Unlike
/// [`SessionOptions`] this is per *server*, not per session, and is not
/// `Copy` (it carries the failpoint spec string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// When the WAL is fsynced. [`FsyncPolicy::Always`] (the default)
    /// makes every committed statement crash-durable; `Never` trades that
    /// for speed (tests, bulk loads).
    pub fsync: FsyncPolicy,
    /// Checkpoint the catalog after this many WAL records since the last
    /// checkpoint (`0` disables automatic checkpoints; explicit
    /// [`crate::PermServer::checkpoint`] still works).
    pub checkpoint_every: u64,
    /// Deterministic fault-injection spec (same grammar as the
    /// `PERM_FAILPOINTS` environment variable, which is used when this is
    /// `None`): `site=action[@N[+]]` entries separated by `;`.
    pub failpoints: Option<String>,
}

/// Default [`DurabilityOptions::checkpoint_every`]: frequent enough that
/// recovery replays a short tail, rare enough that checkpointing cost is
/// amortized over many commits.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 256;

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            failpoints: None,
        }
    }
}

impl DurabilityOptions {
    /// Set the WAL fsync policy.
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> DurabilityOptions {
        self.fsync = policy;
        self
    }

    /// Checkpoint after `n` WAL records (`0` = only explicit checkpoints).
    pub fn with_checkpoint_every(mut self, n: u64) -> DurabilityOptions {
        self.checkpoint_every = n;
        self
    }

    /// Install a failpoint spec for this server's process (overrides
    /// `PERM_FAILPOINTS`).
    pub fn with_failpoints(mut self, spec: impl Into<String>) -> DurabilityOptions {
        self.failpoints = Some(spec.into());
        self
    }
}

/// Per-session configuration of the provenance pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOptions {
    pub rewrite: RewriteOptions,
    /// Cap on the degree of parallelism the physical planner may choose
    /// per pipeline. `0` (the default) means "the machine's available
    /// parallelism"; `1` plans every operator serial.
    pub max_parallelism: usize,
    /// Minimum estimated input rows before a pipeline is parallelized;
    /// below it queries run serial and pay zero coordination overhead.
    pub parallel_row_threshold: usize,
    /// Run the static plan verifier after every optimizer/planner phase,
    /// even in release builds (debug builds always verify). Defaults to
    /// the `PERM_VERIFY_PLANS` environment variable (`1`/`true` enables),
    /// so CI can force verification on a release-mode test run.
    pub verify_plans: bool,
    /// Per-query cap on tracked execution memory, in bytes (`0`, the
    /// default, means uncapped). Unlike server pool pressure — which
    /// makes operators spill — exceeding this cap is the query's own
    /// fault and fails it with [`perm_types::PermError::ResourceExhausted`].
    pub memory_budget: usize,
    /// Most queries from sessions with this option that may *execute*
    /// concurrently (`0`, the default, means unlimited). Excess queries
    /// wait in the server's bounded admission queue.
    pub max_concurrent_queries: usize,
    /// How long a query may wait in the admission queue before failing
    /// with a typed resource error, in milliseconds.
    pub admission_timeout_ms: u64,
    /// Statement deadline, in milliseconds (`0`, the default, disables
    /// it). A statement running past the deadline is cancelled at its
    /// next cooperative check and fails with the typed
    /// [`perm_types::PermError::Cancelled`] (`reason: DeadlineExceeded`).
    /// The clock starts when the statement starts (admission wait
    /// included) — a statement queued past its deadline never runs.
    pub statement_timeout_ms: u64,
    /// Run filters, computed projections and sort keys over columnar
    /// batches where every expression has a kernel (on by default). Off =
    /// the row interpreter everywhere: the reference semantics, and the
    /// baseline the batch/row equivalence tests compare against.
    pub columnar: bool,
}

/// Default [`SessionOptions::admission_timeout_ms`]: long enough that
/// transient contention queues instead of failing, short enough that a
/// wedged server surfaces as an error rather than a hang.
pub const DEFAULT_ADMISSION_TIMEOUT_MS: u64 = 10_000;

/// Read `PERM_VERIFY_PLANS` once per process.
fn verify_plans_env() -> bool {
    use std::sync::OnceLock;
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PERM_VERIFY_PLANS")
            .map(|v| {
                let v = v.trim();
                !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
            })
            .unwrap_or(false)
    })
}

impl Default for SessionOptions {
    fn default() -> SessionOptions {
        SessionOptions {
            rewrite: RewriteOptions::default(),
            max_parallelism: 0,
            parallel_row_threshold: perm_exec::DEFAULT_PARALLEL_THRESHOLD,
            verify_plans: verify_plans_env(),
            memory_budget: 0,
            max_concurrent_queries: 0,
            admission_timeout_ms: DEFAULT_ADMISSION_TIMEOUT_MS,
            statement_timeout_ms: 0,
            columnar: true,
        }
    }
}

impl SessionOptions {
    /// Cap intra-query parallelism (`0` = auto, `1` = serial).
    pub fn with_max_parallelism(mut self, n: usize) -> SessionOptions {
        self.max_parallelism = n;
        self
    }

    /// Set the minimum estimated input rows before the planner assigns a
    /// degree of parallelism > 1 (mainly for tests and benchmarks; the
    /// default keeps small queries serial).
    pub fn with_parallel_row_threshold(mut self, rows: usize) -> SessionOptions {
        self.parallel_row_threshold = rows.max(1);
        self
    }

    /// Set the default contribution semantics (used when a
    /// `SELECT PROVENANCE` carries no `ON CONTRIBUTION` clause).
    pub fn with_default_semantics(mut self, s: ContributionSemantics) -> SessionOptions {
        self.rewrite.default_semantics = s;
        self
    }

    /// Choose how the union rewrite strategy is selected.
    pub fn with_union_strategy(mut self, m: StrategyMode) -> SessionOptions {
        self.rewrite.union_strategy = m;
        self
    }

    /// Force a specific union strategy (browser toggle, strategy tests).
    pub fn force_union_strategy(self, s: UnionStrategy) -> SessionOptions {
        self.with_union_strategy(StrategyMode::Fixed(s))
    }

    /// Run the static plan verifier after every optimizer/planner phase
    /// regardless of build profile (debug builds always verify).
    pub fn with_verify_plans(mut self, on: bool) -> SessionOptions {
        self.verify_plans = on;
        self
    }

    /// Cap one query's tracked execution memory (`0` = uncapped). Going
    /// over the cap fails the query; contrast with the server pool
    /// budget, which makes operators spill instead.
    pub fn with_memory_budget(mut self, bytes: usize) -> SessionOptions {
        self.memory_budget = bytes;
        self
    }

    /// Cap how many of this session's queries execute at once (`0` =
    /// unlimited); excess queries queue for admission.
    pub fn with_max_concurrent_queries(mut self, n: usize) -> SessionOptions {
        self.max_concurrent_queries = n;
        self
    }

    /// How long a query may wait for admission before failing.
    pub fn with_admission_timeout_ms(mut self, ms: u64) -> SessionOptions {
        self.admission_timeout_ms = ms;
        self
    }

    /// Cancel any statement that runs longer than `ms` milliseconds
    /// (`0` = no deadline). The statement fails with the typed
    /// cancellation error, reason `DeadlineExceeded`.
    pub fn with_statement_timeout_ms(mut self, ms: u64) -> SessionOptions {
        self.statement_timeout_ms = ms;
        self
    }

    /// Enable or disable columnar batch execution (on by default).
    pub fn with_columnar(mut self, on: bool) -> SessionOptions {
        self.columnar = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let o = SessionOptions::default()
            .with_default_semantics(ContributionSemantics::Lineage)
            .force_union_strategy(UnionStrategy::JoinBack);
        assert_eq!(o.rewrite.default_semantics, ContributionSemantics::Lineage);
        assert_eq!(
            o.rewrite.union_strategy,
            StrategyMode::Fixed(UnionStrategy::JoinBack)
        );
    }

    #[test]
    fn defaults_are_perms_defaults() {
        let o = SessionOptions::default();
        assert_eq!(
            o.rewrite.default_semantics,
            ContributionSemantics::Influence
        );
        assert_eq!(o.rewrite.union_strategy, StrategyMode::Heuristic);
    }
}
