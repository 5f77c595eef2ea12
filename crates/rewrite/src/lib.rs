//! # perm-rewrite
//!
//! **The paper's contribution**: provenance computation through query
//! rewriting (Glavic & Alonso, SIGMOD 2009 demo; rules from ICDE 2009,
//! sublinks from EDBT 2009).
//!
//! Given a bound query tree `q`, the [`Rewriter`] produces a query tree
//! `q+` that computes the *provenance* of `q`: the original result tuples
//! extended with the contributing base-relation tuples as additional
//! ("provenance") attributes named `prov_<schema>_<relation>_<attribute>`.
//! Because `q+` is an ordinary relational query, it is optimized and
//! executed by the ordinary planner/executor, and its result can be
//! queried, stored and combined with normal data — the central point of
//! the Perm system.
//!
//! Supported, per the demo paper's feature list:
//!
//! * **Contribution semantics** ([`options::Semantics`]): `INFLUENCE`
//!   (PI-CS), `COPY [PARTIAL|COMPLETE]` (Copy-CS / Where-provenance) and
//!   `LINEAGE` (Cui-Widom).
//! * **Alternative rewrite strategies** with heuristic and cost-based
//!   selection ([`options::StrategyMode`], costed through
//!   [`perm_algebra::stats`]).
//! * **External provenance**: `PROVENANCE (attrs)` FROM-items and tables
//!   with recorded provenance columns propagate foreign provenance
//!   untouched.
//! * **`BASERELATION`**: stop the rewrite at a view/subquery.
//! * **Nested subqueries**: uncorrelated `[NOT] IN` / `[NOT] EXISTS`
//!   sublinks ([`sublink`]).

#![forbid(unsafe_code)]

pub mod aggregate;
pub mod copy;
pub mod options;
pub mod provattr;
pub mod rules;
pub mod setops;
pub mod sublink;

use std::cell::Cell;

use perm_algebra::catalog::{ProvenancePlan, ProvenanceTransform};
use perm_algebra::plan::LogicalPlan;
use perm_types::Result;

pub use options::{
    ContributionSemantics, CopyMode, RewriteOptions, Semantics, StrategyMode, UnionStrategy,
};
pub use perm_algebra::stats::{CardinalityEstimator, FixedCardinalities, UnknownCardinality};
pub use provattr::{is_provenance_name, provenance_name, ProvAttrInfo};
pub use rules::{Ctx, Rewritten};

/// The provenance rewriter (the "Provenance Rewriter" box of the paper's
/// Figure 3). Plugs into the analyzer through
/// [`perm_algebra::catalog::ProvenanceTransform`].
pub struct Rewriter<'a> {
    options: RewriteOptions,
    estimator: &'a dyn CardinalityEstimator,
}

impl<'a> Rewriter<'a> {
    pub fn new(options: RewriteOptions, estimator: &'a dyn CardinalityEstimator) -> Rewriter<'a> {
        Rewriter { options, estimator }
    }

    /// The rewriter with default options and no cardinality knowledge.
    pub fn basic() -> Rewriter<'static> {
        Rewriter {
            options: RewriteOptions::default(),
            estimator: &UnknownCardinality,
        }
    }

    pub fn options(&self) -> &RewriteOptions {
        &self.options
    }

    /// Rewrite `plan` into its provenance query under `semantics` (or the
    /// session default), returning the plan plus full provenance-attribute
    /// metadata.
    pub fn rewrite(
        &self,
        plan: &LogicalPlan,
        semantics: Option<ContributionSemantics>,
    ) -> Result<Rewritten> {
        let sem = Semantics::from_clause(semantics, self.options.default_semantics);
        let ctx = Ctx {
            semantics: sem,
            options: &self.options,
            estimator: self.estimator,
            groups: Cell::new(0),
        };
        let rewritten = ctx.rewrite(plan)?.normalized();
        Ok(match sem {
            Semantics::Copy(mode) => copy::apply_copy_mode(rewritten, mode),
            _ => rewritten,
        })
    }
}

impl ProvenanceTransform for Rewriter<'_> {
    fn rewrite_provenance(
        &self,
        plan: LogicalPlan,
        semantics: Option<ContributionSemantics>,
    ) -> Result<ProvenancePlan> {
        let rw = self.rewrite(&plan, semantics)?;
        Ok(ProvenancePlan {
            plan: rw.plan,
            prov_attrs: rw.prov,
        })
    }
}

#[cfg(test)]
mod tests;
