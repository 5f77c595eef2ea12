//! Rewrite options: contribution semantics and strategy selection.

pub use perm_sql::{ContributionSemantics, CopyMode};

/// The contribution semantics the rewriter computes, resolved from the
/// SQL-PLE `ON CONTRIBUTION (…)` clause or the session default.
///
/// * `Influence` — Perm's PI-CS (Why-provenance-flavoured): every base
///   tuple that influenced the existence of a result tuple is a witness.
/// * `Copy` — Copy-CS (Where-provenance-flavoured): provenance attributes
///   keep only values actually **copied** into the result; non-copied
///   attributes are NULLed (per attribute for `Partial`, per relation for
///   `Complete`).
/// * `Lineage` — Cui-Widom lineage: like Influence, except set difference
///   additionally reports the entire right-hand input as contributing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    Influence,
    Copy(CopyMode),
    Lineage,
}

impl Semantics {
    pub fn from_clause(
        clause: Option<ContributionSemantics>,
        default: ContributionSemantics,
    ) -> Semantics {
        match clause.unwrap_or(default) {
            ContributionSemantics::Influence => Semantics::Influence,
            ContributionSemantics::Copy(m) => Semantics::Copy(m),
            ContributionSemantics::Lineage => Semantics::Lineage,
        }
    }
}

/// The two rewrite rules for set operations where the paper notes "for some
/// operators there is more than one rewrite rule" (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnionStrategy {
    /// Rewrite each branch and UNION ALL them, padding the other branch's
    /// provenance attributes with NULL. One pass over each input.
    PaddedUnion,
    /// Compute the original set operation, then join its result back to
    /// the padded union of the rewritten branches on the result attributes
    /// (NULL-safe). Profitable only when the original result is much
    /// smaller than its inputs and already materialized.
    JoinBack,
}

/// How a strategy is chosen when several rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyMode {
    /// A fixed rule of thumb (Perm's "heuristic solution").
    Heuristic,
    /// Pick the cheaper rewrite using cardinality estimates (Perm's
    /// "cost-based solution").
    CostBased,
    /// Force one strategy (the browser's toggle, tests comparing both).
    Fixed(UnionStrategy),
}

/// Options controlling the rewriter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteOptions {
    /// Semantics used when `SELECT PROVENANCE` has no `ON CONTRIBUTION`.
    pub default_semantics: ContributionSemantics,
    /// Strategy selection for UNION rewrites.
    pub union_strategy: StrategyMode,
}

impl Default for RewriteOptions {
    fn default() -> RewriteOptions {
        RewriteOptions {
            default_semantics: ContributionSemantics::Influence,
            union_strategy: StrategyMode::Heuristic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clause_overrides_default() {
        let s = Semantics::from_clause(
            Some(ContributionSemantics::Lineage),
            ContributionSemantics::Influence,
        );
        assert_eq!(s, Semantics::Lineage);
    }

    #[test]
    fn default_applies_when_no_clause() {
        let s = Semantics::from_clause(None, ContributionSemantics::Copy(CopyMode::Complete));
        assert_eq!(s, Semantics::Copy(CopyMode::Complete));
    }

    #[test]
    fn default_options_follow_perm() {
        let o = RewriteOptions::default();
        assert_eq!(o.default_semantics, ContributionSemantics::Influence);
        assert_eq!(o.union_strategy, StrategyMode::Heuristic);
    }
}
