//! Typing constraints produced by the checker.
//!
//! Following §4.2 of the paper, typing constraints are lowered to validity
//! constraints of two forms: implications between boolean refinements
//! (which never contain unknowns here, since refinements are given, not
//! inferred) and *resource constraints* `ψ ⟹ φ ≥ 0`, where `φ` may contain
//! unknown numeric annotations. Constraints without unknowns are discharged
//! immediately by the checker; the rest are returned to the caller, which
//! hands them to the CEGIS solver in `resyn-rescon`.

use std::collections::BTreeSet;

use resyn_logic::{SortingEnv, Term};

/// The name of the pseudo-measure used to express the product of an unknown
/// constant coefficient and a known numeric term (`__prod(U, t)` stands for
/// `U · t`). The CEGIS solver linearizes these by substituting example values
/// for `t`.
pub const PROD: &str = "__prod";

/// Build the product of an unknown coefficient and a known term.
pub fn prod(unknown: Term, factor: Term) -> Term {
    match &factor {
        Term::Int(0) => Term::int(0),
        _ => Term::app(PROD, vec![unknown, factor]),
    }
}

/// A resource constraint `premise ⟹ potential ⋈ 0` where `⋈` is `≥` (or `=`
/// in constant-resource mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceConstraint {
    /// The premise: path condition and refinement facts in scope.
    pub premise: Term,
    /// The potential expression that must be non-negative (or exactly zero).
    pub potential: Term,
    /// Whether the constraint requires exact equality (constant-resource mode).
    pub exact: bool,
    /// Human-readable provenance for error messages and logging.
    pub origin: String,
    /// The sorting environment of the context the constraint arose in (used by
    /// the CEGIS solver to issue well-sorted verification queries).
    pub env: SortingEnv,
}

impl ResourceConstraint {
    /// The unknown annotation names occurring in the constraint.
    pub fn unknowns(&self) -> BTreeSet<String> {
        let mut u = self.premise.unknowns();
        u.extend(self.potential.unknowns());
        u
    }

    /// Whether the constraint mentions any unknown annotation.
    pub fn has_unknowns(&self) -> bool {
        !self.unknowns().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_collection() {
        let c = ResourceConstraint {
            premise: Term::var("x").ge(Term::int(0)),
            potential: Term::unknown("P0") + Term::var("x") - Term::int(1),
            exact: false,
            origin: "test".into(),
            env: SortingEnv::new(),
        };
        assert!(c.has_unknowns());
        assert_eq!(c.unknowns().len(), 1);
    }

    #[test]
    fn prod_of_zero_factor_vanishes() {
        assert_eq!(prod(Term::unknown("U"), Term::int(0)), Term::int(0));
        assert_eq!(
            prod(Term::unknown("U"), Term::var("n")),
            Term::app(PROD, vec![Term::unknown("U"), Term::var("n")])
        );
    }
}
