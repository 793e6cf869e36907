//! Free-variable computation for refinement terms.

use std::collections::BTreeSet;

use crate::term::Term;

impl Term {
    /// The set of free variables of the term.
    ///
    /// Variables appearing only inside the *pending substitutions* of unknowns
    /// are included as well, because they will become free once the unknown is
    /// solved and the substitution applied.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_free_vars(&mut out);
        out
    }

    /// Whether `var` occurs free in the term.
    pub fn mentions(&self, var: &str) -> bool {
        self.free_vars().contains(var)
    }

    fn collect_free_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            Term::Var(x) => {
                out.insert(x.clone());
            }
            Term::Bool(_) | Term::Int(_) | Term::EmptySet | Term::SetLit(_) => {}
            Term::Singleton(t) | Term::Unary(_, t) | Term::Mul(_, t) => t.collect_free_vars(out),
            Term::Binary(_, a, b) => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
            Term::Ite(c, t, e) => {
                c.collect_free_vars(out);
                t.collect_free_vars(out);
                e.collect_free_vars(out);
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_free_vars(out);
                }
            }
            Term::Unknown(_, pending) => {
                for (_, t) in pending {
                    t.collect_free_vars(out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_of_compound_terms() {
        let t = Term::var("x")
            .le(Term::var("y") + Term::int(1))
            .and(Term::app("len", vec![Term::var("zs")]).eq_(Term::int(0)));
        let fv = t.free_vars();
        assert_eq!(fv, ["x", "y", "zs"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn literals_have_no_free_vars() {
        assert!(Term::int(3).free_vars().is_empty());
        assert!(Term::tt().free_vars().is_empty());
        assert!(Term::EmptySet.free_vars().is_empty());
    }

    #[test]
    fn mentions_value_var() {
        let t = Term::value_var().eq_(Term::var("x"));
        assert!(t.mentions(crate::term::VALUE_VAR));
        assert!(t.mentions("x"));
        assert!(!t.mentions("y"));
    }

    #[test]
    fn pending_substitution_variables_are_free() {
        let t = Term::unknown("U0").subst("x", &Term::var("q"));
        assert!(t.free_vars().contains("q"));
    }

    #[test]
    fn substitution_removes_free_variable() {
        let t = Term::var("x").lt(Term::var("y"));
        let s = t.subst("x", &Term::int(0));
        assert!(!s.mentions("x"));
        assert!(s.mentions("y"));
    }
}
