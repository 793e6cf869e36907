//! Sorts and the sorting (refinement type checking) judgment `Γ ⊢ ψ ∈ Δ`.
//!
//! The paper's sorts are booleans `B`, naturals `N` and uninterpreted sorts
//! `δα` for type variables. We additionally distinguish finite sets (produced
//! by measures such as `elems`), and we use signed integers in place of `N`
//! (non-negativity of potentials is enforced by explicit well-formedness
//! constraints emitted by the type checker).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::term::{BinOp, Term, UnOp};

/// The sort of a refinement term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sort {
    /// Booleans (`B`).
    Bool,
    /// Integers (the paper's `N`, relaxed to `Z` with explicit constraints).
    Int,
    /// Finite sets of elements.
    Set,
    /// An uninterpreted sort `δα` associated with a type variable `α`.
    Uninterp(String),
}

impl Sort {
    /// An uninterpreted sort for type variable `alpha`.
    pub fn uninterp(alpha: impl Into<String>) -> Sort {
        Sort::Uninterp(alpha.into())
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Set => write!(f, "Set"),
            Sort::Uninterp(a) => write!(f, "δ{a}"),
        }
    }
}

/// Signature of a measure: argument sorts and result sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureSig {
    /// Sorts of the arguments.
    pub args: Vec<Sort>,
    /// Sort of the result.
    pub result: Sort,
}

/// A sorting environment: sorts of variables, signatures of measures and
/// sorts of unknown predicates.
///
/// The measure table is shared between clones: the checker extends one copy
/// of a registry's measures per query, and cloning it copies a pointer. Its
/// fingerprint is computed when a measure is declared or absorbed, so
/// hashing an environment costs one `u64` for all its measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortingEnv {
    vars: BTreeMap<String, Sort>,
    measures: Arc<BTreeMap<String, MeasureSig>>,
    /// [`fingerprint_measures`] of `measures`.
    measures_fp: u64,
    unknowns: BTreeMap<String, Sort>,
}

impl Default for SortingEnv {
    fn default() -> Self {
        let measures = Arc::default();
        SortingEnv {
            vars: BTreeMap::new(),
            measures_fp: fingerprint_measures(&measures),
            measures,
            unknowns: BTreeMap::new(),
        }
    }
}

/// Hash every measure signature, in name order.
fn fingerprint_measures(measures: &BTreeMap<String, MeasureSig>) -> u64 {
    let mut h = DefaultHasher::new();
    for (name, sig) in measures {
        name.hash(&mut h);
        sig.args.hash(&mut h);
        sig.result.hash(&mut h);
    }
    h.finish()
}

/// Errors reported by sorting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SortError {
    /// A variable is not bound in the environment.
    UnboundVariable(String),
    /// A measure is not declared in the environment.
    UnknownMeasure(String),
    /// An unknown predicate is not declared in the environment.
    UndeclaredUnknown(String),
    /// A term has a different sort than required by its context.
    Mismatch {
        /// The offending term, pretty-printed.
        term: String,
        /// The sort that was expected.
        expected: Sort,
        /// The sort that was inferred.
        found: Sort,
    },
    /// A measure application has the wrong number of arguments.
    Arity {
        /// The measure name.
        measure: String,
        /// Number of declared parameters.
        expected: usize,
        /// Number of supplied arguments.
        found: usize,
    },
}

impl fmt::Display for SortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortError::UnboundVariable(x) => write!(f, "unbound variable `{x}` in refinement"),
            SortError::UnknownMeasure(m) => write!(f, "unknown measure `{m}`"),
            SortError::UndeclaredUnknown(u) => write!(f, "undeclared unknown `{u}`"),
            SortError::Mismatch {
                term,
                expected,
                found,
            } => write!(
                f,
                "sort mismatch for `{term}`: expected {expected}, found {found}"
            ),
            SortError::Arity {
                measure,
                expected,
                found,
            } => write!(
                f,
                "measure `{measure}` applied to {found} arguments, expects {expected}"
            ),
        }
    }
}

impl std::error::Error for SortError {}

impl SortingEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a variable to a sort (overwrites any previous binding).
    pub fn bind_var(&mut self, name: impl Into<String>, sort: Sort) -> &mut Self {
        self.vars.insert(name.into(), sort);
        self
    }

    /// Declare a measure signature.
    pub fn declare_measure(
        &mut self,
        name: impl Into<String>,
        args: Vec<Sort>,
        result: Sort,
    ) -> &mut Self {
        Arc::make_mut(&mut self.measures).insert(name.into(), MeasureSig { args, result });
        self.measures_fp = fingerprint_measures(&self.measures);
        self
    }

    /// Declare an unknown predicate / potential of the given sort.
    pub fn declare_unknown(&mut self, name: impl Into<String>, sort: Sort) -> &mut Self {
        self.unknowns.insert(name.into(), sort);
        self
    }

    /// Look up a variable's sort.
    pub fn var_sort(&self, name: &str) -> Option<&Sort> {
        self.vars.get(name)
    }

    /// Look up a measure's signature.
    pub fn measure_sig(&self, name: &str) -> Option<&MeasureSig> {
        self.measures.get(name)
    }

    /// Look up an unknown's declared sort.
    pub(crate) fn unknown_sort(&self, name: &str) -> Option<&Sort> {
        self.unknowns.get(name)
    }

    /// Iterate over the bound variables and their sorts.
    pub fn vars(&self) -> impl Iterator<Item = (&String, &Sort)> {
        self.vars.iter()
    }

    /// Iterate over the declared measures and their signatures.
    pub fn measures(&self) -> impl Iterator<Item = (&String, &MeasureSig)> {
        self.measures.iter()
    }

    /// A fingerprint of every declared measure signature: equal for equal
    /// measure tables, and computed when the table changes, not per call.
    pub fn measures_fingerprint(&self) -> u64 {
        self.measures_fp
    }

    /// Iterate over the declared unknowns and their sorts.
    pub fn unknowns(&self) -> impl Iterator<Item = (&String, &Sort)> {
        self.unknowns.iter()
    }

    /// Import every binding, measure and unknown declared in `other`.
    pub fn absorb(&mut self, other: &SortingEnv) -> &mut Self {
        for (v, s) in &other.vars {
            self.vars.entry(v.clone()).or_insert_with(|| s.clone());
        }
        let adds_measures = !Arc::ptr_eq(&self.measures, &other.measures)
            && other
                .measures
                .keys()
                .any(|m| !self.measures.contains_key(m));
        if adds_measures {
            let measures = Arc::make_mut(&mut self.measures);
            for (m, sig) in other.measures.iter() {
                measures.entry(m.clone()).or_insert_with(|| sig.clone());
            }
            self.measures_fp = fingerprint_measures(measures);
        }
        for (u, s) in &other.unknowns {
            self.unknowns.entry(u.clone()).or_insert_with(|| s.clone());
        }
        self
    }

    /// Infer the sort of a term, checking sort correctness along the way.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] when the term references unbound variables or
    /// undeclared measures, or combines sub-terms of incompatible sorts.
    pub fn sort_of(&self, term: &Term) -> Result<Sort, SortError> {
        match term {
            Term::Var(x) => self
                .vars
                .get(x)
                .cloned()
                .ok_or_else(|| SortError::UnboundVariable(x.clone())),
            Term::Bool(_) => Ok(Sort::Bool),
            Term::Int(_) => Ok(Sort::Int),
            Term::EmptySet | Term::SetLit(_) => Ok(Sort::Set),
            Term::Singleton(t) => {
                // Elements may be of any non-boolean scalar sort.
                let s = self.sort_of(t)?;
                if s == Sort::Bool || s == Sort::Set {
                    return Err(SortError::Mismatch {
                        term: t.to_string(),
                        expected: Sort::Int,
                        found: s,
                    });
                }
                Ok(Sort::Set)
            }
            Term::Unary(UnOp::Not, t) => {
                self.check(t, &Sort::Bool)?;
                Ok(Sort::Bool)
            }
            Term::Unary(UnOp::Neg, t) => {
                self.check(t, &Sort::Int)?;
                Ok(Sort::Int)
            }
            Term::Mul(_, t) => {
                self.check(t, &Sort::Int)?;
                Ok(Sort::Int)
            }
            Term::Binary(op, a, b) => self.sort_of_binary(*op, a, b),
            Term::Ite(c, t, e) => {
                self.check(c, &Sort::Bool)?;
                let st = self.sort_of(t)?;
                self.check(e, &st)?;
                Ok(st)
            }
            Term::App(m, args) => {
                let sig = self
                    .measures
                    .get(m)
                    .ok_or_else(|| SortError::UnknownMeasure(m.clone()))?
                    .clone();
                if sig.args.len() != args.len() {
                    return Err(SortError::Arity {
                        measure: m.clone(),
                        expected: sig.args.len(),
                        found: args.len(),
                    });
                }
                for (arg, expected) in args.iter().zip(&sig.args) {
                    // Uninterpreted argument sorts accept any scalar sort
                    // (they stand for polymorphic element positions).
                    if matches!(expected, Sort::Uninterp(_)) {
                        self.sort_of(arg)?;
                    } else {
                        self.check(arg, expected)?;
                    }
                }
                Ok(sig.result)
            }
            Term::Unknown(u, subst) => {
                for (_, t) in subst {
                    self.sort_of(t)?;
                }
                self.unknowns
                    .get(u)
                    .cloned()
                    .ok_or_else(|| SortError::UndeclaredUnknown(u.clone()))
            }
        }
    }

    fn sort_of_binary(&self, op: BinOp, a: &Term, b: &Term) -> Result<Sort, SortError> {
        use BinOp::*;
        match op {
            And | Or | Implies | Iff => {
                self.check(a, &Sort::Bool)?;
                self.check(b, &Sort::Bool)?;
                Ok(Sort::Bool)
            }
            Add | Sub => {
                self.check(a, &Sort::Int)?;
                self.check(b, &Sort::Int)?;
                Ok(Sort::Int)
            }
            Le | Lt | Ge | Gt => {
                // Comparisons are permitted on Int and on uninterpreted sorts
                // (the surface language imposes an ordering on type variables,
                // cf. the paper's footnote on type classes).
                let sa = self.sort_of(a)?;
                match sa {
                    Sort::Int | Sort::Uninterp(_) => {}
                    other => {
                        return Err(SortError::Mismatch {
                            term: a.to_string(),
                            expected: Sort::Int,
                            found: other,
                        })
                    }
                }
                self.check(b, &sa)?;
                Ok(Sort::Bool)
            }
            Eq | Neq => {
                let sa = self.sort_of(a)?;
                self.check(b, &sa)?;
                Ok(Sort::Bool)
            }
            Union | Intersect | Diff => {
                self.check(a, &Sort::Set)?;
                self.check(b, &Sort::Set)?;
                Ok(Sort::Set)
            }
            Member => {
                let sa = self.sort_of(a)?;
                if sa == Sort::Bool || sa == Sort::Set {
                    return Err(SortError::Mismatch {
                        term: a.to_string(),
                        expected: Sort::Int,
                        found: sa,
                    });
                }
                self.check(b, &Sort::Set)?;
                Ok(Sort::Bool)
            }
            Subset => {
                self.check(a, &Sort::Set)?;
                self.check(b, &Sort::Set)?;
                Ok(Sort::Bool)
            }
        }
    }

    /// Check that a term has exactly the expected sort.
    ///
    /// Uninterpreted sorts are compatible with `Int`: when a polymorphic
    /// element type is instantiated with `Int` the same refinement must remain
    /// well-sorted, so `δα ~ Int` is accepted in both directions.
    ///
    /// # Errors
    ///
    /// Returns a [`SortError`] if the inferred sort differs from `expected`.
    pub fn check(&self, term: &Term, expected: &Sort) -> Result<(), SortError> {
        let found = self.sort_of(term)?;
        if compatible(&found, expected) {
            Ok(())
        } else {
            Err(SortError::Mismatch {
                term: term.to_string(),
                expected: expected.clone(),
                found,
            })
        }
    }
}

/// Whether a term of sort `found` checks against `expected` (see
/// [`SortingEnv::check`]).
pub(crate) fn compatible(found: &Sort, expected: &Sort) -> bool {
    found == expected
        || matches!(
            (found, expected),
            (Sort::Uninterp(_), Sort::Int)
                | (Sort::Int, Sort::Uninterp(_))
                | (Sort::Uninterp(_), Sort::Uninterp(_))
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> SortingEnv {
        let mut e = SortingEnv::new();
        e.bind_var("x", Sort::Int)
            .bind_var("p", Sort::Bool)
            .bind_var("s", Sort::Set)
            .bind_var("a", Sort::uninterp("alpha"))
            .declare_measure("len", vec![Sort::Int], Sort::Int)
            .declare_measure("elems", vec![Sort::Int], Sort::Set)
            .declare_unknown("U0", Sort::Bool);
        e
    }

    #[test]
    fn measure_fingerprints_follow_the_measure_table() {
        let fp = |e: &SortingEnv| e.measures_fingerprint();
        // Built separately, with different variables: equal measure tables.
        let mut other = SortingEnv::new();
        other
            .declare_measure("elems", vec![Sort::Int], Sort::Set)
            .declare_measure("len", vec![Sort::Int], Sort::Int)
            .bind_var("y", Sort::Int);
        assert_eq!(fp(&env()), fp(&other));
        assert_ne!(fp(&env()), fp(&SortingEnv::new()));

        // Re-declaring a measure with another signature changes it.
        let mut redeclared = env();
        redeclared.declare_measure("len", vec![Sort::Int], Sort::Bool);
        assert_ne!(fp(&env()), fp(&redeclared));

        // Absorbing a new measure changes it; absorbing known ones does not.
        let mut absorbed = env();
        absorbed.absorb(&other);
        assert_eq!(fp(&env()), fp(&absorbed));
        let mut extra = SortingEnv::new();
        extra.declare_measure("numgt", vec![Sort::Int, Sort::Int], Sort::Int);
        absorbed.absorb(&extra);
        assert_ne!(fp(&env()), fp(&absorbed));
        assert!(absorbed.measure_sig("numgt").is_some());
        // The environment absorbed from is untouched.
        assert_eq!(other.measures().count(), 2);
    }

    #[test]
    fn sorts_of_literals() {
        let e = env();
        assert_eq!(e.sort_of(&Term::int(3)).unwrap(), Sort::Int);
        assert_eq!(e.sort_of(&Term::tt()).unwrap(), Sort::Bool);
        assert_eq!(e.sort_of(&Term::EmptySet).unwrap(), Sort::Set);
    }

    #[test]
    fn arithmetic_requires_ints() {
        let e = env();
        let ok = Term::var("x") + Term::int(1);
        assert_eq!(e.sort_of(&ok).unwrap(), Sort::Int);
        let bad = Term::var("p") + Term::int(1);
        assert!(matches!(e.sort_of(&bad), Err(SortError::Mismatch { .. })));
    }

    #[test]
    fn comparisons_work_on_uninterpreted_sorts() {
        let e = env();
        let t = Term::var("a").lt(Term::var("a"));
        assert_eq!(e.sort_of(&t).unwrap(), Sort::Bool);
        let bad = Term::var("p").lt(Term::var("p"));
        assert!(e.sort_of(&bad).is_err());
    }

    #[test]
    fn set_operations_sort_correctly() {
        let e = env();
        let t = Term::var("s").union(Term::var("a").singleton());
        assert_eq!(e.sort_of(&t).unwrap(), Sort::Set);
        let m = Term::var("a").member(Term::var("s"));
        assert_eq!(e.sort_of(&m).unwrap(), Sort::Bool);
        let bad = Term::var("p").union(Term::var("s"));
        assert!(e.sort_of(&bad).is_err());
    }

    #[test]
    fn measures_check_arity_and_result() {
        let e = env();
        let good = Term::app("elems", vec![Term::var("x")]);
        assert_eq!(e.sort_of(&good).unwrap(), Sort::Set);
        let bad = Term::app("elems", vec![Term::var("x"), Term::var("x")]);
        assert!(matches!(e.sort_of(&bad), Err(SortError::Arity { .. })));
        let missing = Term::app("nosuch", vec![]);
        assert!(matches!(
            e.sort_of(&missing),
            Err(SortError::UnknownMeasure(_))
        ));
    }

    #[test]
    fn unknowns_require_declaration() {
        let e = env();
        assert_eq!(e.sort_of(&Term::unknown("U0")).unwrap(), Sort::Bool);
        assert!(matches!(
            e.sort_of(&Term::unknown("U9")),
            Err(SortError::UndeclaredUnknown(_))
        ));
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let e = env();
        assert!(matches!(
            e.sort_of(&Term::var("zzz")),
            Err(SortError::UnboundVariable(_))
        ));
    }

    #[test]
    fn ite_branches_must_agree() {
        let e = env();
        let ok = Term::Ite(
            Box::new(Term::var("p")),
            Box::new(Term::int(1)),
            Box::new(Term::var("x")),
        );
        assert_eq!(e.sort_of(&ok).unwrap(), Sort::Int);
        let bad = Term::Ite(
            Box::new(Term::var("p")),
            Box::new(Term::int(1)),
            Box::new(Term::tt()),
        );
        assert!(e.sort_of(&bad).is_err());
    }
}
