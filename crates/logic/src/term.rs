//! The term language of the refinement logic.
//!
//! A single [`Term`] type represents boolean refinements, numeric potential
//! annotations and set expressions; the [`crate::sort`] module assigns sorts.
//! Arithmetic is restricted to *linear* forms: multiplication is only allowed
//! by an integer constant ([`Term::Mul`]), matching the paper's restriction of
//! potential annotations to linear terms over program variables.

use std::collections::BTreeSet;
use std::fmt;

/// The canonical name of the special *value variable* `ν` that refinements use
/// to denote the value being described (`{B | ψ}` binds `ν` in `ψ`).
pub const VALUE_VAR: &str = "_v";

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Integer negation.
    Neg,
}

/// Binary operators. Comparison and membership operators produce booleans;
/// the set operators produce sets; `Add`/`Sub` produce integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
    /// Logical implication.
    Implies,
    /// Logical bi-implication.
    Iff,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Equality (integers, booleans or sets — resolved by sorting).
    Eq,
    /// Disequality.
    Neq,
    /// Less-or-equal on integers.
    Le,
    /// Strictly-less on integers.
    Lt,
    /// Greater-or-equal on integers.
    Ge,
    /// Strictly-greater on integers.
    Gt,
    /// Set union.
    Union,
    /// Set intersection.
    Intersect,
    /// Set difference.
    Diff,
    /// Element membership (`x ∈ S`).
    Member,
    /// Subset-or-equal (`S ⊆ T`).
    Subset,
}

impl BinOp {
    /// Whether the operator is a comparison between two integer terms.
    pub fn is_arith_comparison(self) -> bool {
        matches!(self, BinOp::Le | BinOp::Lt | BinOp::Ge | BinOp::Gt)
    }
}

/// A term of the refinement logic.
///
/// Terms are pure, first-order and quantifier-free. Measures (logic-level
/// functions such as `len` or `elems`) appear as uninterpreted applications
/// ([`Term::App`]); the type checker instantiates their defining axioms at
/// pattern matches, and the solver treats the applications congruently.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable reference (program variable, value variable or ghost).
    Var(String),
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// The empty set literal `∅`.
    EmptySet,
    /// A singleton set `{t}`.
    Singleton(Box<Term>),
    /// A literal finite set of integers (used mainly in tests and models).
    SetLit(BTreeSet<i64>),
    /// Unary operator application.
    Unary(UnOp, Box<Term>),
    /// Binary operator application.
    Binary(BinOp, Box<Term>, Box<Term>),
    /// Multiplication of a term by an integer constant (linear arithmetic).
    Mul(i64, Box<Term>),
    /// Conditional term `if c then t else e` (any sort, both branches agree).
    Ite(Box<Term>, Box<Term>, Box<Term>),
    /// Application of a measure / uninterpreted function to arguments.
    App(String, Vec<Term>),
    /// An *unknown* predicate or potential placeholder, identified by name.
    ///
    /// Unknowns stand for annotations to be inferred (`U^Δ_Γ` in the paper).
    /// The checker only creates numeric unknowns (potentials), which the
    /// resource-constraint (CEGIS) solver solves. The argument list records
    /// the pending substitution applied to the unknown.
    Unknown(String, Vec<(String, Term)>),
}

impl Term {
    /// A variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// The special value variable `ν`.
    pub fn value_var() -> Term {
        Term::Var(VALUE_VAR.to_string())
    }

    /// An integer literal.
    pub fn int(n: i64) -> Term {
        Term::Int(n)
    }

    /// The boolean literal `true`.
    pub fn tt() -> Term {
        Term::Bool(true)
    }

    /// The boolean literal `false`.
    pub fn ff() -> Term {
        Term::Bool(false)
    }

    /// An unknown predicate with an empty pending substitution.
    pub fn unknown(name: impl Into<String>) -> Term {
        Term::Unknown(name.into(), Vec::new())
    }

    /// A measure / uninterpreted function application.
    pub fn app(name: impl Into<String>, args: Vec<Term>) -> Term {
        Term::App(name.into(), args)
    }

    /// Boolean negation (with shallow simplification of literals).
    // Not an `ops::Not` impl: this is the established builder API alongside
    // `and`/`or`/`implies`, and it simplifies rather than merely wrapping.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Term {
        match self {
            Term::Bool(b) => Term::Bool(!b),
            Term::Unary(UnOp::Not, t) => *t,
            t => Term::Unary(UnOp::Not, Box::new(t)),
        }
    }

    /// Integer negation.
    // See `not` above for why this is not an `ops::Neg` impl.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Term {
        match self {
            Term::Int(n) => Term::Int(-n),
            t => Term::Unary(UnOp::Neg, Box::new(t)),
        }
    }

    /// Conjunction with shallow unit simplification.
    pub fn and(self, other: Term) -> Term {
        match (self, other) {
            (Term::Bool(true), t) | (t, Term::Bool(true)) => t,
            (Term::Bool(false), _) | (_, Term::Bool(false)) => Term::Bool(false),
            (a, b) => Term::Binary(BinOp::And, Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction with shallow unit simplification.
    pub fn or(self, other: Term) -> Term {
        match (self, other) {
            (Term::Bool(false), t) | (t, Term::Bool(false)) => t,
            (Term::Bool(true), _) | (_, Term::Bool(true)) => Term::Bool(true),
            (a, b) => Term::Binary(BinOp::Or, Box::new(a), Box::new(b)),
        }
    }

    /// Implication with shallow unit simplification.
    pub fn implies(self, other: Term) -> Term {
        match (self, other) {
            (Term::Bool(true), t) => t,
            (Term::Bool(false), _) => Term::Bool(true),
            (_, Term::Bool(true)) => Term::Bool(true),
            (a, Term::Bool(false)) => a.not(),
            (a, b) => Term::Binary(BinOp::Implies, Box::new(a), Box::new(b)),
        }
    }

    /// Bi-implication.
    pub fn iff(self, other: Term) -> Term {
        Term::Binary(BinOp::Iff, Box::new(self), Box::new(other))
    }

    /// Equality.
    pub fn eq_(self, other: Term) -> Term {
        Term::Binary(BinOp::Eq, Box::new(self), Box::new(other))
    }

    /// Disequality.
    pub fn neq(self, other: Term) -> Term {
        Term::Binary(BinOp::Neq, Box::new(self), Box::new(other))
    }

    /// Less-or-equal.
    pub fn le(self, other: Term) -> Term {
        Term::Binary(BinOp::Le, Box::new(self), Box::new(other))
    }

    /// Strictly-less.
    pub fn lt(self, other: Term) -> Term {
        Term::Binary(BinOp::Lt, Box::new(self), Box::new(other))
    }

    /// Greater-or-equal.
    pub fn ge(self, other: Term) -> Term {
        Term::Binary(BinOp::Ge, Box::new(self), Box::new(other))
    }

    /// Strictly-greater.
    pub fn gt(self, other: Term) -> Term {
        Term::Binary(BinOp::Gt, Box::new(self), Box::new(other))
    }

    /// Set union.
    pub fn union(self, other: Term) -> Term {
        Term::Binary(BinOp::Union, Box::new(self), Box::new(other))
    }

    /// Set intersection.
    pub fn intersect(self, other: Term) -> Term {
        Term::Binary(BinOp::Intersect, Box::new(self), Box::new(other))
    }

    /// Set difference.
    pub fn diff(self, other: Term) -> Term {
        Term::Binary(BinOp::Diff, Box::new(self), Box::new(other))
    }

    /// Set membership (`self ∈ other`).
    pub fn member(self, other: Term) -> Term {
        Term::Binary(BinOp::Member, Box::new(self), Box::new(other))
    }

    /// Subset-or-equal.
    pub fn subset(self, other: Term) -> Term {
        Term::Binary(BinOp::Subset, Box::new(self), Box::new(other))
    }

    /// Singleton set.
    pub fn singleton(self) -> Term {
        Term::Singleton(Box::new(self))
    }

    /// Conditional term.
    pub fn ite(cond: Term, then: Term, els: Term) -> Term {
        match cond {
            Term::Bool(true) => then,
            Term::Bool(false) => els,
            c => Term::Ite(Box::new(c), Box::new(then), Box::new(els)),
        }
    }

    /// Multiplication by an integer constant.
    pub fn times(self, k: i64) -> Term {
        match (k, self) {
            (0, _) => Term::Int(0),
            (1, t) => t,
            (k, Term::Int(n)) => Term::Int(k * n),
            (k, t) => Term::Mul(k, Box::new(t)),
        }
    }

    /// Conjunction of an iterator of terms (`true` for the empty iterator).
    pub fn and_all<I: IntoIterator<Item = Term>>(terms: I) -> Term {
        terms.into_iter().fold(Term::tt(), Term::and)
    }

    /// Disjunction of an iterator of terms (`false` for the empty iterator).
    pub fn or_all<I: IntoIterator<Item = Term>>(terms: I) -> Term {
        terms.into_iter().fold(Term::ff(), Term::or)
    }

    /// Sum of an iterator of terms (`0` for the empty iterator).
    pub fn sum<I: IntoIterator<Item = Term>>(terms: I) -> Term {
        let mut acc: Option<Term> = None;
        for t in terms {
            acc = Some(match acc {
                None => t,
                Some(a) => a + t,
            });
        }
        acc.unwrap_or(Term::Int(0))
    }

    /// Is this the literal `true`?
    pub fn is_true(&self) -> bool {
        matches!(self, Term::Bool(true))
    }

    /// Is this the literal `false`?
    pub fn is_false(&self) -> bool {
        matches!(self, Term::Bool(false))
    }

    /// Is this syntactically the integer literal `0`?
    pub fn is_zero(&self) -> bool {
        matches!(self, Term::Int(0))
    }

    /// Flatten a conjunction into its conjuncts (a non-conjunction is a
    /// singleton list; `true` is the empty list).
    pub fn conjuncts(&self) -> Vec<Term> {
        match self {
            Term::Bool(true) => vec![],
            Term::Binary(BinOp::And, a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            t => vec![t.clone()],
        }
    }

    /// Flatten a disjunction into its disjuncts (a non-disjunction is a
    /// singleton list; `false` is the empty list).
    pub fn disjuncts(&self) -> Vec<Term> {
        match self {
            Term::Bool(false) => vec![],
            Term::Binary(BinOp::Or, a, b) => {
                let mut v = a.disjuncts();
                v.extend(b.disjuncts());
                v
            }
            t => vec![t.clone()],
        }
    }

    /// Collect every unknown name occurring in the term.
    pub fn unknowns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_unknowns(&mut out);
        out
    }

    fn collect_unknowns(&self, out: &mut BTreeSet<String>) {
        match self {
            Term::Unknown(name, subst) => {
                out.insert(name.clone());
                for (_, t) in subst {
                    t.collect_unknowns(out);
                }
            }
            Term::Var(_) | Term::Bool(_) | Term::Int(_) | Term::EmptySet | Term::SetLit(_) => {}
            Term::Singleton(t) | Term::Unary(_, t) | Term::Mul(_, t) => t.collect_unknowns(out),
            Term::Binary(_, a, b) => {
                a.collect_unknowns(out);
                b.collect_unknowns(out);
            }
            Term::Ite(c, t, e) => {
                c.collect_unknowns(out);
                t.collect_unknowns(out);
                e.collect_unknowns(out);
            }
            Term::App(_, args) => {
                for a in args {
                    a.collect_unknowns(out);
                }
            }
        }
    }

    /// Does the term contain any unknown? Stops at the first one.
    pub fn has_unknowns(&self) -> bool {
        self.any_subterm(&|t| matches!(t, Term::Unknown(_, _)))
    }

    /// Does the term apply the measure `name` anywhere (as
    /// [`measure_apps`](Term::measure_apps) would list it)? Stops at the
    /// first application.
    pub fn mentions_measure(&self, name: &str) -> bool {
        self.any_subterm(&|t| matches!(t, Term::App(m, _) if m == name))
    }

    /// Does `pred` hold of the term or of any of its subterms (an unknown's
    /// pending substitution included)? Stops at the first match.
    fn any_subterm(&self, pred: &impl Fn(&Term) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Term::Var(_) | Term::Bool(_) | Term::Int(_) | Term::EmptySet | Term::SetLit(_) => false,
            Term::Singleton(t) | Term::Unary(_, t) | Term::Mul(_, t) => t.any_subterm(pred),
            Term::Binary(_, a, b) => a.any_subterm(pred) || b.any_subterm(pred),
            Term::Ite(c, t, e) => c.any_subterm(pred) || t.any_subterm(pred) || e.any_subterm(pred),
            Term::App(_, args) => args.iter().any(|a| a.any_subterm(pred)),
            Term::Unknown(_, subst) => subst.iter().any(|(_, t)| t.any_subterm(pred)),
        }
    }

    /// Collect every measure-application subterm (name, args).
    pub fn measure_apps(&self) -> Vec<(String, Vec<Term>)> {
        let mut out = Vec::new();
        self.collect_apps(&mut out);
        out
    }

    fn collect_apps(&self, out: &mut Vec<(String, Vec<Term>)>) {
        match self {
            Term::App(name, args) => {
                for a in args {
                    a.collect_apps(out);
                }
                let entry = (name.clone(), args.clone());
                if !out.contains(&entry) {
                    out.push(entry);
                }
            }
            Term::Var(_) | Term::Bool(_) | Term::Int(_) | Term::EmptySet | Term::SetLit(_) => {}
            Term::Singleton(t) | Term::Unary(_, t) | Term::Mul(_, t) => t.collect_apps(out),
            Term::Binary(_, a, b) => {
                a.collect_apps(out);
                b.collect_apps(out);
            }
            Term::Ite(c, t, e) => {
                c.collect_apps(out);
                t.collect_apps(out);
                e.collect_apps(out);
            }
            Term::Unknown(_, subst) => {
                for (_, t) in subst {
                    t.collect_apps(out);
                }
            }
        }
    }

    /// Count the AST nodes of the term (used by a few heuristics and tests).
    pub fn size(&self) -> usize {
        match self {
            Term::Var(_)
            | Term::Bool(_)
            | Term::Int(_)
            | Term::EmptySet
            | Term::SetLit(_)
            | Term::Unknown(_, _) => 1,
            Term::Singleton(t) | Term::Unary(_, t) | Term::Mul(_, t) => 1 + t.size(),
            Term::Binary(_, a, b) => 1 + a.size() + b.size(),
            Term::Ite(c, t, e) => 1 + c.size() + t.size() + e.size(),
            Term::App(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
        }
    }
}

impl std::ops::Add for Term {
    type Output = Term;
    fn add(self, rhs: Term) -> Term {
        match (self, rhs) {
            (Term::Int(0), t) | (t, Term::Int(0)) => t,
            (Term::Int(a), Term::Int(b)) => Term::Int(a + b),
            (a, b) => Term::Binary(BinOp::Add, Box::new(a), Box::new(b)),
        }
    }
}

impl std::ops::Sub for Term {
    type Output = Term;
    fn sub(self, rhs: Term) -> Term {
        match (self, rhs) {
            (t, Term::Int(0)) => t,
            (Term::Int(a), Term::Int(b)) => Term::Int(a - b),
            (a, b) => Term::Binary(BinOp::Sub, Box::new(a), Box::new(b)),
        }
    }
}

impl From<i64> for Term {
    fn from(n: i64) -> Term {
        Term::Int(n)
    }
}

impl From<bool> for Term {
    fn from(b: bool) -> Term {
        Term::Bool(b)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_term(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_simplify_boolean_units() {
        assert_eq!(Term::tt().and(Term::var("p")), Term::var("p"));
        assert_eq!(Term::var("p").and(Term::ff()), Term::ff());
        assert_eq!(Term::ff().or(Term::var("p")), Term::var("p"));
        assert_eq!(Term::var("p").or(Term::tt()), Term::tt());
        assert_eq!(Term::ff().implies(Term::var("p")), Term::tt());
        assert_eq!(Term::tt().implies(Term::var("p")), Term::var("p"));
    }

    #[test]
    fn double_negation_cancels() {
        let p = Term::var("p");
        assert_eq!(p.clone().not().not(), p);
    }

    #[test]
    fn arithmetic_on_literals_folds() {
        assert_eq!(Term::int(2) + Term::int(3), Term::int(5));
        assert_eq!(Term::int(2) - Term::int(3), Term::int(-1));
        assert_eq!(Term::var("x") + Term::int(0), Term::var("x"));
        assert_eq!(Term::var("x").times(0), Term::int(0));
        assert_eq!(Term::var("x").times(1), Term::var("x"));
        assert_eq!(Term::int(4).times(3), Term::int(12));
    }

    #[test]
    fn conjuncts_flattens_nested_ands() {
        let t = Term::var("a").and(Term::var("b").and(Term::var("c")));
        assert_eq!(
            t.conjuncts(),
            vec![Term::var("a"), Term::var("b"), Term::var("c")]
        );
        assert!(Term::tt().conjuncts().is_empty());
    }

    #[test]
    fn unknowns_are_collected_transitively() {
        let t = Term::unknown("U1")
            .and(Term::var("x").le(Term::int(3)))
            .or(Term::Unknown(
                "U2".into(),
                vec![("y".into(), Term::unknown("U3"))],
            ));
        let u = t.unknowns();
        assert!(u.contains("U1") && u.contains("U2") && u.contains("U3"));
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn measure_apps_deduplicate() {
        let t = Term::app("len", vec![Term::var("xs")])
            .eq_(Term::app("len", vec![Term::var("xs")]) + Term::int(1));
        assert_eq!(t.measure_apps().len(), 1);
    }

    #[test]
    fn sum_of_empty_is_zero() {
        assert_eq!(Term::sum(Vec::new()), Term::int(0));
        assert_eq!(
            Term::sum(vec![Term::var("a"), Term::var("b")]),
            Term::var("a") + Term::var("b")
        );
    }

    #[test]
    fn ite_on_literal_condition_selects_branch() {
        assert_eq!(
            Term::ite(Term::tt(), Term::int(1), Term::int(2)),
            Term::int(1)
        );
        assert_eq!(
            Term::ite(Term::ff(), Term::int(1), Term::int(2)),
            Term::int(2)
        );
    }

    #[test]
    fn size_counts_nodes() {
        let t = Term::var("x").le(Term::var("y") + Term::int(1));
        assert_eq!(t.size(), 5);
    }
}
