//! Linear expressions over dense variable indices, and linearization of
//! refinement terms.
//!
//! A solver miss numbers the arithmetic variables of its query densely
//! (`0..n`, see [`crate::smt`]); a [`LinExpr`] is a sorted list of
//! `(index, coefficient)` pairs plus a constant, so combining two
//! expressions is one merge and evaluating one reads a `&[Rat]`.
//!
//! The linearizer reads interned terms ([`TermId`]s of the solver's per-query
//! [`TermArena`]). By the time a term reaches it, the SMT layer has already
//! replaced measure applications and set-sorted sub-terms by alias variables
//! and case-split conditional (`ite`) sub-terms, so the only remaining forms
//! are variables, integer literals, `+`, `-`, unary negation and
//! multiplication by a constant. Anything else is reported as
//! [`LinearizeError::NonLinear`] — mirroring the paper's implementation, which
//! "simply rejects the program if a nonlinear term arises" (§4.3).

use std::fmt;

use resyn_logic::intern::Node;
use resyn_logic::{BinOp, FxHashMap, TermArena, TermId, UnOp};

use crate::rational::Rat;

/// A linear expression `Σ cᵢ·xᵢ + c` over variable indices. The terms are
/// sorted by index and no coefficient is zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    terms: Vec<(u32, Rat)>,
    constant: Rat,
}

/// Errors raised while linearizing a term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinearizeError {
    /// The term is not linear (e.g. contains a product of two variables or an
    /// unsupported construct at this stage).
    NonLinear(String),
}

impl fmt::Display for LinearizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinearizeError::NonLinear(t) => write!(f, "term is not linear arithmetic: {t}"),
        }
    }
}

impl std::error::Error for LinearizeError {}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable.
    pub fn var(var: u32) -> LinExpr {
        LinExpr {
            terms: vec![(var, Rat::ONE)],
            constant: Rat::ZERO,
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> Rat {
        self.constant
    }

    /// The coefficient of a variable (zero if absent).
    pub fn coeff(&self, var: u32) -> Rat {
        match self.terms.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(i) => self.terms[i].1,
            Err(_) => Rat::ZERO,
        }
    }

    /// The variables with non-zero coefficients, in increasing order.
    pub fn vars(&self) -> impl Iterator<Item = u32> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// The `(variable, coefficient)` pairs, in increasing variable order.
    pub fn terms(&self) -> impl Iterator<Item = (u32, Rat)> + '_ {
        self.terms.iter().copied()
    }

    /// Whether the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Add another expression.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, Rat::ONE);
        out
    }

    /// Subtract another expression.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_scaled(other, -Rat::ONE);
        out
    }

    /// Multiply by a rational constant.
    pub fn scale(&self, k: Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            terms: self.terms.iter().map(|&(v, c)| (v, c * k)).collect(),
            constant: self.constant * k,
        }
    }

    /// Add `k·other` in place: one merge of the two sorted term lists,
    /// dropping the coefficients that cancel.
    pub fn add_scaled(&mut self, other: &LinExpr, k: Rat) {
        if k.is_zero() {
            return;
        }
        self.constant = self.constant + other.constant * k;
        if other.terms.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut mine, mut theirs) = (self.terms.iter().peekable(), other.terms.iter().peekable());
        loop {
            match (mine.peek(), theirs.peek()) {
                (Some(&&(v, c)), Some(&&(w, d))) if v == w => {
                    let sum = c + d * k;
                    if !sum.is_zero() {
                        merged.push((v, sum));
                    }
                    mine.next();
                    theirs.next();
                }
                (Some(&&(v, c)), Some(&&(w, _))) if v < w => {
                    merged.push((v, c));
                    mine.next();
                }
                (_, Some(&&(w, d))) => {
                    merged.push((w, d * k));
                    theirs.next();
                }
                (Some(&&term), None) => {
                    merged.push(term);
                    mine.next();
                }
                (None, None) => break,
            }
        }
        self.terms = merged;
    }

    /// Evaluate under a dense assignment: variable `i` takes `values[i]`,
    /// and a variable past the end of `values` evaluates to zero.
    pub fn eval(&self, values: &[Rat]) -> Rat {
        self.terms.iter().fold(self.constant, |acc, &(v, c)| {
            acc + c * values.get(v as usize).copied().unwrap_or(Rat::ZERO)
        })
    }

    /// Evaluate as [`eval`](Self::eval) does, with `var`'s term left out.
    pub fn eval_without(&self, var: u32, values: &[Rat]) -> Rat {
        self.terms
            .iter()
            .filter(|&&(v, _)| v != var)
            .fold(self.constant, |acc, &(v, c)| {
                acc + c * values.get(v as usize).copied().unwrap_or(Rat::ZERO)
            })
    }

    /// Linearize an interned refinement term into a linear expression, each
    /// variable read as its index in `vars`.
    ///
    /// # Errors
    ///
    /// Returns [`LinearizeError::NonLinear`] when the term contains constructs
    /// outside pure linear arithmetic (sets, measures, conditionals, booleans)
    /// or a variable `vars` does not number.
    pub fn from_id(
        arena: &TermArena,
        id: TermId,
        vars: &FxHashMap<TermId, u32>,
    ) -> Result<LinExpr, LinearizeError> {
        let lin = |t: TermId| LinExpr::from_id(arena, t, vars);
        let non_linear = || LinearizeError::NonLinear(arena.term(id).to_string());
        match arena.node(id) {
            Node::Int(n) => Ok(LinExpr::constant(Rat::int(*n))),
            Node::Var(_) => vars
                .get(&id)
                .map(|&v| LinExpr::var(v))
                .ok_or_else(non_linear),
            Node::Unary(UnOp::Neg, t) => Ok(lin(*t)?.scale(-Rat::ONE)),
            Node::Mul(k, t) => Ok(lin(*t)?.scale(Rat::int(*k))),
            Node::Binary(BinOp::Add, a, b) => Ok(lin(*a)?.add(&lin(*b)?)),
            Node::Binary(BinOp::Sub, a, b) => Ok(lin(*a)?.sub(&lin(*b)?)),
            _ => Err(non_linear()),
        }
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}·x{v}")?;
            first = false;
        }
        if !self.constant.is_zero() || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;

    /// Linearize `t` with `x`, `y` numbered 0 and 1.
    fn linearize(t: &Term) -> Result<LinExpr, LinearizeError> {
        let mut arena = TermArena::new();
        let mut vars = FxHashMap::default();
        for (i, name) in ["x", "y"].into_iter().enumerate() {
            vars.insert(arena.intern(&Term::var(name)), i as u32);
        }
        let id = arena.intern(t);
        LinExpr::from_id(&arena, id, &vars)
    }

    const X: u32 = 0;
    const Y: u32 = 1;

    #[test]
    fn linearize_basic_terms() {
        let t = Term::var("x").times(2) + Term::var("y") - Term::int(3);
        let e = linearize(&t).unwrap();
        assert_eq!(e.coeff(X), Rat::int(2));
        assert_eq!(e.coeff(Y), Rat::int(1));
        assert_eq!(e.constant_part(), Rat::int(-3));
        assert_eq!(e.vars().collect::<Vec<_>>(), [X, Y]);
    }

    #[test]
    fn cancellation_removes_variables() {
        let t = (Term::var("x") + Term::var("y")) - Term::var("x");
        let e = linearize(&t).unwrap();
        assert_eq!(e.coeff(X), Rat::ZERO);
        assert_eq!(e.vars().count(), 1);
    }

    #[test]
    fn nonlinear_terms_are_rejected() {
        let t = Term::var("x").le(Term::var("y"));
        assert!(linearize(&t).is_err());
        let t = Term::app("len", vec![Term::var("xs")]);
        assert!(linearize(&t).is_err());
        // A variable the index does not number is not arithmetic.
        assert!(linearize(&(Term::var("x") + Term::var("z"))).is_err());
    }

    #[test]
    fn evaluation_and_substitution() {
        let t = Term::var("x").times(2) + Term::var("y") + Term::int(1);
        let e = linearize(&t).unwrap();
        let values = [Rat::int(3), Rat::int(-1)];
        assert_eq!(e.eval(&values), Rat::int(6));
        // Variables past the end of the assignment read zero.
        assert_eq!(e.eval(&values[..1]), Rat::int(7));
        assert_eq!(e.eval_without(X, &values), Rat::ZERO);

        // Substitute x := y + 2, as `c·(y + 2)` added to `e` without x:
        // 2y + 4 + y + 1 = 3y + 5.
        let replacement = LinExpr::var(Y).add(&LinExpr::constant(Rat::int(2)));
        let mut s = e.sub(&LinExpr::var(X).scale(e.coeff(X)));
        s.add_scaled(&replacement, e.coeff(X));
        assert_eq!(s.coeff(X), Rat::ZERO);
        assert_eq!(s.coeff(Y), Rat::int(3));
        assert_eq!(s.constant_part(), Rat::int(5));
    }

    #[test]
    fn add_scaled_merges_sorted_terms() {
        // (x0 + 2·x2) + (−1/2)·(2·x0 + x1 + 4) = x1·(−1/2) + 2·x2 − 2.
        let mut e = LinExpr::var(0).add(&LinExpr::var(2).scale(Rat::int(2)));
        let other = LinExpr::var(0)
            .scale(Rat::int(2))
            .add(&LinExpr::var(1))
            .add(&LinExpr::constant(Rat::int(4)));
        e.add_scaled(&other, Rat::new(-1, 2));
        assert_eq!(
            e.terms().collect::<Vec<_>>(),
            [(1, Rat::new(-1, 2)), (2, Rat::int(2))]
        );
        assert_eq!(e.constant_part(), Rat::int(-2));
        // Adding zero times anything changes nothing.
        let before = e.clone();
        e.add_scaled(&other, Rat::ZERO);
        assert_eq!(e, before);
    }

    #[test]
    fn scale_by_zero_is_zero() {
        let e = LinExpr::var(X).scale(Rat::ZERO);
        assert!(e.is_constant());
        assert_eq!(e.constant_part(), Rat::ZERO);
    }
}
