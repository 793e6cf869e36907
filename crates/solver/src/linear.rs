//! Linear expressions over named variables, and linearization of refinement
//! terms.
//!
//! The linearizer reads interned terms ([`TermId`]s of the solver's per-query
//! [`TermArena`]). By the time a term reaches it, the SMT layer has already
//! replaced measure applications and set-sorted sub-terms by alias variables
//! and case-split conditional (`ite`) sub-terms, so the only remaining forms
//! are variables, integer literals, `+`, `-`, unary negation and
//! multiplication by a constant. Anything else is reported as
//! [`LinearizeError::NonLinear`] — mirroring the paper's implementation, which
//! "simply rejects the program if a nonlinear term arises" (§4.3).

use std::collections::BTreeMap;
use std::fmt;

use resyn_logic::intern::Node;
use resyn_logic::{BinOp, TermArena, TermId, UnOp};

use crate::rational::Rat;

/// A linear expression `Σ cᵢ·xᵢ + c`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinExpr {
    coeffs: BTreeMap<String, Rat>,
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
            coeffs: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single variable.
    pub fn var(name: impl Into<String>) -> LinExpr {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.into(), Rat::ONE);
        LinExpr {
            coeffs,
            constant: Rat::ZERO,
        }
    }

    /// The constant part.
    pub fn constant_part(&self) -> Rat {
        self.constant
    }

    /// The coefficient of a variable (zero if absent).
    pub fn coeff(&self, var: &str) -> Rat {
        self.coeffs.get(var).copied().unwrap_or(Rat::ZERO)
    }

    /// Iterate over the variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &String> {
        self.coeffs.keys()
    }

    /// Iterate over `(variable, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&String, &Rat)> {
        self.coeffs.iter()
    }

    /// Whether the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Add another expression.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.constant = out.constant + other.constant;
        for (v, c) in &other.coeffs {
            let updated = out.coeff(v) + *c;
            if updated.is_zero() {
                out.coeffs.remove(v);
            } else {
                out.coeffs.insert(v.clone(), updated);
            }
        }
        out
    }

    /// Subtract another expression.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        self.add(&other.scale(-Rat::ONE))
    }

    /// Multiply by a rational constant.
    pub fn scale(&self, k: Rat) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        LinExpr {
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| (v.clone(), *c * k))
                .collect(),
            constant: self.constant * k,
        }
    }

    /// Evaluate under an assignment of rationals to variables.
    ///
    /// Variables missing from the assignment evaluate to zero.
    pub fn eval(&self, assignment: &BTreeMap<String, Rat>) -> Rat {
        let mut acc = self.constant;
        for (v, c) in &self.coeffs {
            let val = assignment.get(v).copied().unwrap_or(Rat::ZERO);
            acc = acc + *c * val;
        }
        acc
    }

    /// Substitute a variable by a linear expression.
    pub fn subst(&self, var: &str, replacement: &LinExpr) -> LinExpr {
        let c = self.coeff(var);
        if c.is_zero() {
            return self.clone();
        }
        let mut without = self.clone();
        without.coeffs.remove(var);
        without.add(&replacement.scale(c))
    }

    /// Linearize an interned refinement term into a linear expression.
    ///
    /// # Errors
    ///
    /// Returns [`LinearizeError::NonLinear`] when the term contains constructs
    /// outside pure linear arithmetic (sets, measures, conditionals, booleans).
    pub fn from_id(arena: &TermArena, id: TermId) -> Result<LinExpr, LinearizeError> {
        match arena.node(id) {
            Node::Int(n) => Ok(LinExpr::constant(Rat::int(*n))),
            Node::Var(x) => Ok(LinExpr::var(x.clone())),
            Node::Unary(UnOp::Neg, t) => Ok(LinExpr::from_id(arena, *t)?.scale(-Rat::ONE)),
            Node::Mul(k, t) => Ok(LinExpr::from_id(arena, *t)?.scale(Rat::int(*k))),
            Node::Binary(BinOp::Add, a, b) => {
                Ok(LinExpr::from_id(arena, *a)?.add(&LinExpr::from_id(arena, *b)?))
            }
            Node::Binary(BinOp::Sub, a, b) => {
                Ok(LinExpr::from_id(arena, *a)?.sub(&LinExpr::from_id(arena, *b)?))
            }
            _ => Err(LinearizeError::NonLinear(arena.term(id).to_string())),
        }
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.coeffs {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c}·{v}")?;
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

    fn linearize(t: &Term) -> Result<LinExpr, LinearizeError> {
        let mut arena = TermArena::new();
        let id = arena.intern(t);
        LinExpr::from_id(&arena, id)
    }

    #[test]
    fn linearize_basic_terms() {
        let t = Term::var("x").times(2) + Term::var("y") - Term::int(3);
        let e = linearize(&t).unwrap();
        assert_eq!(e.coeff("x"), Rat::int(2));
        assert_eq!(e.coeff("y"), Rat::int(1));
        assert_eq!(e.constant_part(), Rat::int(-3));
    }

    #[test]
    fn cancellation_removes_variables() {
        let t = (Term::var("x") + Term::var("y")) - Term::var("x");
        let e = linearize(&t).unwrap();
        assert_eq!(e.coeff("x"), Rat::ZERO);
        assert_eq!(e.vars().count(), 1);
    }

    #[test]
    fn nonlinear_terms_are_rejected() {
        let t = Term::var("x").le(Term::var("y"));
        assert!(linearize(&t).is_err());
        let t = Term::app("len", vec![Term::var("xs")]);
        assert!(linearize(&t).is_err());
    }

    #[test]
    fn evaluation_and_substitution() {
        let t = Term::var("x").times(2) + Term::var("y") + Term::int(1);
        let e = linearize(&t).unwrap();
        let mut assignment = BTreeMap::new();
        assignment.insert("x".to_string(), Rat::int(3));
        assignment.insert("y".to_string(), Rat::int(-1));
        assert_eq!(e.eval(&assignment), Rat::int(6));

        // Substitute x := y + 2  =>  2y + 4 + y + 1 = 3y + 5
        let replacement = LinExpr::var("y").add(&LinExpr::constant(Rat::int(2)));
        let s = e.subst("x", &replacement);
        assert_eq!(s.coeff("y"), Rat::int(3));
        assert_eq!(s.constant_part(), Rat::int(5));
    }

    #[test]
    fn scale_by_zero_is_zero() {
        let e = LinExpr::var("x").scale(Rat::ZERO);
        assert!(e.is_constant());
        assert_eq!(e.constant_part(), Rat::ZERO);
    }
}
