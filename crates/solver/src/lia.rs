//! Satisfiability of conjunctions of linear constraints.
//!
//! The workhorse is Fourier–Motzkin elimination over exact rationals with
//! strictness tracking, followed by model reconstruction in reverse
//! elimination order. A branch-and-bound wrapper refines rational models into
//! *integer* models (every variable the arithmetic theory hands over has the
//! refinement logic's integer sort), which is what the CEGIS
//! resource-constraint solver needs. Variables are dense indices `0..n` (see
//! [`crate::linear`]) and models are `Vec<Rat>`s indexed by them.
//!
//! The constraint sets produced by type checking and synthesis are small
//! (tens of literals, a dozen variables), so the exponential worst case of
//! Fourier–Motzkin is irrelevant in practice; an explicit work limit guards
//! against pathological inputs.

use crate::linear::LinExpr;
use crate::rational::Rat;

/// A single linear constraint `expr ≥ 0` (or `expr > 0` when `strict`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinConstraint {
    /// The left-hand side; the constraint asserts it is (strictly) non-negative.
    pub expr: LinExpr,
    /// Whether the inequality is strict.
    pub strict: bool,
}

impl LinConstraint {
    /// A non-strict constraint `expr ≥ 0`.
    pub fn ge0(expr: LinExpr) -> Self {
        LinConstraint {
            expr,
            strict: false,
        }
    }

    /// A strict constraint `expr > 0`.
    pub fn gt0(expr: LinExpr) -> Self {
        LinConstraint { expr, strict: true }
    }

    /// Whether the constraint holds under a dense rational assignment (a
    /// variable past its end reads zero).
    pub fn holds(&self, assignment: &[Rat]) -> bool {
        admits(self.expr.eval(assignment), self.strict)
    }
}

/// Whether a left-hand side of value `v` satisfies `· ≥ 0` (`· > 0` if strict).
fn admits(v: Rat, strict: bool) -> bool {
    if strict {
        v.is_positive()
    } else {
        !v.is_negative()
    }
}

/// Result of an (integer) satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiaResult {
    /// Satisfiable, with a dense model: variable `i` takes `model[i]`, and a
    /// variable past its end (one no constraint mentions) takes zero.
    Sat(Vec<Rat>),
    /// Unsatisfiable.
    Unsat,
    /// The work limit was exceeded before an answer was found.
    Unknown,
}

/// Solver for conjunctions of linear constraints.
#[derive(Debug, Clone)]
pub struct LiaSolver {
    /// Maximum number of branch-and-bound nodes explored per query.
    pub branch_limit: usize,
    /// Maximum number of derived constraints during elimination per query.
    pub constraint_limit: usize,
}

impl Default for LiaSolver {
    fn default() -> Self {
        LiaSolver {
            branch_limit: 2_000,
            constraint_limit: 200_000,
        }
    }
}

impl LiaSolver {
    /// A solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Find a rational model of the constraints: [`LiaResult::Unsat`] if
    /// there is none, [`LiaResult::Unknown`] if the work limit hit.
    pub fn solve_rational(&self, constraints: &[LinConstraint]) -> LiaResult {
        // Quick check: constant constraints.
        let mut work: Vec<LinConstraint> = Vec::new();
        let mut num_vars = 0;
        for c in constraints {
            match c.expr.vars().last() {
                None if !admits(c.expr.constant_part(), c.strict) => return LiaResult::Unsat,
                None => {}
                Some(last) => {
                    num_vars = num_vars.max(last as usize + 1);
                    work.push(c.clone());
                }
            }
        }

        // Choose an elimination order: fewest occurrences first, ties by
        // index.
        let mut occurrences = vec![0usize; num_vars];
        for c in &work {
            for v in c.expr.vars() {
                occurrences[v as usize] += 1;
            }
        }
        let mut order: Vec<u32> = (0..num_vars as u32)
            .filter(|&v| occurrences[v as usize] > 0)
            .collect();
        order.sort_by_key(|&v| occurrences[v as usize]);

        // Eliminate variables, remembering the constraints "live" at each step
        // for model reconstruction.
        let mut stages: Vec<(u32, Vec<LinConstraint>)> = Vec::new();
        let mut current = work;
        let mut derived = 0usize;
        for &var in &order {
            let (mentioning, mut rest): (Vec<_>, Vec<_>) = current
                .into_iter()
                .partition(|c| !c.expr.coeff(var).is_zero());
            let lowers: Vec<&LinConstraint> = mentioning
                .iter()
                .filter(|c| c.expr.coeff(var).is_positive())
                .collect();
            let uppers: Vec<&LinConstraint> = mentioning
                .iter()
                .filter(|c| c.expr.coeff(var).is_negative())
                .collect();
            for lo in &lowers {
                for up in &uppers {
                    let a = lo.expr.coeff(var); // > 0
                    let b = up.expr.coeff(var); // < 0
                                                // (-b)·lo + a·up eliminates `var`.
                    let mut combined = lo.expr.scale(-b);
                    combined.add_scaled(&up.expr, a);
                    let strict = lo.strict || up.strict;
                    if combined.is_constant() {
                        if !admits(combined.constant_part(), strict) {
                            return LiaResult::Unsat;
                        }
                    } else {
                        rest.push(LinConstraint {
                            expr: combined,
                            strict,
                        });
                        derived += 1;
                        if derived > self.constraint_limit {
                            return LiaResult::Unknown;
                        }
                    }
                }
            }
            stages.push((var, mentioning));
            current = rest;
        }

        // Any remaining constraints are constant (all variables eliminated).
        if !current
            .iter()
            .all(|c| admits(c.expr.constant_part(), c.strict))
        {
            return LiaResult::Unsat;
        }

        // Reconstruct a model in reverse elimination order.
        let mut model = vec![Rat::ZERO; num_vars];
        for (var, constraints) in stages.iter().rev() {
            let mut lower: Option<(Rat, bool)> = None; // (bound, strict)
            let mut upper: Option<(Rat, bool)> = None;
            for c in constraints {
                let coeff = c.expr.coeff(*var);
                // expr = coeff·var + rest  (≥|>) 0
                let bound = -c.expr.eval_without(*var, &model) / coeff;
                if coeff.is_positive() {
                    // var ≥ bound (or >)
                    let stricter = match lower {
                        None => true,
                        Some((b, s)) => bound > b || (bound == b && c.strict && !s),
                    };
                    if stricter {
                        lower = Some((bound, c.strict));
                    }
                } else {
                    let stricter = match upper {
                        None => true,
                        Some((b, s)) => bound < b || (bound == b && c.strict && !s),
                    };
                    if stricter {
                        upper = Some((bound, c.strict));
                    }
                }
            }
            model[*var as usize] = choose_value(lower, upper);
        }
        LiaResult::Sat(model)
    }

    /// Find a model where every variable takes an integer value.
    pub fn solve_integer(&self, mut constraints: Vec<LinConstraint>) -> LiaResult {
        // Integer tightening: when every coefficient of a *strict* constraint
        // is an integer, `expr > 0` is equivalent to `expr − 1 ≥ 0` over the
        // integers. This removes most of the need for branching and lets
        // Fourier–Motzkin refute integer-infeasible chains such as
        // `x < y < z < x + 2` directly.
        for c in &mut constraints {
            if c.strict
                && c.expr.terms().all(|(_, k)| k.is_integer())
                && c.expr.constant_part().is_integer()
            {
                c.expr.add_scaled(&LinExpr::constant(Rat::ONE), -Rat::ONE);
                c.strict = false;
            }
        }
        let mut budget = self.branch_limit;
        self.branch(constraints, &mut budget, 0)
    }

    fn branch(
        &self,
        constraints: Vec<LinConstraint>,
        budget: &mut usize,
        depth: usize,
    ) -> LiaResult {
        if *budget == 0 || depth > 128 {
            return LiaResult::Unknown;
        }
        *budget -= 1;
        match self.solve_rational(&constraints) {
            LiaResult::Unsat => LiaResult::Unsat,
            LiaResult::Unknown => LiaResult::Unknown,
            LiaResult::Sat(model) => {
                // Find the first variable with a fractional value.
                match model.iter().position(|r| !r.is_integer()) {
                    None => LiaResult::Sat(model),
                    Some(var) => {
                        // Branch var ≤ ⌊value⌋  ∨  var ≥ ⌈value⌉.
                        let (var, value) = (LinExpr::var(var as u32), model[var]);
                        let floor = Rat::int(value.floor() as i64);
                        let ceil = Rat::int(value.ceil() as i64);
                        let le_floor = LinConstraint::ge0(LinExpr::constant(floor).sub(&var));
                        let ge_ceil = LinConstraint::ge0(var.sub(&LinExpr::constant(ceil)));
                        let mut left = constraints.clone();
                        left.push(le_floor);
                        match self.branch(left, budget, depth + 1) {
                            LiaResult::Sat(m) => LiaResult::Sat(m),
                            LiaResult::Unknown => LiaResult::Unknown,
                            LiaResult::Unsat => {
                                let mut right = constraints;
                                right.push(ge_ceil);
                                self.branch(right, budget, depth + 1)
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Pick a value between an optional lower and upper bound, preferring integer
/// values where possible.
fn choose_value(lower: Option<(Rat, bool)>, upper: Option<(Rat, bool)>) -> Rat {
    match (lower, upper) {
        (None, None) => Rat::ZERO,
        (Some((lb, strict)), None) => {
            let z = Rat::int(lb.ceil() as i64);
            if z > lb || (z == lb && !strict) {
                z
            } else {
                z + Rat::ONE
            }
        }
        (None, Some((ub, strict))) => {
            let z = Rat::int(ub.floor() as i64);
            if z < ub || (z == ub && !strict) {
                z
            } else {
                z - Rat::ONE
            }
        }
        (Some((lb, sl)), Some((ub, su))) => {
            // Try the smallest integer satisfying the lower bound.
            let z = {
                let c = Rat::int(lb.ceil() as i64);
                if c > lb || (c == lb && !sl) {
                    c
                } else {
                    c + Rat::ONE
                }
            };
            let z_ok = z < ub || (z == ub && !su);
            if z_ok {
                z
            } else if lb == ub {
                lb
            } else {
                // Midpoint is always admissible when lb < ub.
                (lb + ub) / Rat::int(2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(a: LinExpr, b: LinExpr) -> LinConstraint {
        // a ≤ b  ⇔  b − a ≥ 0
        LinConstraint::ge0(b.sub(&a))
    }

    fn lt(a: LinExpr, b: LinExpr) -> LinConstraint {
        LinConstraint::gt0(b.sub(&a))
    }

    const X: usize = 0;
    const Y: usize = 1;

    fn x() -> LinExpr {
        LinExpr::var(X as u32)
    }
    fn y() -> LinExpr {
        LinExpr::var(Y as u32)
    }
    fn k(n: i64) -> LinExpr {
        LinExpr::constant(Rat::int(n))
    }

    #[test]
    fn simple_sat_with_model() {
        let solver = LiaSolver::new();
        let cs = vec![le(k(3), x()), le(x(), k(10)), le(x().add(&y()), k(12))];
        match solver.solve_rational(&cs) {
            LiaResult::Sat(m) => {
                for c in &cs {
                    assert!(c.holds(&m), "constraint {c:?} violated by {m:?}");
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_bounds_are_unsat() {
        let solver = LiaSolver::new();
        let cs = vec![lt(x(), y()), lt(y(), x())];
        assert_eq!(solver.solve_rational(&cs), LiaResult::Unsat);
        let cs = vec![le(k(5), x()), le(x(), k(4))];
        assert_eq!(solver.solve_rational(&cs), LiaResult::Unsat);
    }

    #[test]
    fn strictness_matters() {
        let solver = LiaSolver::new();
        // x ≤ 3 ∧ x ≥ 3 is sat; x < 3 ∧ x ≥ 3 is unsat.
        let sat = vec![le(x(), k(3)), le(k(3), x())];
        assert!(matches!(solver.solve_rational(&sat), LiaResult::Sat(_)));
        let unsat = vec![lt(x(), k(3)), le(k(3), x())];
        assert_eq!(solver.solve_rational(&unsat), LiaResult::Unsat);
    }

    #[test]
    fn equalities_via_two_inequalities() {
        let solver = LiaSolver::new();
        // x = 2y ∧ x ≥ 3 ∧ x ≤ 3 → x=3, y=3/2 rationally.
        let two_y = y().scale(Rat::int(2));
        let cs = vec![
            le(x(), two_y.clone()),
            le(two_y.clone(), x()),
            le(k(3), x()),
            le(x(), k(3)),
        ];
        match solver.solve_rational(&cs) {
            LiaResult::Sat(m) => {
                assert_eq!(m[X], Rat::int(3));
                assert_eq!(m[Y], Rat::new(3, 2));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Integer solving must reject y = 3/2 and fail (x=2y, x=3 has no int solution).
        assert_eq!(solver.solve_integer(cs), LiaResult::Unsat);
    }

    #[test]
    fn branch_and_bound_finds_integer_models() {
        let solver = LiaSolver::new();
        // 2x ≥ 5 ∧ x ≤ 3: rational minimum 2.5, integer model x = 3.
        let cs = vec![le(k(5), x().scale(Rat::int(2))), le(x(), k(3))];
        match solver.solve_integer(cs) {
            LiaResult::Sat(m) => assert_eq!(m[X], Rat::int(3)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_variables_default_to_zero() {
        let solver = LiaSolver::new();
        // Only y is constrained: x, below it, reads zero in the dense model.
        let cs = vec![le(k(0), y())];
        match solver.solve_rational(&cs) {
            LiaResult::Sat(m) => {
                assert_eq!(m, [Rat::ZERO, Rat::ZERO]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn chained_inequalities() {
        let solver = LiaSolver::new();
        // x < y ∧ y < z ∧ z < x+2 has no integer solution but a rational one.
        let z = LinExpr::var(2);
        let cs = vec![
            lt(x(), y()),
            lt(y(), z.clone()),
            lt(z.clone(), x().add(&k(2))),
        ];
        assert!(matches!(solver.solve_rational(&cs), LiaResult::Sat(_)));
        assert_eq!(solver.solve_integer(cs), LiaResult::Unsat);
    }

    #[test]
    fn holds_checks_assignments() {
        let c = le(x(), k(3));
        assert!(c.holds(&[Rat::int(2)]));
        assert!(!c.holds(&[Rat::int(4)]));
        // An assignment too short for the constraint reads x as zero.
        assert!(c.holds(&[]));
    }
}
