//! Property-based tests for the solver.
//!
//! The key property is soundness of the SMT pipeline against brute-force
//! evaluation over a small domain: whenever the solver claims a formula is
//! unsatisfiable, no assignment over a small integer domain satisfies it, and
//! whenever it returns a model, the model really satisfies the formula.
//! Validity-shaped queries (a long conjunction of premise atoms and a
//! disjunctive conclusion, the shape type checking issues) get their own
//! strategy: they are what the DPLL search's unit propagation and early
//! theory pruning act on, and `arb_formula` rarely builds them. Sequences
//! of validity queries asked through one cache check its refutations: a
//! recent counterexample may answer a query only where the solver would not
//! find it valid.

use proptest::prelude::*;

use resyn_logic::{Model, Sort, SortingEnv, Term, Value};

use crate::lia::{LiaResult, LiaSolver, LinConstraint};
use crate::linear::LinExpr;
use crate::rational::Rat;
use crate::smt::{SatResult, Solver, ValidityResult};

const VARS: [&str; 3] = ["x", "y", "z"];

fn env() -> SortingEnv {
    let mut e = SortingEnv::new();
    for v in VARS {
        e.bind_var(v, Sort::Int);
    }
    e
}

fn arb_atom() -> impl Strategy<Value = Term> {
    let operand = prop_oneof![
        (-4i64..5).prop_map(Term::int),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var),
        (prop_oneof![Just("x"), Just("y"), Just("z")], -3i64..4)
            .prop_map(|(v, k)| Term::var(v) + Term::int(k)),
    ];
    (operand.clone(), operand, 0usize..6).prop_map(|(a, b, op)| match op {
        0 => a.le(b),
        1 => a.lt(b),
        2 => a.ge(b),
        3 => a.gt(b),
        4 => a.eq_(b),
        _ => a.neq(b),
    })
}

fn arb_formula() -> impl Strategy<Value = Term> {
    arb_atom().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Term::not),
        ]
    })
}

/// A validity query `premises ⊨ conclusion` shaped like a typing obligation:
/// 8–13 premise literals and a conclusion that is a disjunction of 2–4
/// atoms. Random atoms this many are almost always jointly inconsistent, so
/// in three of four queries each premise is negated where needed to hold at
/// a random point, as a path condition holds on the inputs that reach it.
fn arb_validity_query() -> impl Strategy<Value = (Vec<Term>, Term)> {
    (
        proptest::collection::vec(arb_atom(), 8..14),
        proptest::collection::vec(arb_atom(), 2..5),
        (-2i64..4, -2i64..4, -2i64..4),
        0usize..4,
    )
        .prop_map(|(premises, alternatives, (x, y, z), raw)| {
            let mut point = Model::new();
            point
                .insert("x", Value::Int(x))
                .insert("y", Value::Int(y))
                .insert("z", Value::Int(z));
            let premises = premises
                .into_iter()
                .map(|p| match p.eval_bool(&point) {
                    Ok(false) if raw != 0 => p.not(),
                    _ => p,
                })
                .collect();
            (premises, Term::or_all(alternatives))
        })
}

/// Brute-force satisfiability over the domain `[-2, 3]³`.
fn brute_force_sat(f: &Term) -> bool {
    for x in -2..=3 {
        for y in -2..=3 {
            for z in -2..=3 {
                let mut m = Model::new();
                m.insert("x", Value::Int(x))
                    .insert("y", Value::Int(y))
                    .insert("z", Value::Int(z));
                if f.eval_bool(&m).unwrap_or(false) {
                    return true;
                }
            }
        }
    }
    false
}

/// A raw linear constraint `Σ coeffs[i]·xᵢ + constant ≥ 0` (`> 0` when
/// strict) over at most four variables, with coefficients in `[-3, 3]`.
type RawConstraint = (Vec<i64>, i64, bool);

/// A variable count in `1..=4` and 1–8 raw constraints over that many
/// variables. Each constraint's constant puts its left-hand side at a
/// value in `[-2, 2]` at one anchor point of `[-3, 3]ⁿ`, so many systems
/// are feasible only near the anchor, where a strict constraint is tight.
fn arb_lia_system() -> impl Strategy<Value = (usize, Vec<RawConstraint>)> {
    let constraint = (
        proptest::collection::vec(-3i64..4, 4..5),
        -2i64..3,
        prop_oneof![Just(false), Just(true)],
    );
    (
        1usize..5,
        proptest::collection::vec(-3i64..4, 4..5),
        proptest::collection::vec(constraint, 1..9),
    )
        .prop_map(|(n, anchor, raw)| {
            let raw = raw
                .into_iter()
                .map(|(mut coeffs, at_anchor, strict)| {
                    coeffs.truncate(n);
                    let dot: i64 = coeffs.iter().zip(&anchor).map(|(k, x)| k * x).sum();
                    (coeffs, at_anchor - dot, strict)
                })
                .collect();
            (n, raw)
        })
}

fn lin_constraint((coeffs, constant, strict): &RawConstraint) -> LinConstraint {
    let mut expr = LinExpr::constant(Rat::int(*constant));
    for (v, &k) in coeffs.iter().enumerate() {
        expr.add_scaled(&LinExpr::var(v as u32), Rat::int(k));
    }
    LinConstraint {
        expr,
        strict: *strict,
    }
}

/// Whether some point of `[-6, 6]ⁿ` satisfies every raw constraint.
fn integer_point_exists(n: usize, raw: &[RawConstraint]) -> bool {
    let mut point = vec![-6i64; n];
    loop {
        let holds = raw.iter().all(|(coeffs, constant, strict)| {
            let value: i64 = constant + coeffs.iter().zip(&point).map(|(k, x)| k * x).sum::<i64>();
            if *strict {
                value > 0
            } else {
                value >= 0
            }
        });
        if holds {
            return true;
        }
        // Advance the point like an odometer; done after the last one.
        let Some(i) = point.iter().position(|&x| x < 6) else {
            return false;
        };
        point[i] += 1;
        point[..i].iter_mut().for_each(|x| *x = -6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The integer LIA kernel against brute force: a `Sat` model is
    /// integral and satisfies every constraint, and `Unsat` means no point
    /// of `[-6, 6]ⁿ` does. (`Unknown`, branch-and-bound giving up on an
    /// unbounded integer-infeasible system, claims nothing.)
    #[test]
    fn lia_agrees_with_integer_brute_force((n, raw) in arb_lia_system()) {
        let constraints: Vec<LinConstraint> = raw.iter().map(lin_constraint).collect();
        match LiaSolver::new().solve_integer(constraints.clone()) {
            LiaResult::Sat(m) => {
                prop_assert!(m.iter().all(|r| r.is_integer()), "fractional model {m:?}");
                for c in &constraints {
                    prop_assert!(c.holds(&m), "model {m:?} violates {c:?}");
                }
            }
            LiaResult::Unsat => prop_assert!(
                !integer_point_exists(n, &raw),
                "claimed unsat, but a point of [-6, 6]^{n} satisfies {raw:?}"
            ),
            LiaResult::Unknown => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// If the solver says UNSAT, brute force must not find a model; if the
    /// solver returns a model, the model must satisfy the formula.
    #[test]
    fn solver_agrees_with_brute_force(f in arb_formula()) {
        let solver = Solver::new(env());
        match solver.check_sat(std::slice::from_ref(&f)) {
            SatResult::Unsat => prop_assert!(!brute_force_sat(&f)),
            SatResult::Sat(m) => {
                prop_assert!(f.eval_bool(&m).unwrap(), "model {m:?} does not satisfy {f}");
            }
            SatResult::Unknown(_) => {} // permitted, but should not happen on this fragment
            SatResult::Cancelled => panic!("no budget attached, cancellation is impossible"),
        }
    }

    /// Validity is anti-symmetric with satisfiability of the negation.
    #[test]
    fn validity_iff_negation_unsat(f in arb_formula()) {
        let solver = Solver::new(env());
        let valid = solver.is_valid(&[], &f);
        let neg_unsat = matches!(solver.check_sat(&[f.clone().not()]), SatResult::Unsat);
        prop_assert_eq!(valid, neg_unsat);
    }

    /// A formula and its negation are never both valid.
    #[test]
    fn no_formula_and_negation_both_valid(f in arb_formula()) {
        let solver = Solver::new(env());
        prop_assert!(!(solver.is_valid(&[], &f) && solver.is_valid(&[], &f.clone().not())));
    }

    /// Completeness on the linear fragment: if brute force finds a model in
    /// the small domain, the solver must report SAT (never UNSAT or Unknown).
    #[test]
    fn solver_is_complete_on_the_linear_fragment(f in arb_formula()) {
        if brute_force_sat(&f) {
            let solver = Solver::new(env());
            prop_assert!(
                matches!(solver.check_sat(std::slice::from_ref(&f)), SatResult::Sat(_)),
                "brute force found a model but the solver did not report SAT for {f}"
            );
        }
    }

    /// Adding a conjunct can only shrink the model set: if the conjunction of
    /// two formulas is satisfiable, each formula on its own is too.
    #[test]
    fn conjunction_satisfiability_is_monotone(f in arb_formula(), g in arb_formula()) {
        let solver = Solver::new(env());
        if matches!(solver.check_sat(&[f.clone(), g.clone()]), SatResult::Sat(_)) {
            prop_assert!(matches!(solver.check_sat(std::slice::from_ref(&f)), SatResult::Sat(_)));
            prop_assert!(matches!(solver.check_sat(std::slice::from_ref(&g)), SatResult::Sat(_)));
        }
    }

    /// Weakening a valid implication keeps it valid: if `f` is valid then
    /// `g ==> f` is valid for any `g`.
    #[test]
    fn valid_conclusions_survive_weakening(f in arb_formula(), g in arb_formula()) {
        let solver = Solver::new(env());
        if solver.is_valid(&[], &f) {
            prop_assert!(solver.is_valid(&[], &g.implies(f)));
        }
    }

    /// Premise-heavy validity agrees with brute force: `Valid` means no
    /// small-domain point satisfies the premises and falsifies the
    /// conclusion, an `Invalid` model really is a counterexample, and every
    /// counterexample brute force finds makes the query `Invalid`.
    #[test]
    fn premise_heavy_validity_agrees_with_brute_force(
        (premises, conclusion) in arb_validity_query()
    ) {
        let solver = Solver::new(env());
        let query = Term::and_all(premises.iter().cloned()).and(conclusion.clone().not());
        match solver.check_valid(&premises, &conclusion) {
            ValidityResult::Valid => prop_assert!(
                !brute_force_sat(&query),
                "claimed valid, but brute force falsifies {query}"
            ),
            ValidityResult::Invalid(m) => prop_assert!(
                query.eval_bool(&m).unwrap(),
                "model {m:?} is not a counterexample to {query}"
            ),
            other => panic!("linear validity query left undecided ({other:?}): {query}"),
        }
    }
}

/// The environment of a refutation query: `w` is an integer in one and a
/// boolean in the other, next to integers `x`, `y`, a boolean `p`, a set
/// `s`, lists `xs`, `ys` of an uninterpreted sort, a measure `f` over
/// integers and a measure `len` over lists.
fn refutation_env(w_is_int: bool) -> SortingEnv {
    let mut e = SortingEnv::new();
    e.bind_var("x", Sort::Int)
        .bind_var("y", Sort::Int)
        .bind_var("p", Sort::Bool)
        .bind_var("s", Sort::Set)
        .bind_var("xs", Sort::uninterp("a"))
        .bind_var("ys", Sort::uninterp("a"))
        .bind_var("w", if w_is_int { Sort::Int } else { Sort::Bool })
        .declare_measure("f", vec![Sort::Int], Sort::Int)
        .declare_measure("len", vec![Sort::uninterp("a")], Sort::Int);
    e
}

/// An atom over ints, booleans, sets and measure applications, which may
/// use `w` at either sort. A model leaves lists that only measures and
/// list equalities mention at 0, so two lengths it gives often disagree on
/// equal lists: the congruence the solver enforces is what tells them
/// apart.
fn arb_mixed_atom() -> impl Strategy<Value = Term> {
    let len = |v: &str| Term::app("len", vec![Term::var(v)]);
    let int = prop_oneof![
        (-2i64..3).prop_map(Term::int),
        prop_oneof![Just("x"), Just("y"), Just("w")].prop_map(Term::var),
        prop_oneof![Just("x"), Just("y"), Just("w")]
            .prop_map(|v| Term::app("f", vec![Term::var(v)])),
        prop_oneof![Just("xs"), Just("ys")].prop_map(len),
        prop_oneof![Just("x"), Just("y")].prop_map(|v| Term::var(v) + Term::int(1)),
    ];
    (int.clone(), int, 0usize..12).prop_map(move |(a, b, op)| match op {
        0 => a.le(b),
        1 => a.lt(b),
        2 => a.eq_(b),
        3 => a.neq(b),
        4 => Term::var("p"),
        5 => Term::var("w"),
        6 => Term::var("w").eq_(Term::var("p")),
        7 => a.member(Term::var("s")),
        8 => Term::var("xs").eq_(Term::var("ys")),
        9 => Term::var("xs").neq(Term::var("ys")),
        10 => len("xs").neq(len("ys")),
        _ => Term::var("s").subset(b.singleton().union(Term::var("x").singleton())),
    })
}

/// A pool of atoms, and validity queries over it, each with the sort of
/// `w` to ask it under. Queries that share their atoms are what a recent
/// counterexample refutes, as candidates that share a path condition are.
fn arb_refutation_queries() -> impl Strategy<Value = Vec<(Vec<Term>, Term, bool)>> {
    let query = (
        proptest::collection::vec(0usize..6, 0..5),
        proptest::collection::vec(0usize..6, 1..3),
        prop_oneof![Just(false), Just(true)],
    );
    (
        proptest::collection::vec(arb_mixed_atom(), 6..7),
        proptest::collection::vec(query, 8..16),
    )
        .prop_map(|(pool, queries)| {
            queries
                .into_iter()
                .map(|(premises, alternatives, w_is_int)| {
                    let premises = premises.into_iter().map(|i| pool[i].clone()).collect();
                    let alternatives = alternatives.into_iter().map(|i| pool[i].clone());
                    (premises, Term::or_all(alternatives), w_is_int)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Queries asked in turn through one cache, each under an environment
    /// binding `w` at one of two sorts: every verdict a witness refutes has
    /// a model that satisfies the premises and falsifies the conclusion,
    /// and a solver without a cache does not find the query valid.
    #[test]
    fn refutations_are_counterexamples_the_solver_agrees_with(
        queries in arb_refutation_queries()
    ) {
        let cache = crate::SolverCache::new();
        for (premises, conclusion, w_is_int) in queries {
            let env = refutation_env(w_is_int);
            let refuted_before = cache.stats().refuted;
            let verdict = Solver::new(env.clone())
                .with_cache(cache.clone())
                .check_valid(&premises, &conclusion);
            if cache.stats().refuted == refuted_before {
                continue;
            }
            let ValidityResult::Invalid(model) = verdict else {
                panic!("a refuted query reads {verdict:?}");
            };
            for premise in &premises {
                prop_assert!(
                    premise.eval_bool(&model) == Ok(true),
                    "{model:?} does not satisfy {premise}"
                );
            }
            prop_assert!(
                conclusion.eval_bool(&model) == Ok(false),
                "{model:?} does not falsify {conclusion}"
            );
            prop_assert!(
                !matches!(Solver::new(env).check_valid(&premises, &conclusion), ValidityResult::Valid),
                "the solver finds {conclusion} valid under {premises:?}"
            );
        }
    }
}
