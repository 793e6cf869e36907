//! Pinned verdicts and models for queries that exercise every preprocessing
//! stage of the solver: set elimination (positive and negative equalities,
//! subsets), measure aliasing with congruence axioms, scalar `ite` lifting,
//! boolean equalities and unknown predicates.
//!
//! CEGIS uses `Sat` models as counterexamples, so a preprocessing change that
//! alters a model — not only one that alters a verdict — changes the search.
//! Each expectation is the complete `SatResult`: every variable of the
//! environment, every set value and every measure-application
//! interpretation.

use resyn_logic::{Model, Sort, SortingEnv, Term, Value};
use resyn_solver::{SatResult, Solver, ValidityResult};

fn env() -> SortingEnv {
    let mut e = SortingEnv::new();
    e.bind_var("x", Sort::Int)
        .bind_var("y", Sort::Int)
        .bind_var("z", Sort::Int)
        .bind_var("p", Sort::Bool)
        .bind_var("q", Sort::Bool)
        .bind_var("r", Sort::Bool)
        .bind_var("s", Sort::Set)
        .bind_var("t", Sort::Set)
        .bind_var("xs", Sort::Int)
        .bind_var("ys", Sort::Int)
        .bind_var("e", Sort::uninterp("a"))
        .declare_measure("len", vec![Sort::Int], Sort::Int)
        .declare_measure("elems", vec![Sort::Int], Sort::Set)
        .declare_measure("numgt", vec![Sort::uninterp("a"), Sort::Int], Sort::Int);
    e
}

fn var(name: &str) -> Term {
    Term::var(name)
}

fn int(n: i64) -> Term {
    Term::int(n)
}

fn app(m: &str, args: &[&str]) -> Term {
    Term::app(m, args.iter().map(|a| var(a)).collect())
}

fn set(elems: &[i64]) -> Value {
    Value::set(elems.iter().copied())
}

/// The complete model the solver returns: every variable of [`env`] — the
/// ones not in `vars` at their default (`0`, `false`, `∅`) — plus the alias
/// variables and measure interpretations in `apps`.
fn model(vars: &[(&str, Value)], apps: &[(Term, &str, Value)]) -> Model {
    let mut m = Model::new();
    for (name, sort) in env().vars() {
        let default = match sort {
            Sort::Bool => Value::Bool(false),
            Sort::Set => set(&[]),
            Sort::Int | Sort::Uninterp(_) => Value::Int(0),
        };
        m.insert(name.clone(), default);
    }
    for (name, value) in vars {
        m.insert(*name, value.clone());
    }
    for (term, alias, value) in apps {
        m.insert_app(term, value.clone());
        m.insert(*alias, value.clone());
    }
    m
}

fn check(assumptions: &[Term]) -> SatResult {
    Solver::new(env()).check_sat(assumptions)
}

fn elems(x: &str) -> Term {
    app("elems", &[x])
}

fn len(x: &str) -> Term {
    app("len", &[x])
}

#[test]
fn positive_set_equality() {
    let result = check(&[
        var("s").eq_(var("t").union(var("x").singleton())),
        var("y").member(var("s")).or(var("z").member(var("t"))),
        var("x").neq(var("y")),
        var("y").neq(var("z")),
    ]);
    let expected = model(
        &[
            ("s", set(&[-1, 0, 1])),
            ("t", set(&[-1, 0, 1])),
            ("x", Value::Int(-1)),
            ("z", Value::Int(1)),
        ],
        &[],
    );
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn set_equality_next_to_its_negation() {
    // The model follows the order of the membership atoms the positive
    // equality is instantiated into.
    let result = check(&[
        var("s").eq_(var("t").union(var("x").singleton())),
        var("t").eq_(var("s")).not(),
        var("y").member(var("t")).or(var("z").member(var("s"))),
        var("y").lt(var("z")),
    ]);
    let expected = model(
        &[
            ("s", set(&[0, 1, 2])),
            ("t", set(&[1, 2])),
            ("y", Value::Int(1)),
            ("z", Value::Int(2)),
        ],
        &[],
    );
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn negative_set_equality_uses_a_witness() {
    let result = check(&[var("s").eq_(var("t")).not(), var("x").member(var("t"))]);
    assert_eq!(result, SatResult::Sat(model(&[("t", set(&[0]))], &[])));
}

#[test]
fn set_disequality_uses_a_witness() {
    let result = check(&[
        var("s").neq(var("t").union(var("x").singleton())),
        var("x").member(var("s")),
        var("s").subset(var("t")),
    ]);
    let expected = model(&[("s", set(&[0])), ("t", set(&[0]))], &[]);
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn negated_subset_uses_a_witness() {
    let result = check(&[
        var("s").subset(var("t")),
        var("t").subset(var("s")).not(),
        var("x").member(var("s")),
    ]);
    let expected = model(&[("s", set(&[0])), ("t", set(&[0]))], &[]);
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn subset_conflict_is_unsat() {
    let result = check(&[
        var("s").subset(var("t")),
        var("x").member(var("s")),
        var("x").member(var("t")).not(),
    ]);
    assert_eq!(result, SatResult::Unsat);
}

#[test]
fn measure_applications_get_aliases_and_congruence() {
    let numgt = |x: &str| app("numgt", &["e", x]);
    let result = check(&[
        var("xs").eq_(var("ys")).or(len("xs").gt(len("ys"))),
        len("xs").ge(int(2)),
        numgt("xs").lt(numgt("ys")),
    ]);
    let expected = model(
        &[("xs", Value::Int(-1))],
        &[
            (len("xs"), "__m0", Value::Int(2)),
            (len("ys"), "__m1", Value::Int(1)),
            (numgt("xs"), "__m2", Value::Int(-1)),
            (numgt("ys"), "__m3", Value::Int(0)),
        ],
    );
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn set_sorted_measures_are_aliased_to_set_variables() {
    let result = check(&[
        elems("xs").eq_(elems("ys").union(var("x").singleton())),
        var("xs").eq_(var("ys")).not(),
        len("xs").eq_(len("ys") + int(1)),
    ]);
    let expected = model(
        &[("xs", Value::Int(-1))],
        &[
            (elems("xs"), "__m0", set(&[0])),
            (elems("ys"), "__m1", set(&[0])),
            (len("xs"), "__m2", Value::Int(1)),
            (len("ys"), "__m3", Value::Int(0)),
        ],
    );
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn scalar_ites_are_lifted_out_of_atoms() {
    let result = check(&[
        Term::ite(var("x").lt(int(0)), int(0) - var("x"), var("x")).le(int(3)),
        Term::ite(var("p"), var("y"), var("z")).gt(var("x") + int(4)),
        var("y").lt(int(1)),
    ]);
    let expected = model(&[("x", Value::Int(-3)), ("z", Value::Int(2))], &[]);
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn boolean_equalities_become_biimplications() {
    let result = check(&[
        var("p").eq_(var("q")),
        var("q").neq(var("r")),
        var("r").or(var("x").ge(int(5))),
        var("p").eq_(var("x").lt(int(7))),
    ]);
    let expected = model(
        &[
            ("p", Value::Bool(true)),
            ("q", Value::Bool(true)),
            ("x", Value::Int(5)),
        ],
        &[],
    );
    assert_eq!(result, SatResult::Sat(expected));
}

#[test]
fn an_unknown_predicate_is_undecided() {
    let result = check(&[Term::unknown("U0"), var("x").ge(int(0))]);
    assert_eq!(
        result,
        SatResult::Unknown("formula contains unsolved unknown predicates".to_string())
    );
}

#[test]
fn an_invalid_implication_has_a_counterexample() {
    let solver = Solver::new(env());
    let premises = [var("x").le(var("y")), len("xs").eq_(var("x"))];
    let result = solver.check_valid(&premises, &var("x").lt(var("y")));
    let expected = model(&[], &[(len("xs"), "__m0", Value::Int(0))]);
    assert_eq!(result, ValidityResult::Invalid(expected));
}
