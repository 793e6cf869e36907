//! A DPLL(T) search over the boolean structure of a hash-consed formula.
//!
//! The search runs on interned formulas ([`TermId`]s in a [`TermArena`]) and
//! never converts to CNF. Because terms are interned, "is this subterm an
//! assigned atom?" is a single id lookup, structurally equal atoms reached
//! through different subformulas are one atom, and every partially-assigned
//! formula shares its unchanged subterms with its ancestors.
//!
//! Every node of the search is *propagate, prune, then decide*:
//!
//! 1. **Propagate.** Each literal (an atom or a negated atom) on the
//!    formula's top-level `And` spine is forced: no model falsifies it. All
//!    of them are substituted in one memoized rewrite ([`assign_all`]). The
//!    rewrite can expose new spine literals (`p ∧ (p → q)` yields `q`), so
//!    propagation repeats to a fixpoint. Two forced literals that clash close
//!    the branch. Forced literals go on the trail but are not decisions.
//! 2. **Prune.** If the formula is still undecided, the trail goes to the
//!    [`Theory`] before any decision is spent below it. `Inconsistent`
//!    closes the subtree; `Consistent` and `Unknown` branch as usual. The
//!    model of a consistent check is passed down: a descendant whose new
//!    literals it already satisfies ([`Theory::satisfied_by`]) skips the
//!    oracle.
//! 3. **Decide.** Otherwise the first atom of the formula is assigned `true`,
//!    then `false` (a one-literal [`assign_all`]).
//!
//! When the formula collapses to `true`, the trail gets a full theory check,
//! which also produces the model of a `Sat` answer. The premise-heavy
//! validity queries of type checking are long top-level conjunctions, so most
//! of their literals are forced and most of their theory conflicts surface
//! before the first decision.

use resyn_budget::Budget;
use resyn_logic::intern::Node;
use resyn_logic::{BinOp, FxHashMap, TermArena, TermId, UnOp};

/// Verdict of a theory oracle on a conjunction of literals.
#[derive(Debug, Clone)]
pub enum TheoryResult<M> {
    /// The literals are jointly satisfiable; `M` is a theory model.
    Consistent(M),
    /// The literals are jointly unsatisfiable.
    Inconsistent,
    /// The oracle could not decide (work limit, unsupported construct).
    Unknown(String),
}

/// A theory oracle, consulted on the partial trail before each branching
/// point and on the full trail at the leaves of the boolean search.
pub trait Theory {
    /// The kind of model returned on consistent assignments.
    type Model;

    /// Decide whether the conjunction of the given literals (atom ids into
    /// `arena`, paired with their decided truth values) is satisfiable.
    fn check(&self, arena: &TermArena, literals: &[(TermId, bool)]) -> TheoryResult<Self::Model>;

    /// Whether `model`, returned by an earlier [`check`](Theory::check),
    /// also satisfies `literals`. `true` lets the search skip the oracle on
    /// a trail that extends the checked one by `literals`, so it may only
    /// be `true` when it is certain. The default is `false`: every partial
    /// trail then goes to `check`.
    fn satisfied_by(
        &self,
        _arena: &TermArena,
        _literals: &[(TermId, bool)],
        _model: &Self::Model,
    ) -> bool {
        false
    }
}

/// Result of the DPLL(T) search.
#[derive(Debug, Clone)]
pub enum DpllResult<M> {
    /// A satisfying assignment was found.
    Sat {
        /// The atom assignments on the satisfying branch.
        assignment: Vec<(TermId, bool)>,
        /// The theory model for the arithmetic part.
        theory_model: M,
    },
    /// The formula is unsatisfiable (modulo the theory).
    Unsat,
    /// The search gave up (work limit exceeded or theory returned unknown on
    /// every candidate branch).
    Unknown(String),
    /// The caller's [`Budget`] ran out mid-search. Unlike
    /// [`Unknown`](Self::Unknown) this verdict says nothing about the
    /// formula — re-running with a fresh budget may produce any answer — so
    /// it must never be cached.
    Cancelled,
}

/// Configuration of the search.
#[derive(Debug, Clone)]
pub struct DpllConfig {
    /// Maximum number of branching decisions before giving up. Literals
    /// forced by propagation are not decisions, so a formula that
    /// propagation and the theory settle alone is decided even under a
    /// limit of 0.
    pub decision_limit: usize,
    /// Cooperative budget checked at every branching decision; an exceeded
    /// budget unwinds the search with [`DpllResult::Cancelled`].
    pub budget: Budget,
}

impl Default for DpllConfig {
    fn default() -> Self {
        DpllConfig {
            decision_limit: 1_000_000,
            budget: Budget::unlimited(),
        }
    }
}

/// Run the search on the interned `formula` with the given theory oracle.
pub fn solve<T: Theory>(
    arena: &mut TermArena,
    formula: TermId,
    theory: &T,
    config: &DpllConfig,
) -> DpllResult<T::Model> {
    if config.budget.is_exceeded() {
        return DpllResult::Cancelled;
    }
    let mut search = Search {
        theory,
        config,
        trail: Vec::new(),
        decisions: 0,
        saw_unknown: None,
    };
    match search.node(arena, formula, None) {
        Some(res) => res,
        None => match search.saw_unknown {
            Some(msg) => DpllResult::Unknown(msg),
            None => DpllResult::Unsat,
        },
    }
}

/// The model of the nearest consistent theory check above a node, with the
/// trail length it was checked against.
type Hint<'m, M> = Option<(&'m M, usize)>;

/// The state of one search: the literal trail and the work counters.
struct Search<'a, T: Theory> {
    theory: &'a T,
    config: &'a DpllConfig,
    trail: Vec<(TermId, bool)>,
    decisions: usize,
    saw_unknown: Option<String>,
}

impl<T: Theory> Search<'_, T> {
    /// Search below `formula`. Returns `Some(Sat/Unknown-limit/Cancelled)` to
    /// stop the search, `None` when the subtree is exhausted. The trail is
    /// restored to its length on entry.
    fn node(
        &mut self,
        arena: &mut TermArena,
        formula: TermId,
        hint: Hint<'_, T::Model>,
    ) -> Option<DpllResult<T::Model>> {
        let mark = self.trail.len();
        let res = self.propagate_and_decide(arena, formula, hint);
        self.trail.truncate(mark);
        res
    }

    fn propagate_and_decide(
        &mut self,
        arena: &mut TermArena,
        formula: TermId,
        hint: Hint<'_, T::Model>,
    ) -> Option<DpllResult<T::Model>> {
        let formula = self.propagate(arena, formula);
        if arena.is_false(formula) {
            return None;
        }
        if arena.is_true(formula) {
            return match self.theory.check(arena, &self.trail) {
                TheoryResult::Consistent(m) => Some(DpllResult::Sat {
                    assignment: self.trail.clone(),
                    theory_model: m,
                }),
                TheoryResult::Inconsistent => None,
                TheoryResult::Unknown(msg) => {
                    self.saw_unknown = Some(msg);
                    None
                }
            };
        }

        // Prune: consult the theory on the partial trail unless the model
        // handed down already satisfies everything added since its check.
        let here = self.trail.len();
        let own_model;
        let hint = match hint {
            Some((m, checked)) if self.theory.satisfied_by(arena, &self.trail[checked..], m) => {
                Some((m, here))
            }
            None if here == 0 => None,
            _ => match self.theory.check(arena, &self.trail) {
                TheoryResult::Inconsistent => return None,
                TheoryResult::Consistent(m) => {
                    own_model = m;
                    Some((&own_model, here))
                }
                // Undecided on a partial trail: the leaves below decide.
                TheoryResult::Unknown(_) => hint,
            },
        };

        let atom = match find_atom(arena, formula) {
            Some(a) => a,
            None => {
                // No atom but not a literal: treat as unknown.
                self.saw_unknown =
                    Some(format!("cannot decompose formula: {}", arena.term(formula)));
                return None;
            }
        };
        for value in [true, false] {
            self.decisions += 1;
            if self.decisions > self.config.decision_limit {
                return Some(DpllResult::Unknown("decision limit exceeded".into()));
            }
            // Cooperative cancellation checkpoint: one branching decision is
            // the search's unit of work, so a hit deadline unwinds here
            // instead of running the current query to exhaustion.
            if self.config.budget.is_exceeded() {
                return Some(DpllResult::Cancelled);
            }
            let reduced = assign_all(arena, formula, &[(atom, value)]);
            self.trail.push((atom, value));
            let res = self.node(arena, reduced, hint);
            self.trail.pop();
            if res.is_some() {
                return res;
            }
        }
        None
    }

    /// Unit propagation: assign every literal on the top-level `And` spine,
    /// to a fixpoint, pushing the forced literals on the trail. Returns the
    /// reduced formula, `false` on a clash.
    fn propagate(&mut self, arena: &mut TermArena, mut formula: TermId) -> TermId {
        loop {
            if arena.is_true(formula) || arena.is_false(formula) {
                return formula;
            }
            let Some(forced) = spine_literals(arena, formula) else {
                return arena.ff_id();
            };
            if forced.is_empty() {
                return formula;
            }
            formula = assign_all(arena, formula, &forced);
            self.trail.extend(forced);
        }
    }
}

/// The distinct literals on the top-level `And` spine of `formula`, in
/// traversal order; `None` when one atom occurs with both polarities.
fn spine_literals(arena: &TermArena, formula: TermId) -> Option<Vec<(TermId, bool)>> {
    let mut seen: FxHashMap<TermId, bool> = FxHashMap::default();
    let mut literals = Vec::new();
    for conjunct in arena.conjuncts_id(formula) {
        let literal = match arena.node(conjunct) {
            Node::Unary(UnOp::Not, inner) if is_atom(arena, *inner) => (*inner, false),
            _ if is_atom(arena, conjunct) => (conjunct, true),
            _ => continue,
        };
        match seen.insert(literal.0, literal.1) {
            None => literals.push(literal),
            Some(value) if value != literal.1 => return None,
            Some(_) => {}
        }
    }
    Some(literals)
}

/// Is this interned term a boolean *atom* (a leaf of the boolean structure)?
pub fn is_atom(arena: &TermArena, id: TermId) -> bool {
    match arena.node(id) {
        Node::Var(_) | Node::App(_, _) | Node::Unknown(_, _) => true,
        Node::Binary(op, _, _) => {
            !matches!(op, BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff)
        }
        _ => false,
    }
}

/// Find the first atom in the boolean structure of the formula.
pub fn find_atom(arena: &TermArena, id: TermId) -> Option<TermId> {
    if is_atom(arena, id) {
        return Some(id);
    }
    match arena.node(id) {
        Node::Unary(UnOp::Not, inner) => find_atom(arena, *inner),
        Node::Binary(BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff, a, b) => {
            find_atom(arena, *a).or_else(|| find_atom(arena, *b))
        }
        Node::Ite(c, a, b) => {
            let (c, a, b) = (*c, *a, *b);
            find_atom(arena, c)
                .or_else(|| find_atom(arena, a))
                .or_else(|| find_atom(arena, b))
        }
        _ => None,
    }
}

/// Substitute a truth value for every occurrence of each given atom in the
/// boolean structure of the formula, re-running the shallow simplifications.
/// One call rewrites the formula once, whatever the number of literals, and
/// shared subformulas are processed once. The atoms must be distinct.
pub fn assign_all(arena: &mut TermArena, t: TermId, literals: &[(TermId, bool)]) -> TermId {
    // Seeding the memo with the literals makes each atom rewrite to its
    // value wherever the traversal meets it.
    let mut memo = FxHashMap::with_capacity_and_hasher(literals.len() * 4, Default::default());
    for &(atom, value) in literals {
        let constant = if value { arena.tt_id() } else { arena.ff_id() };
        memo.insert(atom, constant);
    }
    assign_rec(arena, t, &mut memo)
}

fn assign_rec(arena: &mut TermArena, t: TermId, memo: &mut FxHashMap<TermId, TermId>) -> TermId {
    if let Some(&r) = memo.get(&t) {
        return r;
    }
    let out = match *arena.node(t) {
        Node::Unary(UnOp::Not, inner) => {
            let inner = assign_rec(arena, inner, memo);
            arena.not_id(inner)
        }
        Node::Binary(BinOp::And, a, b) => {
            let a = assign_rec(arena, a, memo);
            let b = assign_rec(arena, b, memo);
            arena.and_id(a, b)
        }
        Node::Binary(BinOp::Or, a, b) => {
            let a = assign_rec(arena, a, memo);
            let b = assign_rec(arena, b, memo);
            arena.or_id(a, b)
        }
        Node::Binary(BinOp::Implies, a, b) => {
            let a = assign_rec(arena, a, memo);
            let b = assign_rec(arena, b, memo);
            arena.implies_id(a, b)
        }
        Node::Binary(BinOp::Iff, a, b) => {
            let a = assign_rec(arena, a, memo);
            let b = assign_rec(arena, b, memo);
            let as_bool = |arena: &TermArena, id: TermId| match arena.node(id) {
                Node::Bool(x) => Some(*x),
                _ => None,
            };
            match (as_bool(arena, a), as_bool(arena, b)) {
                (Some(x), _) => {
                    if x {
                        b
                    } else {
                        arena.not_id(b)
                    }
                }
                (_, Some(y)) => {
                    if y {
                        a
                    } else {
                        arena.not_id(a)
                    }
                }
                _ => arena.binary_id(BinOp::Iff, a, b),
            }
        }
        Node::Ite(c, a, b) => {
            let c = assign_rec(arena, c, memo);
            let a = assign_rec(arena, a, memo);
            let b = assign_rec(arena, b, memo);
            arena.ite_id(c, a, b)
        }
        _ => t,
    };
    memo.insert(t, out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;

    /// A theory that accepts every assignment (pure SAT).
    struct TrivialTheory;
    impl Theory for TrivialTheory {
        type Model = ();
        fn check(&self, _arena: &TermArena, _literals: &[(TermId, bool)]) -> TheoryResult<()> {
            TheoryResult::Consistent(())
        }
    }

    /// A theory that rejects any assignment containing (`bad`, true).
    struct RejectBad;
    impl Theory for RejectBad {
        type Model = ();
        fn check(&self, arena: &TermArena, literals: &[(TermId, bool)]) -> TheoryResult<()> {
            if literals
                .iter()
                .any(|(a, v)| *v && arena.term(*a) == Term::var("bad"))
            {
                TheoryResult::Inconsistent
            } else {
                TheoryResult::Consistent(())
            }
        }
    }

    fn solve_term<T: Theory>(t: &Term, theory: &T) -> (TermArena, DpllResult<T::Model>) {
        let mut arena = TermArena::new();
        let id = arena.intern(t);
        let result = solve(&mut arena, id, theory, &DpllConfig::default());
        (arena, result)
    }

    fn assignment_contains(
        arena: &TermArena,
        assignment: &[(TermId, bool)],
        atom: &Term,
        value: bool,
    ) -> bool {
        assignment
            .iter()
            .any(|(a, v)| *v == value && arena.term(*a) == *atom)
    }

    #[test]
    fn pure_boolean_sat_and_unsat() {
        let p = Term::var("p");
        let q = Term::var("q");
        let sat = p.clone().or(q.clone()).and(p.clone().not());
        match solve_term(&sat, &TrivialTheory) {
            (arena, DpllResult::Sat { assignment, .. }) => {
                assert!(assignment_contains(&arena, &assignment, &q, true));
            }
            (_, other) => panic!("expected sat, got {other:?}"),
        }
        let unsat = p.clone().and(p.clone().not());
        assert!(matches!(
            solve_term(&unsat, &TrivialTheory).1,
            DpllResult::Unsat
        ));
    }

    #[test]
    fn theory_conflicts_prune_branches() {
        // bad ∨ ok: boolean search must fall back to ok=true because the
        // theory rejects bad=true.
        let f = Term::var("bad").or(Term::var("ok"));
        match solve_term(&f, &RejectBad) {
            (arena, DpllResult::Sat { assignment, .. }) => {
                assert!(assignment_contains(
                    &arena,
                    &assignment,
                    &Term::var("ok"),
                    true
                ));
            }
            (_, other) => panic!("expected sat, got {other:?}"),
        }
        // bad alone is unsat modulo the theory.
        let f = Term::var("bad");
        assert!(matches!(solve_term(&f, &RejectBad).1, DpllResult::Unsat));
    }

    #[test]
    fn implication_and_iff_structures() {
        let p = Term::var("p");
        let q = Term::var("q");
        // (p → q) ∧ p ∧ ¬q is unsat.
        let f = p
            .clone()
            .implies(q.clone())
            .and(p.clone())
            .and(q.clone().not());
        assert!(matches!(
            solve_term(&f, &TrivialTheory).1,
            DpllResult::Unsat
        ));
        // (p ⟺ q) ∧ p forces q.
        let f = p.clone().iff(q.clone()).and(p.clone());
        match solve_term(&f, &TrivialTheory) {
            (arena, DpllResult::Sat { assignment, .. }) => {
                assert!(assignment_contains(&arena, &assignment, &q, true));
            }
            (_, other) => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn atoms_are_comparisons_variables_and_apps() {
        let mut arena = TermArena::new();
        let atoms = [
            Term::var("p"),
            Term::var("x").le(Term::int(3)),
            Term::app("mem", vec![Term::var("x")]),
        ];
        for t in &atoms {
            let id = arena.intern(t);
            assert!(is_atom(&arena, id), "{t} should be an atom");
        }
        let non_atoms = [Term::var("p").and(Term::var("q")), Term::tt()];
        for t in &non_atoms {
            let id = arena.intern(t);
            assert!(!is_atom(&arena, id), "{t} should not be an atom");
        }
    }

    #[test]
    fn assign_replaces_only_the_given_atom() {
        let mut arena = TermArena::new();
        let f = Term::var("x")
            .le(Term::int(3))
            .and(Term::var("y").le(Term::int(4)));
        let fid = arena.intern(&f);
        let atom = arena.intern(&Term::var("x").le(Term::int(3)));
        let g = assign_all(&mut arena, fid, &[(atom, true)]);
        assert_eq!(arena.term(g), Term::var("y").le(Term::int(4)));
    }

    #[test]
    fn an_expired_budget_cancels_before_any_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// A theory that counts how often it is consulted.
        struct CountingTheory(AtomicUsize);
        impl Theory for CountingTheory {
            type Model = ();
            fn check(&self, _arena: &TermArena, _literals: &[(TermId, bool)]) -> TheoryResult<()> {
                self.0.fetch_add(1, Ordering::Relaxed);
                TheoryResult::Consistent(())
            }
        }

        let mut arena = TermArena::new();
        let f = Term::var("p").or(Term::var("q"));
        let id = arena.intern(&f);
        let theory = CountingTheory(AtomicUsize::new(0));
        let config = DpllConfig {
            budget: resyn_budget::Budget::with_timeout(std::time::Duration::ZERO),
            ..DpllConfig::default()
        };
        let result = solve(&mut arena, id, &theory, &config);
        assert!(matches!(result, DpllResult::Cancelled), "{result:?}");
        assert_eq!(
            theory.0.load(Ordering::Relaxed),
            0,
            "the theory oracle must not run under an expired budget"
        );
    }

    #[test]
    fn a_cancel_token_stops_an_in_flight_search() {
        // Cancel after the first decision: the search must stop without
        // visiting the rest of the (satisfiable) boolean space.
        struct CancellingTheory(resyn_budget::CancelToken);
        impl Theory for CancellingTheory {
            type Model = ();
            fn check(&self, _arena: &TermArena, _literals: &[(TermId, bool)]) -> TheoryResult<()> {
                self.0.cancel();
                TheoryResult::Inconsistent
            }
        }

        let mut arena = TermArena::new();
        let f = Term::var("p").or(Term::var("q"));
        let id = arena.intern(&f);
        let token = resyn_budget::CancelToken::new();
        let config = DpllConfig {
            budget: Budget::unlimited().attach(token.clone()),
            ..DpllConfig::default()
        };
        let result = solve(&mut arena, id, &CancellingTheory(token), &config);
        assert!(matches!(result, DpllResult::Cancelled), "{result:?}");
    }

    #[test]
    fn shared_atoms_are_recognized_by_id() {
        // The same atom reached through two different subformulas is a single
        // id: one decision assigns both occurrences.
        let mut arena = TermArena::new();
        let atom = Term::var("x").le(Term::int(0));
        let f = atom.clone().or(Term::var("p")).and(atom.clone().not());
        let fid = arena.intern(&f);
        let aid = arena.intern(&atom);
        let reduced = assign_all(&mut arena, fid, &[(aid, true)]);
        assert!(arena.is_false(reduced));
    }

    fn solve_with<T: Theory>(
        arena: &mut TermArena,
        t: &Term,
        theory: &T,
        decision_limit: usize,
    ) -> DpllResult<T::Model> {
        let id = arena.intern(t);
        let config = DpllConfig {
            decision_limit,
            ..DpllConfig::default()
        };
        solve(arena, id, theory, &config)
    }

    #[test]
    fn forced_literals_are_not_decisions() {
        // Fifty arithmetic conjuncts are all forced: propagation alone
        // reaches the leaf, so even a zero decision limit decides them.
        let lia = crate::lia::LiaSolver::new();
        let f = Term::and_all((0..50).map(|i| Term::var(format!("x{i}")).ge(Term::int(i))));
        let mut arena = TermArena::new();
        let id = arena.intern(&f);
        let theory = crate::smt::ArithTheory::new(&lia, &arena, id);
        match solve_with(&mut arena, &f, &theory, 0) {
            DpllResult::Sat {
                assignment,
                theory_model,
            } => {
                assert_eq!(assignment.len(), 50);
                assert!(assignment.iter().all(|(_, v)| *v));
                let model = theory.named_model(&arena, &theory_model);
                assert_eq!(model.get("x49").map(|r| r.floor()), Some(49));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn a_theory_conflict_among_forced_literals_needs_no_decision() {
        // x ≥ 1 ∧ x ≤ 0 is forced and inconsistent: the early theory check
        // closes the search before any of the 30 free clauses is branched on.
        let lia = crate::lia::LiaSolver::new();
        let clauses = (0..30).map(|i| Term::var(format!("p{i}")).or(Term::var(format!("q{i}"))));
        let f = Term::var("x")
            .ge(Term::int(1))
            .and(Term::var("x").le(Term::int(0)))
            .and(Term::and_all(clauses));
        let mut arena = TermArena::new();
        let id = arena.intern(&f);
        let theory = crate::smt::ArithTheory::new(&lia, &arena, id);
        let result = solve_with(&mut arena, &f, &theory, 8);
        assert!(matches!(result, DpllResult::Unsat), "{result:?}");
    }

    #[test]
    fn clashing_forced_literals_close_the_branch() {
        let mut arena = TermArena::new();
        let f = Term::var("p")
            .and(Term::var("q").or(Term::var("r")))
            .and(Term::var("p").not());
        let result = solve_with(&mut arena, &f, &TrivialTheory, 0);
        assert!(matches!(result, DpllResult::Unsat), "{result:?}");
    }

    #[test]
    fn propagation_reaches_a_fixpoint() {
        // p forces q through p → q, and q forces r through q → r.
        let (p, q, r) = (Term::var("p"), Term::var("q"), Term::var("r"));
        let f = p
            .clone()
            .and(p.clone().implies(q.clone()))
            .and(q.clone().implies(r.clone()));
        let mut arena = TermArena::new();
        match solve_with(&mut arena, &f, &TrivialTheory, 0) {
            DpllResult::Sat { assignment, .. } => {
                for atom in [&p, &q, &r] {
                    assert!(assignment_contains(&arena, &assignment, atom, true));
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unknown_on_partial_trails_never_prunes() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Undecided on every trail shorter than four literals; on longer
        /// ones, rejects exactly the trails with `p = true`.
        struct PartialUnknown(AtomicUsize);
        impl Theory for PartialUnknown {
            type Model = ();
            fn check(&self, arena: &TermArena, literals: &[(TermId, bool)]) -> TheoryResult<()> {
                if literals.len() < 4 {
                    self.0.fetch_add(1, Ordering::Relaxed);
                    return TheoryResult::Unknown("partial".into());
                }
                if literals
                    .iter()
                    .any(|(a, v)| *v && arena.term(*a) == Term::var("p"))
                {
                    TheoryResult::Inconsistent
                } else {
                    TheoryResult::Consistent(())
                }
            }
        }

        // The only models have p = false, and every path to them passes
        // through trails the theory cannot decide.
        let var = |name: &str| Term::var(name);
        let f = var("p")
            .or(var("q"))
            .and(var("r").or(var("s")))
            .and(var("t").or(var("u")))
            .and(var("q").implies(var("p").not()));
        let theory = PartialUnknown(AtomicUsize::new(0));
        let (arena, result) = solve_term(&f, &theory);
        match result {
            DpllResult::Sat { assignment, .. } => {
                assert!(assignment_contains(&arena, &assignment, &var("p"), false));
                assert!(assignment_contains(&arena, &assignment, &var("q"), true));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert!(
            theory.0.load(Ordering::Relaxed) > 0,
            "the theory must have been consulted on a partial trail"
        );
    }
}
