//! A DPLL(T) search over the boolean structure of a hash-consed formula.
//!
//! The search never converts to CNF and never builds a formula. It numbers
//! the formula's boolean gates once, in post-order: its atoms
//! (leaves of the boolean structure, one per [`TermId`], so structurally
//! equal atoms reached through different subformulas are one atom), its
//! constants, its connectives and any opaque non-boolean node. The partial
//! assignment is one slot per atom gate; the trail is its undo log.
//!
//! At each search node one linear pass gives every gate a *view* under
//! the trail: a constant, or a gate with a negation flag. The pass applies
//! the unit rules of the arena's smart constructors, which compose, so the
//! root's view is the formula that substituting the trail and simplifying
//! would build. The search's input is already in that normal form, as
//! [`TermArena::simplify_id`] builds it. Every node is *propagate, prune,
//! then decide*:
//!
//! 1. **Propagate.** Each literal (an atom or a negated atom) on the reduced
//!    formula's top-level `And` spine is forced: no model falsifies it. All
//!    of them are assigned at once, and the pass repeats to a fixpoint, as
//!    an assignment can expose new spine literals (`p ∧ (p → q)` yields
//!    `q`). Two forced literals that clash close the branch. Forced literals
//!    go on the trail but are not decisions.
//! 2. **Prune.** If the formula is still undecided, the trail goes to the
//!    [`Theory`] before any decision is spent below it. `Inconsistent`
//!    closes the subtree; `Consistent` and `Unknown` branch as usual. The
//!    model of a consistent check is passed down: a descendant whose new
//!    literals it already satisfies ([`Theory::satisfied_by`]) skips the
//!    oracle.
//! 3. **Decide.** Otherwise the first undecided atom of the reduced formula,
//!    left to right, is assigned `true`, then `false`.
//!
//! When the formula collapses to `true`, the trail gets a full theory check,
//! which also produces the model of a `Sat` answer. The premise-heavy
//! validity queries of type checking are long top-level conjunctions, so most
//! of their literals are forced and most of their theory conflicts surface
//! before the first decision.

use resyn_budget::Budget;
use resyn_logic::intern::Node;
use resyn_logic::{BinOp, FxHashMap, Term, TermArena, TermId, UnOp};

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
/// The search reads `formula` under the unit rules of the arena's smart
/// constructors from its first node on; for a formula they built, such as
/// [`TermArena::simplify_id`]'s output, that is the formula itself.
pub fn solve<T: Theory>(
    arena: &TermArena,
    formula: TermId,
    theory: &T,
    config: &DpllConfig,
) -> DpllResult<T::Model> {
    if config.budget.is_exceeded() {
        return DpllResult::Cancelled;
    }
    let mut search = Search {
        arena,
        theory,
        config,
        gates: Gates::new(arena, formula),
        trail: Vec::new(),
        trail_gates: Vec::new(),
        decisions: 0,
        saw_unknown: None,
    };
    match search.node(None) {
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

/// The state of one search: the formula's gates, the literal trail and the
/// work counters.
struct Search<'a, T: Theory> {
    arena: &'a TermArena,
    theory: &'a T,
    config: &'a DpllConfig,
    gates: Gates,
    trail: Vec<(TermId, bool)>,
    /// The atom gate of each trail literal: the undo log of the assignment.
    trail_gates: Vec<u32>,
    decisions: usize,
    saw_unknown: Option<String>,
}

impl<T: Theory> Search<'_, T> {
    /// Search below the current trail. Returns
    /// `Some(Sat/Unknown-limit/Cancelled)` to stop the search, `None` when
    /// the subtree is exhausted. The trail is restored to its length on
    /// entry.
    fn node(&mut self, hint: Hint<'_, T::Model>) -> Option<DpllResult<T::Model>> {
        let mark = self.trail.len();
        let res = self.propagate_and_decide(hint);
        self.undo(mark);
        res
    }

    fn propagate_and_decide(&mut self, hint: Hint<'_, T::Model>) -> Option<DpllResult<T::Model>> {
        let formula = match self.propagate() {
            View::Const(false) => return None,
            View::Const(true) => {
                return match self.theory.check(self.arena, &self.trail) {
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
            view => view,
        };

        // Prune: consult the theory on the partial trail unless the model
        // handed down already satisfies everything added since its check.
        let here = self.trail.len();
        let own_model;
        let hint = match hint {
            Some((m, checked))
                if self
                    .theory
                    .satisfied_by(self.arena, &self.trail[checked..], m) =>
            {
                Some((m, here))
            }
            None if here == 0 => None,
            _ => match self.theory.check(self.arena, &self.trail) {
                TheoryResult::Inconsistent => return None,
                TheoryResult::Consistent(m) => {
                    own_model = m;
                    Some((&own_model, here))
                }
                // Undecided on a partial trail: the leaves below decide.
                TheoryResult::Unknown(_) => hint,
            },
        };

        let Some(atom) = self.gates.first_atom(formula) else {
            // No atom but not a constant: treat as unknown.
            let formula = self.gates.term(self.arena, formula);
            self.saw_unknown = Some(format!("cannot decompose formula: {formula}"));
            return None;
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
            self.assign(atom, value);
            let res = self.node(hint);
            self.undo(here);
            if res.is_some() {
                return res;
            }
        }
        None
    }

    /// Unit propagation: assign every literal on the top-level `And` spine
    /// of the reduced formula, to a fixpoint, pushing the forced literals on
    /// the trail. Returns the view of the reduced formula, `false` on a
    /// clash.
    fn propagate(&mut self) -> View {
        loop {
            self.gates.evaluate();
            let formula = self.gates.root();
            if let View::Const(_) = formula {
                return formula;
            }
            let mut forced = Vec::new();
            self.gates.literals_on_spine(formula, &mut forced);
            let mark = self.trail.len();
            let mut clash = false;
            for (atom, value) in forced {
                // An atom assigned before this round reads as a constant, so
                // a value here comes from an earlier literal of this round.
                match self.gates.values[atom as usize] {
                    None => self.assign(atom, value),
                    Some(v) => clash |= v != value,
                }
            }
            if clash {
                return View::Const(false);
            }
            if self.trail.len() == mark {
                return formula;
            }
        }
    }

    fn assign(&mut self, atom: u32, value: bool) {
        self.gates.values[atom as usize] = Some(value);
        self.trail.push((self.gates.ids[atom as usize], value));
        self.trail_gates.push(atom);
    }

    /// Unassign every literal pushed after the first `mark`.
    fn undo(&mut self, mark: usize) {
        for atom in self.trail_gates.drain(mark..) {
            self.gates.values[atom as usize] = None;
        }
        self.trail.truncate(mark);
    }
}

/// One gate of the formula's boolean structure. Operands are gate indices,
/// always smaller than the gate's own: the array is in post-order.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// A leaf the search decides ([`is_atom`]).
    Atom,
    /// The literal `true` or `false`.
    Const(bool),
    /// A term that is neither an atom nor a connective (an integer in a
    /// boolean position, say): nothing to decide, and it never reduces.
    Opaque,
    Not(u32),
    /// `And`, `Or`, `Implies` or `Iff`.
    Binary(BinOp, u32, u32),
    Ite(u32, u32, u32),
}

/// What a gate reduces to under the current assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    Const(bool),
    /// Gate `.0` with each operand replaced by its own view, negated when
    /// `.1` holds. The gate is never a `Not`: negation lives in the flag.
    Ref(u32, bool),
}

impl View {
    /// The view of the negation, as [`TermArena::not_id`] builds it.
    fn not(self) -> View {
        match self {
            View::Const(b) => View::Const(!b),
            View::Ref(gate, negated) => View::Ref(gate, !negated),
        }
    }
}

/// The formula as a gate array, built once per search, with the partial
/// assignment and the views of the last evaluation.
struct Gates {
    gates: Vec<Gate>,
    /// The interned term of each gate.
    ids: Vec<TermId>,
    /// The value of each atom gate on the trail; `None` while unassigned.
    values: Vec<Option<bool>>,
    views: Vec<View>,
    /// For each gate whose view is itself: the first undecided atom of its
    /// reduced term, in left-to-right order.
    first: Vec<Option<u32>>,
}

impl Gates {
    fn new(arena: &TermArena, formula: TermId) -> Gates {
        let mut gates = Gates {
            gates: Vec::new(),
            ids: Vec::new(),
            values: Vec::new(),
            views: Vec::new(),
            first: Vec::new(),
        };
        gates.add(arena, formula, &mut FxHashMap::default());
        let n = gates.gates.len();
        gates.values = vec![None; n];
        gates.views = vec![View::Const(true); n];
        gates.first = vec![None; n];
        gates
    }

    /// The gate of `id`, adding it and its operands first if they are new.
    fn add(&mut self, arena: &TermArena, id: TermId, index: &mut FxHashMap<TermId, u32>) -> u32 {
        if let Some(&gate) = index.get(&id) {
            return gate;
        }
        let gate = match *arena.node(id) {
            Node::Bool(b) => Gate::Const(b),
            Node::Unary(UnOp::Not, a) => Gate::Not(self.add(arena, a, index)),
            Node::Binary(op @ (BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff), a, b) => {
                let a = self.add(arena, a, index);
                Gate::Binary(op, a, self.add(arena, b, index))
            }
            Node::Ite(c, a, b) => {
                let c = self.add(arena, c, index);
                let a = self.add(arena, a, index);
                Gate::Ite(c, a, self.add(arena, b, index))
            }
            _ if is_atom(arena, id) => Gate::Atom,
            _ => Gate::Opaque,
        };
        let at = u32::try_from(self.gates.len()).expect("gate overflow");
        self.gates.push(gate);
        self.ids.push(id);
        index.insert(id, at);
        at
    }

    /// The view of the whole formula: the last gate's.
    fn root(&self) -> View {
        *self.views.last().expect("a formula has a gate")
    }

    /// Reduce every gate under the current assignment, in one pass. Each
    /// gate applies the unit rules of the arena's smart constructors to its
    /// operands' views (`and_id`, `or_id`, `implies_id`, `not_id`, `ite_id`,
    /// and an `Iff` with a constant side becomes the other side or its
    /// negation), so the root's view is the formula that substituting the
    /// trail into it and simplifying would build.
    fn evaluate(&mut self) {
        use View::Const;
        for g in 0..self.gates.len() {
            let view = |i: u32| self.views[i as usize];
            let live = View::Ref(g as u32, false);
            let reduced = match self.gates[g] {
                Gate::Atom => self.values[g].map_or(live, Const),
                Gate::Const(b) => Const(b),
                Gate::Opaque => live,
                Gate::Not(a) => view(a).not(),
                Gate::Binary(op, a, b) => match (op, view(a), view(b)) {
                    (BinOp::And, Const(true), v) | (BinOp::And, v, Const(true)) => v,
                    (BinOp::And, Const(false), _) | (BinOp::And, _, Const(false)) => Const(false),
                    (BinOp::Or, Const(false), v) | (BinOp::Or, v, Const(false)) => v,
                    (BinOp::Or, Const(true), _) | (BinOp::Or, _, Const(true)) => Const(true),
                    (BinOp::Implies, Const(true), v) => v,
                    (BinOp::Implies, Const(false), _) | (BinOp::Implies, _, Const(true)) => {
                        Const(true)
                    }
                    (BinOp::Implies, v, Const(false)) => v.not(),
                    (BinOp::Iff, Const(x), v) | (BinOp::Iff, v, Const(x)) => {
                        if x {
                            v
                        } else {
                            v.not()
                        }
                    }
                    _ => live,
                },
                Gate::Ite(c, a, b) => match view(c) {
                    Const(true) => view(a),
                    Const(false) => view(b),
                    _ => live,
                },
            };
            let first = |i: u32| match view(i) {
                Const(_) => None,
                View::Ref(h, _) => self.first[h as usize],
            };
            let first_atom = match self.gates[g] {
                _ if reduced != live => None,
                Gate::Atom => Some(g as u32),
                Gate::Binary(_, a, b) => first(a).or_else(|| first(b)),
                Gate::Ite(c, a, b) => first(c).or_else(|| first(a)).or_else(|| first(b)),
                _ => None,
            };
            self.views[g] = reduced;
            self.first[g] = first_atom;
        }
    }

    /// Append the literals on the `And` spine of `view`, left to right, as
    /// (atom gate, value) pairs.
    fn literals_on_spine(&self, view: View, out: &mut Vec<(u32, bool)>) {
        let View::Ref(g, negated) = view else {
            return;
        };
        match self.gates[g as usize] {
            Gate::Binary(BinOp::And, a, b) if !negated => {
                self.literals_on_spine(self.views[a as usize], out);
                self.literals_on_spine(self.views[b as usize], out);
            }
            Gate::Atom => out.push((g, !negated)),
            _ => {}
        }
    }

    /// The first undecided atom of the formula `view` stands for.
    fn first_atom(&self, view: View) -> Option<u32> {
        match view {
            View::Const(_) => None,
            View::Ref(g, _) => self.first[g as usize],
        }
    }

    /// The formula `view` stands for, as a tree term.
    fn term(&self, arena: &TermArena, view: View) -> Term {
        let (g, negated) = match view {
            View::Const(b) => return Term::Bool(b),
            View::Ref(g, negated) => (g as usize, negated),
        };
        let operand = |i: u32| Box::new(self.term(arena, self.views[i as usize]));
        let t = match self.gates[g] {
            Gate::Binary(op, a, b) => Term::Binary(op, operand(a), operand(b)),
            Gate::Ite(c, a, b) => Term::Ite(operand(c), operand(a), operand(b)),
            _ => arena.term(self.ids[g]),
        };
        if negated {
            Term::Unary(UnOp::Not, Box::new(t))
        } else {
            t
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let result = solve(&arena, id, theory, &DpllConfig::default());
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
        let result = solve(&arena, id, &theory, &config);
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
        let result = solve(&arena, id, &CancellingTheory(token), &config);
        assert!(matches!(result, DpllResult::Cancelled), "{result:?}");
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

    /// A theory that records every trail it is asked about and answers as
    /// `inner` does.
    struct Recording<T> {
        inner: T,
        calls: std::cell::RefCell<Vec<String>>,
    }
    impl<T: Theory> Theory for Recording<T> {
        type Model = T::Model;
        fn check(&self, arena: &TermArena, literals: &[(TermId, bool)]) -> TheoryResult<T::Model> {
            self.calls.borrow_mut().push(render(arena, literals));
            self.inner.check(arena, literals)
        }
    }

    /// Literals as text, in order: `p !q` is `p = true, q = false`.
    fn render(arena: &TermArena, literals: &[(TermId, bool)]) -> String {
        let literal = |&(atom, value): &(TermId, bool)| {
            format!("{}{}", if value { "" } else { "!" }, arena.term(atom))
        };
        literals.iter().map(literal).collect::<Vec<_>>().join(" ")
    }

    /// Solve `f` and compare the verdict (with its exact trail) and every
    /// theory call on the way with the expected text.
    fn assert_search<T: Theory>(f: &Term, theory: T, verdict: &str, calls: &[&str]) {
        let mut arena = TermArena::new();
        let id = arena.intern(f);
        let theory = Recording {
            inner: theory,
            calls: Default::default(),
        };
        let result = solve(&arena, id, &theory, &DpllConfig::default());
        let got = match result {
            DpllResult::Sat { assignment, .. } => format!("sat {}", render(&arena, &assignment)),
            DpllResult::Unsat => "unsat".to_string(),
            DpllResult::Unknown(msg) => format!("unknown: {msg}"),
            DpllResult::Cancelled => "cancelled".to_string(),
        };
        assert_eq!(
            (got.as_str(), theory.calls.into_inner()),
            (verdict, calls.iter().map(|c| c.to_string()).collect()),
            "search on {f}"
        );
    }

    fn vars<const N: usize>(names: [&str; N]) -> [Term; N] {
        names.map(Term::var)
    }

    // The search pins below were generated by the formula-rewriting search
    // that the gate array replaced; each exercises one reduction rule.

    #[test]
    fn an_implication_into_false_forces_its_premise_false() {
        // ¬q forces q = false, which turns a → q into ¬a.
        let [a, b, q] = vars(["a", "b", "q"]);
        let f = q.clone().not().and(a.clone().implies(q)).and(a.or(b));
        assert_search(&f, TrivialTheory, "sat !q !a b", &["!q !a b"]);
    }

    #[test]
    fn an_iff_with_a_decided_side_becomes_the_other_side() {
        // r and ¬p are forced: p ⟺ (q ∧ r) becomes ¬q, and (s ∨ t) ⟺ r
        // becomes s ∨ t, which needs a decision.
        let [p, q, r, s, t] = vars(["p", "q", "r", "s", "t"]);
        let f = p
            .clone()
            .iff(q.and(r.clone()))
            .and(s.or(t).iff(r.clone()))
            .and(r)
            .and(p.not());
        assert_search(
            &f,
            TrivialTheory,
            "sat r !p !q s",
            &["r !p !q", "r !p !q s"],
        );
    }

    #[test]
    fn an_ite_selects_a_branch_once_its_condition_is_decided() {
        let [bad, p, s, u] = vars(["bad", "p", "s", "u"]);
        let f = Term::ite(bad, p.clone().and(s), p.clone().not()).and(p.or(u));
        assert_search(&f, RejectBad, "sat !bad !p u", &["bad p s", "!bad !p u"]);
    }

    #[test]
    fn a_decided_implication_exposes_its_conclusion_conjunction() {
        let [bad, p, q, r] = vars(["bad", "p", "q", "r"]);
        let f = bad
            .clone()
            .implies(p.and(q.clone()))
            .and(bad.or(r.clone()))
            .and(q.implies(r));
        assert_search(&f, RejectBad, "sat !bad r", &["bad p q r", "!bad r"]);
    }

    #[test]
    fn a_rewrite_that_exposes_a_double_negation_forces_the_atom() {
        // q = false turns ¬(¬p ∨ q) into p and ¬(r → q) into r.
        let [p, q, r] = vars(["p", "q", "r"]);
        let f = p
            .not()
            .or(q.clone())
            .not()
            .and(r.implies(q.clone()).not())
            .and(q.not());
        assert_search(&f, TrivialTheory, "sat !q p r", &["!q p r"]);
    }

    #[test]
    fn literals_a_decision_exposes_on_the_spine_can_clash() {
        let [d, p, e] = vars(["d", "p", "e"]);
        let f = d
            .clone()
            .implies(p.clone())
            .and(d.clone().implies(p.not()))
            .and(d.or(e));
        assert_search(&f, TrivialTheory, "sat !d e", &["!d e"]);
    }

    #[test]
    fn a_negated_conjunction_propagates_once_one_side_is_decided() {
        // q = false turns (bad ∧ b) → q into ¬(bad ∧ b).
        let [bad, b, c, q] = vars(["bad", "b", "c", "q"]);
        let f = bad
            .clone()
            .and(b)
            .implies(q.clone())
            .and(q.not())
            .and(bad.or(c));
        assert_search(
            &f,
            RejectBad,
            "sat !q !bad c",
            &["!q", "!q bad !b", "!q !bad c"],
        );
    }

    #[test]
    fn a_theory_conflict_on_every_branch_is_unsat() {
        let [bad, p] = vars(["bad", "p"]);
        let f = bad.clone().or(p.clone()).and(bad.or(p.not()));
        assert_search(&f, RejectBad, "unsat", &["bad"]);
    }

    #[test]
    fn a_formula_without_atoms_is_unknown_and_named() {
        // Integers in boolean positions leave nothing to decide: after r and
        // then s are assigned, the formula is still not a constant.
        let [r, s] = vars(["r", "s"]);
        let f = r
            .clone()
            .implies(Term::int(3).and(s.or(Term::int(4))))
            .and(r);
        assert_search(
            &f,
            TrivialTheory,
            "unknown: cannot decompose formula: 3 ∧ 4",
            &["r", "r s", "r !s"],
        );
    }

    #[test]
    fn shared_atoms_are_recognized_by_id() {
        // The same atom reached through two different subformulas is a single
        // id: forcing it false reduces the disjunction to p.
        let atom = Term::var("x").le(Term::int(0));
        let f = atom.clone().or(Term::var("p")).and(atom.not());
        assert_search(&f, TrivialTheory, "sat !x <= 0 p", &["!x <= 0 p"]);
    }

    #[test]
    fn a_decision_assigns_only_its_atom() {
        let f = Term::var("x")
            .le(Term::int(3))
            .or(Term::var("y").le(Term::int(4)));
        assert_search(&f, TrivialTheory, "sat x <= 3", &["x <= 3"]);
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
