//! Elimination of finite-set atoms by membership expansion.
//!
//! The refinement logic's set fragment (used for `elems`-style measures) is
//! decided by the classical reduction to propositional logic over membership
//! atoms plus element equalities:
//!
//! * *Negative* set equalities and subset atoms are replaced by a fresh
//!   element *witness* that distinguishes the two sets.
//! * *Positive* set equalities and subset atoms (universally quantified over
//!   elements) are instantiated over the finite set `E*` of element terms that
//!   occur anywhere in the formula (singleton arguments, membership left-hand
//!   sides, and the witnesses).
//! * Membership in a compound set term is expanded structurally; membership in
//!   a base set variable `S` becomes an opaque boolean atom `In(e, S)`.
//! * Congruence constraints `e₁ = e₂ ⟹ (In(e₁,S) ⟺ In(e₂,S))` connect element
//!   equalities with membership atoms.
//!
//! The construction is sound and complete for the quantifier-free set algebra
//! with membership used by the paper's benchmarks.

use std::collections::BTreeMap;
use std::fmt;

use resyn_logic::intern::Node;
use resyn_logic::{BinOp, FxHashSet, Sort, SortingEnv, TermArena, TermId, UnOp};

/// The result of eliminating set atoms from a formula.
#[derive(Debug, Clone)]
pub struct SetElimination {
    /// The set-free formula.
    pub formula: TermId,
    /// For each base set variable, the membership atoms introduced for it:
    /// `(element term, boolean atom variable)`.
    pub memberships: BTreeMap<String, Vec<(TermId, TermId)>>,
}

/// Errors raised during set elimination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetError {
    /// The formula contains a set construct outside the supported fragment.
    Unsupported(String),
}

impl fmt::Display for SetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetError::Unsupported(t) => write!(f, "unsupported set construct: {t}"),
        }
    }
}

impl std::error::Error for SetError {}

/// Does the interned formula mention any set-sorted atom? (Fast path check.)
/// `env_key` memoizes sorts as in [`TermArena::sort_of_id`].
pub fn mentions_sets(
    arena: &mut TermArena,
    formula: TermId,
    env: &SortingEnv,
    env_key: u64,
) -> bool {
    let mut seen = FxHashSet::default();
    let mut stack = vec![formula];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let local = match arena.node(id) {
            Node::EmptySet | Node::SetLit(_) | Node::Singleton(_) => true,
            Node::Var(_) | Node::App(_, _) => {
                matches!(arena.sort_of_id(id, env, env_key), Ok(Sort::Set))
            }
            Node::Binary(op, _, _) => matches!(
                op,
                BinOp::Union | BinOp::Intersect | BinOp::Diff | BinOp::Member | BinOp::Subset
            ),
            // An unknown's pending substitution is not searched.
            Node::Unknown(_, _) => continue,
            Node::Bool(_) | Node::Int(_) | Node::Unary(_, _) | Node::Mul(_, _) | Node::Ite(..) => {
                false
            }
        };
        if local {
            return true;
        }
        arena.node(id).for_each_child(|child| stack.push(child));
    }
    false
}

/// Eliminate set atoms from the interned `formula`, building the set-free
/// formula in the same arena.
///
/// The formula must already be free of `⟺` connectives and of set-sorted
/// measure applications (the SMT layer aliases those to set variables first).
/// Sorts are read under `env`, memoized under `env_key` (which also holds
/// the sorts bound with [`TermArena::assume_sort`]).
///
/// # Errors
///
/// Returns [`SetError::Unsupported`] for set constructs outside the fragment
/// (e.g. conditional set terms).
pub fn eliminate_sets(
    arena: &mut TermArena,
    formula: TermId,
    env: &SortingEnv,
    env_key: u64,
) -> Result<SetElimination, SetError> {
    if !mentions_sets(arena, formula, env, env_key) {
        return Ok(SetElimination {
            formula,
            memberships: BTreeMap::new(),
        });
    }
    let mut elim = Eliminator {
        arena,
        env,
        env_key,
        memberships: BTreeMap::new(),
        witnesses: Vec::new(),
        element_terms: Vec::new(),
        used: 0,
    };

    // Pass A: collect element terms and pre-assign witnesses for negative
    // set-equality / subset atoms so that E* is known before expansion.
    elim.collect_elements(formula, true)?;

    // Pass B: rewrite the formula.
    let mut rewritten = elim.rewrite(formula, true)?;

    // Congruence between element equalities and membership atoms.
    let Eliminator {
        arena, memberships, ..
    } = elim;
    for members in memberships.values() {
        for (i, &(ei, ni)) in members.iter().enumerate() {
            for &(ej, nj) in &members[i + 1..] {
                let eq = elem_eq(arena, ei, ej);
                let iff = arena.binary_id(BinOp::Iff, ni, nj);
                let congruence = arena.implies_id(eq, iff);
                rewritten = arena.and_id(rewritten, congruence);
            }
        }
    }

    Ok(SetElimination {
        formula: rewritten,
        memberships,
    })
}

/// Equality of two element terms, expressed with `≤ ∧ ≥` so that the
/// arithmetic theory solver only sees convex literals.
fn elem_eq(arena: &mut TermArena, a: TermId, b: TermId) -> TermId {
    let le = arena.binary_id(BinOp::Le, a, b);
    let ge = arena.binary_id(BinOp::Ge, a, b);
    arena.and_id(le, ge)
}

struct Eliminator<'a> {
    arena: &'a mut TermArena,
    env: &'a SortingEnv,
    env_key: u64,
    memberships: BTreeMap<String, Vec<(TermId, TermId)>>,
    /// The element witness variables `__w<k>` of negative set atoms.
    witnesses: Vec<TermId>,
    /// `E*`: the element terms, in order of discovery.
    element_terms: Vec<TermId>,
    /// How many pre-allocated witnesses have been consumed during rewriting.
    used: usize,
}

impl Eliminator<'_> {
    fn is_set_sorted(&mut self, t: TermId) -> bool {
        matches!(
            self.arena.sort_of_id(t, self.env, self.env_key),
            Ok(Sort::Set)
        ) || matches!(
            self.arena.node(t),
            Node::EmptySet
                | Node::SetLit(_)
                | Node::Singleton(_)
                | Node::Binary(BinOp::Union | BinOp::Intersect | BinOp::Diff, _, _)
        )
    }

    fn unsupported(&self, t: TermId) -> SetError {
        SetError::Unsupported(self.arena.term(t).to_string())
    }

    fn record_element(&mut self, e: TermId) {
        if !self.element_terms.contains(&e) {
            self.element_terms.push(e);
        }
    }

    fn fresh_witness(&mut self) -> TermId {
        let w = self
            .arena
            .mk(Node::Var(format!("__w{}", self.witnesses.len())));
        self.witnesses.push(w);
        self.record_element(w);
        w
    }

    /// Collect element terms (singleton arguments, membership left-hand sides)
    /// and allocate witnesses for negative set equalities / subsets. Walks
    /// the formula as a tree: every occurrence of a negative atom gets its
    /// own witness.
    fn collect_elements(&mut self, t: TermId, positive: bool) -> Result<(), SetError> {
        match *self.arena.node(t) {
            Node::Unary(UnOp::Not, inner) => self.collect_elements(inner, !positive),
            Node::Binary(BinOp::And | BinOp::Or, a, b) => {
                self.collect_elements(a, positive)?;
                self.collect_elements(b, positive)
            }
            Node::Binary(BinOp::Implies, a, b) => {
                self.collect_elements(a, !positive)?;
                self.collect_elements(b, positive)
            }
            Node::Binary(BinOp::Member, e, s) => {
                self.record_element(e);
                self.collect_set_elements(s)
            }
            Node::Binary(BinOp::Subset, a, b) => self.collect_set_atom(a, b, !positive),
            Node::Binary(op @ (BinOp::Eq | BinOp::Neq), a, b) => {
                if !(self.is_set_sorted(a) || self.is_set_sorted(b)) {
                    return Ok(());
                }
                // The sets differ where a positive `≠` or a negative `=` is.
                self.collect_set_atom(a, b, positive == (op == BinOp::Neq))
            }
            Node::Ite(c, a, b) => {
                self.collect_elements(c, positive)?;
                self.collect_elements(a, positive)?;
                self.collect_elements(b, positive)
            }
            _ => Ok(()),
        }
    }

    /// The elements of a set atom's operands, plus a witness when the atom
    /// asserts that the sets differ.
    fn collect_set_atom(&mut self, a: TermId, b: TermId, differ: bool) -> Result<(), SetError> {
        self.collect_set_elements(a)?;
        self.collect_set_elements(b)?;
        if differ {
            self.fresh_witness();
        }
        Ok(())
    }

    fn collect_set_elements(&mut self, s: TermId) -> Result<(), SetError> {
        match *self.arena.node(s) {
            Node::Singleton(e) => {
                self.record_element(e);
                Ok(())
            }
            Node::Binary(BinOp::Union | BinOp::Intersect | BinOp::Diff, a, b) => {
                self.collect_set_elements(a)?;
                self.collect_set_elements(b)
            }
            Node::Var(_) | Node::EmptySet | Node::SetLit(_) => Ok(()),
            _ => Err(self.unsupported(s)),
        }
    }

    /// Membership atom `__in$S$k` for the element of id `k` in base set
    /// variable `S`. Ids are unique per query arena, and the name never
    /// leaves it: the model reads set values through `memberships`.
    fn in_atom(&mut self, e: TermId, set_var: &str) -> TermId {
        let atom = self
            .arena
            .mk(Node::Var(format!("__in${set_var}${}", e.index())));
        let entry = self.memberships.entry(set_var.to_string()).or_default();
        if !entry.iter().any(|&(_, a)| a == atom) {
            entry.push((e, atom));
        }
        atom
    }

    /// Expand `e ∈ s` structurally.
    fn expand_member(&mut self, e: TermId, s: TermId) -> Result<TermId, SetError> {
        Ok(match self.arena.node(s).clone() {
            Node::Var(name) => self.in_atom(e, &name),
            Node::EmptySet => self.arena.ff_id(),
            Node::SetLit(lits) => {
                let eqs: Vec<TermId> = lits
                    .iter()
                    .map(|k| {
                        let k = self.arena.int_id(*k);
                        elem_eq(self.arena, e, k)
                    })
                    .collect();
                self.arena.or_all_id(eqs)
            }
            Node::Singleton(a) => elem_eq(self.arena, e, a),
            Node::Binary(BinOp::Union, a, b) => {
                let (ma, mb) = (self.expand_member(e, a)?, self.expand_member(e, b)?);
                self.arena.or_id(ma, mb)
            }
            Node::Binary(BinOp::Intersect, a, b) => {
                let (ma, mb) = (self.expand_member(e, a)?, self.expand_member(e, b)?);
                self.arena.and_id(ma, mb)
            }
            Node::Binary(BinOp::Diff, a, b) => {
                let (ma, mb) = (self.expand_member(e, a)?, self.expand_member(e, b)?);
                let not_mb = self.arena.not_id(mb);
                self.arena.and_id(ma, not_mb)
            }
            _ => return Err(self.unsupported(s)),
        })
    }

    /// `∀ e ∈ E*. member(e, a) → member(e, b)` (finite instantiation).
    fn expand_subset(&mut self, a: TermId, b: TermId) -> Result<TermId, SetError> {
        let mut conjuncts = Vec::new();
        for e in self.element_terms.clone() {
            let (ma, mb) = (self.expand_member(e, a)?, self.expand_member(e, b)?);
            conjuncts.push(self.arena.implies_id(ma, mb));
        }
        Ok(self.arena.and_all_id(conjuncts))
    }

    /// `∀ e ∈ E*. member(e, a) ⟺ member(e, b)` (finite instantiation).
    fn expand_set_eq(&mut self, a: TermId, b: TermId) -> Result<TermId, SetError> {
        let mut conjuncts = Vec::new();
        for e in self.element_terms.clone() {
            let (ma, mb) = (self.expand_member(e, a)?, self.expand_member(e, b)?);
            let fwd = self.arena.implies_id(ma, mb);
            let bwd = self.arena.implies_id(mb, ma);
            conjuncts.push(self.arena.and_id(fwd, bwd));
        }
        Ok(self.arena.and_all_id(conjuncts))
    }

    /// A witness that element `w` distinguishes sets `a` and `b`
    /// (`w ∈ a ∧ w ∉ b` for subset; symmetric difference for equality).
    fn witness_not_subset(&mut self, a: TermId, b: TermId) -> Result<TermId, SetError> {
        let w = self.next_witness();
        let (in_a, in_b) = (self.expand_member(w, a)?, self.expand_member(w, b)?);
        let not_in_b = self.arena.not_id(in_b);
        Ok(self.arena.and_id(in_a, not_in_b))
    }

    fn witness_not_equal(&mut self, a: TermId, b: TermId) -> Result<TermId, SetError> {
        let w = self.next_witness();
        let (in_a, in_b) = (self.expand_member(w, a)?, self.expand_member(w, b)?);
        let (not_in_a, not_in_b) = (self.arena.not_id(in_a), self.arena.not_id(in_b));
        let only_a = self.arena.and_id(in_a, not_in_b);
        let only_b = self.arena.and_id(not_in_a, in_b);
        Ok(self.arena.or_id(only_a, only_b))
    }

    /// Witnesses were pre-allocated in pass A in traversal order; hand them
    /// out in the same order.
    fn next_witness(&mut self) -> TermId {
        let w = match self.witnesses.get(self.used) {
            Some(&w) => w,
            None => self.fresh_witness(),
        };
        self.used += 1;
        w
    }

    /// Rewrite the set atoms of `t` away. Like pass A this walks the formula
    /// as a tree, so witnesses are consumed in the order they were allocated.
    fn rewrite(&mut self, t: TermId, positive: bool) -> Result<TermId, SetError> {
        Ok(match *self.arena.node(t) {
            Node::Unary(UnOp::Not, inner) => {
                let inner = self.rewrite(inner, !positive)?;
                self.arena.not_id(inner)
            }
            Node::Binary(BinOp::And, a, b) => {
                let (a, b) = (self.rewrite(a, positive)?, self.rewrite(b, positive)?);
                self.arena.and_id(a, b)
            }
            Node::Binary(BinOp::Or, a, b) => {
                let (a, b) = (self.rewrite(a, positive)?, self.rewrite(b, positive)?);
                self.arena.or_id(a, b)
            }
            Node::Binary(BinOp::Implies, a, b) => {
                let (a, b) = (self.rewrite(a, !positive)?, self.rewrite(b, positive)?);
                self.arena.implies_id(a, b)
            }
            Node::Binary(BinOp::Member, e, s) => self.expand_member(e, s)?,
            Node::Binary(BinOp::Subset, a, b) => {
                if positive {
                    self.expand_subset(a, b)?
                } else {
                    // ¬(a ⊆ b): the enclosing negation stays in the output,
                    // so return φ with ¬φ ⟺ ¬(a ⊆ b): φ = ¬(witness).
                    let w = self.witness_not_subset(a, b)?;
                    self.arena.not_id(w)
                }
            }
            Node::Binary(op @ (BinOp::Eq | BinOp::Neq), a, b) => {
                if !(self.is_set_sorted(a) || self.is_set_sorted(b)) {
                    return Ok(t);
                }
                // Where the atom, read at its polarity, says the sets are
                // equal it is instantiated over E*; where it says they
                // differ, a witness tells them apart. A negative atom keeps
                // its negation, as for subsets.
                let formula = if positive == (op == BinOp::Eq) {
                    self.expand_set_eq(a, b)?
                } else {
                    self.witness_not_equal(a, b)?
                };
                if positive {
                    formula
                } else {
                    self.arena.not_id(formula)
                }
            }
            Node::Ite(c, a, b) => {
                let c = self.rewrite(c, positive)?;
                let a = self.rewrite(a, positive)?;
                let b = self.rewrite(b, positive)?;
                self.arena.ite_id(c, a, b)
            }
            _ => t,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;

    fn env() -> SortingEnv {
        let mut e = SortingEnv::new();
        e.bind_var("s", Sort::Set)
            .bind_var("t", Sort::Set)
            .bind_var("x", Sort::Int)
            .bind_var("y", Sort::Int);
        e
    }

    /// Eliminate the sets of `f`; the result is `(arena, elimination)` and
    /// whether the eliminated formula still mentions sets.
    fn eliminate(
        f: &Term,
        env: &SortingEnv,
    ) -> Result<(TermArena, SetElimination, bool), SetError> {
        let mut arena = TermArena::new();
        let id = arena.intern(f);
        let r = eliminate_sets(&mut arena, id, env, 0)?;
        let residual = mentions_sets(&mut arena, r.formula, env, 0);
        Ok((arena, r, residual))
    }

    #[test]
    fn membership_in_compound_sets_expands() {
        let f = Term::var("x").member(Term::var("s").union(Term::var("y").singleton()));
        let (_, r, residual) = eliminate(&f, &env()).unwrap();
        assert!(!residual);
        assert_eq!(r.memberships["s"].len(), 1);
    }

    #[test]
    fn positive_equality_instantiates_over_elements() {
        // elems-style: s = t ∪ {x}, with a membership mention of y to seed E*.
        let f = Term::var("s")
            .eq_(Term::var("t").union(Term::var("x").singleton()))
            .and(Term::var("y").member(Term::var("s")));
        let (arena, r, residual) = eliminate(&f, &env()).unwrap();
        assert!(!residual);
        // Elements x (singleton) and y (member) both get In-atoms on s, and
        // no witness is needed.
        let elements: Vec<Term> = r.memberships["s"]
            .iter()
            .map(|&(e, _)| arena.term(e))
            .collect();
        assert_eq!(elements, [Term::var("x"), Term::var("y")]);
    }

    #[test]
    fn negative_equality_introduces_witness() {
        let f = Term::var("s").eq_(Term::var("t")).not();
        let (arena, r, residual) = eliminate(&f, &env()).unwrap();
        assert!(!residual);
        // The witness is the only element; the membership atoms are named
        // after the set and the element's id.
        for set in ["s", "t"] {
            let atoms: Vec<(Term, Term)> = r.memberships[set]
                .iter()
                .map(|&(e, atom)| (arena.term(e), arena.term(atom)))
                .collect();
            let [(element, _)] = r.memberships[set][..] else {
                panic!("one membership atom expected on {set}");
            };
            let atom = Term::var(format!("__in${set}${}", element.index()));
            assert_eq!(atoms, [(Term::var("__w0"), atom)]);
        }
    }

    #[test]
    fn formula_without_sets_is_untouched() {
        let f = Term::var("x").le(Term::var("y"));
        let (arena, r, _) = eliminate(&f, &env()).unwrap();
        assert_eq!(arena.term(r.formula), f);
        assert!(r.memberships.is_empty());
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let mut e = env();
        e.declare_measure("weird", vec![Sort::Int], Sort::Set);
        // A set-sorted measure application must have been aliased before
        // elimination; if not, it is reported as unsupported.
        let f = Term::var("x").member(Term::app("weird", vec![Term::var("x")]));
        assert!(matches!(eliminate(&f, &e), Err(SetError::Unsupported(_))));
    }
}
