//! The public solver: satisfiability and validity for the refinement logic.
//!
//! [`Solver::check_sat`] decides satisfiability of a conjunction of refinement
//! formulas and produces a [`Model`] with *integer* values; validity checking
//! (`Γ ⊨ ψ` in the paper) is satisfiability of the negation. The pipeline is:
//!
//! 1. instantiate congruence axioms for measure applications ([`crate::euf`]),
//! 2. alias measure applications to fresh variables of the appropriate sort,
//! 3. intern the formula into a hash-consing [`TermArena`] — every later
//!    stage runs over interned ids, so structurally equal subformulas are
//!    processed once and atom comparisons are O(1),
//! 4. normalize equalities per sort (`=` on integers becomes `≤ ∧ ≥`, on
//!    booleans becomes a bi-implication, set equalities are kept),
//! 5. case-split conditional (`ite`) sub-terms out of atoms,
//! 6. eliminate set atoms by membership expansion ([`crate::sets`]),
//! 7. run the DPLL(T) search ([`crate::dpll`]) with a linear-integer-arithmetic
//!    theory oracle ([`crate::lia`]), and
//! 8. reconstruct a model for the caller's variables (including set values and
//!    interpretations for the aliased measure applications).
//!
//! A solver can additionally carry a shared [`SolverCache`]
//! ([`Solver::with_cache`]): the public [`Solver::check_sat`] /
//! [`Solver::check_valid`] entry points then memoize verdicts keyed on the
//! interned query, so the checking pipeline never re-proves a structurally
//! equal obligation.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use resyn_budget::Budget;
use resyn_logic::intern::Node;
use resyn_logic::{BinOp, Model, Sort, SortingEnv, Term, TermArena, TermId, UnOp, Value};

use crate::cache::SolverCache;
use crate::dpll::{self, DpllConfig, DpllResult, Theory, TheoryResult};
use crate::lia::{LiaResult, LiaSolver, LinConstraint};
use crate::linear::LinExpr;
use crate::rational::Rat;
use crate::sets;

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with an integer model for the caller's variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The solver could not decide (work limits or unsupported constructs).
    Unknown(String),
    /// The caller's [`Budget`] ran out mid-query. Unlike
    /// [`Unknown`](Self::Unknown) this says nothing about the formula —
    /// re-solving with a fresh budget may produce any answer — so it is
    /// never written to a [`SolverCache`].
    Cancelled,
}

impl SatResult {
    /// Whether this verdict is a budget cancellation rather than a genuine
    /// solver answer. Cancellations say nothing about the formula and are
    /// never cached.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SatResult::Cancelled)
    }
}

/// Result of a validity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidityResult {
    /// The implication is valid.
    Valid,
    /// The implication is invalid; the model is a counterexample.
    Invalid(Model),
    /// The solver could not decide.
    Unknown(String),
    /// The caller's [`Budget`] ran out mid-query (see
    /// [`SatResult::Cancelled`]); never cached.
    Cancelled,
}

impl ValidityResult {
    /// Whether this verdict is a budget cancellation rather than a genuine
    /// solver answer (see [`SatResult::is_cancelled`]).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ValidityResult::Cancelled)
    }
}

/// The refinement-logic solver.
#[derive(Debug, Clone)]
pub struct Solver {
    env: SortingEnv,
    lia: LiaSolver,
    dpll: DpllConfig,
    cache: Option<SolverCache>,
}

impl Solver {
    /// Create a solver for formulas whose free variables and measures are
    /// declared in `env`.
    pub fn new(env: SortingEnv) -> Solver {
        Solver {
            env,
            lia: LiaSolver::new(),
            dpll: DpllConfig::default(),
            cache: None,
        }
    }

    /// The sorting environment used by this solver.
    pub fn env(&self) -> &SortingEnv {
        &self.env
    }

    /// Attach a shared query cache: every [`Solver::check_sat`] /
    /// [`Solver::check_valid`] verdict is memoized in (and answered from) the
    /// cache, keyed on the interned query and the environment fingerprint.
    pub fn with_cache(mut self, cache: SolverCache) -> Solver {
        self.cache = Some(cache);
        self
    }

    /// Attach a cooperative [`Budget`]: queries issued after the budget is
    /// exceeded return [`SatResult::Cancelled`]/[`ValidityResult::Cancelled`]
    /// immediately, and the DPLL(T) search checks the budget at every
    /// branching decision, so even a single long query unwinds within one
    /// decision. Cancelled verdicts are never written to the attached cache.
    pub fn with_budget(mut self, budget: Budget) -> Solver {
        self.dpll.budget = budget;
        self
    }

    fn budget(&self) -> &Budget {
        &self.dpll.budget
    }

    /// The attached query cache, if any.
    pub fn cache(&self) -> Option<&SolverCache> {
        self.cache.as_ref()
    }

    /// Fingerprint of the work limits a verdict may depend on (a raised
    /// limit can turn `Unknown` into a definite answer, so solvers that
    /// differ in one must not alias in a shared cache).
    fn config_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.dpll.decision_limit.hash(&mut h);
        self.lia.branch_limit.hash(&mut h);
        self.lia.constraint_limit.hash(&mut h);
        h.finish()
    }

    /// Decide satisfiability of the conjunction of `assumptions`.
    pub fn check_sat(&self, assumptions: &[Term]) -> SatResult {
        if self.budget().is_exceeded() {
            return SatResult::Cancelled;
        }
        if let Some(cache) = &self.cache {
            match cache.lookup_sat(&self.env, self.config_fingerprint(), assumptions) {
                Ok(hit) => return hit,
                Err(key) => {
                    let result = self.check_sat_inner(assumptions);
                    // A cancelled verdict is an artifact of this run's
                    // budget, not a property of the query: caching it would
                    // poison future (fully-budgeted) lookups.
                    if !result.is_cancelled() {
                        cache.store_sat(key, &result);
                    }
                    return result;
                }
            }
        }
        self.check_sat_inner(assumptions)
    }

    fn check_sat_inner(&self, assumptions: &[Term]) -> SatResult {
        let formula = Term::and_all(assumptions.iter().cloned()).simplify();
        if formula.is_false() {
            return SatResult::Unsat;
        }
        if formula.has_unknowns() {
            return SatResult::Unknown("formula contains unsolved unknown predicates".to_string());
        }

        // 1. Congruence axioms for measure applications.
        let axioms = crate::euf::congruence_axioms(&formula, &self.env);
        let formula = axioms.into_iter().fold(formula, |acc, ax| acc.and(ax));

        // 2. Alias measure applications.
        let mut env = self.env.clone();
        let mut aliases: BTreeMap<String, (Term, String, Sort)> = BTreeMap::new();
        let formula = alias_apps(&formula, &self.env, &mut env, &mut aliases);

        // 3. Intern: the rest of the pipeline runs over hash-consed ids.
        let mut arena = TermArena::new();
        let formula = arena.intern(&formula);

        // 4. Normalize equalities and bi-implications.
        let mut memo = HashMap::new();
        let formula = match normalize(&mut arena, formula, &env, &mut memo) {
            Ok(f) => f,
            Err(msg) => return SatResult::Unknown(msg),
        };

        // 5. Case-split conditionals out of atoms.
        let mut lift_memo = HashMap::new();
        let formula = lift_ites(&mut arena, formula, &mut lift_memo);

        // 6. Eliminate set atoms (tree-based; the membership expansion
        //    rewrites the formula wholesale, so there is nothing to share).
        let elimination = match sets::eliminate_sets(&arena.term(formula), &env) {
            Ok(e) => e,
            Err(err) => return SatResult::Unknown(err.to_string()),
        };
        for w in &elimination.witnesses {
            env.bind_var(w.clone(), Sort::Int);
        }
        // Normalize the element equalities the elimination introduced.
        let formula = arena.intern(&elimination.formula);
        let formula = lift_ites(&mut arena, formula, &mut lift_memo);
        let formula = arena.simplify_id(formula);

        if arena.is_false(formula) {
            return SatResult::Unsat;
        }
        // Checkpoint between the (formula-size-bounded) preprocessing stages
        // and the search: a budget that expired during normalization or set
        // elimination must not start a DPLL run at all.
        if self.budget().is_exceeded() {
            return SatResult::Cancelled;
        }

        // 7. DPLL(T) with the LIA oracle, over interned atoms.
        let theory = ArithTheory::new(&self.lia);
        match dpll::solve(&mut arena, formula, &theory, &self.dpll) {
            DpllResult::Unsat => SatResult::Unsat,
            DpllResult::Cancelled => SatResult::Cancelled,
            DpllResult::Unknown(msg) => SatResult::Unknown(msg),
            DpllResult::Sat {
                assignment,
                theory_model,
            } => {
                let assignment: Vec<(Term, bool)> = assignment
                    .iter()
                    .map(|(id, v)| (arena.term(*id), *v))
                    .collect();
                SatResult::Sat(self.build_model(
                    &assignment,
                    &theory_model,
                    &aliases,
                    &elimination.memberships,
                ))
            }
        }
    }

    /// Decide validity of `premises ⟹ conclusion`.
    pub fn check_valid(&self, premises: &[Term], conclusion: &Term) -> ValidityResult {
        if self.budget().is_exceeded() {
            return ValidityResult::Cancelled;
        }
        if let Some(cache) = &self.cache {
            match cache.lookup_valid(&self.env, self.config_fingerprint(), premises, conclusion) {
                Ok(hit) => return hit,
                Err(key) => {
                    let result = self.check_valid_inner(premises, conclusion);
                    // See `check_sat`: cancellations must not be memoized.
                    if !result.is_cancelled() {
                        cache.store_valid(key, &result);
                    }
                    return result;
                }
            }
        }
        self.check_valid_inner(premises, conclusion)
    }

    fn check_valid_inner(&self, premises: &[Term], conclusion: &Term) -> ValidityResult {
        let mut assumptions: Vec<Term> = premises.to_vec();
        assumptions.push(conclusion.clone().not());
        // Bypass the satisfiability cache: the validity verdict is cached
        // under its own (premises, conclusion) key, so going through the
        // public `check_sat` would double-count every query.
        match self.check_sat_inner(&assumptions) {
            SatResult::Unsat => ValidityResult::Valid,
            SatResult::Sat(m) => ValidityResult::Invalid(m),
            SatResult::Unknown(msg) => ValidityResult::Unknown(msg),
            SatResult::Cancelled => ValidityResult::Cancelled,
        }
    }

    /// Convenience wrapper: `true` iff the implication is provably valid.
    /// Unknown results are treated as "not valid" (sound for type checking).
    pub fn is_valid(&self, premises: &[Term], conclusion: &Term) -> bool {
        matches!(
            self.check_valid(premises, conclusion),
            ValidityResult::Valid
        )
    }

    fn build_model(
        &self,
        assignment: &[(Term, bool)],
        theory_model: &BTreeMap<String, Rat>,
        aliases: &BTreeMap<String, (Term, String, Sort)>,
        memberships: &BTreeMap<String, Vec<(Term, String)>>,
    ) -> Model {
        let mut model = Model::new();
        // Integer values for every numeric variable of the *caller's* env.
        let mut int_model = Model::new();
        let value_of = |name: &str| -> i64 {
            theory_model
                .get(name)
                .map(|r| r.floor() as i64)
                .unwrap_or(0)
        };
        for (name, sort) in self.env.vars() {
            match sort {
                Sort::Int | Sort::Uninterp(_) => {
                    let v = value_of(name);
                    model.insert(name.clone(), Value::Int(v));
                    int_model.insert(name.clone(), Value::Int(v));
                }
                Sort::Bool => {
                    let v = assignment
                        .iter()
                        .find(|(a, _)| *a == Term::var(name.clone()))
                        .map(|(_, v)| *v)
                        .unwrap_or(false);
                    model.insert(name.clone(), Value::Bool(v));
                }
                Sort::Set => {}
            }
        }
        // Also include values for alias variables (needed to evaluate element
        // terms that mention measure applications).
        for (_, alias, sort) in aliases.values() {
            if matches!(sort, Sort::Int | Sort::Uninterp(_)) {
                int_model.insert(alias.clone(), Value::Int(value_of(alias)));
            }
        }

        // Set values: collect the elements whose membership atom is true.
        let mut set_values: BTreeMap<String, BTreeSet<i64>> = BTreeMap::new();
        for (set_var, members) in memberships {
            let mut elems = BTreeSet::new();
            for (elem_term, atom_name) in members {
                let is_member = assignment
                    .iter()
                    .find(|(a, _)| *a == Term::var(atom_name.clone()))
                    .map(|(_, v)| *v)
                    .unwrap_or(false);
                if is_member {
                    if let Ok(v) = elem_term.eval_int(&int_model) {
                        elems.insert(v);
                    }
                }
            }
            set_values.insert(set_var.clone(), elems);
        }
        for (name, sort) in self.env.vars() {
            if matches!(sort, Sort::Set) {
                let elems = set_values.get(name).cloned().unwrap_or_default();
                model.insert(name.clone(), Value::Set(elems));
            }
        }

        // Interpretations for the aliased measure applications.
        for (app, alias, sort) in aliases.values() {
            let value = match sort {
                Sort::Int | Sort::Uninterp(_) => Value::Int(value_of(alias)),
                Sort::Bool => Value::Bool(
                    assignment
                        .iter()
                        .find(|(a, _)| *a == Term::var(alias.clone()))
                        .map(|(_, v)| *v)
                        .unwrap_or(false),
                ),
                Sort::Set => Value::Set(set_values.get(alias).cloned().unwrap_or_default()),
            };
            model.insert_app(app, value.clone());
            model.insert(alias.clone(), value);
        }
        model
    }
}

/// The arithmetic theory oracle: literals over comparisons are translated to
/// linear constraints and handed to the Fourier–Motzkin / branch-and-bound
/// solver. Boolean variables and opaque boolean applications carry no
/// arithmetic content.
pub(crate) struct ArithTheory<'a> {
    lia: &'a LiaSolver,
    /// Per-query memo of operand linearizations (`None` = non-linear).
    lin_cache: std::cell::RefCell<HashMap<TermId, Option<LinExpr>>>,
}

impl<'a> ArithTheory<'a> {
    /// An oracle for one query, deciding with `lia`.
    pub(crate) fn new(lia: &'a LiaSolver) -> Self {
        ArithTheory {
            lia,
            lin_cache: std::cell::RefCell::new(HashMap::new()),
        }
    }

    /// Linearize an interned operand, memoized per id: DPLL consults the
    /// theory many times per query, and the same atoms reappear on every
    /// trail, so each operand is converted (and its tree reconstructed) at
    /// most once per query. `None` marks a non-linearizable operand.
    fn linearize(&self, arena: &TermArena, id: TermId) -> Option<LinExpr> {
        if let Some(r) = self.lin_cache.borrow().get(&id) {
            return r.clone();
        }
        let r = LinExpr::from_term(&arena.term(id)).ok();
        self.lin_cache.borrow_mut().insert(id, r.clone());
        r
    }

    /// Append the linear constraints a literal asserts to `out` (none for a
    /// literal without arithmetic content). `Err` explains a literal the
    /// oracle cannot interpret.
    fn constraints_of(
        &self,
        arena: &TermArena,
        atom_id: TermId,
        value: bool,
        out: &mut Vec<LinConstraint>,
    ) -> Result<(), String> {
        match arena.node(atom_id) {
            Node::Var(_) | Node::App(_, _) | Node::Unknown(_, _) => {}
            Node::Binary(op, a, b) if op.is_arith_comparison() => {
                let (op, a, b) = (*op, *a, *b);
                let (ea, eb) = match (self.linearize(arena, a), self.linearize(arena, b)) {
                    (Some(ea), Some(eb)) => (ea, eb),
                    _ => {
                        return Err(format!(
                            "non-linear arithmetic atom: {}",
                            arena.term(atom_id)
                        ))
                    }
                };
                out.push(arith_constraint(op, value, &ea, &eb));
            }
            Node::Binary(BinOp::Eq, a, b) => {
                // Residual equalities (e.g. between uninterpreted-sorted
                // terms) are treated as integer equalities.
                let (a, b) = (*a, *b);
                let (ea, eb) = match (self.linearize(arena, a), self.linearize(arena, b)) {
                    (Some(ea), Some(eb)) => (ea, eb),
                    _ => {
                        return Err(format!(
                            "cannot interpret equality atom: {}",
                            arena.term(atom_id)
                        ))
                    }
                };
                if !value {
                    // A negated equality is non-convex; it should have been
                    // normalized away.
                    return Err(format!(
                        "unnormalized disequality atom: {}",
                        arena.term(atom_id)
                    ));
                }
                out.push(LinConstraint::ge0(ea.sub(&eb)));
                out.push(LinConstraint::ge0(eb.sub(&ea)));
            }
            _ => return Err(format!("unsupported theory atom: {}", arena.term(atom_id))),
        }
        Ok(())
    }
}

impl<'a> Theory for ArithTheory<'a> {
    type Model = BTreeMap<String, Rat>;

    fn check(&self, arena: &TermArena, literals: &[(TermId, bool)]) -> TheoryResult<Self::Model> {
        let mut constraints: Vec<LinConstraint> = Vec::new();
        for (atom_id, value) in literals {
            if let Err(msg) = self.constraints_of(arena, *atom_id, *value, &mut constraints) {
                return TheoryResult::Unknown(msg);
            }
        }
        // Every variable occurring in an arithmetic constraint is integer-sorted.
        let mut int_vars: BTreeSet<String> = BTreeSet::new();
        for c in &constraints {
            int_vars.extend(c.expr.vars().cloned());
        }
        match self.lia.solve_integer(&constraints, &int_vars) {
            LiaResult::Sat(m) => TheoryResult::Consistent(m),
            LiaResult::Unsat => TheoryResult::Inconsistent,
            LiaResult::Unknown => TheoryResult::Unknown("arithmetic work limit exceeded".into()),
        }
    }

    /// A model from [`check`](Theory::check) is integer-valued on every
    /// variable of its constraints, and a variable it does not bind
    /// evaluates to 0, so if it satisfies the new constraints it is an
    /// integer model of the whole extended trail.
    fn satisfied_by(
        &self,
        arena: &TermArena,
        literals: &[(TermId, bool)],
        model: &Self::Model,
    ) -> bool {
        let mut constraints = Vec::new();
        literals.iter().all(|(atom_id, value)| {
            constraints.clear();
            self.constraints_of(arena, *atom_id, *value, &mut constraints)
                .is_ok()
                && constraints.iter().all(|c| c.holds(model))
        })
    }
}

fn arith_constraint(op: BinOp, value: bool, a: &LinExpr, b: &LinExpr) -> LinConstraint {
    // a ≤ b  ⇔ b − a ≥ 0 ; negation: a > b ⇔ a − b > 0, etc.
    match (op, value) {
        (BinOp::Le, true) => LinConstraint::ge0(b.sub(a)),
        (BinOp::Le, false) => LinConstraint::gt0(a.sub(b)),
        (BinOp::Lt, true) => LinConstraint::gt0(b.sub(a)),
        (BinOp::Lt, false) => LinConstraint::ge0(a.sub(b)),
        (BinOp::Ge, true) => LinConstraint::ge0(a.sub(b)),
        (BinOp::Ge, false) => LinConstraint::gt0(b.sub(a)),
        (BinOp::Gt, true) => LinConstraint::gt0(a.sub(b)),
        (BinOp::Gt, false) => LinConstraint::ge0(b.sub(a)),
        _ => unreachable!("arith_constraint called on non-comparison"),
    }
}

/// Replace measure applications by fresh alias variables (same application →
/// same alias), binding the aliases in `env` and recording them in `aliases`.
fn alias_apps(
    t: &Term,
    orig_env: &SortingEnv,
    env: &mut SortingEnv,
    aliases: &mut BTreeMap<String, (Term, String, Sort)>,
) -> Term {
    match t {
        Term::App(_, args) => {
            // Alias arguments first (nested applications).
            let aliased_args: Vec<Term> = args
                .iter()
                .map(|a| alias_apps(a, orig_env, env, aliases))
                .collect();
            let rebuilt = match t {
                Term::App(name, _) => Term::App(name.clone(), aliased_args),
                _ => unreachable!(),
            };
            let key = rebuilt.to_string();
            if let Some((_, alias, _)) = aliases.get(&key) {
                return Term::var(alias.clone());
            }
            let sort = orig_env.sort_of(t).unwrap_or(Sort::Int);
            let alias = format!("__m{}", aliases.len());
            env.bind_var(alias.clone(), sort.clone());
            aliases.insert(key, (rebuilt, alias.clone(), sort));
            Term::var(alias)
        }
        Term::Var(_) | Term::Bool(_) | Term::Int(_) | Term::EmptySet | Term::SetLit(_) => t.clone(),
        Term::Singleton(x) => Term::Singleton(Box::new(alias_apps(x, orig_env, env, aliases))),
        Term::Unary(op, x) => Term::Unary(*op, Box::new(alias_apps(x, orig_env, env, aliases))),
        Term::Mul(k, x) => Term::Mul(*k, Box::new(alias_apps(x, orig_env, env, aliases))),
        Term::Binary(op, a, b) => Term::Binary(
            *op,
            Box::new(alias_apps(a, orig_env, env, aliases)),
            Box::new(alias_apps(b, orig_env, env, aliases)),
        ),
        Term::Ite(c, a, b) => Term::Ite(
            Box::new(alias_apps(c, orig_env, env, aliases)),
            Box::new(alias_apps(a, orig_env, env, aliases)),
            Box::new(alias_apps(b, orig_env, env, aliases)),
        ),
        Term::Unknown(_, _) => t.clone(),
    }
}

/// Normalize equalities per sort and expand bi-implications so that later
/// stages only see convex arithmetic atoms and implication-free booleans.
/// Runs over interned ids, memoized per id: shared subformulas (which the
/// premise-heavy validity queries of type checking are full of) are
/// normalized once.
fn normalize(
    arena: &mut TermArena,
    id: TermId,
    env: &SortingEnv,
    memo: &mut HashMap<TermId, Result<TermId, String>>,
) -> Result<TermId, String> {
    if let Some(r) = memo.get(&id) {
        return r.clone();
    }
    let out = normalize_uncached(arena, id, env, memo);
    memo.insert(id, out.clone());
    out
}

fn normalize_uncached(
    arena: &mut TermArena,
    id: TermId,
    env: &SortingEnv,
    memo: &mut HashMap<TermId, Result<TermId, String>>,
) -> Result<TermId, String> {
    Ok(match arena.node(id).clone() {
        Node::Binary(BinOp::Iff, a, b) => {
            let (a, b) = (
                normalize(arena, a, env, memo)?,
                normalize(arena, b, env, memo)?,
            );
            let fwd = arena.implies_id(a, b);
            let bwd = arena.implies_id(b, a);
            arena.and_id(fwd, bwd)
        }
        Node::Binary(BinOp::Eq, a, b) => {
            let sort = arena
                .sort_of_id(a, env, 0)
                .or_else(|_| arena.sort_of_id(b, env, 0));
            match sort {
                Ok(Sort::Bool) => {
                    let (a, b) = (
                        normalize(arena, a, env, memo)?,
                        normalize(arena, b, env, memo)?,
                    );
                    let fwd = arena.implies_id(a, b);
                    let bwd = arena.implies_id(b, a);
                    arena.and_id(fwd, bwd)
                }
                Ok(Sort::Set) => id,
                _ => {
                    let le = arena.binary_id(BinOp::Le, a, b);
                    let ge = arena.binary_id(BinOp::Ge, a, b);
                    arena.and_id(le, ge)
                }
            }
        }
        Node::Binary(BinOp::Neq, a, b) => {
            let sort = arena
                .sort_of_id(a, env, 0)
                .or_else(|_| arena.sort_of_id(b, env, 0));
            match sort {
                Ok(Sort::Bool) => {
                    let (a, b) = (
                        normalize(arena, a, env, memo)?,
                        normalize(arena, b, env, memo)?,
                    );
                    let fwd = arena.implies_id(a, b);
                    let bwd = arena.implies_id(b, a);
                    let iff = arena.and_id(fwd, bwd);
                    arena.not_id(iff)
                }
                Ok(Sort::Set) => id,
                _ => {
                    let lt = arena.binary_id(BinOp::Lt, a, b);
                    let gt = arena.binary_id(BinOp::Gt, a, b);
                    arena.or_id(lt, gt)
                }
            }
        }
        Node::Unary(UnOp::Not, x) => {
            let x = normalize(arena, x, env, memo)?;
            arena.not_id(x)
        }
        Node::Binary(op @ (BinOp::And | BinOp::Or | BinOp::Implies), a, b) => {
            let a = normalize(arena, a, env, memo)?;
            let b = normalize(arena, b, env, memo)?;
            arena.binary_id(op, a, b)
        }
        Node::Ite(c, a, b) => {
            let c = normalize(arena, c, env, memo)?;
            let a = normalize(arena, a, env, memo)?;
            let b = normalize(arena, b, env, memo)?;
            arena.mk(Node::Ite(c, a, b))
        }
        _ => id,
    })
}

/// Case-split scalar conditionals out of atoms, and turn boolean-level
/// conditionals into disjunctions. Memoized per id over the arena.
fn lift_ites(arena: &mut TermArena, id: TermId, memo: &mut HashMap<TermId, TermId>) -> TermId {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    let out = match arena.node(id).clone() {
        Node::Unary(UnOp::Not, x) => {
            let x = lift_ites(arena, x, memo);
            arena.not_id(x)
        }
        Node::Binary(op @ (BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff), a, b) => {
            let a = lift_ites(arena, a, memo);
            let b = lift_ites(arena, b, memo);
            arena.binary_id(op, a, b)
        }
        Node::Ite(c, a, b) => {
            // Boolean-level conditional.
            let c = lift_ites(arena, c, memo);
            let a = lift_ites(arena, a, memo);
            let b = lift_ites(arena, b, memo);
            let then_side = arena.and_id(c, a);
            let not_c = arena.not_id(c);
            let else_side = arena.and_id(not_c, b);
            arena.or_id(then_side, else_side)
        }
        _ if dpll::is_atom(arena, id) => {
            // Pull the first scalar conditional out of the atom, if any.
            match find_scalar_ite(arena, id) {
                None => id,
                Some((cond, then_t, else_t)) => {
                    let then_atom = replace_first_ite(arena, id, then_t);
                    let else_atom = replace_first_ite(arena, id, else_t);
                    let then_side = arena.and_id(cond, then_atom);
                    let not_cond = arena.not_id(cond);
                    let else_side = arena.and_id(not_cond, else_atom);
                    let split = arena.or_id(then_side, else_side);
                    lift_ites(arena, split, memo)
                }
            }
        }
        _ => id,
    };
    memo.insert(id, out);
    out
}

/// Find the first scalar-position `ite` inside an atom, returning
/// `(condition, then-branch, else-branch)`.
fn find_scalar_ite(arena: &TermArena, id: TermId) -> Option<(TermId, TermId, TermId)> {
    match arena.node(id) {
        Node::Ite(c, a, b) => Some((*c, *a, *b)),
        Node::Var(_)
        | Node::Bool(_)
        | Node::Int(_)
        | Node::EmptySet
        | Node::SetLit(_)
        | Node::Unknown(_, _) => None,
        Node::Singleton(x) | Node::Unary(_, x) | Node::Mul(_, x) => find_scalar_ite(arena, *x),
        Node::Binary(_, a, b) => {
            let (a, b) = (*a, *b);
            find_scalar_ite(arena, a).or_else(|| find_scalar_ite(arena, b))
        }
        Node::App(_, args) => args.iter().find_map(|a| find_scalar_ite(arena, *a)),
    }
}

/// Replace the first `ite` sub-term (in the same traversal order as
/// [`find_scalar_ite`]) by `replacement`.
fn replace_first_ite(arena: &mut TermArena, id: TermId, replacement: TermId) -> TermId {
    fn go(arena: &mut TermArena, id: TermId, replacement: TermId, done: &mut bool) -> TermId {
        if *done {
            return id;
        }
        match arena.node(id).clone() {
            Node::Ite(_, _, _) => {
                *done = true;
                replacement
            }
            Node::Var(_)
            | Node::Bool(_)
            | Node::Int(_)
            | Node::EmptySet
            | Node::SetLit(_)
            | Node::Unknown(_, _) => id,
            Node::Singleton(x) => {
                let x = go(arena, x, replacement, done);
                arena.mk(Node::Singleton(x))
            }
            Node::Unary(op, x) => {
                let x = go(arena, x, replacement, done);
                arena.mk(Node::Unary(op, x))
            }
            Node::Mul(k, x) => {
                let x = go(arena, x, replacement, done);
                arena.mk(Node::Mul(k, x))
            }
            Node::Binary(op, a, b) => {
                let a2 = go(arena, a, replacement, done);
                let b2 = go(arena, b, replacement, done);
                arena.mk(Node::Binary(op, a2, b2))
            }
            Node::App(m, args) => {
                let args: Vec<TermId> = args
                    .into_iter()
                    .map(|a| go(arena, a, replacement, done))
                    .collect();
                arena.mk(Node::App(m, args))
            }
        }
    }
    let mut done = false;
    go(arena, id, replacement, &mut done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_env(vars: &[&str]) -> SortingEnv {
        let mut env = SortingEnv::new();
        for v in vars {
            env.bind_var(*v, Sort::Int);
        }
        env
    }

    #[test]
    fn basic_arithmetic_validity() {
        let solver = Solver::new(int_env(&["x", "y"]));
        // x < y ⟹ x ≤ y is valid.
        assert!(solver.is_valid(
            &[Term::var("x").lt(Term::var("y"))],
            &Term::var("x").le(Term::var("y"))
        ));
        // x ≤ y ⟹ x < y is not; the counterexample has x = y.
        match solver.check_valid(
            &[Term::var("x").le(Term::var("y"))],
            &Term::var("x").lt(Term::var("y")),
        ) {
            ValidityResult::Invalid(m) => {
                assert_eq!(m.get("x"), m.get("y"));
            }
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn integer_models_only() {
        // 2x = 3 is satisfiable over rationals but not over integers.
        let solver = Solver::new(int_env(&["x"]));
        let f = Term::var("x").times(2).eq_(Term::int(3));
        assert!(matches!(solver.check_sat(&[f]), SatResult::Unsat));
    }

    #[test]
    fn equalities_and_disequalities() {
        let solver = Solver::new(int_env(&["x", "y"]));
        // x = y ∧ x ≠ y is unsat.
        let f = [
            Term::var("x").eq_(Term::var("y")),
            Term::var("x").neq(Term::var("y")),
        ];
        assert!(matches!(solver.check_sat(&f), SatResult::Unsat));
        // x ≠ y is sat with distinct values.
        match solver.check_sat(&[Term::var("x").neq(Term::var("y"))]) {
            SatResult::Sat(m) => assert_ne!(m.get("x"), m.get("y")),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn measure_applications_are_congruent() {
        let mut env = int_env(&["xs", "ys"]);
        env.declare_measure("len", vec![Sort::Int], Sort::Int);
        let solver = Solver::new(env);
        // xs = ys ∧ len xs ≠ len ys is unsat thanks to congruence.
        let f = [
            Term::var("xs").eq_(Term::var("ys")),
            Term::app("len", vec![Term::var("xs")]).neq(Term::app("len", vec![Term::var("ys")])),
        ];
        assert!(matches!(solver.check_sat(&f), SatResult::Unsat));
        // Without the equality of arguments it is satisfiable.
        let f = [
            Term::app("len", vec![Term::var("xs")]).neq(Term::app("len", vec![Term::var("ys")]))
        ];
        assert!(matches!(solver.check_sat(&f), SatResult::Sat(_)));
    }

    #[test]
    fn set_reasoning_validity() {
        let mut env = SortingEnv::new();
        env.bind_var("s", Sort::Set)
            .bind_var("t", Sort::Set)
            .bind_var("u", Sort::Set)
            .bind_var("x", Sort::Int);
        let solver = Solver::new(env);
        // s = t ∪ {x} ⟹ x ∈ s.
        assert!(solver.is_valid(
            &[Term::var("s").eq_(Term::var("t").union(Term::var("x").singleton()))],
            &Term::var("x").member(Term::var("s"))
        ));
        // s = t ∩ u ⟹ s ⊆ t.
        assert!(solver.is_valid(
            &[Term::var("s").eq_(Term::var("t").intersect(Term::var("u")))],
            &Term::var("s").subset(Term::var("t"))
        ));
        // s ⊆ t does not imply t ⊆ s.
        assert!(!solver.is_valid(
            &[Term::var("s").subset(Term::var("t"))],
            &Term::var("t").subset(Term::var("s"))
        ));
    }

    #[test]
    fn set_union_intersection_identities() {
        let mut env = SortingEnv::new();
        env.bind_var("a", Sort::Set)
            .bind_var("b", Sort::Set)
            .bind_var("c", Sort::Set);
        let solver = Solver::new(env);
        // a = b ∪ c ∧ b = ∅ ⟹ a = c.
        assert!(solver.is_valid(
            &[
                Term::var("a").eq_(Term::var("b").union(Term::var("c"))),
                Term::var("b").eq_(Term::EmptySet),
            ],
            &Term::var("a").eq_(Term::var("c"))
        ));
        // a = b ∪ c does not imply a = b.
        assert!(!solver.is_valid(
            &[Term::var("a").eq_(Term::var("b").union(Term::var("c")))],
            &Term::var("a").eq_(Term::var("b"))
        ));
    }

    #[test]
    fn conditional_terms_are_case_split() {
        let solver = Solver::new(int_env(&["x", "y"]));
        // ite(x < 0, 0 − x, x) ≥ 0 is valid (absolute value).
        let abs = Term::Ite(
            Box::new(Term::var("x").lt(Term::int(0))),
            Box::new(Term::int(0) - Term::var("x")),
            Box::new(Term::var("x")),
        );
        assert!(solver.is_valid(&[], &abs.ge(Term::int(0))));
    }

    #[test]
    fn boolean_variables_participate() {
        let mut env = int_env(&["x"]);
        env.bind_var("p", Sort::Bool);
        let solver = Solver::new(env);
        // (p ⟹ x ≥ 1) ∧ (¬p ⟹ x ≥ 2) ⟹ x ≥ 1 is valid.
        assert!(solver.is_valid(
            &[
                Term::var("p").implies(Term::var("x").ge(Term::int(1))),
                Term::var("p")
                    .not()
                    .implies(Term::var("x").ge(Term::int(2))),
            ],
            &Term::var("x").ge(Term::int(1))
        ));
        assert!(!solver.is_valid(
            &[Term::var("p").implies(Term::var("x").ge(Term::int(1)))],
            &Term::var("x").ge(Term::int(1))
        ));
    }

    #[test]
    fn models_respect_premises() {
        let solver = Solver::new(int_env(&["n"]));
        let premise = Term::var("n")
            .ge(Term::int(3))
            .and(Term::var("n").lt(Term::int(7)));
        match solver.check_sat(std::slice::from_ref(&premise)) {
            SatResult::Sat(m) => {
                assert!(premise.eval_bool(&m).unwrap());
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn an_expired_budget_cancels_queries_and_is_never_cached() {
        use crate::cache::SolverCache;

        let cache = SolverCache::new();
        let premise = Term::var("x").lt(Term::var("y"));
        let goal = Term::var("x").le(Term::var("y"));

        // Expired budget: the query is cancelled, not answered.
        let cancelled = Solver::new(int_env(&["x", "y"]))
            .with_cache(cache.clone())
            .with_budget(Budget::with_timeout(std::time::Duration::ZERO));
        let result = cancelled.check_valid(std::slice::from_ref(&premise), &goal);
        assert!(result.is_cancelled(), "{result:?}");
        assert!(!cancelled.is_valid(std::slice::from_ref(&premise), &goal));
        assert!(cancelled
            .check_sat(std::slice::from_ref(&premise))
            .is_cancelled());

        // The cancellation was not memoized: a fresh solver over the same
        // cache still proves the implication.
        let fresh = Solver::new(int_env(&["x", "y"])).with_cache(cache.clone());
        assert!(fresh.is_valid(std::slice::from_ref(&premise), &goal));
        assert!(matches!(
            fresh.check_sat(std::slice::from_ref(&premise)),
            SatResult::Sat(_)
        ));
    }

    #[test]
    fn a_generous_budget_changes_no_verdict() {
        let solver = Solver::new(int_env(&["x", "y"]))
            .with_budget(Budget::with_timeout(std::time::Duration::from_secs(600)));
        assert!(solver.is_valid(
            &[Term::var("x").lt(Term::var("y"))],
            &Term::var("x").le(Term::var("y"))
        ));
        assert!(matches!(
            solver.check_sat(&[Term::var("x")
                .lt(Term::var("y"))
                .and(Term::var("y").lt(Term::var("x")))]),
            SatResult::Unsat
        ));
    }

    #[test]
    fn unknowns_yield_unknown_result() {
        let solver = Solver::new(int_env(&["x"]));
        let f = Term::unknown("U0").and(Term::var("x").ge(Term::int(0)));
        assert!(matches!(solver.check_sat(&[f]), SatResult::Unknown(_)));
    }

    #[test]
    fn length_style_reasoning() {
        // The motivating subtyping check from the paper's §2.1 (simplified to
        // lengths): len l1 = len xs + 1 ∧ len ν = len xs ⟹ len ν + 1 = len l1.
        let mut env = int_env(&["l1", "xs", "v"]);
        env.declare_measure("len", vec![Sort::Int], Sort::Int);
        let solver = Solver::new(env);
        let len = |x: &str| Term::app("len", vec![Term::var(x)]);
        assert!(solver.is_valid(
            &[
                len("l1").eq_(len("xs") + Term::int(1)),
                len("v").eq_(len("xs")),
            ],
            &(len("v") + Term::int(1)).eq_(len("l1"))
        ));
    }
}
