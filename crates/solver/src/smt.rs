//! The public solver: satisfiability and validity for the refinement logic.
//!
//! [`Solver::check_sat`] decides satisfiability of a conjunction of refinement
//! formulas and produces a [`Model`] with *integer* values; validity checking
//! (`Γ ⊨ ψ` in the paper) is satisfiability of the negation. A query the
//! cache cannot answer (a *miss*) is interned once into a fresh hash-consing
//! [`TermArena`], and every stage runs over its ids — structurally equal
//! subformulas are processed once and atom comparisons are O(1):
//!
//! 1. intern the premises and the negated conclusion,
//! 2. simplify ([`TermArena::simplify_id`]); a formula with unknown
//!    predicates is `Unknown`,
//! 3. instantiate congruence axioms for measure applications ([`crate::euf`]),
//! 4. alias measure applications to fresh `__m<k>` variables of the
//!    appropriate sort,
//! 5. normalize equalities per sort (`=` on integers becomes `≤ ∧ ≥`, on
//!    booleans becomes a bi-implication, set equalities are kept),
//! 6. case-split conditional (`ite`) sub-terms out of atoms,
//! 7. eliminate set atoms by membership expansion ([`crate::sets`]),
//! 8. run the DPLL(T) search ([`crate::dpll`]) with a linear-integer-arithmetic
//!    theory oracle ([`crate::lia`]) that numbers the formula's variables
//!    densely and linearizes each literal once, and
//! 9. read a model for the caller's variables off the trail (including set
//!    values and interpretations for the aliased measure applications).
//!
//! Trees are rebuilt only for the returned [`Model`] and for error messages.
//! The aliases of step 4 are bound in the arena's sorting memo
//! ([`TermArena::assume_sort`]), not in a copy of the caller's environment.
//!
//! A solver can additionally carry a shared [`SolverCache`]
//! ([`Solver::with_cache`]): the public [`Solver::check_sat`] /
//! [`Solver::check_valid`] entry points then memoize verdicts keyed on the
//! interned query, so the checking pipeline never re-proves a structurally
//! equal obligation, and a validity query the cache misses is first tried
//! against the cache's recent counterexamples ([`crate::witness`]): one that
//! satisfies it answers without the stages below. Debug builds solve every
//! such query as well and assert that the solver does not find it valid. The type checker asks under a persistent path
//! condition ([`Solver::is_valid_under`]) and shares one [`SolverEnv`] per
//! binding state of its context, so a hit interns only the facts and
//! conclusion that are new and fingerprints each environment once.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use resyn_budget::Budget;
use resyn_logic::intern::Node;
use resyn_logic::{
    BinOp, Conj, FxHashMap, FxHashSet, Model, Sort, SortingEnv, Term, TermArena, TermId, UnOp,
    Value,
};

use crate::cache::{Lookup, SolverCache};
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

    /// The validity verdict a satisfiability verdict of `premises ∧
    /// ¬conclusion` gives.
    fn of(sat: &SatResult) -> ValidityResult {
        match sat {
            SatResult::Unsat => ValidityResult::Valid,
            SatResult::Sat(m) => ValidityResult::Invalid(m.clone()),
            SatResult::Unknown(msg) => ValidityResult::Unknown(msg.clone()),
            SatResult::Cancelled => ValidityResult::Cancelled,
        }
    }
}

/// A sorting environment with its cache fingerprint, computed at most once.
/// Solvers built over one `Arc<SolverEnv>` ([`Solver::shared`]) share both:
/// the type checker keeps one per binding state of a context, so its queries
/// neither rebuild nor re-hash the environment.
#[derive(Debug)]
pub struct SolverEnv {
    env: SortingEnv,
    fingerprint: OnceLock<u64>,
}

impl SolverEnv {
    /// Wrap `env`; its fingerprint is computed by the first cache lookup.
    pub fn new(env: SortingEnv) -> SolverEnv {
        SolverEnv {
            env,
            fingerprint: OnceLock::new(),
        }
    }

    /// The sorting environment.
    pub fn env(&self) -> &SortingEnv {
        &self.env
    }

    pub(crate) fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::cache::fingerprint_env(&self.env))
    }
}

/// The refinement-logic solver.
#[derive(Debug, Clone)]
pub struct Solver {
    env: Arc<SolverEnv>,
    lia: LiaSolver,
    dpll: DpllConfig,
    /// [`config_fingerprint`] of `lia` and `dpll`, whose limits nothing
    /// changes after construction.
    config_fp: u64,
    cache: Option<SolverCache>,
}

/// Fingerprint of the work limits a verdict may depend on (a raised limit
/// can turn `Unknown` into a definite answer, so solvers that differ in one
/// must not alias in a shared cache).
fn config_fingerprint(lia: &LiaSolver, dpll: &DpllConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    dpll.decision_limit.hash(&mut h);
    lia.branch_limit.hash(&mut h);
    lia.constraint_limit.hash(&mut h);
    h.finish()
}

impl Solver {
    /// Create a solver for formulas whose free variables and measures are
    /// declared in `env`.
    pub fn new(env: SortingEnv) -> Solver {
        Solver::shared(Arc::new(SolverEnv::new(env)))
    }

    /// A solver over a shared environment (see [`SolverEnv`]).
    pub fn shared(env: Arc<SolverEnv>) -> Solver {
        // Every solver starts from the default limits, so their fingerprint
        // is hashed once per process.
        static DEFAULT_CONFIG_FP: OnceLock<u64> = OnceLock::new();
        let lia = LiaSolver::new();
        let dpll = DpllConfig::default();
        let config_fp = *DEFAULT_CONFIG_FP.get_or_init(|| config_fingerprint(&lia, &dpll));
        Solver {
            env,
            lia,
            dpll,
            config_fp,
            cache: None,
        }
    }

    /// The sorting environment used by this solver.
    pub fn env(&self) -> &SortingEnv {
        self.env.env()
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

    /// Decide satisfiability of the conjunction of `assumptions`.
    pub fn check_sat(&self, assumptions: &[Term]) -> SatResult {
        self.check_cached(None, assumptions, None, SatResult::clone)
    }

    /// Decide satisfiability of `path ∧ premises ∧ ¬conclusion` (without
    /// `path` when it is `None`, without the conclusion when that is
    /// `None`), answering from and recording into the attached cache, and
    /// return what `read` makes of the verdict. A hit is read in place,
    /// under the cache's lock.
    fn check_cached<R>(
        &self,
        path: Option<&Conj>,
        premises: &[Term],
        conclusion: Option<&Term>,
        read: impl Fn(&SatResult) -> R,
    ) -> R {
        if self.budget().is_exceeded() {
            return read(&SatResult::Cancelled);
        }
        let Some(cache) = &self.cache else {
            return read(&self.solve(path, premises, conclusion));
        };
        match cache.lookup(&self.env, self.config_fp, path, premises, conclusion, &read) {
            Lookup::Hit(hit) => hit,
            Lookup::Refuted(refuted) => {
                debug_assert!(
                    !matches!(self.solve(path, premises, conclusion), SatResult::Unsat),
                    "a counterexample refuted a valid query"
                );
                refuted
            }
            Lookup::Miss(key) => {
                let result = self.solve(path, premises, conclusion);
                // The cache drops a cancelled verdict: it is an artifact of
                // this run's budget, not a property of the query.
                cache.store(key, &result);
                read(&result)
            }
        }
    }

    /// Solve a query without the cache. The path condition goes first, as
    /// one term: the premises are exactly those a caller passing
    /// `path.to_term()` would pass.
    fn solve(
        &self,
        path: Option<&Conj>,
        premises: &[Term],
        conclusion: Option<&Term>,
    ) -> SatResult {
        match path {
            None => self.check_sat_inner(premises, conclusion),
            Some(path) => {
                let mut all = Vec::with_capacity(premises.len() + 1);
                all.push(path.to_term());
                all.extend_from_slice(premises);
                self.check_sat_inner(&all, conclusion)
            }
        }
    }

    fn check_sat_inner(&self, premises: &[Term], conclusion: Option<&Term>) -> SatResult {
        // 1. Intern the query once: every later stage runs over its ids.
        let mut arena = TermArena::new();
        let mut conjuncts: Vec<TermId> = premises.iter().map(|p| arena.intern(p)).collect();
        if let Some(c) = conclusion {
            let c = arena.intern(c);
            conjuncts.push(arena.not_id(c));
        }
        let formula = arena.and_all_id(conjuncts);

        // 2. Simplify.
        let formula = arena.simplify_id(formula);
        if arena.is_false(formula) {
            return SatResult::Unsat;
        }
        if mentions_unknown(&arena, formula) {
            return SatResult::Unknown("formula contains unsolved unknown predicates".to_string());
        }

        // 3. Congruence axioms for measure applications.
        let env = self.env();
        let axioms = crate::euf::congruence_axioms(&mut arena, formula, env, CALLER_ENV);
        let formula = axioms
            .into_iter()
            .fold(formula, |acc, ax| arena.and_id(acc, ax));

        // 4. Alias measure applications. Each alias variable's sort is bound
        //    under `ALIASED_ENV`, on top of the caller's environment.
        let mut aliaser = Aliaser {
            env,
            memo: FxHashMap::default(),
            by_app: FxHashMap::default(),
            aliases: Vec::new(),
        };
        let formula = aliaser.alias(&mut arena, formula);
        let aliases = aliaser.aliases;

        // 5. Normalize equalities and bi-implications.
        let mut memo = FxHashMap::default();
        let formula = match normalize(&mut arena, formula, env, &mut memo) {
            Ok(f) => f,
            Err(msg) => return SatResult::Unknown(msg),
        };

        // 6. Case-split conditionals out of atoms.
        let mut lift_memo = FxHashMap::default();
        let formula = lift_ites(&mut arena, formula, &mut lift_memo);

        // 7. Eliminate set atoms, then lift and simplify the element
        //    equalities the elimination introduced.
        let elimination = match sets::eliminate_sets(&mut arena, formula, env, ALIASED_ENV) {
            Ok(e) => e,
            Err(err) => return SatResult::Unknown(err.to_string()),
        };
        let formula = lift_ites(&mut arena, elimination.formula, &mut lift_memo);
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

        // 8. DPLL(T) with the LIA oracle, over interned atoms.
        let theory = ArithTheory::new(&self.lia, &arena, formula);
        match dpll::solve(&mut arena, formula, &theory, &self.dpll) {
            DpllResult::Unsat => SatResult::Unsat,
            DpllResult::Cancelled => SatResult::Cancelled,
            DpllResult::Unknown(msg) => SatResult::Unknown(msg),
            DpllResult::Sat {
                assignment,
                theory_model,
            } => SatResult::Sat(self.build_model(
                &arena,
                &assignment,
                &theory.named_model(&arena, &theory_model),
                &aliases,
                &elimination.memberships,
            )),
        }
    }

    /// Decide validity of `premises ⟹ conclusion`: it is valid iff
    /// `premises ∧ ¬conclusion` is unsatisfiable.
    pub fn check_valid(&self, premises: &[Term], conclusion: &Term) -> ValidityResult {
        self.check_cached(None, premises, Some(conclusion), ValidityResult::of)
    }

    /// `true` iff the implication is provably valid. Unknown results are
    /// treated as "not valid" (sound for type checking). A cache hit is read
    /// in place, without copying the stored verdict's model.
    pub fn is_valid(&self, premises: &[Term], conclusion: &Term) -> bool {
        self.check_cached(None, premises, Some(conclusion), is_unsat)
    }

    /// [`is_valid`](Solver::is_valid) under a path condition: whether
    /// `path ∧ premises ⟹ conclusion` is provably valid. It asks the same
    /// query as `is_valid` with `path.to_term()` as the first premise, but a
    /// cache lookup interns only the facts of `path` that its cache has not
    /// interned yet (see [`Conj`]).
    pub fn is_valid_under(&self, path: &Conj, premises: &[Term], conclusion: &Term) -> bool {
        self.check_cached(Some(path), premises, Some(conclusion), is_unsat)
    }

    /// The model of a `Sat` answer (stage 9), read from the DPLL trail and
    /// the theory model: the caller's variables, set values and the
    /// interpretations of the aliased measure applications.
    fn build_model(
        &self,
        arena: &TermArena,
        assignment: &[(TermId, bool)],
        theory_model: &FxHashMap<&str, Rat>,
        aliases: &[Alias],
        memberships: &BTreeMap<String, Vec<(TermId, TermId)>>,
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
        // The truth value of each boolean-variable atom on the trail (the
        // first assignment wins; an unassigned one reads `false`).
        let mut bool_vars: FxHashMap<&str, bool> = FxHashMap::default();
        for &(atom, value) in assignment {
            if let Node::Var(name) = arena.node(atom) {
                bool_vars.entry(name.as_str()).or_insert(value);
            }
        }
        let truth = |name: &str| bool_vars.get(name).copied().unwrap_or(false);
        for (name, sort) in self.env().vars() {
            match sort {
                Sort::Int | Sort::Uninterp(_) => {
                    let v = value_of(name);
                    model.insert(name.clone(), Value::Int(v));
                    int_model.insert(name.clone(), Value::Int(v));
                }
                Sort::Bool => {
                    model.insert(name.clone(), Value::Bool(truth(name)));
                }
                Sort::Set => {}
            }
        }
        // Also include values for alias variables (needed to evaluate element
        // terms that mention measure applications).
        for alias in aliases {
            if matches!(alias.sort, Sort::Int | Sort::Uninterp(_)) {
                int_model.insert(alias.name.clone(), Value::Int(value_of(&alias.name)));
            }
        }

        // Set values: collect the elements whose membership atom is true.
        let mut set_values: BTreeMap<String, BTreeSet<i64>> = BTreeMap::new();
        for (set_var, members) in memberships {
            let mut elems = BTreeSet::new();
            for &(elem, atom) in members {
                let is_member = assignment
                    .iter()
                    .find(|(a, _)| *a == atom)
                    .is_some_and(|(_, v)| *v);
                if is_member {
                    if let Ok(v) = arena.term(elem).eval_int(&int_model) {
                        elems.insert(v);
                    }
                }
            }
            set_values.insert(set_var.clone(), elems);
        }
        for (name, sort) in self.env().vars() {
            if matches!(sort, Sort::Set) {
                let elems = set_values.get(name).cloned().unwrap_or_default();
                model.insert(name.clone(), Value::Set(elems));
            }
        }

        // Interpretations for the aliased measure applications.
        for alias in aliases {
            let value = match alias.sort {
                Sort::Int | Sort::Uninterp(_) => Value::Int(value_of(&alias.name)),
                Sort::Bool => Value::Bool(truth(&alias.name)),
                Sort::Set => Value::Set(set_values.get(&alias.name).cloned().unwrap_or_default()),
            };
            model.insert_app(&arena.term(alias.app), value.clone());
            model.insert(alias.name.clone(), value);
        }
        model
    }
}

fn is_unsat(sat: &SatResult) -> bool {
    matches!(sat, SatResult::Unsat)
}

/// Sorting-memo key of the caller's environment ([`TermArena::sort_of_id`]).
const CALLER_ENV: u64 = 0;
/// Sorting-memo key of the caller's environment with the alias variables
/// bound on top ([`TermArena::assume_sort`]).
const ALIASED_ENV: u64 = 1;

/// Does the interned formula contain an unknown predicate?
fn mentions_unknown(arena: &TermArena, formula: TermId) -> bool {
    let mut seen = FxHashSet::default();
    let mut stack = vec![formula];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let node = arena.node(id);
        if let Node::Unknown(_, _) = node {
            return true;
        }
        node.for_each_child(|child| stack.push(child));
    }
    false
}

/// The arithmetic theory oracle: literals over comparisons are translated to
/// linear constraints and handed to the Fourier–Motzkin / branch-and-bound
/// solver. Boolean variables and opaque boolean applications carry no
/// arithmetic content.
///
/// The oracle numbers the query's variables once, densely and in name order,
/// and the LIA kernel works on those indices. Name order is what makes this
/// invisible: the kernel breaks elimination-order ties and picks its
/// branch-and-bound variable by lowest index, which is the lowest name, so
/// every verdict and model is the one a name-keyed kernel computes.
pub(crate) struct ArithTheory<'a> {
    lia: &'a LiaSolver,
    /// The query's variables in name order: index `i` stands for `vars[i]`.
    vars: Vec<TermId>,
    /// The index of each of `vars`.
    index: FxHashMap<TermId, u32>,
    /// The constraints each literal asserts, per (atom, value): the search
    /// consults the theory many times per query and the same literals
    /// reappear on every trail, so each is linearized once. `Err` explains a
    /// literal the oracle cannot interpret.
    literals: RefCell<FxHashMap<(TermId, bool), Rc<LiteralConstraints>>>,
}

/// The constraints one literal asserts, or why the oracle cannot read it.
type LiteralConstraints = Result<Vec<LinConstraint>, String>;

impl<'a> ArithTheory<'a> {
    /// An oracle for one query, deciding with `lia`: it numbers the `Var`
    /// nodes of `formula`.
    pub(crate) fn new(lia: &'a LiaSolver, arena: &TermArena, formula: TermId) -> Self {
        let mut seen = FxHashSet::default();
        let mut stack = vec![formula];
        let mut vars = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = arena.node(id);
            if let Node::Var(_) = node {
                vars.push(id);
            }
            node.for_each_child(|child| stack.push(child));
        }
        vars.sort_by(|&a, &b| var_name(arena, a).cmp(var_name(arena, b)));
        let index = vars
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        ArithTheory {
            lia,
            vars,
            index,
            literals: RefCell::new(FxHashMap::default()),
        }
    }

    /// The constraints a literal asserts, memoized per (atom, value).
    fn literal(&self, arena: &TermArena, atom: TermId, value: bool) -> Rc<LiteralConstraints> {
        if let Some(known) = self.literals.borrow().get(&(atom, value)) {
            return Rc::clone(known);
        }
        let constraints = Rc::new(self.constraints_of(arena, atom, value));
        self.literals
            .borrow_mut()
            .insert((atom, value), Rc::clone(&constraints));
        constraints
    }

    /// The linear constraints a literal asserts (none for a literal without
    /// arithmetic content). `Err` explains a literal the oracle cannot
    /// interpret.
    fn constraints_of(
        &self,
        arena: &TermArena,
        atom_id: TermId,
        value: bool,
    ) -> LiteralConstraints {
        let linearize = |id| LinExpr::from_id(arena, id, &self.index).ok();
        match arena.node(atom_id) {
            Node::Var(_) | Node::App(_, _) | Node::Unknown(_, _) => Ok(Vec::new()),
            Node::Binary(op, a, b) if op.is_arith_comparison() => {
                match (linearize(*a), linearize(*b)) {
                    (Some(ea), Some(eb)) => Ok(vec![arith_constraint(*op, value, &ea, &eb)]),
                    _ => Err(format!(
                        "non-linear arithmetic atom: {}",
                        arena.term(atom_id)
                    )),
                }
            }
            Node::Binary(BinOp::Eq, a, b) => {
                // Residual equalities (e.g. between uninterpreted-sorted
                // terms) are treated as integer equalities.
                let (Some(ea), Some(eb)) = (linearize(*a), linearize(*b)) else {
                    return Err(format!(
                        "cannot interpret equality atom: {}",
                        arena.term(atom_id)
                    ));
                };
                if !value {
                    // A negated equality is non-convex; it should have been
                    // normalized away.
                    return Err(format!(
                        "unnormalized disequality atom: {}",
                        arena.term(atom_id)
                    ));
                }
                Ok(vec![
                    LinConstraint::ge0(ea.sub(&eb)),
                    LinConstraint::ge0(eb.sub(&ea)),
                ])
            }
            _ => Err(format!("unsupported theory atom: {}", arena.term(atom_id))),
        }
    }

    /// A dense model from [`check`](Theory::check), keyed by variable name
    /// (for [`Solver::build_model`]); a variable past the model's end is
    /// left out and reads zero there.
    pub(crate) fn named_model<'t>(
        &self,
        arena: &'t TermArena,
        model: &[Rat],
    ) -> FxHashMap<&'t str, Rat> {
        self.vars
            .iter()
            .zip(model)
            .map(|(&id, &value)| (var_name(arena, id), value))
            .collect()
    }
}

/// The name of a `Var` node.
fn var_name(arena: &TermArena, id: TermId) -> &str {
    match arena.node(id) {
        Node::Var(name) => name,
        _ => unreachable!("only variables are numbered"),
    }
}

impl<'a> Theory for ArithTheory<'a> {
    type Model = Vec<Rat>;

    fn check(&self, arena: &TermArena, literals: &[(TermId, bool)]) -> TheoryResult<Self::Model> {
        let mut constraints: Vec<LinConstraint> = Vec::new();
        for &(atom_id, value) in literals {
            match &*self.literal(arena, atom_id, value) {
                Ok(cs) => constraints.extend(cs.iter().cloned()),
                Err(msg) => return TheoryResult::Unknown(msg.clone()),
            }
        }
        // Every variable occurring in an arithmetic constraint is integer-sorted.
        match self.lia.solve_integer(constraints) {
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
        literals.iter().all(
            |&(atom_id, value)| match &*self.literal(arena, atom_id, value) {
                Ok(cs) => cs.iter().all(|c| c.holds(model)),
                Err(_) => false,
            },
        )
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

/// A measure application replaced by a fresh variable.
struct Alias {
    /// The application, with its own argument applications aliased.
    app: TermId,
    /// The alias variable's name, `__m<k>` for the `k`-th distinct
    /// application.
    name: String,
    /// The application's sort under the caller's environment (`Int` when it
    /// does not sort).
    sort: Sort,
}

/// Replaces measure applications by fresh alias variables (same application
/// → same alias), binding each alias's sort in the arena under
/// [`ALIASED_ENV`]. Aliases are numbered in order of first occurrence, left
/// to right, arguments first.
struct Aliaser<'a> {
    /// The caller's environment, which sorts the applications.
    env: &'a SortingEnv,
    /// The aliased form of each subterm already visited.
    memo: FxHashMap<TermId, TermId>,
    /// The alias variable of each (argument-aliased) application.
    by_app: FxHashMap<TermId, TermId>,
    aliases: Vec<Alias>,
}

impl Aliaser<'_> {
    fn alias(&mut self, arena: &mut TermArena, id: TermId) -> TermId {
        if let Some(&r) = self.memo.get(&id) {
            return r;
        }
        let out = match arena.node(id).clone() {
            Node::App(name, args) => {
                // Alias arguments first (nested applications).
                let args = args.into_iter().map(|a| self.alias(arena, a)).collect();
                let app = arena.mk(Node::App(name, args));
                match self.by_app.get(&app) {
                    Some(&var) => var,
                    None => {
                        let sort = arena
                            .sort_of_id(id, self.env, CALLER_ENV)
                            .unwrap_or(Sort::Int);
                        let name = format!("__m{}", self.aliases.len());
                        let var = arena.mk(Node::Var(name.clone()));
                        arena.assume_sort(var, ALIASED_ENV, sort.clone());
                        self.by_app.insert(app, var);
                        self.aliases.push(Alias { app, name, sort });
                        var
                    }
                }
            }
            Node::Var(_)
            | Node::Bool(_)
            | Node::Int(_)
            | Node::EmptySet
            | Node::SetLit(_)
            | Node::Unknown(_, _) => id,
            Node::Singleton(x) => {
                let x = self.alias(arena, x);
                arena.mk(Node::Singleton(x))
            }
            Node::Unary(op, x) => {
                let x = self.alias(arena, x);
                arena.mk(Node::Unary(op, x))
            }
            Node::Mul(k, x) => {
                let x = self.alias(arena, x);
                arena.mk(Node::Mul(k, x))
            }
            Node::Binary(op, a, b) => {
                let a = self.alias(arena, a);
                let b = self.alias(arena, b);
                arena.mk(Node::Binary(op, a, b))
            }
            Node::Ite(c, a, b) => {
                let c = self.alias(arena, c);
                let a = self.alias(arena, a);
                let b = self.alias(arena, b);
                arena.mk(Node::Ite(c, a, b))
            }
        };
        self.memo.insert(id, out);
        out
    }
}

/// Normalize equalities per sort and expand bi-implications so that later
/// stages only see convex arithmetic atoms and implication-free booleans.
/// Runs over interned ids, memoized per id: shared subformulas (which the
/// premise-heavy validity queries of type checking are full of) are
/// normalized once. `env` is the caller's environment; sorts are read under
/// [`ALIASED_ENV`], which adds the alias variables.
fn normalize(
    arena: &mut TermArena,
    id: TermId,
    env: &SortingEnv,
    memo: &mut FxHashMap<TermId, Result<TermId, String>>,
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
    memo: &mut FxHashMap<TermId, Result<TermId, String>>,
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
                .sort_of_id(a, env, ALIASED_ENV)
                .or_else(|_| arena.sort_of_id(b, env, ALIASED_ENV));
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
                .sort_of_id(a, env, ALIASED_ENV)
                .or_else(|_| arena.sort_of_id(b, env, ALIASED_ENV));
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
fn lift_ites(arena: &mut TermArena, id: TermId, memo: &mut FxHashMap<TermId, TermId>) -> TermId {
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
    fn arith_theory_numbers_variables_in_name_order() {
        // Interned z, b, m, a (and the boolean p): the index follows names,
        // not interning order, so it matches a name-keyed kernel's order.
        let f = Term::var("z")
            .ge(Term::var("b") + Term::int(1))
            .and(Term::var("m").le(Term::var("a")))
            .and(Term::var("p"));
        let mut arena = TermArena::new();
        let id = arena.intern(&f);
        let lia = LiaSolver::new();
        let theory = ArithTheory::new(&lia, &arena, id);
        let names: Vec<&str> = theory.vars.iter().map(|&v| var_name(&arena, v)).collect();
        assert_eq!(names, ["a", "b", "m", "p", "z"]);
        for (i, &v) in theory.vars.iter().enumerate() {
            assert_eq!(theory.index[&v], i as u32);
        }

        // A model is read back under the same names.
        let literals: Vec<(TermId, bool)> = arena
            .conjuncts_id(id)
            .into_iter()
            .map(|a| (a, true))
            .collect();
        let TheoryResult::Consistent(model) = theory.check(&arena, &literals) else {
            panic!("z ≥ b + 1 ∧ m ≤ a ∧ p is consistent");
        };
        let named = theory.named_model(&arena, &model);
        let value = |name: &str| named.get(name).copied().unwrap_or(Rat::ZERO);
        assert!(value("z") >= value("b") + Rat::ONE, "{named:?}");
        assert!(value("m") <= value("a"), "{named:?}");
        assert!(named.values().all(|r| r.is_integer()));
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
