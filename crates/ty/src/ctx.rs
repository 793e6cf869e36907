//! Typing contexts.
//!
//! A context tracks, in order: variable bindings with their Re² types, path
//! conditions (including instantiated measure axioms), the symbolic potential
//! ledger, and — for the structural termination check used by the
//! resource-agnostic baseline — the "destructed-from" parent of each match
//! binder.
//!
//! Bindings, path and parents are persistent lists and the ledger is shared,
//! so cloning a context (once per checked candidate, once per `ite` or
//! `match` branch) copies pointers, and what a clone adds is never seen by
//! the original. The path is a [`Conj`]: a solver query under it interns only
//! the facts added since the last query. Each binding state keeps the
//! [`SolverEnv`] its queries share.

use std::sync::{Arc, OnceLock};

use resyn_logic::{Conj, Sort, SortingEnv, Term};
use resyn_solver::SolverEnv;

use crate::datatypes::Datatypes;
use crate::types::Ty;

/// A persistent stack, newest entry on top.
#[derive(Debug)]
struct Stack<T>(Option<Arc<(T, Stack<T>)>>);

impl<T> Default for Stack<T> {
    fn default() -> Self {
        Stack(None)
    }
}

impl<T> Clone for Stack<T> {
    fn clone(&self) -> Self {
        Stack(self.0.clone())
    }
}

impl<T> Stack<T> {
    fn push(&mut self, entry: T) {
        let rest = std::mem::take(self);
        *self = Stack(Some(Arc::new((entry, rest))));
    }

    fn top(&self) -> Option<&T> {
        self.0.as_deref().map(|(entry, _)| entry)
    }

    /// The entries, newest first.
    fn iter(&self) -> impl Iterator<Item = &T> {
        std::iter::successors(self.0.as_deref(), |(_, rest)| rest.0.as_deref())
            .map(|(entry, _)| entry)
    }
}

/// A variable binding, and what the queries in the binding state it opens
/// share.
#[derive(Debug)]
struct Binding {
    name: String,
    ty: Ty,
    /// The solver environment of this binding state, with the fingerprint
    /// of the measure table it was built over.
    solver_env: OnceLock<(u64, Arc<SolverEnv>)>,
}

/// A typing context.
#[derive(Debug, Clone)]
pub struct Ctx {
    vars: Stack<Binding>,
    path: Conj,
    /// The free-potential ledger (a numeric refinement term, possibly with
    /// unknown annotations).
    ledger: Arc<Term>,
    /// For match binders, `(binder, the variable it was destructed from)`.
    parents: Stack<(String, String)>,
}

impl Default for Ctx {
    fn default() -> Self {
        Ctx::new()
    }
}

impl Ctx {
    /// The empty context with a zero ledger.
    pub fn new() -> Ctx {
        Ctx {
            vars: Stack::default(),
            path: Conj::new(),
            ledger: Arc::new(Term::int(0)),
            parents: Stack::default(),
        }
    }

    /// Bind a variable without touching the ledger or path (raw insertion).
    pub fn bind_raw(&mut self, name: impl Into<String>, ty: Ty) {
        self.vars.push(Binding {
            name: name.into(),
            ty,
            solver_env: OnceLock::new(),
        });
    }

    /// Look up the type of a variable (latest binding wins).
    pub fn lookup(&self, name: &str) -> Option<&Ty> {
        self.vars.iter().find(|b| b.name == name).map(|b| &b.ty)
    }

    /// Iterate over all bindings (oldest first).
    pub fn bindings(&self) -> impl Iterator<Item = (&String, &Ty)> {
        let mut newest_first: Vec<&Binding> = self.vars.iter().collect();
        newest_first.reverse();
        newest_first.into_iter().map(|b| (&b.name, &b.ty))
    }

    /// Add a path condition.
    pub fn assume(&mut self, fact: Term) {
        self.path.push(fact);
    }

    /// The path conditions, as a persistent conjunction.
    pub fn path(&self) -> &Conj {
        &self.path
    }

    /// The conjunction of all path conditions.
    pub fn path_condition(&self) -> Term {
        self.path.to_term()
    }

    /// The current potential ledger.
    pub fn ledger(&self) -> &Term {
        &self.ledger
    }

    /// Add potential to the ledger.
    pub fn deposit(&mut self, amount: Term) {
        if !amount.is_zero() {
            self.ledger = Arc::new((self.ledger().clone() + amount).simplify());
        }
    }

    /// Remove potential from the ledger (the caller is responsible for
    /// emitting the corresponding non-negativity constraint).
    pub fn withdraw(&mut self, amount: Term) {
        if !amount.is_zero() {
            self.ledger = Arc::new((self.ledger().clone() - amount).simplify());
        }
    }

    /// Record that `child` was obtained by destructing `parent`.
    pub fn set_parent(&mut self, child: impl Into<String>, parent: impl Into<String>) {
        self.parents.push((child.into(), parent.into()));
    }

    /// Is `descendant` a strict structural descendant of `ancestor`
    /// (i.e. obtained from it by one or more pattern matches)?
    pub fn is_structurally_smaller(&self, descendant: &str, ancestor: &str) -> bool {
        let parent_of = |child: &str| {
            self.parents
                .iter()
                .find(|(c, _)| c == child)
                .map(|(_, p)| p.as_str())
        };
        let mut cur = descendant;
        while let Some(p) = parent_of(cur) {
            if p == ancestor {
                return true;
            }
            cur = p;
        }
        false
    }

    /// Names of the scalar (non-arrow) variables in scope, most recent last.
    pub fn scalar_vars(&self) -> Vec<(String, Ty)> {
        self.bindings()
            .filter(|(_, t)| t.is_scalar())
            .map(|(n, t)| (n.clone(), t.clone()))
            .collect()
    }

    /// Build the sorting environment for refinement-logic queries in this
    /// context: variable sorts from the bindings plus every measure known to
    /// the datatype registry.
    pub fn sorting_env(&self, datatypes: &Datatypes) -> SortingEnv {
        self.sorting_env_over(&datatypes.measure_env())
    }

    /// `measures` (a [`Datatypes::measure_env`]) extended with the sorts of
    /// this context's variables. A checker builds the measure part once.
    pub(crate) fn sorting_env_over(&self, measures: &SortingEnv) -> SortingEnv {
        let mut env = measures.clone();
        for (name, ty) in self.bindings() {
            if let Some(base) = ty.base_type() {
                env.bind_var(name.clone(), base.sort());
            }
        }
        env
    }

    /// The environment of this context's solver queries:
    /// [`sorting_env_over`](Ctx::sorting_env_over) `measures`, plus `_elem`
    /// (the element variable of coupling facts) at sort `Int`. Built once
    /// per binding state and measure table; every later call, from this
    /// context or a clone that bound nothing since, shares it.
    pub(crate) fn solver_env(&self, measures: &SortingEnv) -> Arc<SolverEnv> {
        let key = measures.measures_fingerprint();
        let build = || {
            let mut env = self.sorting_env_over(measures);
            env.bind_var("_elem", Sort::Int);
            Arc::new(SolverEnv::new(env))
        };
        let Some(top) = self.vars.top() else {
            return build();
        };
        let (built_for, env) = top.solver_env.get_or_init(|| (key, build()));
        if *built_for == key {
            Arc::clone(env)
        } else {
            build()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::TermArena;
    use resyn_solver::{Solver, SolverCache};

    #[test]
    fn lookup_respects_shadowing() {
        let mut ctx = Ctx::new();
        ctx.bind_raw("x", Ty::int());
        ctx.bind_raw("x", Ty::bool());
        assert_eq!(ctx.lookup("x"), Some(&Ty::bool()));
        assert_eq!(ctx.lookup("y"), None);
    }

    #[test]
    fn ledger_deposits_and_withdrawals() {
        let mut ctx = Ctx::new();
        assert!(ctx.ledger().is_zero());
        ctx.deposit(Term::var("n"));
        ctx.withdraw(Term::int(1));
        assert_eq!(*ctx.ledger(), Term::var("n") - Term::int(1));
        ctx.deposit(Term::int(0));
        assert_eq!(*ctx.ledger(), Term::var("n") - Term::int(1));
    }

    #[test]
    fn structural_descendants() {
        let mut ctx = Ctx::new();
        ctx.set_parent("xs", "l");
        ctx.set_parent("ys", "xs");
        assert!(ctx.is_structurally_smaller("xs", "l"));
        assert!(ctx.is_structurally_smaller("ys", "l"));
        assert!(!ctx.is_structurally_smaller("l", "l"));
        assert!(!ctx.is_structurally_smaller("l", "xs"));
    }

    #[test]
    fn sorting_env_includes_measures_and_vars() {
        let mut ctx = Ctx::new();
        ctx.bind_raw("x", Ty::int());
        ctx.bind_raw("l", Ty::list(Ty::tvar("a")));
        ctx.bind_raw("f", Ty::arrow("y", Ty::int(), Ty::int()));
        let env = ctx.sorting_env(&Datatypes::standard());
        assert_eq!(env.var_sort("x"), Some(&Sort::Int));
        assert_eq!(env.var_sort("l"), Some(&Sort::Int));
        assert_eq!(env.var_sort("f"), None); // arrows are not logic-level
        assert!(env.measure_sig("len").is_some());
        assert!(env.measure_sig("elems").is_some());
    }

    #[test]
    fn path_conditions_accumulate() {
        let mut ctx = Ctx::new();
        ctx.assume(Term::var("x").ge(Term::int(0)));
        ctx.assume(Term::tt());
        ctx.assume(Term::var("y").lt(Term::var("x")));
        let pc = ctx.path_condition();
        assert_eq!(pc.conjuncts().len(), 2);
    }

    #[test]
    fn solver_envs_follow_shadowing_and_are_shared_per_binding_state() {
        let measures = Datatypes::standard().measure_env();
        let mut ctx = Ctx::new();
        ctx.bind_raw("x", Ty::int());
        ctx.bind_raw("x", Ty::bool());
        // An arrow binding has no sort: `x` keeps the sort of the last
        // scalar binding, as in `sorting_env`.
        ctx.bind_raw("x", Ty::arrow("y", Ty::int(), Ty::int()));
        let env = ctx.solver_env(&measures);
        assert_eq!(env.env().var_sort("x"), Some(&Sort::Bool));
        assert_eq!(env.env().var_sort("_elem"), Some(&Sort::Int));
        assert!(env.env().measure_sig("len").is_some());

        let mut branch = ctx.clone();
        assert!(Arc::ptr_eq(&env, &branch.solver_env(&measures)));
        branch.bind_raw("z", Ty::int());
        let extended = branch.solver_env(&measures);
        assert!(!Arc::ptr_eq(&env, &extended));
        assert_eq!(extended.env().var_sort("z"), Some(&Sort::Int));
        assert_eq!(ctx.solver_env(&measures).env().var_sort("z"), None);

        // Another measure table gets its own environment.
        let mut other = SortingEnv::new();
        other.declare_measure("m", vec![Sort::Int], Sort::Int);
        let env = ctx.solver_env(&other);
        assert!(env.env().measure_sig("len").is_none());
        assert!(env.env().measure_sig("m").is_some());
    }

    #[test]
    fn a_path_memoized_in_one_cache_is_interned_into_another() {
        let measures = Datatypes::standard().measure_env();
        let mut ctx = Ctx::new();
        ctx.bind_raw("x", Ty::int());
        ctx.bind_raw("y", Ty::int());
        ctx.assume(Term::var("x").lt(Term::var("y")));
        ctx.assume(Term::var("y").le(Term::int(3)));
        let ask = |cache: &SolverCache, bound: i64| {
            Solver::shared(ctx.solver_env(&measures))
                .with_cache(cache.clone())
                .is_valid_under(ctx.path(), &[], &Term::var("x").le(Term::int(bound)))
        };
        let first = SolverCache::new();
        assert!(ask(&first, 2));

        // The second arena numbers terms differently: the first arena's ids
        // would name other terms there.
        let second = SolverCache::new();
        let mut reference = TermArena::new();
        let unrelated = Term::var("y").ge(Term::int(7));
        Solver::new(ctx.sorting_env(&Datatypes::standard()))
            .with_cache(second.clone())
            .check_sat(std::slice::from_ref(&unrelated));
        reference.intern(&unrelated);
        let before = second.stats().interned_terms;
        assert_eq!(before, reference.len());

        assert!(ask(&second, 2));
        reference.intern(&ctx.path_condition());
        reference.intern(&Term::var("x").le(Term::int(2)));
        assert!(second.stats().interned_terms > before);
        assert_eq!(second.stats().interned_terms, reference.len());
        assert!(!ask(&second, 1));

        // Each cache answers the repeated query from its own table.
        assert!(ask(&first, 2) && ask(&second, 2));
        assert_eq!((first.stats().hits, first.stats().misses), (1, 1));
        assert_eq!((second.stats().hits, second.stats().misses), (1, 3));
    }

    mod histories {
        use super::*;
        use proptest::prelude::*;

        /// The facts a history assumes: `true`, `false`, an unknown and a
        /// measure among them.
        fn fact(k: usize) -> Term {
            match k % 7 {
                0 => Term::var("x").ge(Term::int(0)),
                1 => Term::var("x").lt(Term::var("y")),
                2 => Term::app("len", vec![Term::var("l")]).ge(Term::int(0)),
                3 => Term::unknown("U0").ge(Term::var("y")),
                4 => Term::ff(),
                5 => Term::tt(),
                _ => Term::var("b"),
            }
        }

        /// The bindings a history makes: names repeat, so later bindings
        /// shadow earlier ones, at another sort or as an arrow.
        fn binding(k: usize) -> (&'static str, Ty) {
            match k % 6 {
                0 => ("x", Ty::int()),
                1 => ("x", Ty::bool()),
                2 => ("y", Ty::int()),
                3 => ("l", Ty::list(Ty::int())),
                4 => ("b", Ty::bool()),
                _ => ("x", Ty::arrow("z", Ty::int(), Ty::int())),
            }
        }

        /// A context next to what it should stand for: its bindings and
        /// facts, oldest first.
        #[derive(Clone)]
        struct Model {
            ctx: Ctx,
            bindings: Vec<(&'static str, Ty)>,
            facts: Vec<Term>,
        }

        proptest! {
            /// Each step extends an earlier context (so contexts share
            /// prefixes) by a binding (kind 0) or a fact (kind 1), extends it
            /// by a fact and queries it (kind 2), or queries it again (kind
            /// 3). A query interns the path to `Term::and_all` of the facts,
            /// with the id and node count an arena with the same prior
            /// contents gives that term, and its environment is the one the
            /// bindings give.
            #[test]
            fn contexts_query_like_their_facts_and_bindings(
                prior in 0usize..7,
                steps in proptest::collection::vec((0usize..64, 0usize..64, 0usize..4), 1..48),
            ) {
                let measures = Datatypes::standard().measure_env();
                let mut memo = TermArena::new();
                let mut reference = TermArena::new();
                for k in 0..prior {
                    memo.intern(&fact(k));
                    reference.intern(&fact(k));
                }
                let mut models = vec![Model {
                    ctx: Ctx::new(),
                    bindings: Vec::new(),
                    facts: Vec::new(),
                }];
                for (from, pick, kind) in steps {
                    let mut m = models[from % models.len()].clone();
                    if kind == 0 {
                        let (name, ty) = binding(pick);
                        m.ctx.bind_raw(name, ty.clone());
                        m.bindings.push((name, ty));
                    } else if kind < 3 {
                        m.ctx.assume(fact(pick));
                        m.facts.push(fact(pick));
                    }
                    if kind >= 2 {
                        let term = Term::and_all(m.facts.clone());
                        let id = memo.intern_conj(m.ctx.path());
                        prop_assert_eq!(id, reference.intern(&term));
                        prop_assert_eq!(memo.len(), reference.len());
                        prop_assert_eq!(memo.term(id), term);
                        let mut env = measures.clone();
                        for (name, ty) in &m.bindings {
                            if let Some(base) = ty.base_type() {
                                env.bind_var(*name, base.sort());
                            }
                        }
                        env.bind_var("_elem", Sort::Int);
                        prop_assert_eq!(m.ctx.solver_env(&measures).env(), &env);
                    }
                    models.push(m);
                }
            }
        }
    }
}
