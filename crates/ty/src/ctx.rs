//! Typing contexts.
//!
//! A context tracks, in order: variable bindings with their Re² types, path
//! conditions (including instantiated measure axioms), the quantified type
//! variables, the symbolic potential ledger, and — for the structural
//! termination check used by the resource-agnostic baseline — the
//! "destructed-from" parent of each match binder.

use std::collections::BTreeMap;

use resyn_logic::{SortingEnv, Term};

use crate::datatypes::Datatypes;
use crate::types::{BaseType, Ty};

/// A typing context.
#[derive(Debug, Clone)]
pub struct Ctx {
    vars: Vec<(String, Ty)>,
    path: Vec<Term>,
    tyvars: Vec<String>,
    /// The free-potential ledger (a numeric refinement term, possibly with
    /// unknown annotations).
    ledger: Term,
    /// For match binders: the variable they were destructed from.
    parents: BTreeMap<String, String>,
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
            vars: Vec::new(),
            path: Vec::new(),
            tyvars: Vec::new(),
            ledger: Term::int(0),
            parents: BTreeMap::new(),
        }
    }

    /// Bind a variable without touching the ledger or path (raw insertion).
    pub fn bind_raw(&mut self, name: impl Into<String>, ty: Ty) {
        self.vars.push((name.into(), ty));
    }

    /// Look up the type of a variable (latest binding wins).
    pub fn lookup(&self, name: &str) -> Option<&Ty> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t)
    }

    /// Iterate over all bindings (oldest first).
    pub fn bindings(&self) -> impl Iterator<Item = &(String, Ty)> {
        self.vars.iter()
    }

    /// Add a path condition.
    pub fn assume(&mut self, fact: Term) {
        if !fact.is_true() {
            self.path.push(fact);
        }
    }

    /// The conjunction of all path conditions.
    pub fn path_condition(&self) -> Term {
        Term::and_all(self.path.iter().cloned())
    }

    /// Bring a type variable into scope.
    pub fn add_tyvar(&mut self, name: impl Into<String>) {
        self.tyvars.push(name.into());
    }

    /// The type variables in scope.
    pub fn tyvars(&self) -> &[String] {
        &self.tyvars
    }

    /// The current potential ledger.
    pub fn ledger(&self) -> &Term {
        &self.ledger
    }

    /// Add potential to the ledger.
    pub fn deposit(&mut self, amount: Term) {
        if !amount.is_zero() {
            self.ledger = (self.ledger.clone() + amount).simplify();
        }
    }

    /// Remove potential from the ledger (the caller is responsible for
    /// emitting the corresponding non-negativity constraint).
    pub fn withdraw(&mut self, amount: Term) {
        if !amount.is_zero() {
            self.ledger = (self.ledger.clone() - amount).simplify();
        }
    }

    /// Record that `child` was obtained by destructing `parent`.
    pub fn set_parent(&mut self, child: impl Into<String>, parent: impl Into<String>) {
        self.parents.insert(child.into(), parent.into());
    }

    /// Is `descendant` a strict structural descendant of `ancestor`
    /// (i.e. obtained from it by one or more pattern matches)?
    pub fn is_structurally_smaller(&self, descendant: &str, ancestor: &str) -> bool {
        let mut cur = descendant;
        while let Some(p) = self.parents.get(cur) {
            if p == ancestor {
                return true;
            }
            cur = p;
        }
        false
    }

    /// Names of the scalar (non-arrow) variables in scope, most recent last.
    pub fn scalar_vars(&self) -> Vec<(String, Ty)> {
        self.vars
            .iter()
            .filter(|(_, t)| t.is_scalar())
            .cloned()
            .collect()
    }

    /// Names of the integer-or-element sorted variables in scope.
    pub fn numeric_vars(&self) -> Vec<String> {
        self.vars
            .iter()
            .filter(|(_, t)| matches!(t.base_type(), Some(BaseType::Int) | Some(BaseType::TVar(_))))
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Build the sorting environment for refinement-logic queries in this
    /// context: variable sorts from the bindings plus every measure known to
    /// the datatype registry.
    pub fn sorting_env(&self, datatypes: &Datatypes) -> SortingEnv {
        self.sorting_env_over(&datatypes.measure_env())
    }

    /// `measures` (a [`Datatypes::measure_env`]) extended with the sorts of
    /// this context's variables. A checker builds the measure part once and
    /// extends a copy of it per query.
    pub(crate) fn sorting_env_over(&self, measures: &SortingEnv) -> SortingEnv {
        let mut env = measures.clone();
        for (name, ty) in &self.vars {
            if let Some(base) = ty.base_type() {
                env.bind_var(name.clone(), base.sort());
            }
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Sort;

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
}
