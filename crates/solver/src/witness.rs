//! Recent counterexamples that refute validity queries without the solver.
//!
//! Most validity misses of the synthesizer's search are rejections: the
//! candidate's obligation `path ∧ premises ⟹ conclusion` is invalid, and the
//! solver answers with a model of `path ∧ premises ∧ ¬conclusion`. Candidates
//! that fail alike fail under the same model, so a
//! [`SolverCache`](crate::SolverCache) keeps the models of its last
//! [`WITNESSES`] `Sat` validity verdicts (its *witnesses*) and, on a validity
//! miss, evaluates the interned query under each of them, newest first. A
//! model that satisfies the query is its counterexample, and the solver is
//! not run. This is the counterexample cache of KLEE (Cadar, Dunbar and
//! Engler, OSDI 2008), applied to refinement-type obligations.
//!
//! Only the evaluator has to be sound. A witness answers only when the query
//! evaluates to `true` under a complete, well-sorted interpretation. It
//! refuses, and the next witness is tried, on
//!
//! * a variable the model does not bind, or that the querying environment
//!   does not bind at the kind of the model's value (integer and
//!   uninterpreted sorts are one kind);
//! * a measure application the model does not interpret (looked up by its
//!   printed form, as [`Term::eval`](resyn_logic::Term::eval) does), or whose
//!   arguments or value do not have the kinds of the measure's signature in
//!   the querying environment;
//! * two applications of one measure to equal arguments with different
//!   values, where the solver would instantiate the congruence axiom for
//!   them (see below);
//! * an unknown predicate, which the solver answers `Unknown`;
//! * `i64` overflow;
//! * an operator applied to values of the wrong kind, `=`/`≠` between values
//!   of different kinds, or a conditional whose branches differ in kind.
//!
//! Every operand is evaluated, so an answer means every variable and
//! application of the query is interpreted, and the query holds when each
//! application is read as a variable of its own, which is how the solver
//! aliases them. The solver adds the congruence axiom `args₁ = args₂ ⟹
//! f(args₁) = f(args₂)` for a pair of applications whose arguments are pairwise
//! identical or the two sides of an equality atom of the simplified query
//! ([`crate::euf`]). A model's variables of uninterpreted sorts often all read
//! 0, so two applications `len xs` and `len ys` evaluate their arguments
//! equal and their values different; the solver holds such a pair to the
//! axiom only if the query relates `xs` and `ys` by an equality, and then the
//! witness refuses too. Where simplification might create the relation (an
//! argument that is not a variable or a literal, or an equality that holds
//! under the model and has such a side), it refuses as well. What remains
//! satisfies the formula the solver decides, so the solver cannot answer
//! `Unsat` where a witness answers `Sat`.
//!
//! Each witness memoizes the value of every term it evaluates, keyed by the
//! term's id in the cache's arena, so a path condition's facts are evaluated
//! once per witness, not once per query. Values do not depend on the
//! environment but refusals do, so the memo is kept per *class* of
//! environments: environments that bind the model's variables at the same
//! kinds and declare the same measures refuse the same terms.

use std::collections::{BTreeSet, VecDeque};

use resyn_logic::intern::Node;
use resyn_logic::{
    BinOp, FxHashMap, FxHashSet, Model, Sort, SortingEnv, TermArena, TermId, UnOp, Value,
};

/// How many recent counterexamples a cache tries on a validity miss.
pub const WITNESSES: usize = 8;

/// The counterexamples of a cache's most recent `Sat` validity verdicts,
/// newest first.
#[derive(Debug, Default)]
pub(crate) struct Witnesses {
    ring: VecDeque<Witness>,
}

impl Witnesses {
    /// Remember `model`, the counterexample of a solved validity query; the
    /// oldest witness beyond [`WITNESSES`] is dropped.
    pub(crate) fn push(&mut self, model: Model) {
        self.ring.truncate(WITNESSES - 1);
        self.ring.push_front(Witness::new(model));
    }

    /// The model of the newest witness that satisfies `premises ∧
    /// ¬conclusion` (ids of `arena`) under `env`, whose fingerprint is
    /// `env_fp`, if any.
    pub(crate) fn refute(
        &mut self,
        arena: &TermArena,
        env: &SortingEnv,
        env_fp: u64,
        premises: &[TermId],
        conclusion: TermId,
    ) -> Option<&Model> {
        let i = (0..self.ring.len())
            .find(|&i| self.ring[i].satisfies(arena, env, env_fp, premises, conclusion))?;
        Some(&self.ring[i].model)
    }
}

/// One counterexample and what has been evaluated under it.
#[derive(Debug)]
struct Witness {
    model: Model,
    /// The class of each environment seen, by fingerprint.
    class_of: FxHashMap<u64, usize>,
    classes: Vec<Class>,
}

/// Environments that evaluate every term alike under one witness.
#[derive(Debug)]
struct Class {
    /// The measure table of the class's environments.
    measures_fp: u64,
    /// The kind each environment of the class binds each of the model's
    /// variables at, in model order (`None`: unbound).
    kinds: Vec<Option<Kind>>,
    /// The value of every term evaluated under the class, `None` for a
    /// refusal.
    memo: FxHashMap<TermId, Option<Value>>,
}

impl Witness {
    fn new(model: Model) -> Witness {
        Witness {
            model,
            class_of: FxHashMap::default(),
            classes: Vec::new(),
        }
    }

    /// Whether the model satisfies `premises ∧ ¬conclusion` under `env`. The
    /// conclusion is evaluated first: it is the part a failing candidate
    /// changes, and where most witnesses stop.
    fn satisfies(
        &mut self,
        arena: &TermArena,
        env: &SortingEnv,
        env_fp: u64,
        premises: &[TermId],
        conclusion: TermId,
    ) -> bool {
        let class = self.class(env, env_fp);
        let memo = &mut self.classes[class].memo;
        let mut eval = Eval {
            arena,
            env,
            model: &self.model,
            memo,
        };
        eval.eval(conclusion) == Some(Value::Bool(false))
            && premises
                .iter()
                .all(|&p| eval.eval(p) == Some(Value::Bool(true)))
            && congruent(arena, memo, premises.iter().copied().chain([conclusion]))
    }

    /// The class of `env` (fingerprint `env_fp`), made on first sight.
    fn class(&mut self, env: &SortingEnv, env_fp: u64) -> usize {
        if let Some(&class) = self.class_of.get(&env_fp) {
            return class;
        }
        let measures_fp = env.measures_fingerprint();
        let kinds: Vec<Option<Kind>> = self
            .model
            .iter()
            .map(|(x, _)| env.var_sort(x).map(Kind::of_sort))
            .collect();
        let class = match self
            .classes
            .iter()
            .position(|c| c.measures_fp == measures_fp && c.kinds == kinds)
        {
            Some(class) => class,
            None => {
                self.classes.push(Class {
                    measures_fp,
                    kinds,
                    memo: FxHashMap::default(),
                });
                self.classes.len() - 1
            }
        };
        self.class_of.insert(env_fp, class);
        class
    }
}

/// The kind of a value, which a sort determines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bool,
    Int,
    Set,
}

impl Kind {
    fn of(value: &Value) -> Kind {
        match value {
            Value::Bool(_) => Kind::Bool,
            Value::Int(_) => Kind::Int,
            Value::Set(_) => Kind::Set,
        }
    }

    /// Uninterpreted sorts are integers in the solver and in models.
    fn of_sort(sort: &Sort) -> Kind {
        match sort {
            Sort::Bool => Kind::Bool,
            Sort::Int | Sort::Uninterp(_) => Kind::Int,
            Sort::Set => Kind::Set,
        }
    }
}

/// Strict evaluation of interned terms under one witness and class.
struct Eval<'a> {
    arena: &'a TermArena,
    env: &'a SortingEnv,
    model: &'a Model,
    memo: &'a mut FxHashMap<TermId, Option<Value>>,
}

impl Eval<'_> {
    /// The value of `id`, or `None` where the witness refuses.
    fn eval(&mut self, id: TermId) -> Option<Value> {
        if let Some(known) = self.memo.get(&id) {
            return known.clone();
        }
        let value = self.eval_node(id);
        self.memo.insert(id, value.clone());
        value
    }

    fn int(&mut self, id: TermId) -> Option<i64> {
        self.eval(id)?.as_int()
    }

    fn bool(&mut self, id: TermId) -> Option<bool> {
        self.eval(id)?.as_bool()
    }

    fn eval_node(&mut self, id: TermId) -> Option<Value> {
        let (arena, env, model) = (self.arena, self.env, self.model);
        Some(match arena.node(id) {
            Node::Var(x) => {
                let value = model.get(x)?;
                if Kind::of_sort(env.var_sort(x)?) != Kind::of(value) {
                    return None;
                }
                value.clone()
            }
            &Node::Bool(b) => Value::Bool(b),
            &Node::Int(n) => Value::Int(n),
            Node::EmptySet => Value::Set(BTreeSet::new()),
            Node::SetLit(s) => Value::Set(s.clone()),
            &Node::Singleton(t) => Value::set([self.int(t)?]),
            &Node::Unary(UnOp::Not, t) => Value::Bool(!self.bool(t)?),
            &Node::Unary(UnOp::Neg, t) => Value::Int(self.int(t)?.checked_neg()?),
            &Node::Mul(k, t) => Value::Int(k.checked_mul(self.int(t)?)?),
            &Node::Binary(op, a, b) => {
                let (a, b) = (self.eval(a)?, self.eval(b)?);
                binary(op, a, b)?
            }
            &Node::Ite(c, t, e) => {
                let (c, t, e) = (self.bool(c)?, self.eval(t)?, self.eval(e)?);
                if Kind::of(&t) != Kind::of(&e) {
                    return None;
                }
                if c {
                    t
                } else {
                    e
                }
            }
            Node::App(name, args) => {
                let sig = env.measure_sig(name)?;
                if sig.args.len() != args.len() {
                    return None;
                }
                for (&arg, sort) in args.iter().zip(&sig.args) {
                    let value = self.eval(arg)?;
                    // An uninterpreted argument sort accepts any sort, as
                    // in sorting.
                    if !matches!(sort, Sort::Uninterp(_)) && Kind::of_sort(sort) != Kind::of(&value)
                    {
                        return None;
                    }
                }
                let value = model.app(&arena.term(id).to_string())?;
                if Kind::of_sort(&sig.result) != Kind::of(value) {
                    return None;
                }
                value.clone()
            }
            Node::Unknown(_, _) => return None,
        })
    }
}

/// Whether the evaluated query rooted at `roots` keeps every congruence
/// axiom the solver would instantiate for it (see the module docs). Every
/// node below `roots` is in `memo` with a value.
///
/// The solver relates two arguments when they are identical or the sides of
/// an equality atom of its simplified query. Variables and literals are
/// their own simplified form, an application simplifies to an application,
/// and simplification preserves values. So two variable or literal
/// arguments are related only by an equality atom of the query between
/// exactly them, or by one that holds under the model, has a side that is
/// neither a variable, a literal nor an application, and might simplify
/// into any relation between terms of its sides' value. Any other argument
/// might be simplified into a related one, and counts as related.
fn congruent(
    arena: &TermArena,
    memo: &FxHashMap<TermId, Option<Value>>,
    roots: impl IntoIterator<Item = TermId>,
) -> bool {
    let value = |id: TermId| memo.get(&id).and_then(Option::as_ref);
    let atomic = |id: TermId| {
        matches!(
            arena.node(id),
            Node::Var(_) | Node::Int(_) | Node::Bool(_) | Node::EmptySet
        )
    };
    let mut seen = FxHashSet::default();
    let mut stack: Vec<TermId> = roots.into_iter().collect();
    let mut apps: Vec<TermId> = Vec::new();
    // The sides of the atomic equalities, both ways round.
    let mut related: FxHashSet<(TermId, TermId)> = FxHashSet::default();
    // The values of the other equalities that hold and have no
    // application side.
    let mut opaque: Vec<&Value> = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let node = arena.node(id);
        match node {
            Node::App(_, _) => apps.push(id),
            &Node::Binary(BinOp::Eq, a, b) => {
                let app = |t| matches!(arena.node(t), Node::App(_, _));
                if atomic(a) && atomic(b) {
                    related.insert((a, b));
                    related.insert((b, a));
                } else if !app(a) && !app(b) && value(a) == value(b) {
                    opaque.extend(value(a));
                }
            }
            _ => {}
        }
        node.for_each_child(|child| stack.push(child));
    }
    let args = |id: TermId| match arena.node(id) {
        Node::App(f, args) => (f, args),
        _ => unreachable!("only applications are collected"),
    };
    for (i, &a) in apps.iter().enumerate() {
        let (f, args_a) = args(a);
        for &b in &apps[i + 1..] {
            let (g, args_b) = args(b);
            let violated = f == g
                && args_a.len() == args_b.len()
                && value(a) != value(b)
                && args_a
                    .iter()
                    .zip(args_b)
                    .all(|(&x, &y)| value(x) == value(y));
            let enforced = || {
                args_a.iter().zip(args_b).all(|(&x, &y)| {
                    x == y
                        || !atomic(x)
                        || !atomic(y)
                        || related.contains(&(x, y))
                        || value(x).is_some_and(|v| opaque.contains(&v))
                })
            };
            if violated && enforced() {
                return false;
            }
        }
    }
    true
}

/// A binary operator on values of the kinds it takes.
fn binary(op: BinOp, a: Value, b: Value) -> Option<Value> {
    use Value::{Bool, Int, Set};
    Some(match (op, a, b) {
        (BinOp::And, Bool(a), Bool(b)) => Bool(a && b),
        (BinOp::Or, Bool(a), Bool(b)) => Bool(a || b),
        (BinOp::Implies, Bool(a), Bool(b)) => Bool(!a || b),
        (BinOp::Iff, Bool(a), Bool(b)) => Bool(a == b),
        (BinOp::Add, Int(a), Int(b)) => Int(a.checked_add(b)?),
        (BinOp::Sub, Int(a), Int(b)) => Int(a.checked_sub(b)?),
        (BinOp::Le, Int(a), Int(b)) => Bool(a <= b),
        (BinOp::Lt, Int(a), Int(b)) => Bool(a < b),
        (BinOp::Ge, Int(a), Int(b)) => Bool(a >= b),
        (BinOp::Gt, Int(a), Int(b)) => Bool(a > b),
        (BinOp::Eq, a, b) if Kind::of(&a) == Kind::of(&b) => Bool(a == b),
        (BinOp::Neq, a, b) if Kind::of(&a) == Kind::of(&b) => Bool(a != b),
        (BinOp::Union, Set(mut a), Set(b)) => {
            a.extend(b);
            Set(a)
        }
        (BinOp::Intersect, Set(a), Set(b)) => Set(a.intersection(&b).copied().collect()),
        (BinOp::Diff, Set(a), Set(b)) => Set(a.difference(&b).copied().collect()),
        (BinOp::Member, Int(x), Set(s)) => Bool(s.contains(&x)),
        (BinOp::Subset, Set(a), Set(b)) => Bool(a.is_subset(&b)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::fingerprint_env;
    use resyn_logic::Term;

    fn env() -> SortingEnv {
        let mut e = SortingEnv::new();
        e.bind_var("x", Sort::Int)
            .bind_var("y", Sort::Int)
            .bind_var("p", Sort::Bool)
            .bind_var("s", Sort::Set)
            .bind_var("xs", Sort::uninterp("a"))
            .bind_var("ys", Sort::uninterp("a"))
            .declare_measure("len", vec![Sort::uninterp("a")], Sort::Int);
        e
    }

    fn len(list: &str) -> Term {
        Term::app("len", vec![Term::var(list)])
    }

    /// `x = 1, y = 0, p, s = {1}`, both lists 0, `len xs = 2, len ys = 3`:
    /// the shape of a solver model whose list variables are unconstrained.
    fn model() -> Model {
        let mut m = Model::new();
        m.insert("x", Value::Int(1))
            .insert("y", Value::Int(0))
            .insert("p", Value::Bool(true))
            .insert("s", Value::set([1]))
            .insert("xs", Value::Int(0))
            .insert("ys", Value::Int(0))
            .insert_app(&len("xs"), Value::Int(2))
            .insert_app(&len("ys"), Value::Int(3));
        m
    }

    /// Asks one ring, holding one witness, several queries.
    struct Ring {
        arena: TermArena,
        witnesses: Witnesses,
    }

    impl Ring {
        fn of(model: Model) -> Ring {
            let mut witnesses = Witnesses::default();
            witnesses.push(model);
            Ring {
                arena: TermArena::new(),
                witnesses,
            }
        }

        /// Whether the ring refutes `premises ⟹ conclusion` under `env`.
        fn refutes(&mut self, env: &SortingEnv, premises: &[Term], conclusion: &Term) -> bool {
            let premises: Vec<TermId> = premises.iter().map(|p| self.arena.intern(p)).collect();
            let conclusion = self.arena.intern(conclusion);
            let env_fp = fingerprint_env(env);
            self.witnesses
                .refute(&self.arena, env, env_fp, &premises, conclusion)
                .is_some()
        }
    }

    fn refutes(premises: &[Term], conclusion: &Term) -> bool {
        Ring::of(model()).refutes(&env(), premises, conclusion)
    }

    fn x_le_y() -> Term {
        Term::var("x").le(Term::var("y"))
    }

    #[test]
    fn a_model_of_the_premises_and_the_negated_conclusion_refutes() {
        assert!(refutes(&[Term::var("x").gt(Term::var("y"))], &x_le_y()));
        assert!(refutes(
            &[Term::var("p"), Term::int(1).member(Term::var("s"))],
            &x_le_y()
        ));
        // A conclusion that holds, or a premise that fails, does not.
        assert!(!refutes(&[], &Term::var("x").ge(Term::var("y"))));
        assert!(!refutes(&[Term::var("p").not()], &x_le_y()));
    }

    #[test]
    fn an_unbound_variable_refuses() {
        let mut env = env();
        env.bind_var("z", Sort::Int);
        let z_is_natural = [Term::var("z").ge(Term::int(0))];
        assert!(!Ring::of(model()).refutes(&env, &z_is_natural, &x_le_y()));
    }

    #[test]
    fn an_application_the_model_does_not_interpret_refuses() {
        let mut partial = Model::new();
        for (name, value) in model().iter() {
            partial.insert(name.clone(), value.clone());
        }
        partial.insert_app(&len("xs"), Value::Int(2));
        let premises = [len("ys").gt(Term::int(0))];
        assert!(refutes(&premises, &x_le_y()));
        assert!(!Ring::of(partial).refutes(&env(), &premises, &x_le_y()));
    }

    #[test]
    fn an_unknown_predicate_refuses() {
        let mut env = env();
        env.declare_unknown("U0", Sort::Bool);
        assert!(!Ring::of(model()).refutes(&env, &[Term::unknown("U0")], &x_le_y()));
    }

    #[test]
    fn overflow_refuses() {
        let mut big = model();
        big.insert("x", Value::Int(i64::MAX));
        let mut ring = Ring::of(big);
        assert!(ring.refutes(&env(), &[Term::var("x").gt(Term::var("y"))], &x_le_y()));
        let past_the_end = Term::var("x") + Term::int(1);
        assert!(!ring.refutes(&env(), &[past_the_end.gt(Term::var("y"))], &x_le_y()));
        assert!(!ring.refutes(
            &env(),
            &[Term::var("x").times(2).gt(Term::var("y"))],
            &x_le_y()
        ));
    }

    #[test]
    fn a_variable_of_another_sort_refuses_in_that_environment_only() {
        // `x` is an integer in the model, a boolean here: the memo of one
        // environment must not answer for the other.
        let mut boolean_x = env();
        boolean_x.bind_var("x", Sort::Bool);
        let premises = [Term::var("x").neq(Term::var("y"))];
        let mut ring = Ring::of(model());
        assert!(ring.refutes(&env(), &premises, &x_le_y()));
        assert!(!ring.refutes(&boolean_x, &premises, &x_le_y()));
        assert!(ring.refutes(&env(), &premises, &x_le_y()));
        // Integer and uninterpreted sorts are one kind.
        let mut uninterp_x = env();
        uninterp_x.bind_var("x", Sort::uninterp("b"));
        assert!(ring.refutes(&uninterp_x, &premises, &x_le_y()));
    }

    #[test]
    fn a_measure_of_another_sort_refuses() {
        let mut boolean_len = env();
        boolean_len.declare_measure("len", vec![Sort::uninterp("a")], Sort::Bool);
        let premises = [len("xs").neq(len("ys"))];
        assert!(refutes(&premises, &x_le_y()));
        assert!(!Ring::of(model()).refutes(&boolean_len, &premises, &x_le_y()));
        let mut set_argument = env();
        set_argument.declare_measure("len", vec![Sort::Set], Sort::Int);
        assert!(!Ring::of(model()).refutes(&set_argument, &premises, &x_le_y()));
    }

    #[test]
    fn comparing_values_of_different_kinds_refuses() {
        // `1 ≠ {1}` would read true if kinds were not checked.
        assert!(!refutes(&[Term::var("x").neq(Term::var("s"))], &x_le_y()));
        assert!(!refutes(&[Term::var("p").neq(Term::var("y"))], &x_le_y()));
        let mixed = Term::ite(Term::var("p"), Term::var("x"), Term::var("p"));
        assert!(!refutes(&[mixed.eq_(Term::var("x"))], &x_le_y()));
    }

    #[test]
    fn a_congruence_axiom_the_solver_instantiates_refuses() {
        // Both lists read 0 but their lengths differ. The solver relates
        // `xs` and `ys` only through an equality atom of the query.
        let lengths_differ = len("xs").neq(len("ys"));
        assert!(refutes(std::slice::from_ref(&lengths_differ), &x_le_y()));
        let equal_lists = Term::var("xs").eq_(Term::var("ys"));
        assert!(!refutes(
            &[lengths_differ.clone(), equal_lists.clone()],
            &x_le_y()
        ));
        // An equality in the conclusion relates them too.
        assert!(!refutes(
            std::slice::from_ref(&lengths_differ),
            &x_le_y().or(equal_lists.not())
        ));
        // An equality whose side may simplify to either list relates them
        // for all the evaluator knows.
        let opaque =
            Term::ite(Term::var("p"), Term::var("xs"), Term::var("ys")).eq_(Term::var("ys"));
        assert!(!refutes(&[lengths_differ.clone(), opaque], &x_le_y()));
        // An equality that does not hold in the model relates nothing the
        // model could break.
        let unequal = (Term::var("y") + Term::int(1)).eq_(Term::var("ys"));
        assert!(refutes(&[lengths_differ, unequal.not()], &x_le_y()));
    }

    #[test]
    fn the_ring_keeps_the_newest_witnesses_and_tries_them_newest_first() {
        let mut witnesses = Witnesses::default();
        for x in 0..(WITNESSES as i64 + 2) {
            let mut m = model();
            m.insert("x", Value::Int(x));
            witnesses.push(m);
        }
        assert_eq!(witnesses.ring.len(), WITNESSES);
        let mut arena = TermArena::new();
        let env = env();
        let positive = [arena.intern(&Term::var("x").gt(Term::int(0)))];
        let conclusion = arena.intern(&Term::ff());
        let first = witnesses.refute(&arena, &env, fingerprint_env(&env), &positive, conclusion);
        assert_eq!(
            first.and_then(|m| m.get("x")),
            Some(&Value::Int(WITNESSES as i64 + 1))
        );
        // The oldest two witnesses, x = 0 and x = 1, are gone.
        let small = [arena.intern(&Term::var("x").le(Term::int(1)))];
        assert!(witnesses
            .refute(&arena, &env, fingerprint_env(&env), &small, conclusion)
            .is_none());
    }
}
