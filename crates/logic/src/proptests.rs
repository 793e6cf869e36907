//! Property-based tests for the refinement logic.

use proptest::prelude::*;

use crate::conj::Conj;
use crate::eval::{Model, Value};
use crate::intern::TermArena;
use crate::sort::{Sort, SortingEnv};
use crate::term::{BinOp, Term};

/// A strategy producing integer-sorted terms over variables `x`, `y`, `z`.
fn arb_int_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(Term::int),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Term::var),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), -4i64..4).prop_map(|(a, k)| a.times(k)),
            inner.clone().prop_map(Term::neg),
        ]
    })
}

/// A strategy producing boolean-sorted terms over the same variables.
fn arb_bool_term() -> impl Strategy<Value = Term> {
    let atom = (arb_int_term(), arb_int_term(), 0usize..6).prop_map(|(a, b, op)| match op {
        0 => a.le(b),
        1 => a.lt(b),
        2 => a.ge(b),
        3 => a.gt(b),
        4 => a.eq_(b),
        _ => a.neq(b),
    });
    atom.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Term::not),
        ]
    })
}

/// A strategy producing boolean terms that also exercise measure
/// applications and unknowns with pending substitutions (the constructs the
/// solver pipeline and the interner must agree on even though they cannot be
/// evaluated under a plain model).
fn arb_symbolic_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        arb_bool_term(),
        arb_int_term().prop_map(|t| Term::app("len", vec![t]).ge(Term::int(0))),
        prop_oneof![Just("U0"), Just("U1")].prop_map(Term::unknown),
    ];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(Term::not),
        ]
    })
}

/// Every binary operator, for [`arb_any_term`].
const BIN_OPS: [BinOp; 17] = [
    BinOp::And,
    BinOp::Or,
    BinOp::Implies,
    BinOp::Iff,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Eq,
    BinOp::Neq,
    BinOp::Le,
    BinOp::Lt,
    BinOp::Ge,
    BinOp::Gt,
    BinOp::Union,
    BinOp::Intersect,
    BinOp::Diff,
    BinOp::Member,
    BinOp::Subset,
];

/// A strategy producing terms of every shape, well-sorted or not under
/// [`sort_env`]: variables of each sort and an unbound one, literals,
/// measures (one undeclared), declared and undeclared unknowns, and every
/// operator applied to arbitrary operands.
fn arb_any_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        prop_oneof![Just("x"), Just("p"), Just("s"), Just("a"), Just("unbound")]
            .prop_map(Term::var),
        (-3i64..3).prop_map(Term::int),
        prop_oneof![Just(true), Just(false)].prop_map(Term::Bool),
        Just(Term::EmptySet),
        prop_oneof![Just("U0"), Just("U1")].prop_map(Term::unknown),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..17).prop_map(|(a, b, k)| Term::Binary(
                BIN_OPS[k],
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), 0usize..3).prop_map(|(t, k)| match k {
                0 => Term::Unary(crate::term::UnOp::Not, Box::new(t)),
                1 => Term::Unary(crate::term::UnOp::Neg, Box::new(t)),
                _ => Term::Mul(2, Box::new(t)),
            }),
            inner.clone().prop_map(Term::singleton),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Term::Ite(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            (inner.clone(), 0usize..4).prop_map(|(t, k)| match k {
                0 => Term::app("len", vec![t]),
                1 => Term::app("elems", vec![t]),
                2 => Term::app("numgt", vec![t.clone(), t]),
                _ => Term::app("undeclared", vec![t]),
            }),
        ]
    })
}

/// The sorting environment of [`arb_any_term`].
fn sort_env() -> SortingEnv {
    let mut env = SortingEnv::new();
    env.bind_var("x", Sort::Int)
        .bind_var("p", Sort::Bool)
        .bind_var("s", Sort::Set)
        .bind_var("a", Sort::uninterp("a"))
        .declare_measure("len", vec![Sort::Int], Sort::Int)
        .declare_measure("elems", vec![Sort::Int], Sort::Set)
        .declare_measure("numgt", vec![Sort::uninterp("a"), Sort::Int], Sort::Int)
        .declare_unknown("U0", Sort::Int);
    env
}

/// Chain `operands` into an `op` spine with raw `Binary` nodes (so `true`,
/// `false` and nested spines survive construction), nested to the left or to
/// the right.
fn spine(op: BinOp, left_nested: bool, operands: Vec<Term>) -> Term {
    let link = |a: Term, b: Term| Term::Binary(op, Box::new(a), Box::new(b));
    let spine = if left_nested {
        operands.into_iter().reduce(link)
    } else {
        operands.into_iter().rev().reduce(|acc, t| link(t, acc))
    };
    spine.expect("a spine has an operand")
}

/// A strategy producing long `And`/`Or` spines, the shape of the solver's
/// premise-heavy queries: 40–60 operands, nested to the left or the right,
/// drawn from a small pool (so operands repeat), with occasional
/// `true`/`false` literals and nested spines of either connective.
fn arb_long_spine() -> impl Strategy<Value = Term> {
    let pool = proptest::collection::vec(arb_symbolic_term(), 6..10);
    let picks = proptest::collection::vec(0usize..60, 40..61);
    (pool, picks, 0usize..4).prop_map(|(pool, picks, shape)| {
        let (op, other) = if shape % 2 == 0 {
            (BinOp::And, BinOp::Or)
        } else {
            (BinOp::Or, BinOp::And)
        };
        let left_nested = shape < 2;
        let operands = picks
            .into_iter()
            .map(|k| match k {
                54 => spine(op, !left_nested, pool[..3].to_vec()),
                55 => spine(other, left_nested, pool[1..4].to_vec()),
                56 => spine(other, !left_nested, vec![pool[2].clone(), Term::tt()]),
                57 => Term::tt(),
                58 | 59 => Term::ff(),
                k => pool[k % pool.len()].clone(),
            })
            .collect();
        spine(op, left_nested, operands)
    })
}

/// A strategy producing a branching history of conjunctions over a small
/// fact pool (with `true`, `false` and unknowns in it), plus some of the pool
/// to intern beforehand. Each step is `(from, fact, kind)`: extend the
/// `from`-th conjunction so far by a fact (kind 0), do that and intern the
/// result (kind 1), or intern the `from`-th conjunction again (kind 2). So
/// conjunctions share prefixes, and queries revisit them.
#[allow(clippy::type_complexity)]
fn arb_conj_history() -> impl Strategy<Value = (Vec<Term>, usize, Vec<(usize, usize, usize)>)> {
    let pool = proptest::collection::vec(arb_symbolic_term(), 3..7).prop_map(|mut pool| {
        pool.push(Term::tt());
        pool.push(Term::ff());
        pool
    });
    let steps = proptest::collection::vec((0usize..64, 0usize..64, 0usize..3), 1..40);
    (pool, 0usize..4, steps)
}

fn model(x: i64, y: i64, z: i64) -> Model {
    let mut m = Model::new();
    m.insert("x", Value::Int(x))
        .insert("y", Value::Int(y))
        .insert("z", Value::Int(z));
    m
}

proptest! {
    /// Simplification preserves the value of integer terms.
    #[test]
    fn simplify_preserves_int_semantics(t in arb_int_term(), x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m = model(x, y, z);
        prop_assert_eq!(t.eval_int(&m).unwrap(), t.simplify().eval_int(&m).unwrap());
    }

    /// Simplification preserves the value of boolean terms.
    #[test]
    fn simplify_preserves_bool_semantics(t in arb_bool_term(), x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m = model(x, y, z);
        prop_assert_eq!(t.eval_bool(&m).unwrap(), t.simplify().eval_bool(&m).unwrap());
    }

    /// Substituting a literal and then evaluating equals evaluating with the
    /// binding in the model (substitution lemma at the logic level).
    #[test]
    fn subst_commutes_with_eval(t in arb_bool_term(), x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m_full = model(x, y, z);
        let substituted = t.subst("x", &Term::int(x));
        let m_rest = model(0, y, z); // the x binding is irrelevant after substitution
        prop_assert_eq!(
            t.eval_bool(&m_full).unwrap(),
            substituted.eval_bool(&m_rest).unwrap()
        );
    }

    /// Renaming is reversible when the target name is fresh.
    #[test]
    fn rename_roundtrip(t in arb_bool_term()) {
        let renamed = t.rename("x", "fresh_q");
        prop_assert!(!renamed.mentions("x") || !t.mentions("x"));
        let back = renamed.rename("fresh_q", "x");
        prop_assert_eq!(back.free_vars(), t.free_vars());
    }

    /// Negation is an involution at the semantic level.
    #[test]
    fn double_negation_semantics(t in arb_bool_term(), x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m = model(x, y, z);
        prop_assert_eq!(
            t.eval_bool(&m).unwrap(),
            t.clone().not().not().eval_bool(&m).unwrap()
        );
    }

    /// Substituting a variable that does not occur free leaves the term
    /// unchanged.
    #[test]
    fn subst_of_a_non_free_variable_is_identity(t in arb_bool_term(), k in -10i64..10) {
        prop_assert!(!t.free_vars().contains("unused_w"));
        prop_assert_eq!(t.subst("unused_w", &Term::int(k)), t);
    }

    /// Splitting a term into conjuncts and conjoining them again is
    /// semantically the identity.
    #[test]
    fn conjuncts_reassemble_semantically(t in arb_bool_term(), x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m = model(x, y, z);
        let reassembled = Term::and_all(t.conjuncts());
        prop_assert_eq!(t.eval_bool(&m).unwrap(), reassembled.eval_bool(&m).unwrap());
    }

    /// `and_all` and `or_all` agree with the pointwise evaluation of their
    /// arguments (with the usual empty-case conventions: `true` and `false`).
    #[test]
    fn and_all_or_all_semantics(ts in proptest::collection::vec(arb_bool_term(), 0..4),
                                x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m = model(x, y, z);
        let every: bool = ts.iter().all(|t| t.eval_bool(&m).unwrap());
        let some: bool = ts.iter().any(|t| t.eval_bool(&m).unwrap());
        prop_assert_eq!(Term::and_all(ts.clone()).eval_bool(&m).unwrap(), every);
        prop_assert_eq!(Term::or_all(ts).eval_bool(&m).unwrap(), some);
    }

    /// Multiplication by a constant scales the evaluated value.
    #[test]
    fn times_scales_evaluation(t in arb_int_term(), k in -4i64..4,
                               x in -5i64..5, y in -5i64..5, z in -5i64..5) {
        let m = model(x, y, z);
        prop_assert_eq!(
            t.clone().times(k).eval_int(&m).unwrap(),
            k * t.eval_int(&m).unwrap()
        );
    }

    /// Simplification is idempotent: a second pass is the identity.
    #[test]
    fn simplify_is_idempotent(t in arb_bool_term()) {
        let once = t.simplify();
        prop_assert_eq!(once.simplify(), once);
    }

    /// Simplification is idempotent on terms with measure applications and
    /// unknowns as well.
    #[test]
    fn simplify_is_idempotent_on_symbolic_terms(t in arb_symbolic_term()) {
        let once = t.simplify();
        prop_assert_eq!(once.simplify(), once);
    }

    /// Interning a term and reconstructing it is the identity.
    #[test]
    fn interned_roundtrip_and_metadata_agree(t in arb_symbolic_term()) {
        let mut arena = TermArena::new();
        let id = arena.intern(&t);
        prop_assert_eq!(arena.term(id), t);
    }

    /// The interned simplification pass agrees with the tree implementation,
    /// on random terms and on long spines.
    #[test]
    fn interned_simplify_agrees(t in arb_symbolic_term(), long in arb_long_spine()) {
        for t in [t, long] {
            let mut arena = TermArena::new();
            let id = arena.intern(&t);
            let s = arena.simplify_id(id);
            prop_assert_eq!(arena.term(s), t.simplify());
        }
    }

    /// The interned sorting pass agrees with the tree implementation — the
    /// sort or the error — on well- and ill-sorted terms alike.
    #[test]
    fn interned_sort_agrees(t in arb_any_term()) {
        let env = sort_env();
        let mut arena = TermArena::new();
        let id = arena.intern(&t);
        prop_assert_eq!(arena.sort_of_id(id, &env, 0), env.sort_of(&t));
    }

    /// Interned simplification of an already-simplified term is a fixpoint
    /// (the id-level counterpart of idempotence), on random terms and on
    /// long spines.
    #[test]
    fn interned_simplify_is_idempotent(t in arb_symbolic_term(), long in arb_long_spine()) {
        for t in [t, long] {
            let mut arena = TermArena::new();
            let id = arena.intern(&t);
            let once = arena.simplify_id(id);
            let twice = arena.simplify_id(once);
            prop_assert_eq!(once, twice);
        }
    }

    /// A conjunction interns to the term `Term::and_all(facts)`, and to the
    /// id `intern` gives it on an arena with the same prior contents,
    /// creating the same number of nodes, however its prefixes were
    /// memoized before; and its unknown answer is that of the term.
    #[test]
    fn conjunctions_intern_like_and_all((pool, prior, steps) in arb_conj_history()) {
        let mut memo = TermArena::new();
        let mut reference = TermArena::new();
        for t in &pool[..prior.min(pool.len())] {
            memo.intern(t);
            reference.intern(t);
        }
        let mut conjs = vec![Conj::new()];
        for (from, fact, kind) in steps {
            let mut conj = conjs[from % conjs.len()].clone();
            if kind < 2 {
                conj.push(pool[fact % pool.len()].clone());
            }
            if kind > 0 {
                let term = conj.to_term();
                let id = memo.intern_conj(&conj);
                prop_assert_eq!(id, reference.intern(&term));
                prop_assert_eq!(memo.len(), reference.len());
                prop_assert_eq!(memo.term(id), term);
                prop_assert_eq!(conj.has_unknowns(), term.has_unknowns());
            }
            conjs.push(conj);
        }
    }

    /// The short-circuiting predicates agree with the collecting passes.
    #[test]
    fn term_predicates_agree_with_collections(t in arb_any_term()) {
        prop_assert_eq!(t.has_unknowns(), !t.unknowns().is_empty());
        for m in ["len", "elems", "numgt", "undeclared"] {
            let listed = t.measure_apps().iter().any(|(n, _)| n == m);
            prop_assert_eq!(t.mentions_measure(m), listed);
        }
    }
}
