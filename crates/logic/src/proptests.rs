//! Property-based tests for the refinement logic.

use proptest::prelude::*;

use crate::eval::{Model, Value};
use crate::intern::TermArena;
use crate::term::Term;

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

    /// Interning a term and reconstructing it is the identity, and the cached
    /// free-variable and unknown metadata match the tree computations.
    #[test]
    fn interned_roundtrip_and_metadata_agree(t in arb_symbolic_term()) {
        let mut arena = TermArena::new();
        let id = arena.intern(&t);
        prop_assert_eq!(arena.term(id), t.clone());
        prop_assert_eq!(arena.free_vars(id).clone(), t.free_vars());
        prop_assert_eq!(arena.has_unknowns(id), t.has_unknowns());
    }

    /// The interned simplification pass agrees with the tree implementation.
    #[test]
    fn interned_simplify_agrees(t in arb_symbolic_term()) {
        let mut arena = TermArena::new();
        let id = arena.intern(&t);
        let s = arena.simplify_id(id);
        prop_assert_eq!(arena.term(s), t.simplify());
    }

    /// Interned simplification of an already-simplified term is a fixpoint
    /// (the id-level counterpart of idempotence).
    #[test]
    fn interned_simplify_is_idempotent(t in arb_symbolic_term()) {
        let mut arena = TermArena::new();
        let id = arena.intern(&t);
        let once = arena.simplify_id(id);
        let twice = arena.simplify_id(once);
        prop_assert_eq!(once, twice);
    }
}
