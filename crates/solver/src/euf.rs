//! Congruence axioms for uninterpreted (measure) applications.
//!
//! [`congruence_axioms`] instantiates the congruence axiom
//! `args₁ = args₂ ⟹ f(args₁) = f(args₂)` for every pair of applications of
//! the same measure occurring in a formula. This mirrors the paper's §4.3:
//! *"to handle measure applications in resource constraints, we replace them
//! with fresh integer variables, and avoid spurious counter-examples by
//! explicitly instantiating the congruence axiom with all applications in the
//! constraint."* The same instantiation makes the lazy DPLL(T) loop complete
//! for the measure fragment of validity constraints.

use resyn_logic::intern::Node;
use resyn_logic::{BinOp, FxHashSet, Sort, SortingEnv, TermArena, TermId};

/// Instantiate congruence axioms for every pair of same-measure applications
/// in the interned `formula` whose arguments could plausibly be equated by
/// the formula. Sorts are read under `env`, memoized under `env_key` (see
/// [`TermArena::sort_of_id`]).
///
/// Applications of different measures, or with different arities, are ignored.
/// A pair is *relevant* when each pair of corresponding arguments is either
/// syntactically equal or connected by an equality atom occurring in the
/// formula; irrelevant pairs cannot give rise to congruence reasoning and
/// instantiating them only bloats the boolean search. The equality of
/// arguments/results uses plain `=`, which the SMT layer later normalizes per
/// sort. Applications are paired in the order of their first occurrence in a
/// left-to-right, arguments-first traversal.
pub fn congruence_axioms(
    arena: &mut TermArena,
    formula: TermId,
    env: &SortingEnv,
    env_key: u64,
) -> Vec<TermId> {
    let mut walk = Walk::default();
    walk.visit(arena, formula);
    let Walk {
        apps, equalities, ..
    } = walk;
    let related = |a: TermId, b: TermId| {
        a == b || equalities.contains(&(a, b)) || equalities.contains(&(b, a))
    };
    let mut axioms = Vec::new();
    for (i, &app_a) in apps.iter().enumerate() {
        for &app_b in &apps[i + 1..] {
            let (Node::App(name_a, args_a), Node::App(name_b, args_b)) =
                (arena.node(app_a), arena.node(app_b))
            else {
                unreachable!("only applications are collected");
            };
            if name_a != name_b || args_a.len() != args_b.len() {
                continue;
            }
            if args_a == args_b {
                continue; // syntactically identical: alias to the same variable
            }
            if !args_a.iter().zip(args_b).all(|(&a, &b)| related(a, b)) {
                continue;
            }
            let pairs: Vec<(TermId, TermId)> =
                args_a.iter().copied().zip(args_b.iter().copied()).collect();
            // Arguments must be comparable (skip set-sorted arguments).
            if pairs
                .iter()
                .any(|&(x, _)| matches!(arena.sort_of_id(x, env, env_key), Ok(Sort::Set)))
            {
                continue;
            }
            let hyps: Vec<TermId> = pairs
                .into_iter()
                .map(|(x, y)| arena.binary_id(BinOp::Eq, x, y))
                .collect();
            let hyp = arena.and_all_id(hyps);
            let conclusion = arena.binary_id(BinOp::Eq, app_a, app_b);
            axioms.push(arena.implies_id(hyp, conclusion));
        }
    }
    axioms
}

/// One pass over a formula's DAG collecting its measure applications (in
/// first-occurrence order) and the operand pairs of its equality atoms.
#[derive(Default)]
struct Walk {
    seen: FxHashSet<TermId>,
    apps: Vec<TermId>,
    equalities: FxHashSet<(TermId, TermId)>,
}

impl Walk {
    /// Visit `id` and, the first time only, everything below it: a repeated
    /// subterm contributes no application or equality its first visit did
    /// not, so skipping it keeps the first-occurrence order.
    fn visit(&mut self, arena: &TermArena, id: TermId) {
        if !self.seen.insert(id) {
            return;
        }
        let node = arena.node(id);
        if let Node::Binary(BinOp::Eq, a, b) = node {
            self.equalities.insert((*a, *b));
        }
        node.for_each_child(|child| self.visit(arena, child));
        if let Node::App(_, _) = node {
            self.apps.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;

    fn env() -> SortingEnv {
        let mut e = SortingEnv::new();
        e.bind_var("x", Sort::Int)
            .bind_var("y", Sort::Int)
            .bind_var("xs", Sort::Int)
            .bind_var("ys", Sort::Int)
            .declare_measure("len", vec![Sort::Int], Sort::Int)
            .declare_measure("elems", vec![Sort::Int], Sort::Set);
        e
    }

    fn axioms_of(f: &Term) -> Vec<Term> {
        let mut arena = TermArena::new();
        let id = arena.intern(f);
        congruence_axioms(&mut arena, id, &env(), 0)
            .into_iter()
            .map(|ax| arena.term(ax))
            .collect()
    }

    #[test]
    fn congruence_axioms_for_same_measure_pairs() {
        // The formula equates xs and ys, so the len(xs)/len(ys) pair is
        // relevant and produces an axiom (the elems app has no partner).
        let f = Term::var("xs")
            .eq_(Term::var("ys"))
            .and(
                Term::app("len", vec![Term::var("xs")]).le(Term::app("len", vec![Term::var("ys")])),
            )
            .and(Term::app("elems", vec![Term::var("xs")]).eq_(Term::EmptySet));
        let axioms = axioms_of(&f);
        assert_eq!(axioms.len(), 1);
        let expected = Term::var("xs").eq_(Term::var("ys")).implies(
            Term::app("len", vec![Term::var("xs")]).eq_(Term::app("len", vec![Term::var("ys")])),
        );
        assert_eq!(axioms[0], expected);
    }

    #[test]
    fn irrelevant_pairs_are_not_instantiated() {
        // Without any equality connecting xs and ys, no axiom is produced.
        let f = Term::app("len", vec![Term::var("xs")]).le(Term::app("len", vec![Term::var("ys")]));
        assert!(axioms_of(&f).is_empty());
    }

    #[test]
    fn identical_applications_need_no_axiom() {
        let f = Term::app("len", vec![Term::var("xs")])
            .le(Term::app("len", vec![Term::var("xs")]) + Term::int(1));
        assert!(axioms_of(&f).is_empty());
    }
}
