//! Shape-reachability analysis of component libraries.
//!
//! The enumerator (`resyn-synth`) builds candidate E-terms from a fixed
//! repertoire of syntactic positions, each of which constrains where values
//! can come from and where results can go:
//!
//! * application arguments are filled from scope *atoms* — goal parameters,
//!   match binders, and the integer literals `0`/`1` for `Int`/`Elem`
//!   positions;
//! * application results must fit the hole shape (always the goal's return
//!   shape) or be booleans used as guards;
//! * a handful of let-bound compositions additionally feed a call result into
//!   the *first* or *last* argument of another component, feed recursive-call
//!   results into both arguments of a binary combiner (optionally post-
//!   processed by a unary component), and pre-transform integer arguments
//!   with a unary `Int -> Int` component.
//!
//! This module runs the same analysis symbolically, over shapes instead of
//! terms. The **forward** direction computes the set of producible scope
//! shapes as a fixpoint: goal parameter shapes, closed under match-binder
//! expansion (a datatype in scope puts every constructor-argument shape in
//! scope). The **backward** direction starts from the goal's return shape
//! (plus `Bool` for guards) and asks, per enumeration site, whether the
//! component's result could ever be consumed there. A component survives only
//! if some site can both fill its arguments and consume its result.
//!
//! Soundness: the per-site conditions are *implied* by the corresponding
//! generation code paths in `resyn_synth::enumerate` — each condition is
//! necessary for that site to emit at least one candidate mentioning the
//! component. A dropped component therefore contributes zero candidates to
//! every hole and every guard: no synthesized program can call it, which is
//! what makes `resyn lint`'s `unreachable-component` warning trustworthy.

use std::collections::{BTreeMap, BTreeSet};

use resyn_ty::datatypes::Datatypes;
use resyn_ty::shape::Shape;
use resyn_ty::types::Schema;

/// Why the analysis drops a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The component's signature has no base-type shape (a higher-order
    /// parameter or result); the enumerator never applies such components.
    NoShape,
    /// No enumeration site can consume the component's result: it does not
    /// fit the goal's return shape, it is not a boolean guard, and no
    /// composition site accepts it.
    UnconsumableResult,
    /// Some argument position can never be filled: no scope shape fits it,
    /// it admits no literal, and no composition site feeds it.
    UnproducibleArguments,
}

impl DropReason {
    /// A short human-readable explanation.
    pub fn describe(&self) -> &'static str {
        match self {
            DropReason::NoShape => "its signature is higher-order, which the enumerator never applies",
            DropReason::UnconsumableResult => {
                "its result fits neither the goal's return shape nor any guard or composition site"
            }
            DropReason::UnproducibleArguments => {
                "some argument can never be produced from the goal's parameters, match binders or literals"
            }
        }
    }
}

/// The result of the reachability analysis over one goal's library.
#[derive(Debug, Clone)]
pub struct PruneReport {
    /// Number of components in the library.
    pub library_size: usize,
    /// Names of the components that survive.
    pub kept: BTreeSet<String>,
    /// Dropped components with the reason each was dropped.
    pub dropped: Vec<(String, DropReason)>,
    /// The forward fixpoint: every shape producible as a scope atom.
    pub scope_shapes: BTreeSet<Shape>,
}

impl PruneReport {
    /// Number of components that survive.
    pub fn pruned_size(&self) -> usize {
        self.kept.len()
    }

    /// Whether the named component survives.
    pub fn is_kept(&self, name: &str) -> bool {
        self.kept.contains(name)
    }
}

/// The forward pass: close the goal-parameter shapes under match-binder
/// expansion. Matching a datatype value brings every constructor-argument
/// shape into scope (nested matches and tail re-matches only ever destruct
/// values already in this set, so one closure covers them all).
fn scope_closure(seed: impl IntoIterator<Item = Shape>, datatypes: &Datatypes) -> BTreeSet<Shape> {
    let mut set: BTreeSet<Shape> = seed.into_iter().collect();
    let mut work: Vec<String> = set
        .iter()
        .filter_map(|s| match s {
            Shape::Data(d) => Some(d.clone()),
            _ => None,
        })
        .collect();
    while let Some(d) = work.pop() {
        let Some(decl) = datatypes.get(&d) else {
            continue;
        };
        for ctor in &decl.ctors {
            for (_, ty) in &ctor.args {
                // Mirrors the enumerator's binder shaping, which falls back to
                // `Elem` for unshapeable constructor arguments.
                let s = Shape::of(ty).unwrap_or(Shape::Elem);
                if set.insert(s.clone()) {
                    if let Shape::Data(d2) = s {
                        work.push(d2);
                    }
                }
            }
        }
    }
    set
}

/// Shapes of a callable signature, mirroring `enumerate::callables`: `None`
/// when any parameter or the result is higher-order.
fn callable_shapes(schema: &Schema) -> Option<(Vec<Shape>, Shape)> {
    let (params, ret) = schema.ty.uncurry();
    let ps: Option<Vec<Shape>> = params.iter().map(|(_, t, _)| Shape::of(t)).collect();
    Some((ps?, Shape::of(&ret)?))
}

/// Run the reachability analysis for one goal over its component library.
///
/// Returns a report naming the surviving components. When the goal's return
/// type has no shape the analysis keeps everything (synthesis refuses such
/// goals before enumerating anyway).
pub fn analyze(
    goal: &Schema,
    components: &BTreeMap<String, Schema>,
    datatypes: &Datatypes,
) -> PruneReport {
    let (gparams, gret) = goal.ty.uncurry();
    let Some(goal_ret) = Shape::of(&gret) else {
        return PruneReport {
            library_size: components.len(),
            kept: components.keys().cloned().collect(),
            dropped: Vec::new(),
            scope_shapes: BTreeSet::new(),
        };
    };

    let param_shapes: Vec<Shape> = gparams
        .iter()
        .filter_map(|(_, t, _)| Shape::of(t))
        .collect();
    let scope = scope_closure(param_shapes, datatypes);
    let rec = callable_shapes(goal);

    let shaped: BTreeMap<&String, (Vec<Shape>, Shape)> = components
        .iter()
        .filter_map(|(n, s)| callable_shapes(s).map(|x| (n, x)))
        .collect();

    // An argument position is fillable from atoms when a scope shape fits it
    // or when it admits the integer literals 0/1.
    let fillable =
        |p: &Shape| matches!(p, Shape::Int | Shape::Elem) || scope.iter().any(|s| s.fits(p));

    // A binary component is a §5c combiner when recursive-call results fit
    // both of its arguments (the enumerator builds `g _a _b` unconditionally
    // from two recursive calls).
    let combiner = |params: &[Shape]| {
        rec.as_ref().is_some_and(|(_, rret)| {
            params.len() == 2 && rret.fits(&params[0]) && rret.fits(&params[1])
        })
    };
    let combiner_rets: Vec<Shape> = shaped
        .values()
        .filter(|(ps, _)| combiner(ps))
        .map(|(_, r)| r.clone())
        .collect();

    let mut kept = BTreeSet::new();
    let mut dropped = Vec::new();
    for name in components.keys() {
        let Some((params, ret)) = shaped.get(name) else {
            dropped.push((name.clone(), DropReason::NoShape));
            continue;
        };
        let all_fillable = params.iter().all(fillable);
        let ret_fits = ret.fits(&goal_ret);
        // §1–4 applications and §4b integer pre-transforms: every argument
        // from atoms, result fits the hole.
        let plain_application = !params.is_empty() && all_fillable && ret_fits;
        // Guards: boolean-returning applications with atom arguments
        // (zero-parameter boolean components also surface here).
        let guard = *ret == Shape::Bool && all_fillable;
        // §5 / §5b let-compositions: the last (resp. first) argument is fed
        // by an inner call, all other arguments from atoms.
        let composed_last =
            !params.is_empty() && ret_fits && params[..params.len() - 1].iter().all(fillable);
        let composed_first = params.len() >= 2 && ret_fits && params[1..].iter().all(fillable);
        // §5c: a binary combiner of two recursive calls, or the unary
        // post-processor applied to a combiner's result.
        let combiner_g = combiner(params);
        let combiner_u =
            params.len() == 1 && ret_fits && combiner_rets.iter().any(|gr| gr.fits(&params[0]));
        // §4b: a unary `Int -> Int` transform of an integer argument.
        let int_transform = params.len() == 1 && params[0] == Shape::Int && *ret == Shape::Int;

        if plain_application
            || guard
            || composed_last
            || composed_first
            || combiner_g
            || combiner_u
            || int_transform
        {
            kept.insert(name.clone());
        } else {
            let reason = if ret_fits || *ret == Shape::Bool {
                DropReason::UnproducibleArguments
            } else {
                DropReason::UnconsumableResult
            };
            dropped.push((name.clone(), reason));
        }
    }

    PruneReport {
        library_size: components.len(),
        kept,
        dropped,
        scope_shapes: scope,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_ty::types::{BaseType, Ty};

    fn list(elem: &str) -> Ty {
        Ty::data("List", vec![Ty::tvar(elem)])
    }

    fn tree(elem: &str) -> Ty {
        Ty::data("Tree", vec![Ty::tvar(elem)])
    }

    fn list_goal() -> Schema {
        Schema::poly(
            vec!["a"],
            Ty::fun(vec![("xs", list("a")), ("ys", list("a"))], list("a")),
        )
    }

    fn comp(params: Vec<(&str, Ty)>, ret: Ty) -> Schema {
        Schema::poly(vec!["a"], Ty::fun(params, ret))
    }

    fn lib(entries: Vec<(&str, Schema)>) -> BTreeMap<String, Schema> {
        entries
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .collect()
    }

    #[test]
    fn keeps_applicable_and_live_components() {
        let components = lib(vec![
            (
                "append",
                comp(vec![("xs", list("a")), ("ys", list("a"))], list("a")),
            ),
            (
                "leq",
                comp(
                    vec![("x", Ty::tvar("a")), ("y", Ty::tvar("a"))],
                    Ty::refined(BaseType::Bool, resyn_logic::Term::tt()),
                ),
            ),
            ("dec", comp(vec![("n", Ty::int())], Ty::int())),
        ]);
        let report = analyze(&list_goal(), &components, &Datatypes::standard());
        assert_eq!(report.kept.len(), 3, "dropped: {:?}", report.dropped);
        assert!(report.dropped.is_empty());
    }

    #[test]
    fn prunes_foreign_datatype_components() {
        let components = lib(vec![
            (
                "append",
                comp(vec![("xs", list("a")), ("ys", list("a"))], list("a")),
            ),
            // Result never consumed: Tree does not fit the List hole.
            ("mirror", comp(vec![("t", tree("a"))], tree("a"))),
            // Result fits, but no enumeration site can build a Tree argument
            // for both positions.
            (
                "merge_trees",
                comp(vec![("t", tree("a")), ("u", tree("a"))], list("a")),
            ),
            // Boolean guard over trees: arguments unproducible.
            (
                "tree_eq",
                comp(
                    vec![("t", tree("a")), ("u", tree("a"))],
                    Ty::refined(BaseType::Bool, resyn_logic::Term::tt()),
                ),
            ),
        ]);
        let report = analyze(&list_goal(), &components, &Datatypes::standard());
        assert!(report.is_kept("append"));
        assert!(!report.is_kept("mirror"));
        assert!(!report.is_kept("merge_trees"));
        assert!(!report.is_kept("tree_eq"));
        let reasons: BTreeMap<_, _> = report.dropped.iter().cloned().collect();
        assert_eq!(reasons["mirror"], DropReason::UnconsumableResult);
        assert_eq!(reasons["merge_trees"], DropReason::UnproducibleArguments);
        assert_eq!(reasons["tree_eq"], DropReason::UnproducibleArguments);
    }

    #[test]
    fn composition_sites_keep_partially_fillable_components() {
        // The enumerator feeds an inner call into the *last* or *first*
        // argument without shape-checking it, so these must survive.
        let components = lib(vec![
            (
                "last_fed",
                comp(vec![("xs", list("a")), ("t", tree("a"))], list("a")),
            ),
            (
                "first_fed",
                comp(vec![("t", tree("a")), ("xs", list("a"))], list("a")),
            ),
        ]);
        let report = analyze(&list_goal(), &components, &Datatypes::standard());
        assert!(report.is_kept("last_fed"));
        assert!(report.is_kept("first_fed"));
    }

    #[test]
    fn match_binders_extend_the_scope() {
        // An element-consuming component is reachable because matching a list
        // parameter binds an Elem head, and Int/Elem admit literals anyway.
        let components = lib(vec![("inc", comp(vec![("n", Ty::int())], Ty::int()))]);
        let goal = Schema::poly(vec!["a"], Ty::fun(vec![("xs", list("a"))], Ty::int()));
        let report = analyze(&goal, &components, &Datatypes::standard());
        assert!(report.is_kept("inc"));
        assert!(report.scope_shapes.contains(&Shape::Elem));
        assert!(report.scope_shapes.contains(&Shape::Data("List".into())));
    }

    #[test]
    fn higher_order_components_are_dropped_as_unshaped() {
        let hof = Schema::poly(
            vec!["a"],
            Ty::fun(vec![("f", Ty::arrow("x", Ty::int(), Ty::int()))], list("a")),
        );
        let components = lib(vec![("map_like", hof)]);
        let report = analyze(&list_goal(), &components, &Datatypes::standard());
        assert!(!report.is_kept("map_like"));
        assert_eq!(report.dropped[0].1, DropReason::NoShape);
    }

    #[test]
    fn higher_order_goal_parameters_disable_recursion_paths() {
        // A goal with a higher-order parameter is dropped by `callables`
        // entirely, so the recursive-combiner sites must not fire; ordinary
        // applicability still holds for the rest of the library.
        let goal = Schema::poly(
            vec!["a"],
            Ty::fun(
                vec![
                    ("f", Ty::arrow("x", Ty::int(), Ty::int())),
                    ("xs", list("a")),
                ],
                list("a"),
            ),
        );
        let components = lib(vec![
            (
                "append",
                comp(vec![("xs", list("a")), ("ys", list("a"))], list("a")),
            ),
            ("mirror", comp(vec![("t", tree("a"))], tree("a"))),
        ]);
        let report = analyze(&goal, &components, &Datatypes::standard());
        assert!(report.is_kept("append"));
        assert!(!report.is_kept("mirror"));
    }
}
