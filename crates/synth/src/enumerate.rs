//! Enumeration of E-terms and guards.
//!
//! Following the paper's atomic-synthesis rules, candidate E-terms are built
//! from variables, data constructors and component applications in a-normal
//! form, in order of increasing size.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use resyn_budget::Budget;
use resyn_lang::Expr;
use resyn_ty::datatypes::Datatypes;
use resyn_ty::types::Schema;
#[cfg(test)]
use resyn_ty::types::Ty;

use crate::goal::Goal;
use crate::skeleton::Shape;

/// A callable: a component or the function being synthesized.
#[derive(Debug, Clone)]
pub struct Callable {
    /// The callable's name.
    pub name: String,
    /// Shapes of its (scalar) parameters, in order.
    pub params: Vec<Shape>,
    /// Shape of its result.
    pub ret: Shape,
}

/// Extract the callables from a goal (components + the recursive function).
pub fn callables(goal: &Goal) -> Vec<Callable> {
    let mut out = Vec::new();
    let mut add = |name: &str, schema: &Schema| {
        let (params, ret) = schema.ty.uncurry();
        let param_shapes: Option<Vec<Shape>> =
            params.iter().map(|(_, t, _)| Shape::of(t)).collect();
        let ret_shape = Shape::of(&ret);
        if let (Some(params), Some(ret)) = (param_shapes, ret_shape) {
            out.push(Callable {
                name: name.to_string(),
                params,
                ret,
            });
        }
    };
    // The recursive function first, so that recursive calls are tried early.
    add(&goal.name, &goal.schema);
    for (name, schema) in &goal.components {
        add(name, schema);
    }
    out
}

/// Atoms of a given shape available in scope. Integer literals 0 and 1 are
/// included for integer positions.
fn atoms(scope: &[(String, Shape)], shape: &Shape) -> Vec<Expr> {
    let mut out: Vec<Expr> = scope
        .iter()
        .filter(|(_, s)| s.fits(shape))
        .map(|(n, _)| Expr::var(n.clone()))
        .collect();
    if matches!(shape, Shape::Int | Shape::Elem) {
        out.push(Expr::int(0));
        out.push(Expr::int(1));
    }
    out
}

/// All full applications of a callable using atoms from scope (bounded).
/// Returns nothing when the budget runs out mid-product (the intermediate
/// stages hold *partial* applications, which must never leak into the
/// candidate list) — a missing candidate list only shrinks the search.
fn applications(scope: &[(String, Shape)], c: &Callable, cap: usize, budget: &Budget) -> Vec<Expr> {
    let mut arg_choices: Vec<Vec<Expr>> = Vec::new();
    for p in &c.params {
        let opts = atoms(scope, p);
        if opts.is_empty() {
            return Vec::new();
        }
        arg_choices.push(opts);
    }
    let mut results = vec![Expr::var(c.name.clone())];
    for choices in arg_choices {
        if budget.is_exceeded() {
            return Vec::new();
        }
        let mut next = Vec::new();
        for partial in &results {
            for arg in &choices {
                next.push(Expr::app(partial.clone(), arg.clone()));
                if next.len() > cap {
                    break;
                }
            }
            if next.len() > cap {
                break;
            }
        }
        results = next;
    }
    results
}

/// Boolean guard candidates for a scope: applications of boolean-returning
/// callables to scope atoms. Recursive calls are excluded from guards.
pub fn guards(goal: &Goal, scope: &[(String, Shape)], budget: &Budget) -> Vec<Expr> {
    let mut out = Vec::new();
    for c in callables(goal) {
        if budget.is_exceeded() {
            return out;
        }
        if c.name == goal.name || !matches!(c.ret, Shape::Bool) {
            continue;
        }
        for app in applications(scope, &c, 64, budget) {
            // Skip degenerate guards that compare a variable with itself.
            if let Expr::App(f, a) = &app {
                if let Expr::App(_, a0) = &**f {
                    if a0 == a {
                        continue;
                    }
                }
            }
            out.push(app);
        }
    }
    out
}

/// Candidate E-terms for a hole whose result must have shape `ret`, using the
/// variables in `scope`. Generated in rough order of size: variables, nullary
/// constructors, applications (recursive calls first), constructor-around-call
/// terms, and call-around-call terms.
///
/// The cross-products below are where a wide component set makes raw
/// generation time explode (the candidate *cap* bounds the output, not the
/// loops), so every section checks the `budget` and returns the candidates
/// built so far — the caller's own checkpoint then decides whether to stop.
pub fn eterms(
    goal: &Goal,
    datatypes: &Datatypes,
    scope: &[(String, Shape)],
    ret: &Shape,
    cap: usize,
    budget: &Budget,
) -> Vec<Expr> {
    let mut out: Vec<Expr> = Vec::new();
    // Deduplicate in first-occurrence order. `first` maps a kept term's
    // hash to its index in `out`, so a duplicate costs one comparison; only a
    // term whose hash belongs to a different term (a 64-bit collision) falls
    // back to a scan of `out`. No second copy of the terms is kept.
    let mut first: HashMap<u64, usize> = HashMap::new();
    let mut push = |e: Expr, out: &mut Vec<Expr>| {
        if out.len() >= cap {
            return;
        }
        let mut hasher = DefaultHasher::new();
        e.hash(&mut hasher);
        match first.entry(hasher.finish()) {
            Entry::Vacant(slot) => {
                slot.insert(out.len());
                out.push(e);
            }
            Entry::Occupied(slot) => {
                if out[*slot.get()] != e && !out.contains(&e) {
                    out.push(e);
                }
            }
        }
    };

    // 1. Variables of the right shape.
    for (n, s) in scope {
        if s == ret {
            push(Expr::var(n.clone()), &mut out);
        }
    }
    // Integer and boolean results may also be literals.
    if matches!(ret, Shape::Int) {
        push(Expr::int(0), &mut out);
    }
    if matches!(ret, Shape::Bool) {
        push(Expr::bool(true), &mut out);
        push(Expr::bool(false), &mut out);
    }

    // 2. Constructors of the result datatype applied to atoms.
    let ctor_terms: Vec<Expr> = match ret {
        Shape::Data(dname) => ctor_applications(datatypes, dname, scope, budget),
        _ => Vec::new(),
    };
    for e in &ctor_terms {
        push(e.clone(), &mut out);
    }

    // 3. Applications whose result shape matches (recursive function first).
    let calls: Vec<Expr> = callables(goal)
        .iter()
        .filter(|c| !c.params.is_empty() && c.ret.fits(ret))
        .flat_map(|c| applications(scope, c, 128, budget))
        .collect();
    for e in &calls {
        push(e.clone(), &mut out);
    }
    if budget.is_exceeded() {
        return out;
    }

    // 4. Constructor around a call: `let r = f … in C x r` (e.g.
    //    `Cons x (rec xs ys)`).
    if let Shape::Data(dname) = ret {
        if let Some(decl) = datatypes.get(dname) {
            for ctor in &decl.ctors {
                if ctor.args.len() != 2 {
                    continue;
                }
                let head_shape = Shape::of(&ctor.args[0].1).unwrap_or(Shape::Elem);
                let tail_shape = Shape::of(&ctor.args[1].1).unwrap_or(Shape::Elem);
                let heads = atoms(scope, &head_shape);
                for head in &heads {
                    if budget.is_exceeded() {
                        return out;
                    }
                    for call in calls.iter().filter(|_| true) {
                        // Only tail-shaped calls are useful here.
                        let _ = &tail_shape;
                        let e = Expr::let_(
                            "_r",
                            call.clone(),
                            Expr::ctor(ctor.name.clone(), vec![head.clone(), Expr::var("_r")]),
                        );
                        push(e, &mut out);
                        // Two-level constructor around the call:
                        // `let r = f … in C h (C h' r)` (stutter duplicates
                        // its head element this way).
                        for head2 in &heads {
                            let e2 = Expr::let_(
                                "_r",
                                call.clone(),
                                Expr::ctor(
                                    ctor.name.clone(),
                                    vec![
                                        head.clone(),
                                        Expr::ctor(
                                            ctor.name.clone(),
                                            vec![head2.clone(), Expr::var("_r")],
                                        ),
                                    ],
                                ),
                            );
                            push(e2, &mut out);
                        }
                    }
                }
            }
        }
    }

    // 4b. Calls whose integer argument is first transformed by a unary
    //      component: `let _m = dec n in C x (f _m …)` and the bare variant
    //      (needed for replicate, range, take, drop, …).
    let unary_int: Vec<Callable> = callables(goal)
        .into_iter()
        .filter(|c| {
            c.params.len() == 1 && matches!(c.params[0], Shape::Int) && matches!(c.ret, Shape::Int)
        })
        .collect();
    if !unary_int.is_empty() {
        let rec: Vec<Callable> = callables(goal)
            .into_iter()
            .filter(|c| c.ret.fits(ret) && c.params.iter().any(|p| matches!(p, Shape::Int)))
            .collect();
        for f in &rec {
            for (i, p) in f.params.iter().enumerate() {
                if !matches!(p, Shape::Int) {
                    continue;
                }
                for u in &unary_int {
                    if budget.is_exceeded() {
                        return out;
                    }
                    for base in atoms(scope, &Shape::Int) {
                        // Build f a₀ … _m … aₖ with _m in position i.
                        let mut arg_sets: Vec<Vec<Expr>> = Vec::new();
                        for (j, q) in f.params.iter().enumerate() {
                            if j == i {
                                arg_sets.push(vec![Expr::var("_m")]);
                            } else {
                                arg_sets.push(atoms(scope, q));
                            }
                        }
                        if arg_sets.iter().any(Vec::is_empty) {
                            continue;
                        }
                        let mut apps = vec![Expr::var(f.name.clone())];
                        for set in &arg_sets {
                            let mut next = Vec::new();
                            for partial in &apps {
                                for a in set {
                                    next.push(Expr::app(partial.clone(), a.clone()));
                                }
                            }
                            apps = next;
                        }
                        for call in apps {
                            let bound = Expr::let_(
                                "_m",
                                Expr::app(Expr::var(u.name.clone()), base.clone()),
                                call.clone(),
                            );
                            push(bound.clone(), &mut out);
                            // Constructor around it, for list-building recursion.
                            if let Shape::Data(dname) = ret {
                                if let Some(decl) = datatypes.get(dname) {
                                    for ctor in decl.ctors.iter().filter(|c| c.args.len() == 2) {
                                        let head_shape =
                                            Shape::of(&ctor.args[0].1).unwrap_or(Shape::Elem);
                                        for head in atoms(scope, &head_shape) {
                                            let e = Expr::let_(
                                                "_m",
                                                Expr::app(Expr::var(u.name.clone()), base.clone()),
                                                Expr::let_(
                                                    "_r",
                                                    call.clone(),
                                                    Expr::ctor(
                                                        ctor.name.clone(),
                                                        vec![head.clone(), Expr::var("_r")],
                                                    ),
                                                ),
                                            );
                                            push(e, &mut out);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // 5. Call around a call with the inner result as the *last* argument:
    //    `let t = g … in f … t` (e.g. `append l (append l l)`).
    for outer in callables(goal)
        .iter()
        .filter(|c| c.ret.fits(ret) && !c.params.is_empty())
    {
        let Some(last_shape) = outer.params.last() else {
            continue;
        };
        if budget.is_exceeded() {
            return out;
        }
        for inner in &calls {
            // Extend the scope with the inner result bound to `_t`.
            let mut ext = scope.to_vec();
            ext.push(("_t".to_string(), last_shape.clone()));
            let prefix_params = &outer.params[..outer.params.len() - 1];
            let mut partials = vec![Expr::var(outer.name.clone())];
            for p in prefix_params {
                let opts = atoms(scope, p);
                let mut next = Vec::new();
                for f in &partials {
                    for a in &opts {
                        next.push(Expr::app(f.clone(), a.clone()));
                    }
                }
                partials = next;
            }
            for f in partials {
                let e = Expr::let_("_t", inner.clone(), Expr::app(f.clone(), Expr::var("_t")));
                push(e, &mut out);
            }
        }
    }

    // 5b. Call around a call with the inner result as the *first* argument:
    //     `let t = g … in f t …` (e.g. the left-associated
    //     `append' (append' l l) l`, which is the efficient composition when
    //     the component traverses its second argument).
    for outer in callables(goal)
        .iter()
        .filter(|c| c.ret.fits(ret) && c.params.len() >= 2)
    {
        if budget.is_exceeded() {
            return out;
        }
        for inner in &calls {
            let suffix_params = &outer.params[1..];
            let mut partials = vec![Expr::app(Expr::var(outer.name.clone()), Expr::var("_t"))];
            for p in suffix_params {
                let opts = atoms(scope, p);
                let mut next = Vec::new();
                for f in &partials {
                    for a in &opts {
                        next.push(Expr::app(f.clone(), a.clone()));
                    }
                }
                partials = next;
            }
            for f in partials {
                let e = Expr::let_("_t", inner.clone(), f.clone());
                push(e, &mut out);
            }
        }
    }

    // 5c. A binary callable combining *two* recursive calls — the shape of
    //     branching recursion over trees — optionally wrapped in a unary
    //     component or a binary constructor:
    //       `let a = f l in let b = f r in g a b`            (tree-member)
    //       `let a = … in let b = … in let c = g a b in u c` (tree-count)
    //       `let a = … in let b = … in let c = g a b in C x c` (tree-flatten)
    let all = callables(goal);
    let rec_calls: Vec<Expr> = all
        .iter()
        .filter(|c| c.name == goal.name)
        .flat_map(|c| applications(scope, c, 24, budget))
        .collect();
    let rec_ret = all
        .iter()
        .find(|c| c.name == goal.name)
        .map(|c| c.ret.clone());
    if let Some(rec_ret) = rec_ret {
        for g in all.iter().filter(|c| {
            c.name != goal.name
                && c.params.len() == 2
                && rec_ret.fits(&c.params[0])
                && rec_ret.fits(&c.params[1])
        }) {
            let unary_wraps: Vec<&Callable> = all
                .iter()
                .filter(|u| {
                    u.name != goal.name
                        && u.params.len() == 1
                        && g.ret.fits(&u.params[0])
                        && u.ret.fits(ret)
                })
                .collect();
            for a in &rec_calls {
                if budget.is_exceeded() {
                    return out;
                }
                for b in &rec_calls {
                    if a == b {
                        continue;
                    }
                    let bind =
                        |body: Expr| Expr::let_("_a", a.clone(), Expr::let_("_b", b.clone(), body));
                    let combined =
                        Expr::app2(Expr::var(g.name.clone()), Expr::var("_a"), Expr::var("_b"));
                    if g.ret.fits(ret) {
                        push(bind(combined.clone()), &mut out);
                    }
                    for u in &unary_wraps {
                        let e = bind(Expr::let_(
                            "_c",
                            combined.clone(),
                            Expr::app(Expr::var(u.name.clone()), Expr::var("_c")),
                        ));
                        push(e, &mut out);
                    }
                    if let Shape::Data(dname) = ret {
                        if let Some(decl) = datatypes.get(dname) {
                            for ctor in decl.ctors.iter().filter(|c| c.args.len() == 2) {
                                let head_shape = Shape::of(&ctor.args[0].1).unwrap_or(Shape::Elem);
                                for head in atoms(scope, &head_shape) {
                                    let e = bind(Expr::let_(
                                        "_c",
                                        combined.clone(),
                                        Expr::ctor(
                                            ctor.name.clone(),
                                            vec![head.clone(), Expr::var("_c")],
                                        ),
                                    ));
                                    push(e, &mut out);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    out
}

/// Constructor applications of a datatype to scope atoms (including nested
/// two-level constructions such as `ICons x (ICons h t)`).
fn ctor_applications(
    datatypes: &Datatypes,
    dname: &str,
    scope: &[(String, Shape)],
    budget: &Budget,
) -> Vec<Expr> {
    let Some(decl) = datatypes.get(dname) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut simple = Vec::new();
    for ctor in &decl.ctors {
        if ctor.args.is_empty() {
            let e = Expr::ctor(ctor.name.clone(), vec![]);
            simple.push(e.clone());
            out.push(e);
        }
    }
    for ctor in &decl.ctors {
        if ctor.args.is_empty() {
            continue;
        }
        if budget.is_exceeded() {
            return out;
        }
        let shapes: Vec<Shape> = ctor
            .args
            .iter()
            .map(|(_, t)| Shape::of(t).unwrap_or(Shape::Elem))
            .collect();
        let mut args_options: Vec<Vec<Expr>> = Vec::new();
        for s in &shapes {
            let mut opts = atoms(scope, s);
            // Allow nullary constructors (e.g. Nil) and simple one-level
            // constructions in argument positions of the same datatype.
            if let Shape::Data(d) = s {
                if d == dname {
                    opts.extend(simple.clone());
                }
            }
            args_options.push(opts);
        }
        let mut combos = vec![Vec::new()];
        for opts in &args_options {
            let mut next = Vec::new();
            for combo in &combos {
                for o in opts {
                    let mut c = combo.clone();
                    c.push(o.clone());
                    next.push(c);
                }
            }
            combos = next;
        }
        for combo in combos {
            out.push(Expr::ctor(ctor.name.clone(), combo));
        }
    }
    // Two-level: C a (C b c) for binary constructors.
    let one_level = out.clone();
    for ctor in &decl.ctors {
        if ctor.args.len() != 2 {
            continue;
        }
        if budget.is_exceeded() {
            return out;
        }
        let head_shape = Shape::of(&ctor.args[0].1).unwrap_or(Shape::Elem);
        for head in atoms(scope, &head_shape) {
            for inner in &one_level {
                if matches!(inner, Expr::Ctor(n, args) if n == &ctor.name && args.len() == 2) {
                    out.push(Expr::ctor(
                        ctor.name.clone(),
                        vec![head.clone(), inner.clone()],
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;
    use resyn_ty::types::BaseType;

    fn simple_goal() -> Goal {
        let leq = Schema::poly(
            vec!["a"],
            Ty::fun(
                vec![("x", Ty::tvar("a")), ("y", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(Term::var("x").le(Term::var("y"))),
                ),
            ),
        );
        Goal::new(
            "insert",
            Schema::poly(
                vec!["a"],
                Ty::fun(
                    vec![
                        ("x", Ty::tvar("a")),
                        ("xs", Ty::data("IList", vec![Ty::tvar("a")])),
                    ],
                    Ty::data("IList", vec![Ty::tvar("a")]),
                ),
            ),
            vec![("leq", leq)],
        )
    }

    #[test]
    fn callables_include_the_recursive_function_first() {
        let cs = callables(&simple_goal());
        assert_eq!(cs[0].name, "insert");
        assert_eq!(cs[0].params.len(), 2);
        assert!(cs.iter().any(|c| c.name == "leq" && c.ret == Shape::Bool));
    }

    #[test]
    fn guards_apply_boolean_components_to_scope_atoms() {
        let goal = simple_goal();
        let scope = vec![
            ("x".to_string(), Shape::Elem),
            ("h".to_string(), Shape::Elem),
        ];
        let gs = guards(&goal, &scope, &Budget::unlimited());
        assert!(gs.contains(&Expr::app2(
            Expr::var("leq"),
            Expr::var("x"),
            Expr::var("h")
        )));
        // No self-comparisons.
        assert!(!gs.contains(&Expr::app2(
            Expr::var("leq"),
            Expr::var("x"),
            Expr::var("x")
        )));
    }

    #[test]
    fn eterms_cover_both_compositions_of_a_binary_component() {
        // `triple` needs `append l (append l l)`; `triple'` (whose append
        // traverses its second argument) needs the left-associated
        // `append (append l l) l`. Both let-bound shapes must be enumerated.
        let append = Schema::poly(
            vec!["a"],
            Ty::fun(
                vec![
                    ("xs", Ty::list(Ty::tvar("a"))),
                    ("ys", Ty::list(Ty::tvar("a"))),
                ],
                Ty::list(Ty::tvar("a")),
            ),
        );
        let goal = Goal::new(
            "triple",
            Schema::mono(Ty::fun(
                vec![("l", Ty::list(Ty::int()))],
                Ty::list(Ty::int()),
            )),
            vec![("append", append)],
        );
        let datatypes = Datatypes::standard();
        let scope = vec![("l".to_string(), Shape::Data("List".into()))];
        let es = eterms(
            &goal,
            &datatypes,
            &scope,
            &Shape::Data("List".into()),
            4000,
            &Budget::unlimited(),
        );
        let inner = Expr::app2(Expr::var("append"), Expr::var("l"), Expr::var("l"));
        let right_assoc = Expr::let_(
            "_t",
            inner.clone(),
            Expr::app2(Expr::var("append"), Expr::var("l"), Expr::var("_t")),
        );
        let left_assoc = Expr::let_(
            "_t",
            inner,
            Expr::app2(Expr::var("append"), Expr::var("_t"), Expr::var("l")),
        );
        assert!(
            es.contains(&right_assoc),
            "missing inner-call-last composition"
        );
        assert!(
            es.contains(&left_assoc),
            "missing inner-call-first composition"
        );
    }

    #[test]
    fn an_expired_budget_truncates_generation_to_the_cheap_prefix() {
        let goal = simple_goal();
        let datatypes = Datatypes::standard();
        let scope = vec![
            ("x".to_string(), Shape::Elem),
            ("xs".to_string(), Shape::Data("IList".into())),
        ];
        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        let es = eterms(
            &goal,
            &datatypes,
            &scope,
            &Shape::Data("IList".into()),
            4000,
            &expired,
        );
        // The cheap prefix (variables, nullary constructors) may survive,
        // but none of the cross-product sections may run: no applications,
        // no let-bound compositions.
        assert!(
            es.iter()
                .all(|e| !matches!(e, Expr::Let(..) | Expr::App(..))),
            "cross-product sections must not run under an expired budget: {es:?}"
        );
        assert!(guards(&goal, &scope, &expired).is_empty());
    }

    #[test]
    fn eterms_cover_the_insert_branch_bodies() {
        let goal = simple_goal();
        let datatypes = Datatypes::standard();
        let scope = vec![
            ("x".to_string(), Shape::Elem),
            ("xs".to_string(), Shape::Data("IList".into())),
            ("h".to_string(), Shape::Elem),
            ("t".to_string(), Shape::Data("IList".into())),
        ];
        let es = eterms(
            &goal,
            &datatypes,
            &scope,
            &Shape::Data("IList".into()),
            4000,
            &Budget::unlimited(),
        );
        // The recursive-call-in-constructor term needed for insert's else
        // branch is generated.
        let wanted = Expr::let_(
            "_r",
            Expr::app2(Expr::var("insert"), Expr::var("x"), Expr::var("t")),
            Expr::ctor("ICons", vec![Expr::var("h"), Expr::var("_r")]),
        );
        assert!(es.contains(&wanted), "missing recursive cons candidate");
        // And the two-level reconstruction for the then branch.
        let wanted2 = Expr::ctor(
            "ICons",
            vec![
                Expr::var("x"),
                Expr::ctor("ICons", vec![Expr::var("h"), Expr::var("t")]),
            ],
        );
        assert!(es.contains(&wanted2), "missing two-level constructor");
    }
}
