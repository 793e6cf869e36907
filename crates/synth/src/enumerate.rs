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

/// Every way to pick one expression from each list, the first list varying
/// slowest. At most `cap + 1` picks are kept after each list, so a capped
/// product stays cheap however wide its lists are.
fn product(lists: &[Vec<Expr>], cap: usize) -> Vec<Vec<Expr>> {
    let mut picks = vec![Vec::new()];
    for list in lists {
        let mut next = Vec::new();
        'picks: for pick in &picks {
            for e in list {
                next.push([pick.as_slice(), std::slice::from_ref(e)].concat());
                if next.len() > cap {
                    break 'picks;
                }
            }
        }
        picks = next;
    }
    picks
}

/// `f a₀ … aₖ`.
fn call(f: &str, args: Vec<Expr>) -> Expr {
    args.into_iter().fold(Expr::var(f), Expr::app)
}

/// `C head tail`.
fn wrap(ctor: &str, head: &Expr, tail: Expr) -> Expr {
    Expr::ctor(ctor, vec![head.clone(), tail])
}

/// All full applications of a callable using atoms from scope (bounded).
/// Returns nothing when the budget has run out.
fn applications(scope: &[(String, Shape)], c: &Callable, cap: usize, budget: &Budget) -> Vec<Expr> {
    if budget.is_exceeded() {
        return Vec::new();
    }
    let lists: Vec<Vec<Expr>> = c.params.iter().map(|p| atoms(scope, p)).collect();
    product(&lists, cap)
        .into_iter()
        .map(|args| call(&c.name, args))
        .collect()
}

/// Every application of a callable to scope atoms with the variable `var`
/// as its argument at position `slot`.
fn applications_with(scope: &[(String, Shape)], c: &Callable, slot: usize, var: &str) -> Vec<Expr> {
    let mut lists: Vec<Vec<Expr>> = c.params.iter().map(|p| atoms(scope, p)).collect();
    lists[slot] = vec![Expr::var(var)];
    product(&lists, usize::MAX)
        .into_iter()
        .map(|args| call(&c.name, args))
        .collect()
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

    let cs = callables(goal);
    // Each binary constructor of the result datatype with the atoms that fit
    // its head: the ways to put a value in front of a result, `C h r`.
    let wraps: Vec<(&str, Vec<Expr>)> = match ret {
        Shape::Data(dname) => datatypes
            .get(dname)
            .map(|decl| {
                decl.ctors
                    .iter()
                    .filter(|c| c.args.len() == 2)
                    .map(|c| {
                        let head = Shape::of(&c.args[0].1).unwrap_or(Shape::Elem);
                        (c.name.as_str(), atoms(scope, &head))
                    })
                    .collect()
            })
            .unwrap_or_default(),
        _ => Vec::new(),
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

    // 2. Constructors of the result datatype applied to atoms, then each
    //    binary one around those of its own constructor (`ICons x (ICons h
    //    t)`).
    let ctor_terms: Vec<Expr> = match ret {
        Shape::Data(dname) => ctor_applications(datatypes, dname, scope, budget),
        _ => Vec::new(),
    };
    for e in &ctor_terms {
        push(e.clone(), &mut out);
    }
    for (ctor, heads) in &wraps {
        if budget.is_exceeded() {
            return out;
        }
        for head in heads {
            for inner in &ctor_terms {
                if matches!(inner, Expr::Ctor(n, args) if n == ctor && args.len() == 2) {
                    push(wrap(ctor, head, inner.clone()), &mut out);
                }
            }
        }
    }

    // 3. Applications whose result shape matches (recursive function first).
    let calls: Vec<Expr> = cs
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

    // 4. Constructor around a call, once or twice: `let r = f … in C x r`
    //    (e.g. `Cons x (rec xs ys)`) and `let r = f … in C h (C h' r)`
    //    (stutter duplicates its head element this way).
    for (ctor, heads) in &wraps {
        for head in heads {
            if budget.is_exceeded() {
                return out;
            }
            for call in &calls {
                let bind = |body: Expr| Expr::let_("_r", call.clone(), body);
                push(bind(wrap(ctor, head, Expr::var("_r"))), &mut out);
                for head2 in heads {
                    let twice = wrap(ctor, head, wrap(ctor, head2, Expr::var("_r")));
                    push(bind(twice), &mut out);
                }
            }
        }
    }

    // 4b. Calls whose integer argument is first transformed by a unary
    //      component: `let _m = dec n in f … _m …` and the same call under a
    //      binary constructor (needed for replicate, range, take, drop, …).
    let unary_int: Vec<&Callable> = cs
        .iter()
        .filter(|c| c.params == [Shape::Int] && c.ret == Shape::Int)
        .collect();
    if !unary_int.is_empty() {
        for f in cs.iter().filter(|c| c.ret.fits(ret)) {
            for (i, p) in f.params.iter().enumerate() {
                if *p != Shape::Int {
                    continue;
                }
                let m_calls = applications_with(scope, f, i, "_m");
                for u in &unary_int {
                    if budget.is_exceeded() {
                        return out;
                    }
                    for base in atoms(scope, &Shape::Int) {
                        let bind = |body: Expr| {
                            Expr::let_(
                                "_m",
                                Expr::app(Expr::var(u.name.clone()), base.clone()),
                                body,
                            )
                        };
                        for call in &m_calls {
                            push(bind(call.clone()), &mut out);
                            for (ctor, heads) in &wraps {
                                for head in heads {
                                    let e = Expr::let_(
                                        "_r",
                                        call.clone(),
                                        wrap(ctor, head, Expr::var("_r")),
                                    );
                                    push(bind(e), &mut out);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // 5. Call around a call, with the inner result `_t` as the outer call's
    //    *last* argument, `let t = g … in f … t` (e.g. `append l (append l
    //    l)`), then as its *first*, `let t = g … in f t …` (the
    //    left-associated `append' (append' l l) l`, which is the efficient
    //    composition when the component traverses its second argument).
    for t_first in [false, true] {
        let min_params = if t_first { 2 } else { 1 };
        for outer in cs
            .iter()
            .filter(|c| c.ret.fits(ret) && c.params.len() >= min_params)
        {
            if budget.is_exceeded() {
                return out;
            }
            let slot = if t_first { 0 } else { outer.params.len() - 1 };
            let outer_calls = applications_with(scope, outer, slot, "_t");
            for inner in &calls {
                for f in &outer_calls {
                    push(Expr::let_("_t", inner.clone(), f.clone()), &mut out);
                }
            }
        }
    }

    // 5c. A binary callable combining *two* recursive calls — the shape of
    //     branching recursion over trees — optionally wrapped in a unary
    //     component or a binary constructor:
    //       `let a = f l in let b = f r in g a b`            (tree-member)
    //       `let a = … in let b = … in let c = g a b in u c` (tree-count)
    //       `let a = … in let b = … in let c = g a b in C x c` (tree-flatten)
    let rec_calls: Vec<Expr> = cs
        .iter()
        .filter(|c| c.name == goal.name)
        .flat_map(|c| applications(scope, c, 24, budget))
        .collect();
    if let Some(rec) = cs.iter().find(|c| c.name == goal.name) {
        for g in cs.iter().filter(|c| {
            c.name != goal.name
                && c.params.len() == 2
                && rec.ret.fits(&c.params[0])
                && rec.ret.fits(&c.params[1])
        }) {
            let combined = Expr::app2(Expr::var(g.name.clone()), Expr::var("_a"), Expr::var("_b"));
            // The wrappers of `_c = g _a _b`: unary components, then
            // binary constructors.
            let c_wraps: Vec<Expr> = cs
                .iter()
                .filter(|u| {
                    u.name != goal.name
                        && u.params.len() == 1
                        && g.ret.fits(&u.params[0])
                        && u.ret.fits(ret)
                })
                .map(|u| Expr::app(Expr::var(u.name.clone()), Expr::var("_c")))
                .chain(wraps.iter().flat_map(|(ctor, heads)| {
                    heads.iter().map(|head| wrap(ctor, head, Expr::var("_c")))
                }))
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
                    if g.ret.fits(ret) {
                        push(bind(combined.clone()), &mut out);
                    }
                    for w in &c_wraps {
                        push(
                            bind(Expr::let_("_c", combined.clone(), w.clone())),
                            &mut out,
                        );
                    }
                }
            }
        }
    }

    out
}

/// Constructor applications of a datatype to scope atoms, nullary
/// constructors first; a nullary constructor may also fill an argument of
/// its own datatype (`ICons x INil`).
fn ctor_applications(
    datatypes: &Datatypes,
    dname: &str,
    scope: &[(String, Shape)],
    budget: &Budget,
) -> Vec<Expr> {
    let Some(decl) = datatypes.get(dname) else {
        return Vec::new();
    };
    let nullary: Vec<Expr> = decl
        .ctors
        .iter()
        .filter(|c| c.args.is_empty())
        .map(|c| Expr::ctor(c.name.clone(), vec![]))
        .collect();
    let mut out = nullary.clone();
    for ctor in decl.ctors.iter().filter(|c| !c.args.is_empty()) {
        if budget.is_exceeded() {
            return out;
        }
        let lists: Vec<Vec<Expr>> = ctor
            .args
            .iter()
            .map(|(_, t)| {
                let shape = Shape::of(t).unwrap_or(Shape::Elem);
                let mut opts = atoms(scope, &shape);
                if matches!(&shape, Shape::Data(d) if d == dname) {
                    opts.extend(nullary.iter().cloned());
                }
                opts
            })
            .collect();
        out.extend(
            product(&lists, usize::MAX)
                .into_iter()
                .map(|args| Expr::ctor(ctor.name.clone(), args)),
        );
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
    fn product_varies_the_first_list_slowest_and_keeps_cap_plus_one_picks_per_stage() {
        let list = |names: &[&str]| names.iter().map(|n| Expr::var(*n)).collect::<Vec<_>>();
        let lists = [list(&["a", "b"]), list(&["c", "d", "e"]), list(&["f", "g"])];
        let all = product(&lists, usize::MAX);
        assert_eq!(all.len(), 12);
        assert_eq!(all[0], list(&["a", "c", "f"]));
        assert_eq!(all[1], list(&["a", "c", "g"]));
        assert_eq!(all[2], list(&["a", "d", "f"]));
        assert_eq!(all[6], list(&["b", "c", "f"]));
        // With cap 1, each stage stops at its second pick: [a] [b], then
        // [a c] [a d], then [a c f] [a c g].
        assert_eq!(
            product(&lists, 1),
            vec![list(&["a", "c", "f"]), list(&["a", "c", "g"])]
        );
        // With cap 3 the second stage keeps [a c] [a d] [a e] [b c], so the
        // last keeps the first four picks of the full product.
        assert_eq!(product(&lists, 3), all[..4].to_vec());
        // An empty list leaves nothing to pick; no lists leave one empty pick.
        assert!(product(&[list(&["a"]), Vec::new()], usize::MAX).is_empty());
        assert_eq!(product(&[], 0), vec![Vec::<Expr>::new()]);
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
