//! Program skeletons: the match/guard structure of candidate programs.
//!
//! A skeleton is a program body whose leaves are numbered *holes* (represented
//! as variables `?0`, `?1`, …). Skeletons are generated from the shapes of the
//! goal's parameters — matches on datatype arguments, optionally refined by
//! one or two conditional guards — and the synthesizer then fills the holes
//! left-to-right with E-terms, checking partial programs along the way.

use resyn_budget::Budget;
use resyn_lang::{Expr, MatchArm};
use resyn_ty::datatypes::Datatypes;

// The shape lattice lives in `resyn-ty` so the reachability analysis
// (`resyn-analysis`, behind `resyn lint`) can share it without depending on
// this crate; re-exported here because enumeration is its primary consumer.
pub use resyn_ty::shape::Shape;

/// A hole in a skeleton: its index and the extra binders in scope at the hole
/// (match binders), with their shapes.
#[derive(Debug, Clone)]
pub struct Hole {
    /// The hole's index (`?idx` in the skeleton body).
    pub idx: usize,
    /// Binders introduced on the path to this hole.
    pub binders: Vec<(String, Shape)>,
}

/// A candidate program structure with holes.
#[derive(Debug, Clone)]
pub struct Skeleton {
    /// The body with `?idx` placeholder variables at the leaves.
    pub body: Expr,
    /// The holes, in filling order.
    pub holes: Vec<Hole>,
    /// Guard expressions used by the skeleton (for statistics only).
    pub guards: usize,
}

/// Placeholder variable name for hole `idx`.
pub fn hole_var(idx: usize) -> String {
    format!("?{idx}")
}

/// Replace hole `idx` with an expression.
pub fn fill_hole(body: &Expr, idx: usize, replacement: &Expr) -> Expr {
    subst_var(body, &hole_var(idx), replacement)
}

/// Replace every remaining hole with `impossible` (the checker treats these as
/// trivially-checking holes while `allow_holes` is on).
pub fn plug_remaining(body: &Expr, from: usize, total: usize) -> Expr {
    let mut out = body.clone();
    for idx in from..total {
        out = fill_hole(&out, idx, &Expr::Impossible);
    }
    out
}

fn subst_var(e: &Expr, var: &str, replacement: &Expr) -> Expr {
    match e {
        Expr::Var(x) if x == var => replacement.clone(),
        Expr::Var(_) | Expr::Bool(_) | Expr::Int(_) | Expr::Impossible => e.clone(),
        Expr::Ctor(n, args) => Expr::Ctor(
            n.clone(),
            args.iter()
                .map(|a| subst_var(a, var, replacement))
                .collect(),
        ),
        Expr::Lambda(x, b) => Expr::Lambda(x.clone(), Box::new(subst_var(b, var, replacement))),
        Expr::Fix(f, x, b) => Expr::Fix(
            f.clone(),
            x.clone(),
            Box::new(subst_var(b, var, replacement)),
        ),
        Expr::App(f, a) => Expr::App(
            Box::new(subst_var(f, var, replacement)),
            Box::new(subst_var(a, var, replacement)),
        ),
        Expr::Ite(c, t, els) => Expr::Ite(
            Box::new(subst_var(c, var, replacement)),
            Box::new(subst_var(t, var, replacement)),
            Box::new(subst_var(els, var, replacement)),
        ),
        Expr::Match(s, arms) => Expr::Match(
            Box::new(subst_var(s, var, replacement)),
            arms.iter()
                .map(|arm| MatchArm {
                    ctor: arm.ctor.clone(),
                    binders: arm.binders.clone(),
                    body: subst_var(&arm.body, var, replacement),
                })
                .collect(),
        ),
        Expr::Let(x, b, body) => Expr::Let(
            x.clone(),
            Box::new(subst_var(b, var, replacement)),
            Box::new(subst_var(body, var, replacement)),
        ),
        Expr::Tick(c, b) => Expr::Tick(*c, Box::new(subst_var(b, var, replacement))),
    }
}

/// A builder that tracks hole allocation while constructing skeletons.
struct Builder {
    holes: Vec<Hole>,
}

impl Builder {
    fn hole(&mut self, binders: Vec<(String, Shape)>) -> Expr {
        let idx = self.holes.len();
        self.holes.push(Hole { idx, binders });
        Expr::var(hole_var(idx))
    }
}

/// Build a match on `var` (of datatype `dname`) whose arm bodies are produced
/// by `leaf` (given the accumulated binders of the arm).
fn match_on(
    builder: &mut Builder,
    datatypes: &Datatypes,
    var: &str,
    dname: &str,
    suffix: usize,
    mut leaf: impl FnMut(&mut Builder, Vec<(String, Shape)>) -> Expr,
) -> Option<Expr> {
    let decl = datatypes.get(dname)?;
    let mut arms = Vec::new();
    for ctor in &decl.ctors {
        let mut binders = Vec::new();
        let mut names = Vec::new();
        for (i, (arg_name, arg_ty)) in ctor.args.iter().enumerate() {
            let shape = Shape::of(arg_ty).unwrap_or(Shape::Elem);
            let name = format!("{}{}_{}", arg_name, suffix, i);
            binders.push((name.clone(), shape));
            names.push(name);
        }
        let body = leaf(builder, binders);
        arms.push(MatchArm {
            ctor: ctor.name.clone(),
            binders: names,
            body,
        });
    }
    Some(Expr::match_(Expr::var(var), arms))
}

/// Wrap a hole-producing leaf with `guards` nested conditionals. Each guard is
/// a pre-built boolean expression (an application of a boolean component); the
/// leaves on both sides are fresh holes.
fn guard_split(builder: &mut Builder, binders: &[(String, Shape)], guards: &[Expr]) -> Expr {
    match guards {
        [] => builder.hole(binders.to_vec()),
        [g, rest @ ..] => {
            let gname = format!("_grd{}", builder.holes.len());
            let then_hole = builder.hole(binders.to_vec());
            let else_part = guard_split(builder, binders, rest);
            Expr::let_(
                gname.clone(),
                g.clone(),
                Expr::ite(Expr::var(gname), then_hole, else_part),
            )
        }
    }
}

/// A function from the binders in scope to the guard expressions to try.
pub type GuardCandidates<'a> = &'a dyn Fn(&[(String, Shape)]) -> Vec<Expr>;

/// Generate the skeletons for a goal with the given parameters, in order of
/// increasing structural complexity. `guard_candidates` is a function from the
/// binders in scope to the guard expressions to try.
///
/// Guard-pair enumeration is quadratic in the guard count, so the generator
/// checks the `budget` between combinations and returns the skeletons built
/// so far when it runs out — the caller's checkpoint reports the timeout.
pub fn generate(
    params: &[(String, Shape)],
    datatypes: &Datatypes,
    guard_candidates: GuardCandidates<'_>,
    budget: &Budget,
) -> Vec<Skeleton> {
    let mut out = Vec::new();

    // 1. A single hole (straight-line programs such as `triple`).
    {
        let mut b = Builder { holes: Vec::new() };
        let body = b.hole(Vec::new());
        out.push(Skeleton {
            body,
            holes: b.holes,
            guards: 0,
        });
    }

    // 2. Guard-split at the top (integer recursion: replicate, range, …).
    for g in guard_candidates(params) {
        let mut b = Builder { holes: Vec::new() };
        let body = guard_split(&mut b, &[], &[g]);
        out.push(Skeleton {
            body,
            holes: b.holes,
            guards: 1,
        });
    }

    // 3. Match on each datatype parameter; the recursive arm may be split by
    //    zero, one or two guards.
    let data_params: Vec<(String, String)> = params
        .iter()
        .filter_map(|(n, s)| match s {
            Shape::Data(d) => Some((n.clone(), d.clone())),
            _ => None,
        })
        .collect();

    for (p, d) in &data_params {
        for depth in 0..=2usize {
            if budget.is_exceeded() {
                return out;
            }
            let guard_sets: Vec<Vec<Expr>> = if depth == 0 {
                vec![Vec::new()]
            } else {
                // Guard choices are computed per arm below; use a marker here.
                vec![Vec::new()]
            };
            let _ = guard_sets;
            // depth 0: plain match; depth 1/2: enumerate guard combinations.
            if depth == 0 {
                let mut b = Builder { holes: Vec::new() };
                if let Some(body) =
                    match_on(&mut b, datatypes, p, d, 1, |b, binders| b.hole(binders))
                {
                    out.push(Skeleton {
                        body,
                        holes: b.holes,
                        guards: 0,
                    });
                }
            } else {
                // Build one skeleton per guard combination in the recursive arm.
                // The binders of the recursive arm are known from the datatype.
                let arm_binders = recursive_arm_binders(datatypes, d, 1);
                let mut scope = params.to_vec();
                scope.extend(arm_binders.clone());
                let guards = guard_candidates(&scope);
                let combos: Vec<Vec<Expr>> = if depth == 1 {
                    guards.iter().map(|g| vec![g.clone()]).collect()
                } else {
                    let mut cs = Vec::new();
                    for g1 in &guards {
                        for g2 in &guards {
                            if g1 != g2 {
                                cs.push(vec![g1.clone(), g2.clone()]);
                            }
                        }
                    }
                    cs
                };
                for combo in combos {
                    if budget.is_exceeded() {
                        return out;
                    }
                    let mut b = Builder { holes: Vec::new() };
                    if let Some(body) = match_on(&mut b, datatypes, p, d, 1, |b, binders| {
                        if binders.is_empty() {
                            b.hole(binders)
                        } else {
                            guard_split(b, &binders, &combo)
                        }
                    }) {
                        out.push(Skeleton {
                            body,
                            holes: b.holes,
                            guards: combo.len(),
                        });
                    }
                }
            }
        }
    }

    // 4. Nested match on the first two datatype parameters, with the innermost
    //    arm split by zero, one or two guards (common, diff, zip, compare, …).
    if data_params.len() >= 2 {
        let (p1, d1) = &data_params[0];
        let (p2, d2) = &data_params[1];
        for depth in 0..=2usize {
            if budget.is_exceeded() {
                return out;
            }
            let outer_binders = recursive_arm_binders(datatypes, d1, 1);
            let inner_binders = recursive_arm_binders(datatypes, d2, 2);
            let mut scope = params.to_vec();
            scope.extend(outer_binders.clone());
            scope.extend(inner_binders.clone());
            let guards = guard_candidates(&scope);
            let combos: Vec<Vec<Expr>> = match depth {
                0 => vec![Vec::new()],
                1 => guards.iter().map(|g| vec![g.clone()]).collect(),
                _ => {
                    let mut cs = Vec::new();
                    for g1 in &guards {
                        for g2 in &guards {
                            if g1 != g2 {
                                cs.push(vec![g1.clone(), g2.clone()]);
                            }
                        }
                    }
                    cs
                }
            };
            for combo in combos {
                if budget.is_exceeded() {
                    return out;
                }
                let mut b = Builder { holes: Vec::new() };
                let p2c = p2.clone();
                let d2c = d2.clone();
                let combo_ref = combo.clone();
                let body = match_on(&mut b, datatypes, p1, d1, 1, |b, outer| {
                    // Nest the match on the second list in *every* arm of the
                    // outer match (guards only split the recursive arm): the
                    // base arm of e.g. `compare`/`common` still needs to
                    // distinguish an empty from a non-empty second argument.
                    let inner_guards: &[Expr] = if outer.is_empty() { &[] } else { &combo_ref };
                    match match_on_inner(b, datatypes, &p2c, &d2c, 2, &outer, inner_guards) {
                        Some(e) => e,
                        None => b.hole(outer),
                    }
                });
                if let Some(body) = body {
                    out.push(Skeleton {
                        body,
                        holes: b.holes,
                        guards: combo.len(),
                    });
                }
            }
        }
    }

    // 5. Match on a datatype parameter whose recursive arm re-matches the
    //    *tail binder* (a match binder, not a parameter) — the adjacent-pair
    //    view `compress`-style goals need: the innermost arm sees both the
    //    head and the head-of-tail, and may be split by zero, one or two
    //    guards comparing them. Appended after the flatter families so the
    //    lowest-index-wins search order still prefers simpler programs.
    for (p, d) in &data_params {
        let outer_binders = recursive_arm_binders(datatypes, d, 1);
        let tails: Vec<(String, String)> = outer_binders
            .iter()
            .filter_map(|(n, s)| match s {
                Shape::Data(inner) => Some((n.clone(), inner.clone())),
                _ => None,
            })
            .collect();
        for (tail, td) in &tails {
            for depth in 0..=2usize {
                if budget.is_exceeded() {
                    return out;
                }
                let inner_binders = recursive_arm_binders(datatypes, td, 2);
                let mut scope = params.to_vec();
                scope.extend(outer_binders.clone());
                scope.extend(inner_binders.clone());
                let guards = guard_candidates(&scope);
                let combos: Vec<Vec<Expr>> = match depth {
                    0 => vec![Vec::new()],
                    1 => guards.iter().map(|g| vec![g.clone()]).collect(),
                    _ => {
                        let mut cs = Vec::new();
                        for g1 in &guards {
                            for g2 in &guards {
                                if g1 != g2 {
                                    cs.push(vec![g1.clone(), g2.clone()]);
                                }
                            }
                        }
                        cs
                    }
                };
                for combo in combos {
                    if budget.is_exceeded() {
                        return out;
                    }
                    let mut b = Builder { holes: Vec::new() };
                    let tail_c = tail.clone();
                    let td_c = td.clone();
                    let combo_ref = combo.clone();
                    let body = match_on(&mut b, datatypes, p, d, 1, |b, outer| {
                        // Only the arm that actually binds the tail can
                        // re-match it; the other arms keep a plain hole.
                        if !outer.iter().any(|(n, _)| n == &tail_c) {
                            return b.hole(outer);
                        }
                        match match_on_inner(b, datatypes, &tail_c, &td_c, 2, &outer, &combo_ref) {
                            Some(e) => e,
                            None => b.hole(outer),
                        }
                    });
                    if let Some(body) = body {
                        out.push(Skeleton {
                            body,
                            holes: b.holes,
                            guards: combo.len(),
                        });
                    }
                }
            }
        }
    }

    out
}

fn match_on_inner(
    builder: &mut Builder,
    datatypes: &Datatypes,
    var: &str,
    dname: &str,
    suffix: usize,
    outer_binders: &[(String, Shape)],
    guards: &[Expr],
) -> Option<Expr> {
    match_on(builder, datatypes, var, dname, suffix, |b, inner| {
        let mut binders = outer_binders.to_vec();
        binders.extend(inner.clone());
        if inner.is_empty() || guards.is_empty() {
            b.hole(binders)
        } else {
            guard_split(b, &binders, guards)
        }
    })
}

/// The binders of the (first) recursive constructor arm of a datatype, using
/// the same naming convention as `match_on`.
pub fn recursive_arm_binders(
    datatypes: &Datatypes,
    dname: &str,
    suffix: usize,
) -> Vec<(String, Shape)> {
    let Some(decl) = datatypes.get(dname) else {
        return Vec::new();
    };
    let recursive = decl
        .ctors
        .iter()
        .find(|c| !c.args.is_empty())
        .or(decl.ctors.first());
    let Some(ctor) = recursive else {
        return Vec::new();
    };
    ctor.args
        .iter()
        .enumerate()
        .map(|(i, (name, ty))| {
            (
                format!("{name}{suffix}_{i}"),
                Shape::of(ty).unwrap_or(Shape::Elem),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skeleton_generation_produces_expected_structures() {
        let datatypes = Datatypes::standard();
        let params = vec![
            ("xs".to_string(), Shape::Data("List".into())),
            ("ys".to_string(), Shape::Data("List".into())),
        ];
        let no_guards = |_: &[(String, Shape)]| Vec::<Expr>::new();
        let skeletons = generate(&params, &datatypes, &no_guards, &Budget::unlimited());
        // Single hole, match-on-xs, match-on-ys, nested match (no guard sets).
        assert!(skeletons.len() >= 4);
        assert_eq!(skeletons[0].holes.len(), 1);
        let nested = skeletons
            .iter()
            .find(|s| s.holes.len() >= 3)
            .expect("nested match skeleton");
        assert!(nested.body.to_string().contains("match xs"));
    }

    #[test]
    fn nested_match_skeletons_match_the_second_list_in_every_arm() {
        // `compare`/`common`-style goals need to distinguish an empty from a
        // non-empty second argument even when the first argument is empty.
        let datatypes = Datatypes::standard();
        let params = vec![
            ("ys".to_string(), Shape::Data("List".into())),
            ("zs".to_string(), Shape::Data("List".into())),
        ];
        let no_guards = |_: &[(String, Shape)]| Vec::<Expr>::new();
        let skeletons = generate(&params, &datatypes, &no_guards, &Budget::unlimited());
        let nested = skeletons
            .iter()
            .filter(|s| s.body.to_string().matches("match zs").count() >= 2)
            .max_by_key(|s| s.holes.len())
            .expect("a skeleton nesting the second match in both arms");
        // Four leaves: (Nil, Nil), (Nil, Cons), (Cons, Nil), (Cons, Cons).
        assert_eq!(nested.holes.len(), 4);
        // The innermost hole sees the binders of both matches.
        let deepest = nested.holes.last().unwrap();
        assert!(deepest.binders.len() >= 4);
    }

    #[test]
    fn tail_rematch_skeletons_expose_adjacent_elements() {
        // `compress` needs `match xs with … Cons x xs' -> match xs' with …`:
        // a nested match on the *tail binder* of the outer recursive arm, so
        // the innermost hole sees two adjacent elements at once.
        let datatypes = Datatypes::standard();
        let params = vec![("xs".to_string(), Shape::Data("List".into()))];
        let no_guards = |_: &[(String, Shape)]| Vec::<Expr>::new();
        let skeletons = generate(&params, &datatypes, &no_guards, &Budget::unlimited());
        let nested = skeletons
            .iter()
            .find(|s| s.body.to_string().contains("match xs1_1"))
            .expect("a skeleton re-matching the tail binder");
        // Three leaves: Nil, Cons-of-Nil, Cons-of-Cons.
        assert_eq!(nested.holes.len(), 3);
        let deepest = nested.holes.last().unwrap();
        let names: Vec<&str> = deepest.binders.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"x1_0") && names.contains(&"x2_0"),
            "innermost hole must see both adjacent heads: {names:?}"
        );
        // The tail-rematch family is appended *after* the flatter families,
        // so existing goals keep their lowest-index (simpler) solutions.
        let first_nested = skeletons
            .iter()
            .position(|s| s.body.to_string().contains("match xs1_1"))
            .unwrap();
        let last_flat = skeletons
            .iter()
            .rposition(|s| !s.body.to_string().contains("match xs1_1"))
            .unwrap();
        assert!(first_nested > last_flat || skeletons.len() == first_nested + 1);
    }

    /// The hole indices of `e` in the order the checker visits them: a
    /// `let`'s bound expression before its body, an `ite`'s condition, then
    /// its then-branch, then its else-branch, and match arms in declaration
    /// order.
    fn holes_in_check_order(e: &Expr, out: &mut Vec<usize>) {
        match e {
            Expr::Var(x) => {
                if let Some(idx) = x.strip_prefix('?') {
                    out.push(idx.parse().expect("hole variables are `?<index>`"));
                }
            }
            Expr::Bool(_) | Expr::Int(_) | Expr::Impossible => {}
            Expr::Ctor(_, args) => args.iter().for_each(|a| holes_in_check_order(a, out)),
            Expr::Lambda(_, b) | Expr::Fix(_, _, b) | Expr::Tick(_, b) => {
                holes_in_check_order(b, out)
            }
            Expr::App(f, a) => {
                holes_in_check_order(f, out);
                holes_in_check_order(a, out);
            }
            Expr::Let(_, bound, body) => {
                holes_in_check_order(bound, out);
                holes_in_check_order(body, out);
            }
            Expr::Ite(c, t, els) => {
                holes_in_check_order(c, out);
                holes_in_check_order(t, out);
                holes_in_check_order(els, out);
            }
            Expr::Match(scrutinee, arms) => {
                holes_in_check_order(scrutinee, out);
                for arm in arms {
                    holes_in_check_order(&arm.body, out);
                }
            }
        }
    }

    #[test]
    fn holes_are_numbered_in_checker_traversal_order() {
        // A hole frame replays the checking state at hole `k` with the holes
        // before it filled; that is exact only if hole `k` is the k-th hole
        // the checker reaches.
        let datatypes = Datatypes::standard();
        let list = Shape::Data("List".into());
        let shapes = [
            vec![("xs".to_string(), list.clone())],
            vec![("t".to_string(), Shape::Data("Tree".into()))],
            vec![("xs".to_string(), list.clone()), ("ys".to_string(), list)],
        ];
        // Two guards per scope, so the depth-2 guard pairs are built too.
        let two_guards = |scope: &[(String, Shape)]| {
            scope
                .iter()
                .rev()
                .take(2)
                .map(|(n, _)| Expr::app(Expr::var("p"), Expr::var(n.clone())))
                .collect::<Vec<_>>()
        };
        for params in &shapes {
            let skeletons = generate(params, &datatypes, &two_guards, &Budget::unlimited());
            assert!(
                skeletons.iter().any(|s| s.guards == 2),
                "{params:?}: guard pairs are generated"
            );
            for skel in &skeletons {
                let mut order = Vec::new();
                holes_in_check_order(&skel.body, &mut order);
                let expected: Vec<usize> = (0..skel.holes.len()).collect();
                assert_eq!(order, expected, "{params:?}: {}", skel.body);
                for (i, hole) in skel.holes.iter().enumerate() {
                    assert_eq!(hole.idx, i, "{params:?}: {}", skel.body);
                }
            }
        }
    }

    #[test]
    fn hole_filling_and_plugging() {
        let datatypes = Datatypes::standard();
        let params = vec![("l".to_string(), Shape::Data("List".into()))];
        let no_guards = |_: &[(String, Shape)]| Vec::<Expr>::new();
        let skeletons = generate(&params, &datatypes, &no_guards, &Budget::unlimited());
        let match_skel = skeletons
            .iter()
            .find(|s| s.holes.len() == 2)
            .expect("match skeleton");
        let filled = fill_hole(&match_skel.body, 0, &Expr::nil());
        let plugged = plug_remaining(&filled, 1, match_skel.holes.len());
        assert!(!plugged.to_string().contains('?'));
        assert!(plugged.to_string().contains("impossible"));
    }
}
