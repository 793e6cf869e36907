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

/// The skeleton whose body `body` builds, with its holes numbered in the
/// order `body` allocates them; `None` when `body` builds nothing.
fn build(guards: usize, body: impl FnOnce(&mut Builder) -> Option<Expr>) -> Option<Skeleton> {
    let mut b = Builder { holes: Vec::new() };
    let body = body(&mut b)?;
    Some(Skeleton {
        body,
        holes: b.holes,
        guards,
    })
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

/// The guard combinations tried at one scope, in search order: no guard,
/// then each guard alone, then each ordered pair of distinct guards.
fn guard_combos(guards: Vec<Expr>) -> impl Iterator<Item = Vec<Expr>> {
    let n = guards.len();
    let picks = std::iter::once(Vec::new())
        .chain((0..n).map(|i| vec![i]))
        .chain((0..n).flat_map(move |i| (0..n).map(move |j| vec![i, j])));
    picks.filter_map(move |pick| match pick[..] {
        [i, j] if guards[i] == guards[j] => None,
        _ => Some(pick.iter().map(|&i| guards[i].clone()).collect()),
    })
}

/// A match on `outer` whose arms re-match `inner`: every arm when
/// `in_every_arm` (a parameter), otherwise only the arm that binds it (a
/// binder of `outer`); the other arms keep a plain hole. A leaf whose arms
/// bind something on both levels is split by `guards`.
fn nested_match(
    builder: &mut Builder,
    datatypes: &Datatypes,
    (outer, outer_d): (&str, &str),
    (inner, inner_d): (&str, &str),
    in_every_arm: bool,
    guards: &[Expr],
) -> Option<Expr> {
    match_on(builder, datatypes, outer, outer_d, 1, |b, outer_binders| {
        if !in_every_arm && !outer_binders.iter().any(|(n, _)| n == inner) {
            return b.hole(outer_binders);
        }
        let inner_match = match_on(b, datatypes, inner, inner_d, 2, |b, inner_binders| {
            let split = if outer_binders.is_empty() || inner_binders.is_empty() {
                &[][..]
            } else {
                guards
            };
            let mut binders = outer_binders.clone();
            binders.extend(inner_binders);
            guard_split(b, &binders, split)
        });
        inner_match.unwrap_or_else(|| b.hole(outer_binders))
    })
}

/// The match structure of one scope of the guarded families (3–5): every
/// guard combination of the scope splits its innermost arms.
enum Matches<'a> {
    /// A match on one datatype parameter (family 3).
    One(&'a str, &'a str),
    /// A match on `outer` whose arms re-match `inner` (families 4 and 5; see
    /// `nested_match`).
    Nested {
        outer: (&'a str, &'a str),
        inner: (String, String),
        in_every_arm: bool,
    },
}

impl Matches<'_> {
    /// The skeleton of this structure with its innermost arms split by
    /// `guards`; `None` when a matched datatype is unknown.
    fn build(&self, datatypes: &Datatypes, guards: &[Expr]) -> Option<Skeleton> {
        build(guards.len(), |b| match self {
            Matches::One(p, d) => match_on(b, datatypes, p, d, 1, |b, binders| {
                let split = if binders.is_empty() { &[][..] } else { guards };
                guard_split(b, &binders, split)
            }),
            Matches::Nested {
                outer,
                inner,
                in_every_arm,
            } => nested_match(
                b,
                datatypes,
                *outer,
                (&inner.0, &inner.1),
                *in_every_arm,
                guards,
            ),
        })
    }
}

/// One scope of the guarded families: a match structure and the binders,
/// beyond the parameters, that its guards may use.
struct Scope<'a> {
    matches: Matches<'a>,
    binders: Vec<(String, Shape)>,
}

/// A function from the binders in scope to the guard expressions to try.
pub type GuardCandidates<'a> = &'a dyn Fn(&[(String, Shape)]) -> Vec<Expr>;

/// The skeletons for a goal with the given parameters, in order of
/// increasing structural complexity, each built only when the caller pulls
/// it. `guard_candidates` is a function from the binders in scope to the
/// guard expressions to try; it is called once per scope, when the search
/// first reaches that scope.
///
/// Guard-pair enumeration is quadratic in the guard count, so the iterator
/// checks the `budget` before each guard combination of families 3–5 and
/// ends when it runs out — the caller's checkpoint reports the timeout.
pub fn skeletons<'a>(
    params: &'a [(String, Shape)],
    datatypes: &'a Datatypes,
    guard_candidates: GuardCandidates<'a>,
    budget: &'a Budget,
) -> impl Iterator<Item = Skeleton> + 'a {
    let data_params = move || {
        params.iter().filter_map(|(n, s)| match s {
            Shape::Data(d) => Some((n.as_str(), d.as_str())),
            _ => None,
        })
    };

    // 1. A single hole (straight-line programs such as `triple`).
    let single = std::iter::once_with(|| build(0, |b| Some(b.hole(Vec::new()))));

    // 2. Guard-split at the top (integer recursion: replicate, range, …).
    let top = std::iter::once_with(move || guard_candidates(params))
        .flatten()
        .map(|g| build(1, |b| Some(guard_split(b, &[], &[g]))));

    // 3. Match on each datatype parameter; the recursive arm may be split by
    //    zero, one or two guards.
    let matches = data_params().map(move |(p, d)| Scope {
        matches: Matches::One(p, d),
        binders: recursive_arm_binders(datatypes, d, 1),
    });

    // 4. Nested match on the first two datatype parameters, with the innermost
    //    arm split by zero, one or two guards (common, diff, zip, compare, …).
    //    The second parameter is matched in *every* arm of the first: the
    //    base arm of e.g. `compare`/`common` still needs to distinguish an
    //    empty from a non-empty second argument.
    let nested = std::iter::once_with(move || {
        let mut data = data_params();
        let ((p1, d1), (p2, d2)) = (data.next()?, data.next()?);
        let mut binders = recursive_arm_binders(datatypes, d1, 1);
        binders.extend(recursive_arm_binders(datatypes, d2, 2));
        Some(Scope {
            matches: Matches::Nested {
                outer: (p1, d1),
                inner: (p2.to_string(), d2.to_string()),
                in_every_arm: true,
            },
            binders,
        })
    })
    .flatten();

    // 5. Match on a datatype parameter whose recursive arm re-matches the
    //    *tail binder* (a match binder, not a parameter) — the adjacent-pair
    //    view `compress`-style goals need: the innermost arm sees both the
    //    head and the head-of-tail, and may be split by zero, one or two
    //    guards comparing them. Appended after the flatter families so the
    //    lowest-index-wins search order still prefers simpler programs.
    let tail_rematches = data_params().flat_map(move |(p, d)| {
        let outer_binders = recursive_arm_binders(datatypes, d, 1);
        outer_binders
            .clone()
            .into_iter()
            .filter_map(move |(tail, shape)| {
                let Shape::Data(td) = shape else {
                    return None;
                };
                let mut binders = outer_binders.clone();
                binders.extend(recursive_arm_binders(datatypes, &td, 2));
                Some(Scope {
                    matches: Matches::Nested {
                        outer: (p, d),
                        inner: (tail, td),
                        in_every_arm: false,
                    },
                    binders,
                })
            })
    });

    // Each scope's guards are enumerated when the search reaches it; a
    // failed budget checkpoint (`None`) ends the iterator.
    let guarded = matches
        .chain(nested)
        .chain(tail_rematches)
        .flat_map(move |scope| {
            let mut vars = params.to_vec();
            vars.extend(scope.binders);
            let matches = scope.matches;
            guard_combos(guard_candidates(&vars))
                .map(move |combo| (!budget.is_exceeded()).then(|| matches.build(datatypes, &combo)))
        })
        .map_while(|step| step);

    single.chain(top).chain(guarded).flatten()
}

/// Every skeleton of [`skeletons`], collected.
pub fn generate(
    params: &[(String, Shape)],
    datatypes: &Datatypes,
    guard_candidates: GuardCandidates<'_>,
    budget: &Budget,
) -> Vec<Skeleton> {
    skeletons(params, datatypes, guard_candidates, budget).collect()
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
    fn skeletons_are_built_only_when_pulled() {
        // Guards are enumerated per scope when the search first reaches the
        // scope, so a search that stops early never pays for later families.
        let datatypes = Datatypes::standard();
        let list = Shape::Data("List".into());
        let params = vec![("xs".to_string(), list.clone()), ("ys".to_string(), list)];
        let calls = std::cell::Cell::new(0);
        let two_guards = |scope: &[(String, Shape)]| {
            calls.set(calls.get() + 1);
            scope
                .iter()
                .take(2)
                .map(|(n, _)| Expr::app(Expr::var("p"), Expr::var(n.clone())))
                .collect::<Vec<_>>()
        };
        let budget = Budget::unlimited();

        let first: Vec<Skeleton> = skeletons(&params, &datatypes, &two_guards, &budget)
            .take(1)
            .collect();
        assert_eq!(first[0].holes.len(), 1);
        assert_eq!(calls.get(), 0, "the single-hole skeleton needs no guards");

        // Families 1-2: the single hole, then one top-level split per guard.
        let top: Vec<Skeleton> = skeletons(&params, &datatypes, &two_guards, &budget)
            .take(3)
            .collect();
        let guards: Vec<usize> = top.iter().map(|s| s.guards).collect();
        assert_eq!(guards, [0, 1, 1]);
        assert_eq!(
            calls.get(),
            1,
            "only the top-level scope's guards are enumerated"
        );

        // The lazy and collected forms agree.
        let all = generate(&params, &datatypes, &two_guards, &budget);
        let lazy: Vec<Skeleton> = skeletons(&params, &datatypes, &two_guards, &budget).collect();
        assert_eq!(format!("{all:?}"), format!("{lazy:?}"));
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
