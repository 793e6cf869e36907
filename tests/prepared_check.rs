//! The synthesizer checks every candidate body in a frame prepared once per
//! skeleton fill (`Checker::prepare`, then `Checker::check_body`). These
//! tests pin that path to the one-shot `Checker::check_function` on the
//! wrapped program: for the first candidates of each fill, partial and
//! complete, both must return the same error, or the same residual resource
//! constraints, unknowns and query counts.

use resyn::budget::Budget;
use resyn::lang::Expr;
use resyn::logic::Term;
use resyn::solver::SolverCache;
use resyn::synth::skeleton::{self, Shape};
use resyn::synth::{enumerate, Goal, Mode, Synthesizer};
use resyn::ty::check::{CheckError, CheckOutcome, Checker, CheckerConfig, ResourceMode};
use resyn::ty::{Datatypes, Schema, Ty};

/// Cheap Table-1 rows spanning lists, trees and a component-heavy sort.
const GOALS: &[&str] = &[
    "list-append",
    "list-stutter",
    "tree-count",
    "insertion-sort",
];
/// Skeleton fills per goal and mode.
const FILLS: usize = 4;
/// Candidates per fill, for the partial and for the complete programs.
const CANDIDATES: usize = 3;

const MODES: &[ResourceMode] = &[
    ResourceMode::Resource,
    ResourceMode::Agnostic,
    ResourceMode::ConstantResource,
];

fn checker(goal: &Goal, mode: ResourceMode, holes: bool, cache: &SolverCache) -> Checker {
    Checker::new(
        Datatypes::standard(),
        CheckerConfig {
            mode,
            metric: goal.metric.clone(),
            allow_holes: holes,
        },
    )
    .with_cache(cache.clone())
}

/// `fix name. λx₁. … λxₙ. body` over the given binders.
fn wrap(fix: &str, binders: &[String], body: &Expr) -> Expr {
    let mut expr = body.clone();
    for (i, x) in binders.iter().enumerate().rev() {
        expr = if i == 0 {
            Expr::fix(fix, x.clone(), expr)
        } else {
            Expr::lambda(x.clone(), expr)
        };
    }
    expr
}

fn formals(schema: &Schema) -> Vec<String> {
    let (params, _) = schema.ty.uncurry();
    params.into_iter().map(|(n, _, _)| n).collect()
}

/// The schema with its formal parameters renamed to `p0, p1, …`.
fn rename_formals(schema: &Schema) -> Schema {
    fn go(ty: &Ty, i: usize) -> Ty {
        match ty {
            Ty::Arrow {
                param,
                param_ty,
                ret,
                cost,
            } => {
                let fresh = format!("p{i}");
                let ret = ret.subst_term(param, &Term::var(fresh.clone()));
                Ty::Arrow {
                    param: fresh,
                    param_ty: param_ty.clone(),
                    ret: Box::new(go(&ret, i + 1)),
                    cost: *cost,
                }
            }
            other => other.clone(),
        }
    }
    Schema {
        tyvars: schema.tyvars.clone(),
        ty: go(&schema.ty, 0),
    }
}

/// Assert that both paths agree; returns whether they accepted.
fn assert_same(
    prepared: Result<CheckOutcome, CheckError>,
    one_shot: Result<CheckOutcome, CheckError>,
    what: &str,
) -> bool {
    match (prepared, one_shot) {
        (Ok(p), Ok(o)) => {
            assert_eq!(p.constraints, o.constraints, "{what}: residual constraints");
            assert_eq!(p.unknowns, o.unknowns, "{what}: unknowns");
            assert_eq!(
                p.refinement_queries, o.refinement_queries,
                "{what}: refinement queries"
            );
            assert_eq!(
                p.eager_resource_checks, o.eager_resource_checks,
                "{what}: eager resource checks"
            );
            true
        }
        (Err(p), Err(o)) => {
            assert_eq!(p, o, "{what}: error");
            false
        }
        (p, o) => panic!("{what}: prepared {p:?} but one-shot {o:?}"),
    }
}

/// Candidate bodies of the goal's first fills: for each skeleton, the first
/// candidates of its first hole with the rest plugged (partial), and the
/// bodies filling every hole with its i-th candidate (complete).
fn candidate_bodies(goal: &Goal) -> Vec<(Expr, bool)> {
    let synth = Synthesizer::new();
    let budget = Budget::unlimited();
    let (params, ret_ty) = goal.schema.ty.uncurry();
    let param_shapes: Vec<(String, Shape)> = params
        .iter()
        .filter_map(|(n, t, _)| Shape::of(t).map(|s| (n.clone(), s)))
        .collect();
    let ret_shape = Shape::of(&ret_ty).expect("the goal returns a first-order value");
    let guard_fn = |scope: &[(String, Shape)]| enumerate::guards(goal, scope, &budget);
    let skeletons = skeleton::generate(&param_shapes, &synth.datatypes, &guard_fn, &budget);
    let mut bodies = Vec::new();
    for skel in skeletons.iter().take(FILLS) {
        let n = skel.holes.len();
        let candidates: Vec<Vec<Expr>> = skel
            .holes
            .iter()
            .map(|hole| {
                let mut scope = param_shapes.clone();
                scope.extend(hole.binders.iter().cloned());
                enumerate::eterms(
                    goal,
                    &synth.datatypes,
                    &scope,
                    &ret_shape,
                    synth.eterm_cap,
                    &budget,
                )
            })
            .collect();
        if candidates.iter().any(Vec::is_empty) {
            continue;
        }
        for c in candidates[0].iter().take(CANDIDATES) {
            let filled = skeleton::fill_hole(&skel.body, 0, c);
            bodies.push((skeleton::plug_remaining(&filled, 1, n), true));
        }
        for i in 0..CANDIDATES {
            let mut body = skel.body.clone();
            for (idx, hole) in candidates.iter().enumerate() {
                body = skeleton::fill_hole(&body, idx, &hole[i.min(hole.len() - 1)]);
            }
            bodies.push((body, false));
        }
    }
    bodies
}

/// The body of the program the synthesizer finds for the goal (an accepted
/// complete candidate).
fn solution(goal: &Goal, cache: &SolverCache) -> Expr {
    let program = Synthesizer::new()
        .with_cache(cache.clone())
        .synthesize(goal, Mode::ReSyn)
        .program
        .unwrap_or_else(|| panic!("{} synthesizes", goal.name));
    let mut body = &program;
    while let Expr::Fix(_, _, inner) | Expr::Lambda(_, inner) = body {
        body = inner;
    }
    body.clone()
}

fn goals() -> Vec<Goal> {
    let goals: Vec<Goal> = resyn::eval::table1()
        .into_iter()
        .filter(|b| GOALS.contains(&b.id.as_str()))
        .map(|b| b.goal)
        .collect();
    assert_eq!(goals.len(), GOALS.len(), "a pinned row was renamed");
    goals
}

#[test]
fn prepared_checks_match_one_shot_checks_on_the_first_candidates_of_each_fill() {
    let cache = SolverCache::new();
    // [partial, complete] × [rejected, accepted]
    let mut checked = [[0usize; 2]; 2];
    for goal in goals() {
        let mut bodies = candidate_bodies(&goal);
        bodies.push((solution(&goal, &cache), false));
        assert!(!bodies.is_empty(), "{}: no candidates", goal.name);
        let binders = formals(&goal.schema);
        for &mode in MODES {
            let partial = checker(&goal, mode, true, &cache);
            let complete = checker(&goal, mode, false, &cache);
            // One frame serves both checkers, as in a skeleton fill.
            let frame = partial.prepare(&goal.name, &goal.schema, &goal.components);
            for (body, holes) in &bodies {
                let checker = if *holes { &partial } else { &complete };
                let program = wrap(&goal.name, &binders, body);
                let accepted = assert_same(
                    checker.check_body(&frame, body),
                    checker.check_function(&goal.name, &program, &goal.schema, &goal.components),
                    &format!("{} {mode:?} {program}", goal.name),
                );
                checked[usize::from(!*holes)][usize::from(accepted)] += 1;
            }
        }
    }
    eprintln!("[partial, complete] x [rejected, accepted]: {checked:?}");
    assert!(
        checked.iter().flatten().all(|&n| n > 0),
        "accepted and rejected candidates, partial and complete, are covered: {checked:?}"
    );
}

#[test]
fn renamed_signature_binders_check_like_the_prepared_formals() {
    // `check_function` renames the signature's formals to the program's
    // binders (and accepts a `fix` name other than the goal's); the result
    // must equal checking the body in the frame of the original signature.
    let cache = SolverCache::new();
    for goal in goals() {
        let renamed = rename_formals(&goal.schema);
        assert_ne!(formals(&renamed), formals(&goal.schema));
        let binders = formals(&goal.schema);
        let mut bodies: Vec<(Expr, bool)> = candidate_bodies(&goal)
            .into_iter()
            .take(2 * CANDIDATES)
            .collect();
        bodies.push((solution(&goal, &cache), false));
        for &mode in MODES {
            for (body, holes) in &bodies {
                let checker = checker(&goal, mode, *holes, &cache);
                let frame = checker.prepare(&goal.name, &goal.schema, &goal.components);
                let program = wrap("go", &binders, body);
                assert_same(
                    checker.check_body(&frame, body),
                    checker.check_function(&goal.name, &program, &renamed, &goal.components),
                    &format!("{} {mode:?} renamed {program}", goal.name),
                );
            }
        }
    }
}
