//! The synthesizer checks every candidate in a frame prepared once per
//! skeleton fill (`Checker::prepare`). A complete program is checked whole
//! (`Checker::check_body`); a partial one is checked at its hole, in a hole
//! frame captured once per prefix of choices (`Checker::prepare_hole`, then
//! `Checker::check_hole`). These tests pin each step to the one before it:
//! `check_body` to the one-shot `Checker::check_function` on the wrapped
//! program, and `check_hole` to `check_body` on the whole partial body. Both
//! sides must return the same error, or the same residual resource
//! constraints, unknowns and query counts. A last test pins the search's
//! counts on two rows that backtrack below a filled hole, so that a hole
//! frame outliving its prefix shows, and so that a query asked in another
//! shape shows in the cache's hits and interned terms.

use resyn::budget::Budget;
use resyn::lang::{CostMetric, Expr};
use resyn::logic::Term;
use resyn::solver::SolverCache;
use resyn::synth::skeleton::{self, Shape, Skeleton};
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
/// Candidates per hole compared at their hole frame (all of them, up to 569
/// a hole, take about 45 s in the debug profile).
const HOLE_CANDIDATES: usize = 24;

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
        ty: go(&schema.ty, 0).into(),
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

/// The goal's first `FILLS` skeletons, plus with `guarded` the first match
/// skeleton whose arms are split by a guard (where the body after an early
/// hole still has checking to do), each with its candidate list per hole, as
/// the synthesizer enumerates them. Skeletons with an empty list are skipped.
fn fills(goal: &Goal, guarded: bool) -> Vec<(Skeleton, Vec<Vec<Expr>>)> {
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
    let is_guarded_match = |s: &Skeleton| s.guards > 0 && matches!(s.body, Expr::Match(..));
    let mut chosen: Vec<Skeleton> = skeletons.iter().take(FILLS).cloned().collect();
    if guarded && !chosen.iter().any(is_guarded_match) {
        chosen.extend(skeletons.iter().find(|s| is_guarded_match(s)).cloned());
    }
    chosen
        .into_iter()
        .filter_map(|skel| {
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
            (!candidates.iter().any(Vec::is_empty)).then_some((skel, candidates))
        })
        .collect()
}

/// Candidate bodies of the goal's first fills: for each skeleton, the first
/// candidates of its first hole with the rest plugged (partial), and the
/// bodies filling every hole with its i-th candidate (complete).
fn candidate_bodies(goal: &Goal) -> Vec<(Expr, bool)> {
    let mut bodies = Vec::new();
    for (skel, candidates) in fills(goal, false) {
        let n = skel.holes.len();
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

/// The goals of the given Table 1 and Table 2 rows, in the given order.
fn rows(ids: &[&str]) -> Vec<Goal> {
    let mut benches = resyn::eval::table1();
    benches.extend(resyn::eval::table2());
    ids.iter()
        .map(|id| {
            benches
                .iter()
                .find(|b| b.id == *id)
                .unwrap_or_else(|| panic!("row `{id}` was renamed"))
                .goal
                .clone()
        })
        .collect()
}

#[test]
fn prepared_checks_match_one_shot_checks_on_the_first_candidates_of_each_fill() {
    let cache = SolverCache::new();
    // [partial, complete] × [rejected, accepted]
    let mut checked = [[0usize; 2]; 2];
    for goal in rows(GOALS) {
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
    for goal in rows(GOALS) {
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

/// The body with `prefix` filling the holes before hole `prefix.len()`, that
/// hole left open and the holes after it plugged, as the synthesizer builds
/// it for a hole frame.
fn open_body(skel: &Skeleton, prefix: &[Expr]) -> Expr {
    let mut body = skel.body.clone();
    for (idx, c) in prefix.iter().enumerate() {
        body = skeleton::fill_hole(&body, idx, c);
    }
    skeleton::plug_remaining(&body, prefix.len() + 1, skel.holes.len())
}

#[test]
fn hole_frames_check_like_whole_partial_bodies() {
    // Beyond the pinned rows: `sorted-insert` has a guard-split match, and
    // with its guard `leq` charged the guard's withdrawal after the Nil hole
    // is that hole's suffix. At one unit the Cons arm's potential pays for
    // it; at two units the suffix fails. `cs1-triple` calls the
    // potential-polymorphic `append`, whose `_inst` unknowns defer the
    // resource constraints of every later call.
    let mut goals = rows(GOALS);
    let insert = rows(&["sorted-insert"]).remove(0);
    for cost in [1, 2] {
        let mut charged = insert.clone();
        charged.metric = CostMetric::PerComponent([("leq".to_string(), cost)].into());
        goals.push(charged);
    }
    goals.extend(rows(&["cs1-triple"]));
    let cache = SolverCache::new();
    // [rejected, accepted], and accepted with deferred constraints.
    let mut checked = [0usize; 2];
    let mut deferred = 0usize;
    for goal in goals {
        let fills = fills(&goal, true);
        assert!(!fills.is_empty(), "{}: no fills", goal.name);
        for &mode in MODES {
            let partial = checker(&goal, mode, true, &cache);
            let frame = partial.prepare(&goal.name, &goal.schema, &goal.components);
            for (skel, candidates) in &fills {
                // Walk the levels as the search does: compare a level's first
                // candidates at the hole and as the whole partial body, then
                // descend on the first of them the checker accepts.
                let mut prefix: Vec<Expr> = Vec::new();
                while prefix.len() < skel.holes.len() {
                    let k = prefix.len();
                    let open = open_body(skel, &prefix);
                    let hole = partial.prepare_hole(&frame, &open, &skeleton::hole_var(k));
                    let mut accepted = None;
                    for (i, c) in candidates[k].iter().enumerate().take(HOLE_CANDIDATES) {
                        let whole = skeleton::fill_hole(&open, k, c);
                        let at_hole = partial.check_hole(&frame, &hole, c);
                        let checked_whole = partial.check_body(&frame, &whole);
                        assert_eq!(
                            format!("{at_hole:?}"),
                            format!("{checked_whole:?}"),
                            "{} {mode:?} hole {k} of {whole}",
                            goal.name
                        );
                        checked[usize::from(at_hole.is_ok())] += 1;
                        if let Ok(outcome) = at_hole {
                            deferred += usize::from(!outcome.constraints.is_empty());
                            accepted.get_or_insert(i);
                        }
                    }
                    let Some(i) = accepted else { break };
                    prefix.push(candidates[k][i].clone());
                }
            }
        }
    }
    eprintln!("[rejected, accepted]: {checked:?}, {deferred} with deferred constraints");
    assert!(
        checked.iter().all(|&n| n > 0) && deferred > 0,
        "accepted, rejected and deferred candidates are covered: {checked:?}, {deferred}"
    );
}

#[test]
fn the_search_checks_each_hole_in_the_frame_of_its_own_prefix() {
    // A hole frame must be dropped as soon as a choice below its hole
    // changes. A stale frame still checks complete programs whole, so it
    // keeps the verdicts; what it changes is the partial checks' queries.
    // These two rows backtrack below a filled hole, and with a stale frame
    // they issue fewer solver misses (112 and 58 in ReSyn mode). The cache
    // hits and interned terms pin the shape of every query: a path
    // condition interned in another shape, or a verdict keyed on another
    // premise, moves them. Synquid mode adds the termination queries. The
    // last column counts the misses a recent counterexample refuted: a
    // refutation that stops firing, or fires on another query, moves it.
    for (id, mode, counts, refuted) in [
        ("sorted-insert", Mode::ReSyn, [1857, 166, 1266, 444], 25),
        ("unique-insert", Mode::ReSyn, [1645, 74, 612, 351], 27),
        ("sorted-insert", Mode::Synquid, [1857, 158, 867, 436], 25),
        ("unique-insert", Mode::Synquid, [1645, 69, 447, 343], 27),
    ] {
        let goal = rows(&[id]).remove(0);
        let outcome = Synthesizer::new()
            .with_cache(SolverCache::new())
            .synthesize(&goal, mode);
        assert!(outcome.program.is_some(), "{id} synthesizes in {mode:?}");
        let stats = outcome.stats;
        assert_eq!(
            [
                stats.candidates_checked as u64,
                stats.solver_cache_misses,
                stats.solver_cache_hits,
                stats.interned_terms as u64,
            ],
            counts,
            "{id} in {mode:?}: candidates, solver misses, cache hits and interned terms"
        );
        assert_eq!(
            stats.solver_refuted, refuted,
            "{id} in {mode:?}: solver misses refuted by a recent counterexample"
        );
    }
}
