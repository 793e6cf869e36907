//! Per-layer attribution for the traced run: after a goal's cold run and
//! warm replay, the benchmark re-issues each layer's public call on that
//! goal (or on the program found) inside its own span. These are
//! attributions, not measurements of the search itself: the search's
//! internal split is not visible from outside the program.

use resyn_budget::Budget;
use resyn_lang::Expr;
use resyn_logic::SortingEnv;
use resyn_rescon::{CegisSolver, IncrementalCegis};
use resyn_solver::SolverCache;
use resyn_synth::skeleton::{self, Shape};
use resyn_synth::{enumerate, Goal, Mode, Synthesizer};
use resyn_ty::check::{Checker, CheckerConfig, ResourceMode};

use crate::exec::GoalRun;
use crate::trace::Tracer;
use crate::workload::{self, Input};

/// Counts made by the re-issued layer calls of one goal run.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Components reachability pruning dropped from the library.
    pub pruned: usize,
    /// Skeletons generated for the goal.
    pub skeletons: usize,
    /// E-terms enumerated over the holes of the explored skeletons.
    pub eterms: usize,
    /// CEGIS verification plus synthesis queries on the found program.
    pub rescon_queries: usize,
    /// CEGIS counterexamples on the found program.
    pub rescon_counterexamples: usize,
    /// Bytes of rendered problem text parsed (suite rows only; generated
    /// problems are parsed on the timed path).
    pub parsed_bytes: usize,
}

/// The checker's resource mode for a synthesis mode, as the synthesizer
/// chooses it.
fn resource_mode(mode: Mode) -> ResourceMode {
    match mode {
        Mode::ReSyn | Mode::ReSynNoInc => ResourceMode::Resource,
        Mode::Synquid | Mode::Eac => ResourceMode::Agnostic,
        Mode::ConstantTime => ResourceMode::ConstantResource,
    }
}

/// The goal with the components reachability pruning drops removed, as the
/// synthesizer searches it.
fn pruned_goal(goal: &Goal, synth: &Synthesizer, run: u32, tracer: &Tracer) -> (Goal, usize) {
    let (report, _) = tracer.time(run, "analysis.analyze", || {
        resyn_analysis::analyze(&goal.schema, &goal.components, &synth.datatypes)
    });
    let mut pruned = goal.clone();
    pruned.components.retain(|name, _| report.is_kept(name));
    (pruned, report.library_size - report.pruned_size())
}

/// Re-issue every layer's public call for one goal run.
pub fn attribute(
    input: &Input,
    record: &GoalRun,
    synth: &Synthesizer,
    run: u32,
    tracer: &Tracer,
) -> LayerCounts {
    let mut counts = LayerCounts::default();
    if let Input::Row { goal, .. } = input {
        let text = &workload::render_goal(goal);
        let (parsed, _) = tracer.time(run, "parse.problem", || resyn_parse::parse_problem(text));
        let (linted, _) = tracer.time(run, "analysis.lint", || {
            resyn_parse::lint_source_structural(text)
        });
        if parsed.is_ok() && linted.is_ok() {
            counts.parsed_bytes = text.len();
        }
    }

    let (goal, pruned) = pruned_goal(&record.goal, synth, run, tracer);
    counts.pruned = pruned;

    let budget = Budget::unlimited();
    let (params, ret_ty) = goal.schema.ty.uncurry();
    let param_shapes: Vec<(String, Shape)> = params
        .iter()
        .filter_map(|(n, t, _)| Shape::of(t).map(|s| (n.clone(), s)))
        .collect();
    let Some(ret_shape) = Shape::of(&ret_ty) else {
        return counts;
    };
    let guard_fn = |scope: &[(String, Shape)]| {
        tracer
            .time(run, "enumerate.guards", || {
                enumerate::guards(&goal, scope, &budget)
            })
            .0
    };
    let (skeletons, _) = tracer.time(run, "skeleton.generate", || {
        skeleton::generate(&param_shapes, &synth.datatypes, &guard_fn, &budget)
    });
    counts.skeletons = skeletons.len();
    for skel in skeletons.iter().take(record.cold.skeletons) {
        for hole in &skel.holes {
            let mut scope = param_shapes.clone();
            scope.extend(hole.binders.iter().cloned());
            let (terms, _) = tracer.time(run, "enumerate.eterms", || {
                enumerate::eterms(
                    &goal,
                    &synth.datatypes,
                    &scope,
                    &ret_shape,
                    synth.eterm_cap,
                    &budget,
                )
            });
            counts.eterms += terms.len();
        }
    }

    if let Some(program) = &record.program {
        let (queries, counterexamples) =
            final_check(&goal, record.mode, program, synth, run, tracer);
        counts.rescon_queries = queries;
        counts.rescon_counterexamples = counterexamples;
    }
    counts
}

/// Check the found program on the synthesizer's warm cache, then solve its
/// residual resource constraints with CEGIS on a cold cache, as the
/// synthesizer's acceptance test does. Returns the CEGIS query and
/// counterexample counts.
fn final_check(
    goal: &Goal,
    mode: Mode,
    program: &Expr,
    synth: &Synthesizer,
    run: u32,
    tracer: &Tracer,
) -> (usize, usize) {
    let checker = Checker::new(
        synth.datatypes.clone(),
        CheckerConfig {
            mode: resource_mode(mode),
            metric: goal.metric.clone(),
            allow_holes: false,
        },
    )
    .with_cache(synth.cache());
    let (outcome, _) = tracer.time(run, "check.final", || {
        checker.check_function(&goal.name, program, &goal.schema, &goal.components)
    });
    let Ok(outcome) = outcome else {
        return (0, 0);
    };
    let solver = CegisSolver::new(SortingEnv::new()).with_cache(SolverCache::new());
    let (stats, _) = tracer.time(run, "rescon.cegis", || {
        let mut cegis = IncrementalCegis::new(solver, outcome.unknowns.clone());
        if mode == Mode::ReSynNoInc {
            cegis.add_unknowns(&outcome.unknowns);
            if cegis.add_constraints(&outcome.constraints).is_solved() {
                cegis.resolve_from_scratch();
            }
        } else {
            cegis.add_constraints(&outcome.constraints);
        }
        cegis.stats().clone()
    });
    (
        stats.verification_queries + stats.synthesis_queries,
        stats.counterexamples,
    )
}
