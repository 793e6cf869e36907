//! The synthesis engine: skeleton selection, hole filling with round-trip
//! checking, and final acceptance.
//!
//! # Deadlines and cancellation
//!
//! Every synthesis run executes under a [`Budget`]: [`Synthesizer::synthesize`]
//! derives one from the configured timeout, and
//! [`Synthesizer::synthesize_with_budget`] accepts an external one (the
//! synthesis server threads a per-request budget carrying the client's
//! cancellation token). The budget is observed *cooperatively at every
//! layer* — skeleton generation, E-term enumeration, the backtracking fill
//! loop, each Re² check, the CEGIS loop and the DPLL(T) search — so a hit
//! deadline unwinds as a clean `timed_out` outcome within one checkpoint
//! interval instead of whenever the current phase happens to finish.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use resyn_budget::Budget;
use resyn_lang::Expr;
use resyn_rescon::{CegisSolver, IncrementalCegis, RcResult};
use resyn_solver::SolverCache;
use resyn_ty::check::{
    CheckError, CheckOutcome, Checker, CheckerConfig, HoleFrame, Prepared, ResourceMode,
};
use resyn_ty::datatypes::Datatypes;
use resyn_ty::types::Ty;

use crate::enumerate;
use crate::goal::{Goal, Mode};
use crate::skeleton::{self, Shape, Skeleton};

/// Search statistics.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Partial or complete candidate programs submitted to the checker.
    pub candidates_checked: usize,
    /// Complete programs accepted functionally but re-checked for resources
    /// (EAC mode).
    pub resource_rechecks: usize,
    /// Skeletons explored.
    pub skeletons: usize,
    /// Wall-clock time spent.
    pub duration: Duration,
    /// Whether the search hit the timeout.
    pub timed_out: bool,
    /// Solver queries answered from the shared query cache during this run.
    pub solver_cache_hits: u64,
    /// Solver queries of this run not answered from the cache's table:
    /// solved or refuted (and then cached).
    pub solver_cache_misses: u64,
    /// Misses of this run refuted by one of the cache's recent
    /// counterexamples instead of solved.
    pub solver_refuted: u64,
    /// Terms newly interned into the cache's hash-consing arena by this run.
    pub interned_terms: usize,
    /// Solver misses of this run that gave up with an `Unknown` verdict
    /// (the checker reads one as "not valid").
    pub solver_unknowns: u64,
}

impl SynthStats {
    /// Fold another run's counters into this one: counts and durations add,
    /// and the merged run timed out if any constituent did. Used to aggregate
    /// statistics across the modes of one benchmark (each run on its own
    /// cache), across the rows of an evaluation report and across the goals
    /// of one server request.
    pub fn merge(&mut self, other: &SynthStats) {
        self.candidates_checked += other.candidates_checked;
        self.resource_rechecks += other.resource_rechecks;
        self.skeletons += other.skeletons;
        self.duration += other.duration;
        self.timed_out |= other.timed_out;
        self.solver_cache_hits += other.solver_cache_hits;
        self.solver_cache_misses += other.solver_cache_misses;
        self.solver_refuted += other.solver_refuted;
        self.interned_terms += other.interned_terms;
        self.solver_unknowns += other.solver_unknowns;
    }
}

/// The result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// The synthesized program (a `fix`/λ chain), if any.
    pub program: Option<Expr>,
    /// Search statistics.
    pub stats: SynthStats,
}

impl SynthOutcome {
    /// Size (AST nodes) of the synthesized program, if any.
    pub fn code_size(&self) -> usize {
        self.program.as_ref().map(Expr::size).unwrap_or(0)
    }
}

/// The synthesizer.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    /// Datatype registry shared with the checker.
    pub datatypes: Datatypes,
    /// Wall-clock budget for one synthesis problem.
    pub timeout: Duration,
    /// Cap on E-term candidates per hole.
    pub eterm_cap: usize,
    /// The solver query cache shared by every check issued through this
    /// synthesizer — the round-robin search re-proves nothing twice.
    cache: SolverCache,
}

impl Default for Synthesizer {
    fn default() -> Self {
        Synthesizer {
            datatypes: Datatypes::standard(),
            timeout: Duration::from_secs(600),
            eterm_cap: 600,
            cache: SolverCache::new(),
        }
    }
}

impl Synthesizer {
    /// A synthesizer with the standard datatypes and the paper's 10-minute
    /// timeout.
    pub fn new() -> Synthesizer {
        Synthesizer::default()
    }

    /// A synthesizer with a custom timeout.
    pub fn with_timeout(timeout: Duration) -> Synthesizer {
        Synthesizer {
            timeout,
            ..Synthesizer::default()
        }
    }

    /// Replace the solver query cache with a shared one. Synthesizers that
    /// share a cache (the server's sessions do) answer each other's repeated
    /// queries without touching the decision procedures; cached verdicts may
    /// be evicted but never change, and the cache is internally
    /// synchronized, so sharing never changes a verdict.
    ///
    /// The synthesizer takes a [`scoped`](SolverCache::scoped) handle: its
    /// reported statistics count only this synthesizer's own lookups, not
    /// those of concurrent sharers of the same tables.
    pub fn with_cache(mut self, cache: SolverCache) -> Synthesizer {
        self.cache = cache.scoped();
        self
    }

    // Kept only for perfbench's `exec.rs`, which still calls it with 1.
    #[doc(hidden)]
    pub fn with_goal_jobs(self, jobs: usize) -> Synthesizer {
        debug_assert_eq!(jobs, 1);
        self
    }

    /// The solver query cache this synthesizer stores verdicts in (a cheap
    /// `Arc` clone; see [`SolverCache`]).
    pub fn cache(&self) -> SolverCache {
        self.cache.clone()
    }

    fn checker(&self, goal: &Goal, mode: Mode, holes: bool, budget: &Budget) -> Checker {
        let resource_mode = match mode {
            Mode::ReSyn | Mode::ReSynNoInc => ResourceMode::Resource,
            Mode::Synquid | Mode::Eac => ResourceMode::Agnostic,
            Mode::ConstantTime => ResourceMode::ConstantResource,
        };
        Checker::new(
            self.datatypes.clone(),
            CheckerConfig {
                mode: resource_mode,
                metric: goal.metric.clone(),
                allow_holes: holes,
            },
        )
        .with_cache(self.cache.clone())
        .with_budget(budget.clone())
    }

    /// Check a candidate (possibly partial) program; in resource modes the
    /// residual CEGIS constraints must also be satisfiable.
    ///
    /// A cancelled check (budget exhausted mid-obligation) reports `false`:
    /// the caller's own checkpoint observes the same budget and converts the
    /// rejection into a `timed_out` outcome instead of searching on.
    fn accepts(
        &self,
        goal: &Goal,
        mode: Mode,
        program: &Expr,
        holes: bool,
        budget: &Budget,
    ) -> bool {
        let checker = self.checker(goal, mode, holes, budget);
        let outcome = checker.check_function(&goal.name, program, &goal.schema, &goal.components);
        self.solved(mode, outcome, budget)
    }

    /// Whether a check succeeded and, in resource modes, its residual
    /// resource constraints are solved by CEGIS.
    fn solved(
        &self,
        mode: Mode,
        outcome: Result<CheckOutcome, CheckError>,
        budget: &Budget,
    ) -> bool {
        let Ok(outcome) = outcome else {
            return false;
        };
        if outcome.constraints.is_empty() {
            return true;
        }
        // Solve the residual resource constraints with CEGIS.
        let env = resyn_logic::SortingEnv::new();
        let solver = CegisSolver::new(env)
            .with_cache(self.cache.clone())
            .with_budget(budget.clone());
        let mut cegis = IncrementalCegis::new(solver, outcome.unknowns.clone());
        let result = if matches!(mode, Mode::ReSynNoInc) {
            let r = cegis.add_constraints(&outcome.constraints);
            // The non-incremental ablation re-solves the whole system from
            // scratch, discarding the incremental state.
            if r.is_solved() {
                cegis.resolve_from_scratch()
            } else {
                r
            }
        } else {
            cegis.add_constraints(&outcome.constraints)
        };
        matches!(result, RcResult::Solved(_))
    }

    /// Check a complete candidate program against a goal in the given mode:
    /// type-check it under Re² and solve any residual resource constraints.
    ///
    /// This is the acceptance test the synthesizer applies to finished
    /// candidates, exposed so external programs (for example the `resyn`
    /// command-line tool) can verify hand-written implementations against a
    /// resource-annotated signature.
    ///
    /// Runs under an *unlimited* budget: the boolean result cannot express
    /// "ran out of time", so a budgeted check would misreport a correct
    /// program as rejected whenever the deadline hit mid-obligation. A
    /// single check is one candidate's worth of work — it is the *search*
    /// over thousands of candidates that the timeout exists to bound.
    pub fn check(&self, goal: &Goal, mode: Mode, program: &Expr) -> bool {
        self.accepts(goal, mode, program, false, &Budget::unlimited())
    }

    /// Synthesize a program for `goal` in the given mode, under a [`Budget`]
    /// derived from the configured timeout.
    pub fn synthesize(&self, goal: &Goal, mode: Mode) -> SynthOutcome {
        self.synthesize_with_budget(goal, mode, &Budget::with_timeout(self.timeout))
    }

    /// Synthesize a program for `goal` in the given mode under an external
    /// [`Budget`] — typically one carrying a
    /// [`CancelToken`](resyn_budget::CancelToken) so the caller (the
    /// synthesis server) can abort the search mid-flight. The configured [`timeout`](Synthesizer::timeout) is
    /// ignored; the budget is the only limit.
    pub fn synthesize_with_budget(&self, goal: &Goal, mode: Mode, budget: &Budget) -> SynthOutcome {
        let start = Instant::now();
        // The cache outlives individual goals; snapshot this synthesizer's
        // handle counters so the reported statistics cover this run only
        // (handle counters exclude concurrent sharers of the same tables).
        let cache_before = self.cache.handle_stats();

        // Parameter shapes drive skeleton generation.
        let (params, ret_ty) = goal.schema.ty.uncurry();
        let param_shapes: Vec<(String, Shape)> = params
            .iter()
            .filter_map(|(n, t, _)| Shape::of(t).map(|s| (n.clone(), s)))
            .collect();
        let Some(ret_shape) = Shape::of(&ret_ty) else {
            return SynthOutcome {
                program: None,
                stats: SynthStats::default(),
            };
        };

        let mut search =
            GoalSearch::new(self, goal, mode, budget, params, &param_shapes, ret_shape);
        let guard_fn = |scope: &[(String, Shape)]| enumerate::guards(goal, scope, budget);
        let program = skeleton::skeletons(&param_shapes, &self.datatypes, &guard_fn, budget)
            .take_while(|_| !budget.is_exceeded())
            .find_map(|skel| search.fill_skeleton(&skel));
        let mut stats = search.stats;

        stats.duration = start.elapsed();
        stats.timed_out = program.is_none() && budget.is_exceeded();
        self.record_cache_stats(&mut stats, &cache_before);
        SynthOutcome { program, stats }
    }

    /// Record the cache activity of this run: the difference between this
    /// synthesizer's handle counters now and at the start of the run (the
    /// handle — and its counters — persists across goals, and counts only
    /// this synthesizer's own lookups even when the tables are shared with
    /// concurrently running synthesizers).
    fn record_cache_stats(&self, stats: &mut SynthStats, before: &resyn_solver::HandleStats) {
        let cs = self.cache.handle_stats();
        stats.solver_cache_hits = cs.hits - before.hits;
        stats.solver_cache_misses = cs.misses - before.misses;
        stats.solver_refuted = cs.refuted - before.refuted;
        stats.interned_terms = cs.interned_terms - before.interned_terms;
        stats.solver_unknowns = cs.unknowns - before.unknowns;
    }
}

/// The state of one goal's search, built once per goal: everything a
/// skeleton fill needs that does not depend on the skeleton.
struct GoalSearch<'s> {
    synth: &'s Synthesizer,
    goal: &'s Goal,
    mode: Mode,
    budget: &'s Budget,
    /// The goal's parameters, which wrap an accepted body into a program.
    params: Vec<(String, Ty, i64)>,
    /// The shapes of the parameters: every hole scope starts with them.
    param_shapes: &'s [(String, Shape)],
    ret_shape: Shape,
    /// Checks partial candidates at their hole.
    partial: Checker,
    /// Checks complete programs.
    complete: Checker,
    /// The goal's signature, prepared once and shared by both checkers.
    frame: Prepared,
    eterms: ETermMemo,
    stats: SynthStats,
}

impl<'s> GoalSearch<'s> {
    fn new(
        synth: &'s Synthesizer,
        goal: &'s Goal,
        mode: Mode,
        budget: &'s Budget,
        params: Vec<(String, Ty, i64)>,
        param_shapes: &'s [(String, Shape)],
        ret_shape: Shape,
    ) -> GoalSearch<'s> {
        let partial = synth.checker(goal, mode, true, budget);
        let complete = synth.checker(goal, mode, false, budget);
        let frame = partial.prepare(&goal.name, &goal.schema, &goal.components);
        GoalSearch {
            synth,
            goal,
            mode,
            budget,
            params,
            param_shapes,
            ret_shape,
            partial,
            complete,
            frame,
            eterms: ETermMemo::default(),
            stats: SynthStats::default(),
        }
    }

    /// Wrap a body into the `fix`/λ chain matching the goal parameters.
    fn wrap(&self, body: Expr) -> Expr {
        let mut expr = body;
        for (i, (name, _, _)) in self.params.iter().enumerate().rev() {
            if i == 0 {
                expr = Expr::fix(self.goal.name.clone(), name.clone(), expr);
            } else {
                expr = Expr::lambda(name.clone(), expr);
            }
        }
        expr
    }

    /// Fill the holes of a skeleton left-to-right with backtracking.
    fn fill_skeleton(&mut self, skel: &Skeleton) -> Option<Expr> {
        let (synth, goal, mode, budget) = (self.synth, self.goal, self.mode, self.budget);
        self.stats.skeletons += 1;
        // Candidate lists per hole, enumerated once per scope of the goal
        // (each enumeration observes the budget internally; a cancelled
        // enumeration yields a truncated list and the loop checkpoint below
        // stops the fill, as it stops every later one).
        let mut candidates: Vec<Rc<[Expr]>> = Vec::with_capacity(skel.holes.len());
        for hole in &skel.holes {
            if budget.is_exceeded() {
                return None;
            }
            let mut scope = self.param_shapes.to_vec();
            scope.extend(hole.binders.clone());
            let list = self.eterms.entry(scope).or_insert_with_key(|scope| {
                enumerate::eterms(
                    goal,
                    &synth.datatypes,
                    scope,
                    &self.ret_shape,
                    synth.eterm_cap,
                    budget,
                )
                .into()
            });
            candidates.push(Rc::clone(list));
        }
        if candidates.iter().any(|list| list.is_empty()) {
            return None;
        }

        // Every candidate is checked in the goal's prepared frame. A partial
        // candidate is checked at its hole, in a hole frame built once per
        // (level, prefix): `frames[k]` holds the checking state at hole `k`
        // for the current choices below `k`, and is dropped as soon as one
        // of them changes. A complete program is checked whole; only
        // accepted programs are wrapped.
        let n = skel.holes.len();
        let mut choice = vec![0usize; n];
        let mut frames: Vec<HoleFrame> = Vec::with_capacity(n);
        let mut level = 0usize;
        loop {
            if budget.is_exceeded() {
                return None;
            }
            if level == n {
                // Complete program: final acceptance.
                let body = build_body(skel, &candidates, &choice, n);
                self.stats.candidates_checked += 1;
                let outcome = self.complete.check_body(&self.frame, &body);
                if synth.solved(mode, outcome, budget) {
                    let program = self.wrap(body);
                    if !matches!(mode, Mode::Eac) {
                        return Some(program);
                    }
                    // EAC: the program is functionally correct; now check
                    // its resources.
                    self.stats.resource_rechecks += 1;
                    if synth.accepts(goal, Mode::ReSyn, &program, false, budget) {
                        return Some(program);
                    }
                }
                // Backtrack: advance the deepest hole.
                level = n - 1;
                choice[level] += 1;
                continue;
            }
            if choice[level] >= candidates[level].len() {
                // Exhausted this hole: backtrack. The hole's frame goes with
                // it, since the choice below it is about to change.
                if level == 0 {
                    return None;
                }
                frames.truncate(level);
                choice[level] = 0;
                level -= 1;
                choice[level] += 1;
                continue;
            }
            if frames.len() == level {
                let open = build_body(skel, &candidates, &choice, level);
                let hole = skeleton::hole_var(level);
                frames.push(self.partial.prepare_hole(&self.frame, &open, &hole));
            }
            // Check the partial program: the current candidate at its hole.
            self.stats.candidates_checked += 1;
            let candidate = &candidates[level][choice[level]];
            let outcome = self
                .partial
                .check_hole(&self.frame, &frames[level], candidate);
            if synth.solved(mode, outcome, budget) {
                level += 1;
            } else {
                choice[level] += 1;
            }
        }
    }
}

/// The E-terms of each hole scope met in one goal's search, keyed by the full
/// ordered scope (the goal's parameters, then the hole's binders): most
/// skeletons of a goal share their hole scopes, and the list depends on
/// nothing else that varies within the search.
type ETermMemo = HashMap<Vec<(String, Shape)>, Rc<[Expr]>>;

/// Assemble the skeleton body with the holes below `open` replaced by their
/// chosen candidates, hole `open` left as its variable, and the holes above
/// it plugged with hole markers. With `open` equal to the hole count every
/// hole is filled: the complete program.
///
/// Every choice in `choice[..open]` is in range by construction: the fill
/// loop only deepens a level after bounds-checking its counter, and resets
/// it on backtrack. Indexing directly turns a violation of that invariant
/// into a loud panic instead of a wrong-but-plausible program.
fn build_body(skel: &Skeleton, candidates: &[Rc<[Expr]>], choice: &[usize], open: usize) -> Expr {
    let mut body = skel.body.clone();
    for (idx, &c) in choice.iter().enumerate().take(open) {
        debug_assert!(
            c < candidates[idx].len(),
            "choice {c} out of range for hole {idx} ({} candidates)",
            candidates[idx].len()
        );
        body = skeleton::fill_hole(&body, idx, &candidates[idx][c]);
    }
    skeleton::plug_remaining(&body, open + 1, skel.holes.len())
}
