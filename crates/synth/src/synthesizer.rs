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
//!
//! # Parallel in-goal search
//!
//! With [`goal_jobs`](Synthesizer::goal_jobs) > 1 the skeleton list of a
//! single goal is fanned across a first-win worker pool
//! (`std::thread::scope`, shared [`SolverCache`], one claimed skeleton at a
//! time per worker). The winner is deterministic — the *lowest* skeleton
//! index among successes, exactly the skeleton the sequential search would
//! have returned — because a success only cancels the workers on *higher*
//! indices; lower-index fills always run to completion first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use resyn_budget::{Budget, CancelToken};
use resyn_lang::Expr;
use resyn_rescon::{CegisSolver, IncrementalCegis, RcResult};
use resyn_solver::SolverCache;
use resyn_ty::check::{CheckError, CheckOutcome, Checker, CheckerConfig, HoleFrame, ResourceMode};
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
    /// Solver queries this run had to solve (and then cached).
    pub solver_cache_misses: u64,
    /// Terms newly interned into the cache's hash-consing arena by this run.
    pub interned_terms: usize,
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
        self.interned_terms += other.interned_terms;
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
    /// Worker threads fanned across the skeletons of a *single* goal
    /// (first-win pool with deterministic lowest-index winner); `1` keeps
    /// the sequential search.
    pub goal_jobs: usize,
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
            goal_jobs: 1,
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

    /// Fan the skeletons of each goal across `jobs` first-win workers
    /// (clamped to at least 1). The synthesized program is identical to the
    /// sequential search's — see the module documentation.
    pub fn with_goal_jobs(mut self, jobs: usize) -> Synthesizer {
        self.goal_jobs = jobs.max(1);
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
            cegis.add_unknowns(&outcome.unknowns);
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

    /// The final resource check used by EAC mode once a functionally-correct
    /// program has been found.
    fn resource_accepts(&self, goal: &Goal, program: &Expr, budget: &Budget) -> bool {
        self.accepts(goal, Mode::ReSyn, program, false, budget)
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
    /// [`Budget`] — typically one carrying a [`CancelToken`] so the caller
    /// (the synthesis server, a first-win pool) can abort the search
    /// mid-flight. The configured [`timeout`](Synthesizer::timeout) is
    /// ignored; the budget is the only limit.
    pub fn synthesize_with_budget(&self, goal: &Goal, mode: Mode, budget: &Budget) -> SynthOutcome {
        let start = Instant::now();
        // The cache outlives individual goals; snapshot this synthesizer's
        // handle counters so the reported statistics cover this run only
        // (handle counters exclude concurrent sharers of the same tables).
        let cache_before = self.cache.handle_stats();
        let mut stats = SynthStats::default();

        // Parameter shapes drive skeleton generation.
        let (params, ret_ty) = goal.schema.ty.uncurry();
        let param_shapes: Vec<(String, Shape)> = params
            .iter()
            .filter_map(|(n, t, _)| Shape::of(t).map(|s| (n.clone(), s)))
            .collect();
        let Some(ret_shape) = Shape::of(&ret_ty) else {
            return SynthOutcome {
                program: None,
                stats,
            };
        };

        let guard_fn = |scope: &[(String, Shape)]| enumerate::guards(goal, scope, budget);
        let skeletons = skeleton::generate(&param_shapes, &self.datatypes, &guard_fn, budget);

        let program = if self.goal_jobs > 1 && skeletons.len() > 1 {
            self.fill_first_win(
                goal, mode, &skeletons, &params, &ret_shape, &mut stats, budget,
            )
        } else {
            let mut found = None;
            for skel in &skeletons {
                if budget.is_exceeded() {
                    break;
                }
                stats.skeletons += 1;
                if let Some(program) =
                    self.fill_skeleton(goal, mode, skel, &params, &ret_shape, &mut stats, budget)
                {
                    found = Some(program);
                    break;
                }
            }
            found
        };

        stats.duration = start.elapsed();
        stats.timed_out = program.is_none() && budget.is_exceeded();
        self.record_cache_stats(&mut stats, &cache_before);
        SynthOutcome { program, stats }
    }

    /// Fan the skeletons across a first-win worker pool. Workers claim
    /// skeleton indices from a shared counter; a success at index `i`
    /// cancels every worker on an index above `i` (they can no longer win)
    /// while fills below `i` always run to completion, so the returned
    /// program is the one at the *lowest* successful index — exactly what
    /// the sequential search returns.
    #[allow(clippy::too_many_arguments)]
    fn fill_first_win(
        &self,
        goal: &Goal,
        mode: Mode,
        skeletons: &[Skeleton],
        params: &[(String, Ty, i64)],
        ret_shape: &Shape,
        stats: &mut SynthStats,
        budget: &Budget,
    ) -> Option<Expr> {
        let jobs = self.goal_jobs.min(skeletons.len());
        // One child budget per skeleton: cancelling a child stops exactly
        // that fill, while the parent deadline/token still stops them all.
        let children: Vec<(Budget, CancelToken)> =
            skeletons.iter().map(|_| budget.child()).collect();
        let next = AtomicUsize::new(0);
        let best: Mutex<Option<(usize, Expr)>> = Mutex::new(None);
        let merged: Mutex<SynthStats> = Mutex::new(SynthStats::default());
        // A worker panic mid-update cannot tear the winner slot (it is
        // replaced atomically under the lock), so poisoning is benign.
        fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
            m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut local = SynthStats::default();
                    loop {
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        if idx >= skeletons.len() {
                            break;
                        }
                        // Indices only grow per worker: once the current
                        // winner sits below this claim, nothing left to
                        // claim can win.
                        if matches!(*lock(&best), Some((winner, _)) if winner < idx) {
                            break;
                        }
                        if budget.is_exceeded() {
                            break;
                        }
                        local.skeletons += 1;
                        let (child_budget, _) = &children[idx];
                        if let Some(program) = self.fill_skeleton(
                            goal,
                            mode,
                            &skeletons[idx],
                            params,
                            ret_shape,
                            &mut local,
                            child_budget,
                        ) {
                            let mut best = lock(&best);
                            let improves = !matches!(*best, Some((winner, _)) if winner < idx);
                            if improves {
                                *best = Some((idx, program));
                                // First-win cancellation: everything on a
                                // higher index is now a guaranteed loser.
                                for (_, token) in &children[idx + 1..] {
                                    token.cancel();
                                }
                            }
                        }
                    }
                    merged
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .merge(&local);
                });
            }
        });
        let merged = merged
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        stats.merge(&merged);
        best.into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map(|(_, program)| program)
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
        stats.interned_terms = cs.interned_terms - before.interned_terms;
    }

    /// Wrap a body into the `fix`/λ chain matching the goal parameters.
    fn wrap(&self, goal: &Goal, params: &[(String, Ty, i64)], body: Expr) -> Expr {
        let mut expr = body;
        for (i, (name, _, _)) in params.iter().enumerate().rev() {
            if i == 0 {
                expr = Expr::fix(goal.name.clone(), name.clone(), expr);
            } else {
                expr = Expr::lambda(name.clone(), expr);
            }
        }
        expr
    }

    /// Fill the holes of a skeleton left-to-right with backtracking.
    #[allow(clippy::too_many_arguments)]
    fn fill_skeleton(
        &self,
        goal: &Goal,
        mode: Mode,
        skel: &Skeleton,
        params: &[(String, Ty, i64)],
        ret_shape: &Shape,
        stats: &mut SynthStats,
        budget: &Budget,
    ) -> Option<Expr> {
        let param_shapes: Vec<(String, Shape)> = params
            .iter()
            .filter_map(|(n, t, _)| Shape::of(t).map(|s| (n.clone(), s)))
            .collect();

        // Candidate lists per hole (each enumeration observes the budget
        // internally; a cancelled enumeration yields a truncated list and
        // the loop checkpoint below stops the fill).
        let mut candidates: Vec<Vec<Expr>> = Vec::with_capacity(skel.holes.len());
        for hole in &skel.holes {
            if budget.is_exceeded() {
                return None;
            }
            let mut scope = param_shapes.clone();
            scope.extend(hole.binders.clone());
            candidates.push(enumerate::eterms(
                goal,
                &self.datatypes,
                &scope,
                ret_shape,
                self.eterm_cap,
                budget,
            ));
        }
        if candidates.iter().any(Vec::is_empty) {
            return None;
        }

        // Every candidate of this fill is checked in one prepared frame of the
        // goal's signature. A partial candidate is checked at its hole, in a
        // hole frame built once per (level, prefix): `frames[k]` holds the
        // checking state at hole `k` for the current choices below `k`, and
        // is dropped as soon as one of them changes. A complete program is
        // checked whole; only accepted programs are wrapped.
        let partial = self.checker(goal, mode, true, budget);
        let complete = self.checker(goal, mode, false, budget);
        let frame = partial.prepare(&goal.name, &goal.schema, &goal.components);

        // Backtracking over candidate indices.
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
                stats.candidates_checked += 1;
                if self.solved(mode, complete.check_body(&frame, &body), budget) {
                    let program = self.wrap(goal, params, body);
                    if !matches!(mode, Mode::Eac) {
                        return Some(program);
                    }
                    stats.resource_rechecks += 1;
                    if self.resource_accepts(goal, &program, budget) {
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
                frames.push(partial.prepare_hole(&frame, &open, &skeleton::hole_var(level)));
            }
            // Check the partial program: the current candidate at its hole.
            stats.candidates_checked += 1;
            let candidate = &candidates[level][choice[level]];
            let outcome = partial.check_hole(&frame, &frames[level], candidate);
            if self.solved(mode, outcome, budget) {
                level += 1;
            } else {
                choice[level] += 1;
            }
        }
    }
}

/// Assemble the skeleton body with the holes below `open` replaced by their
/// chosen candidates, hole `open` left as its variable, and the holes above
/// it plugged with hole markers. With `open` equal to the hole count every
/// hole is filled: the complete program.
///
/// Every choice in `choice[..open]` is in range by construction: the fill
/// loop only deepens a level after bounds-checking its counter, and resets
/// it on backtrack. Indexing directly turns a violation of that invariant
/// into a loud panic instead of a wrong-but-plausible program.
fn build_body(skel: &Skeleton, candidates: &[Vec<Expr>], choice: &[usize], open: usize) -> Expr {
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
