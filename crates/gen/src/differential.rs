//! The differential fuzz runner: one generated problem, three synthesizer
//! configurations, one verdict.
//!
//! For every goal of a problem the runner synthesizes under ReSyn, the
//! enumerate-and-check ablation (EAC) and the non-incremental-CEGIS ablation
//! (NoInc), each under the same wall-clock [`Budget`] and sharing one solver
//! cache (sharing is verdict-neutral: the cache is append-only). The three
//! configurations implement the same specification, so — timeouts aside —
//! they must agree on solvability, and the two resource-guided searches
//! (ReSyn and NoInc walk the identical candidate order) must produce the
//! *same program*. On top, the runner replays ReSyn against the now-warm
//! cache and demands a bit-identical outcome: a cache that changes a verdict
//! or a program is unsound. Finally, no component the ReSyn program calls may
//! be one the reachability analysis marks unreachable — the property that
//! makes `resyn lint`'s `unreachable-component` warning trustworthy.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use resyn_budget::Budget;
use resyn_parse::surface::expr_to_surface;
use resyn_parse::ParsedProblem;
use resyn_solver::SolverCache;
use resyn_synth::{Goal, Mode, Synthesizer};
use resyn_ty::datatypes::Datatypes;

/// The modes every generated problem is run through.
pub const DIFF_MODES: &[Mode] = &[Mode::ReSyn, Mode::Eac, Mode::ReSynNoInc];

/// What one synthesis run of one goal concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A program was found.
    Solved,
    /// The search space was exhausted without a program.
    Unsolved,
    /// The budget expired first (excluded from agreement checks).
    TimedOut,
    /// The synthesizer panicked (always a failure).
    Panicked(String),
}

/// One mode's run of one goal.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Which configuration ran.
    pub mode: Mode,
    /// The verdict.
    pub verdict: Verdict,
    /// The synthesized program in surface syntax, if solved.
    pub program: Option<String>,
}

/// The differential result for one goal.
#[derive(Debug, Clone)]
pub struct GoalDiff {
    /// The goal's name.
    pub goal: String,
    /// One run per entry of [`DIFF_MODES`], in that order.
    pub runs: Vec<ModeRun>,
    /// Set when the warm-cache ReSyn replay was not bit-identical to the
    /// cold run.
    pub cache_mismatch: Option<String>,
    /// A component the ReSyn program calls although the reachability
    /// analysis marks it unreachable.
    pub unreachable_callee: Option<String>,
}

impl GoalDiff {
    fn run(&self, mode: Mode) -> Option<&ModeRun> {
        self.runs.iter().find(|r| r.mode == mode)
    }

    /// The first differential failure for this goal, if any.
    pub fn failure(&self) -> Option<String> {
        for run in &self.runs {
            if let Verdict::Panicked(msg) = &run.verdict {
                return Some(format!(
                    "goal `{}`: mode {} panicked: {msg}",
                    self.goal,
                    run.mode.as_str()
                ));
            }
        }
        if let Some(msg) = &self.cache_mismatch {
            return Some(format!("goal `{}`: cache unsoundness: {msg}", self.goal));
        }
        if let Some(name) = &self.unreachable_callee {
            return Some(format!(
                "goal `{}`: the analysis marks `{name}` unreachable, but the resyn program calls it",
                self.goal
            ));
        }
        // Timeouts make a mode incomparable, not wrong.
        let decided: Vec<&ModeRun> = self
            .runs
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Solved | Verdict::Unsolved))
            .collect();
        if decided.len() == self.runs.len()
            && decided.windows(2).any(|w| w[0].verdict != w[1].verdict)
        {
            let summary: Vec<String> = self
                .runs
                .iter()
                .map(|r| format!("{}={:?}", r.mode.as_str(), r.verdict))
                .collect();
            return Some(format!(
                "goal `{}`: verdict disagreement: {}",
                self.goal,
                summary.join(", ")
            ));
        }
        // ReSyn and NoInc walk the same search; when both solve they must
        // emit the identical program.
        if let (Some(a), Some(b)) = (self.run(Mode::ReSyn), self.run(Mode::ReSynNoInc)) {
            if a.verdict == Verdict::Solved
                && b.verdict == Verdict::Solved
                && a.program != b.program
            {
                return Some(format!(
                    "goal `{}`: resyn/noinc programs diverge:\n  resyn: {}\n  noinc: {}",
                    self.goal,
                    a.program.as_deref().unwrap_or("<none>"),
                    b.program.as_deref().unwrap_or("<none>"),
                ));
            }
        }
        None
    }
}

/// The differential result for a whole problem.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// One entry per goal, in declaration order.
    pub goals: Vec<GoalDiff>,
}

impl DiffOutcome {
    /// The first failure across all goals, if any.
    pub fn failure(&self) -> Option<String> {
        self.goals.iter().find_map(GoalDiff::failure)
    }

    /// Whether every goal passed the differential check.
    pub fn ok(&self) -> bool {
        self.failure().is_none()
    }

    /// Whether any mode of any goal ran out of budget.
    pub fn timed_out(&self) -> bool {
        self.goals
            .iter()
            .flat_map(|g| g.runs.iter())
            .any(|r| r.verdict == Verdict::TimedOut)
    }
}

fn synthesize_caught(
    goal: &Goal,
    mode: Mode,
    cache: &SolverCache,
    timeout: Duration,
) -> (Verdict, Option<String>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Synthesizer::with_timeout(timeout)
            .with_cache(cache.clone())
            .synthesize_with_budget(goal, mode, &Budget::with_timeout(timeout))
    }));
    match result {
        Ok(outcome) => match outcome.program {
            Some(p) => (Verdict::Solved, Some(expr_to_surface(&p))),
            None if outcome.stats.timed_out => (Verdict::TimedOut, None),
            None => (Verdict::Unsolved, None),
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            (Verdict::Panicked(msg), None)
        }
    }
}

/// Run one problem through all of [`DIFF_MODES`] plus the warm-cache replay,
/// and check the ReSyn program's callees against the reachability analysis.
pub fn run_differential(problem: &ParsedProblem, timeout: Duration) -> DiffOutcome {
    let goals = problem.clone().into_goals();
    let mut out = Vec::new();
    for goal in goals {
        let cache = SolverCache::new();
        let runs: Vec<ModeRun> = DIFF_MODES
            .iter()
            .map(|&mode| {
                let (verdict, program) = synthesize_caught(&goal, mode, &cache, timeout);
                ModeRun {
                    mode,
                    verdict,
                    program,
                }
            })
            .collect();
        // Cache soundness: replay ReSyn against the warm cache. Timeouts on
        // either side make the pair incomparable (the warm run being *faster*
        // is the point of the cache); otherwise verdict and program must be
        // bit-identical.
        let cold = &runs[0];
        let cache_mismatch = if cold.verdict == Verdict::TimedOut {
            None
        } else {
            let (warm_verdict, warm_program) =
                synthesize_caught(&goal, Mode::ReSyn, &cache, timeout);
            if warm_verdict == Verdict::TimedOut {
                None
            } else if warm_verdict != cold.verdict {
                Some(format!("cold {:?} vs warm {warm_verdict:?}", cold.verdict))
            } else if warm_program != cold.program {
                Some(format!(
                    "programs diverge:\n  cold: {}\n  warm: {}",
                    cold.program.as_deref().unwrap_or("<none>"),
                    warm_program.as_deref().unwrap_or("<none>"),
                ))
            } else {
                None
            }
        };
        let unreachable_callee = cold.program.as_ref().and_then(|program| {
            let report =
                resyn_analysis::analyze(&goal.schema, &goal.components, &Datatypes::standard());
            report
                .dropped
                .into_iter()
                .map(|(name, _)| name)
                .find(|name| references_ident(program, name))
        });
        out.push(GoalDiff {
            goal: goal.name.clone(),
            runs,
            cache_mismatch,
            unreachable_callee,
        });
    }
    DiffOutcome { goals: out }
}

/// Whether the rendered program references `name` as an identifier (not as
/// a substring of a longer name).
fn references_ident(program: &str, name: &str) -> bool {
    program
        .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '\''))
        .any(|tok| tok == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_parse::parse_problem;

    #[test]
    fn a_tiny_solvable_problem_agrees_across_modes() {
        let problem =
            parse_problem("goal id0 :: xs: List a -> {List a | len _v == len xs}").unwrap();
        let outcome = run_differential(&problem, Duration::from_secs(30));
        assert!(outcome.ok(), "{:?}", outcome.failure());
        assert_eq!(outcome.goals.len(), 1);
        assert_eq!(outcome.goals[0].runs.len(), DIFF_MODES.len());
        for run in &outcome.goals[0].runs {
            assert_eq!(run.verdict, Verdict::Solved, "mode {}", run.mode.as_str());
        }
    }

    #[test]
    fn a_distractor_heavy_problem_agrees_and_calls_no_unreachable_component() {
        // `tree_eq` is unreachable for this goal (no tree is ever in scope);
        // `lt`/`leq` are reachable distractors. The differential must pass,
        // which includes the ReSyn program calling nothing the analysis drops.
        let problem = parse_problem(
            "component lt :: x: a -> y: a -> {Bool | _v <==> x < y}\n\
             component leq :: x: a -> y: a -> {Bool | _v <==> x <= y}\n\
             component tree_eq :: t: Tree a -> u: Tree a -> Bool\n\
             goal id0 :: xs: List a -> {List a | len _v == len xs}",
        )
        .unwrap();
        let outcome = run_differential(&problem, Duration::from_secs(30));
        assert!(outcome.ok(), "{:?}", outcome.failure());
    }

    #[test]
    fn identifier_references_respect_word_boundaries() {
        assert!(references_ident("append xs ys", "append"));
        assert!(!references_ident("append2 xs", "append"));
        assert!(!references_ident("my_append xs", "append"));
    }

    #[test]
    fn timeouts_are_excluded_from_agreement() {
        let diff = GoalDiff {
            goal: "g".to_string(),
            runs: vec![
                ModeRun {
                    mode: Mode::ReSyn,
                    verdict: Verdict::Solved,
                    program: Some("xs".to_string()),
                },
                ModeRun {
                    mode: Mode::Eac,
                    verdict: Verdict::TimedOut,
                    program: None,
                },
                ModeRun {
                    mode: Mode::ReSynNoInc,
                    verdict: Verdict::Solved,
                    program: Some("xs".to_string()),
                },
            ],
            cache_mismatch: None,
            unreachable_callee: None,
        };
        assert!(diff.failure().is_none());
    }

    #[test]
    fn disagreements_panics_and_cache_mismatches_are_failures() {
        let solved = ModeRun {
            mode: Mode::ReSyn,
            verdict: Verdict::Solved,
            program: Some("xs".to_string()),
        };
        let unsolved = ModeRun {
            mode: Mode::Eac,
            verdict: Verdict::Unsolved,
            program: None,
        };
        let noinc = ModeRun {
            mode: Mode::ReSynNoInc,
            verdict: Verdict::Solved,
            program: Some("xs".to_string()),
        };

        let disagree = GoalDiff {
            goal: "g".to_string(),
            runs: vec![solved.clone(), unsolved, noinc.clone()],
            cache_mismatch: None,
            unreachable_callee: None,
        };
        assert!(disagree.failure().unwrap().contains("disagreement"));

        let diverge = GoalDiff {
            goal: "g".to_string(),
            runs: vec![
                solved.clone(),
                ModeRun {
                    mode: Mode::Eac,
                    verdict: Verdict::Solved,
                    program: Some("ys".to_string()),
                },
                ModeRun {
                    program: Some("ys".to_string()),
                    ..noinc.clone()
                },
            ],
            cache_mismatch: None,
            unreachable_callee: None,
        };
        assert!(diverge.failure().unwrap().contains("diverge"));

        let panicked = GoalDiff {
            goal: "g".to_string(),
            runs: vec![
                ModeRun {
                    mode: Mode::ReSyn,
                    verdict: Verdict::Panicked("boom".to_string()),
                    program: None,
                },
                solved.clone(),
                noinc.clone(),
            ],
            cache_mismatch: None,
            unreachable_callee: None,
        };
        assert!(panicked.failure().unwrap().contains("panicked"));

        let cache = GoalDiff {
            goal: "g".to_string(),
            runs: vec![
                solved,
                ModeRun {
                    mode: Mode::Eac,
                    verdict: Verdict::Solved,
                    program: Some("xs".to_string()),
                },
                noinc,
            ],
            cache_mismatch: Some("cold Solved vs warm Unsolved".to_string()),
            unreachable_callee: None,
        };
        assert!(cache.failure().unwrap().contains("cache unsoundness"));

        let unreachable = GoalDiff {
            unreachable_callee: Some("append".to_string()),
            cache_mismatch: None,
            ..cache
        };
        assert!(unreachable.failure().unwrap().contains("unreachable"));
    }
}
