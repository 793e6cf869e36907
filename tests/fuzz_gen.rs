//! The differential fuzz harness over generated problems: every problem in a
//! seeded batch must (a) render deterministically, (b) round-trip through the
//! surface parser, and (c) produce agreeing verdicts across ReSyn, EAC and
//! NoInc — with no panics, a bit-identical warm-cache replay, and no call in
//! the ReSyn program to a component the reachability analysis (and hence
//! `resyn lint`) marks unreachable.
//!
//! This is the acceptance gate of the generator subsystem: 100 problems,
//! zero disagreements. A failure is shrunk before being reported so the
//! panic message carries a minimal reproducer.

use std::time::Duration;

use resyn::gen::{problems, render_batch, run_differential, shrink, GenConfig, GenProblem};

const FUZZ_CONFIG: GenConfig = GenConfig {
    seed: 42,
    count: 100,
    size: 3,
};

/// Per-mode budget; generous relative to the sub-second problems the default
/// size emits, so timeouts (which void a comparison) stay rare even on a
/// loaded CI machine.
const BUDGET: Duration = Duration::from_secs(30);

#[test]
fn gen_is_byte_deterministic_across_runs() {
    let first = render_batch(&problems(&FUZZ_CONFIG));
    let second = render_batch(&problems(&FUZZ_CONFIG));
    assert_eq!(first, second, "same config must render identical bytes");
    assert!(!first.is_empty());
}

#[test]
fn generated_problems_round_trip_through_the_parser() {
    for problem in problems(&FUZZ_CONFIG) {
        let text = problem.render();
        let parsed = resyn::parse::parse_problem(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}\n{text}", problem.id));
        let built = problem.problem();
        assert_eq!(parsed.components, built.components, "{}", problem.id);
        assert_eq!(parsed.goals, built.goals, "{}", problem.id);
        assert_eq!(parsed.metric, built.metric, "{}", problem.id);
    }
}

#[test]
fn differential_fuzz_has_zero_disagreements_on_100_problems() {
    let batch = problems(&FUZZ_CONFIG);
    assert_eq!(batch.len(), 100);
    let mut failures = Vec::new();
    for problem in &batch {
        let outcome = run_differential(&problem.problem(), BUDGET);
        if let Some(failure) = outcome.failure() {
            failures.push(report_shrunk(problem, &failure));
        }
    }
    assert!(
        failures.is_empty(),
        "{} differential failure(s):\n{}",
        failures.len(),
        failures.join("\n---\n")
    );
}

/// Minimize a failing problem (re-running the differential at each step) and
/// format a reproducer.
fn report_shrunk(problem: &GenProblem, failure: &str) -> String {
    let shrunk = shrink(&problem.spec, &mut |candidate| {
        run_differential(&candidate.problem(), BUDGET)
            .failure()
            .is_some()
    });
    format!(
        "{}: {failure}\nshrunk reproducer:\n{}",
        problem.id,
        shrunk.render()
    )
}
