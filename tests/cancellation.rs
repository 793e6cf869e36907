//! Deadlines that actually bind: end-to-end tests of the cooperative
//! budget/cancellation subsystem through the whole checking stack.
//!
//! The headline regression test feeds the synthesizer a deliberately *wide*
//! component library (24 binary list components, 6 boolean components) over
//! an unsatisfiable goal. Before the budget was threaded through the stack,
//! `--timeout` was advisory: the clock was polled only between candidate
//! acceptance checks, so E-term/guard enumeration and individual solver
//! calls ran unchecked and a run like this overran its budget arbitrarily.
//! Now every layer checkpoints the budget, so a 1 s timeout must come back
//! as `timed_out` in well under twice the budget.

use std::time::{Duration, Instant};

use resyn::budget::{Budget, CancelToken};
use resyn::parse::parse_problem;
use resyn::synth::{Goal, Mode, Synthesizer};

/// The wide-component problem shipped for this regression (CI also runs it
/// through `resyn synth --timeout 2` and checks the release binary reports
/// the timeout within 10 s).
const WIDE_PROBLEM: &str = include_str!("../examples/problems/wide_components.re");

fn wide_goal() -> Goal {
    parse_problem(WIDE_PROBLEM)
        .expect("the shipped wide-component problem parses")
        .into_goals()
        .pop()
        .expect("the problem declares one goal")
}

#[test]
fn a_one_second_timeout_binds_even_with_a_wide_component_set() {
    let synthesizer = Synthesizer::with_timeout(Duration::from_secs(1));
    let goal = wide_goal();
    let start = Instant::now();
    let outcome = synthesizer.synthesize(&goal, Mode::ReSyn);
    let elapsed = start.elapsed();
    assert!(outcome.program.is_none(), "the goal is unsatisfiable");
    assert!(
        outcome.stats.timed_out,
        "an unfinished search must report the timeout"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "a 1 s budget must bind in well under 2x the budget, took {elapsed:?}"
    );
}

#[test]
fn an_already_expired_budget_returns_without_any_search() {
    let synthesizer = Synthesizer::new();
    let goal = wide_goal();
    let start = Instant::now();
    let outcome = synthesizer.synthesize_with_budget(
        &goal,
        Mode::ReSyn,
        &Budget::with_timeout(Duration::ZERO),
    );
    assert!(outcome.program.is_none());
    assert!(outcome.stats.timed_out);
    assert_eq!(
        outcome.stats.candidates_checked, 0,
        "no candidate may be checked under an expired budget"
    );
    assert!(
        start.elapsed() < Duration::from_millis(500),
        "an expired budget must return almost immediately"
    );
}

#[test]
fn a_cancel_token_aborts_a_running_synthesis_from_another_thread() {
    // No deadline at all: only the token, tripped from another thread,
    // ends this search.
    let token = CancelToken::new();
    let budget = Budget::unlimited().attach(token.clone());
    let goal = wide_goal();
    let (outcome, cancelled_after) = std::thread::scope(|scope| {
        let worker =
            scope.spawn(|| Synthesizer::new().synthesize_with_budget(&goal, Mode::ReSyn, &budget));
        std::thread::sleep(Duration::from_millis(300));
        token.cancel();
        let cancelled_at = Instant::now();
        let outcome = worker.join().expect("the synthesis thread must not panic");
        (outcome, cancelled_at.elapsed())
    });
    assert!(outcome.program.is_none());
    assert!(
        outcome.stats.timed_out,
        "a cancelled search surfaces as timed out"
    );
    assert!(
        cancelled_after < Duration::from_secs(5),
        "cancellation must unwind within a checkpoint interval, took {cancelled_after:?}"
    );
}

#[test]
fn a_generous_budget_changes_nothing_about_a_successful_search() {
    let problem = "goal id_list :: xs: List a -> {List a | len _v == len xs}";
    let goal = parse_problem(problem).unwrap().into_goals().pop().unwrap();
    let synthesizer = Synthesizer::with_timeout(Duration::from_secs(60));
    let plain = synthesizer.synthesize(&goal, Mode::ReSyn);
    let budgeted = synthesizer.synthesize_with_budget(
        &goal,
        Mode::ReSyn,
        &Budget::with_timeout(Duration::from_secs(60)),
    );
    assert_eq!(plain.program, budgeted.program);
    assert!(plain.program.is_some());
    assert!(!budgeted.stats.timed_out);
}
