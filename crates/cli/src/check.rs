//! `resyn check`: type-check a hand-written program against a goal.

use resyn_parse::parse_expr;
use resyn_synth::Synthesizer;

use crate::flags::load_goals;
use crate::{CliError, Options};

/// `resyn check`: type-check a hand-written program against a goal signature.
/// On success the report names the goal and the mode; on failure a
/// [`CliError::CheckFailed`] is returned. The check runs to its verdict:
/// `check` takes no `--timeout`.
///
/// # Errors
///
/// Returns a [`CliError`] if parsing fails, the goal cannot be found, or the
/// program does not satisfy the signature under the selected mode.
pub fn run_check(
    problem_text: &str,
    program_text: &str,
    opts: &Options,
) -> Result<String, CliError> {
    let goals = load_goals(problem_text, opts)?;
    let goal = goals
        .first()
        .ok_or_else(|| CliError::UnknownGoal("<none>".to_string()))?;
    let program = parse_expr(program_text).map_err(|e| CliError::Parse(e.to_string()))?;
    if Synthesizer::new().check(goal, opts.mode, &program) {
        Ok(format!(
            "ok: program satisfies goal `{}` ({:?} mode)\n",
            goal.name, opts.mode
        ))
    } else {
        Err(CliError::CheckFailed(goal.name.clone()))
    }
}

#[cfg(test)]
mod tests {
    use resyn_synth::Mode;

    use super::*;
    use crate::fixtures::{APPEND_PROBLEM, APPEND_PROGRAM};

    const APPEND_PROGRAM_WRONG: &str = r"fix append xs. \ys. ys";

    #[test]
    fn check_accepts_the_linear_append_and_rejects_a_wrong_one() {
        let opts = Options::default();
        let report = run_check(APPEND_PROBLEM, APPEND_PROGRAM, &opts).unwrap();
        assert!(report.starts_with("ok:"));
        // A program that drops xs entirely fails the length refinement.
        assert!(matches!(
            run_check(APPEND_PROBLEM, APPEND_PROGRAM_WRONG, &opts),
            Err(CliError::CheckFailed(_))
        ));
    }

    #[test]
    fn check_rejects_resource_overruns_in_resource_mode_only() {
        // An explicit extra tick per element on top of the metric-charged
        // recursive call overruns the 1-per-element budget.
        let expensive = r"fix append xs. \ys.
            match xs with
            | Nil -> ys
            | Cons h t -> (let r = tick(1, append t ys) in Cons h r)";
        let opts = Options::default();
        assert!(matches!(
            run_check(APPEND_PROBLEM, expensive, &opts),
            Err(CliError::CheckFailed(_))
        ));
        // The resource-agnostic baseline accepts it: the program is
        // functionally correct, only too expensive.
        let synquid = Options {
            mode: Mode::Synquid,
            ..Options::default()
        };
        assert!(run_check(APPEND_PROBLEM, expensive, &synquid).is_ok());
    }

    #[test]
    fn unknown_goal_is_reported() {
        let opts = Options {
            goal: Some("missing".to_string()),
            ..Options::default()
        };
        assert!(matches!(
            run_check(APPEND_PROBLEM, APPEND_PROGRAM, &opts),
            Err(CliError::UnknownGoal(_))
        ));
    }
}
