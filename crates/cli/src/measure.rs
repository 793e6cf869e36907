//! `resyn measure`: run a program on inputs of growing size and fit its
//! cost to an asymptotic class.

use std::fmt::Write as _;

use resyn_parse::parse_expr;

use crate::flags::load_goals;
use crate::{CliError, Options};

/// `resyn measure`: execute a program in the cost-semantics interpreter on
/// inputs of growing size (recursive calls cost one unit) and report both the
/// raw measurements and the fitted asymptotic class.
///
/// # Errors
///
/// Returns a [`CliError`] if parsing fails, the goal cannot be found, or the
/// program cannot be executed on the generated inputs.
pub fn run_measure(
    problem_text: &str,
    program_text: &str,
    opts: &Options,
) -> Result<String, CliError> {
    let goals = load_goals(problem_text, opts)?;
    let goal = goals
        .first()
        .ok_or_else(|| CliError::UnknownGoal("<none>".to_string()))?;
    let program = parse_expr(program_text).map_err(|e| CliError::Parse(e.to_string()))?;
    let mut out = String::new();
    for size in [4usize, 8, 16, 32] {
        match resyn_eval::measure::cost_at(goal, &program, size) {
            Some(cost) => {
                let _ = writeln!(out, "n = {size:>3}: {cost} recursive calls");
            }
            None => {
                return Err(CliError::MeasureFailed {
                    goal: goal.name.clone(),
                    size,
                })
            }
        }
    }
    let class = resyn_eval::measure::classify(goal, &program);
    let _ = writeln!(out, "fitted bound: {class}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{APPEND_PROBLEM, APPEND_PROGRAM};

    #[test]
    fn measure_reports_a_linear_bound_for_append() {
        let opts = Options::default();
        let report = run_measure(APPEND_PROBLEM, APPEND_PROGRAM, &opts).unwrap();
        assert!(report.contains("n =   4: 4 recursive calls"), "{report}");
        assert!(
            report.trim_end().ends_with("fitted bound: O(n)"),
            "{report}"
        );
    }

    #[test]
    fn a_program_that_cannot_run_is_reported_as_such() {
        // `foo` is bound nowhere, so the interpreter fails on the first
        // input; no signature check is involved.
        let err = run_measure(
            APPEND_PROBLEM,
            r"fix append xs. \ys. foo xs ys",
            &Options::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CliError::MeasureFailed {
                goal: "append".to_string(),
                size: 4,
            }
        );
        assert_eq!(
            err.to_string(),
            "could not run the program for goal `append` on a size-4 input"
        );
    }
}
