//! `resyn synth`: synthesize the goals of a problem file.

use std::fmt::Write as _;

use resyn_parse::surface::expr_to_surface;
use resyn_solver::SolverCache;
use resyn_synth::Synthesizer;

use crate::flags::load_goals;
use crate::{CliError, Options};

/// `resyn synth`: synthesize every selected goal of a problem file and render
/// the programs in surface syntax together with basic search statistics.
///
/// # Errors
///
/// Returns a [`CliError`] if parsing fails, the named goal does not exist or
/// synthesis finds no program within the timeout.
pub fn run_synth(problem_text: &str, opts: &Options) -> Result<String, CliError> {
    let goals = load_goals(problem_text, opts)?;
    let synthesizer = Synthesizer::with_timeout(opts.timeout).with_cache(SolverCache::new());
    let mut out = String::new();
    for goal in goals {
        let outcome = synthesizer.synthesize(&goal, opts.mode);
        let Some(program) = outcome.program else {
            return Err(CliError::SynthesisFailed {
                goal: goal.name.clone(),
                timed_out: outcome.stats.timed_out.then_some(opts.timeout),
            });
        };
        let _ = writeln!(out, "-- goal {}", goal.name);
        let _ = writeln!(
            out,
            "-- {} candidates checked in {:.2}s ({} AST nodes)",
            outcome.stats.candidates_checked,
            outcome.stats.duration.as_secs_f64(),
            program.size()
        );
        if opts.stats {
            let _ = writeln!(
                out,
                "-- solver cache: {} hits, {} misses, {} refuted; interner: {} new terms; \
                 solver unknowns: {}",
                outcome.stats.solver_cache_hits,
                outcome.stats.solver_cache_misses,
                outcome.stats.solver_refuted,
                outcome.stats.interned_terms,
                outcome.stats.solver_unknowns
            );
        }
        let _ = writeln!(out, "{}", expr_to_surface(&program));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn stats_flag_reports_nonzero_cache_hits_on_synthesis() {
        // End-to-end: synthesizing a goal issues many structurally equal
        // solver queries (candidate prefixes are re-checked), so the shared
        // query cache must record hits — and `--stats` must surface them.
        let problem = r"
            goal id_list :: xs: List a -> {List a | len _v == len xs}
        ";
        let opts = Options {
            timeout: Duration::from_secs(30),
            stats: true,
            ..Options::default()
        };
        let out = run_synth(problem, &opts).unwrap();
        let stats_line = out
            .lines()
            .find(|l| l.starts_with("-- solver cache:"))
            .expect("--stats must print a solver-cache line");
        // "-- solver cache: N hits, M misses, R refuted; interner: K new terms;
        // solver unknowns: U"
        let hits: u64 = stats_line
            .split_whitespace()
            .nth(3)
            .and_then(|n| n.parse().ok())
            .expect("hit counter parses");
        assert!(hits > 0, "expected nonzero solver-cache hits: {stats_line}");
        let refuted: Option<u64> = stats_line
            .split_whitespace()
            .nth(7)
            .and_then(|n| n.parse().ok());
        assert!(
            refuted.is_some(),
            "expected a refutation counter: {stats_line}"
        );
        let terms: u64 = stats_line
            .split_whitespace()
            .nth(10)
            .and_then(|n| n.parse().ok())
            .expect("interner counter parses");
        assert!(terms > 0, "expected a populated intern table: {stats_line}");
        let unknowns: Option<u64> = stats_line
            .split_whitespace()
            .nth(15)
            .and_then(|n| n.parse().ok());
        assert!(
            unknowns.is_some(),
            "expected a give-up counter: {stats_line}"
        );
    }

    #[test]
    fn a_zero_budget_request_times_out() {
        // A `synth` request with a zero budget stops the search before its
        // first candidate, and the failure says it timed out.
        let problem = "goal id_list :: xs: List a -> {List a | len _v == len xs}";
        let expired = Options {
            timeout: Duration::ZERO,
            ..Options::default()
        };
        let err = run_synth(problem, &expired).unwrap_err();
        assert_eq!(
            err,
            CliError::SynthesisFailed {
                goal: "id_list".to_string(),
                timed_out: Some(Duration::ZERO),
            }
        );
        assert_eq!(
            err.to_string(),
            "synthesis failed for goal `id_list`: timed out after 0s"
        );
    }

    #[test]
    fn a_failed_search_within_its_budget_says_it_was_exhausted() {
        // No component computes `x + 1`: the search runs out of candidates
        // long before its deadline.
        let opts = Options {
            timeout: Duration::from_secs(60),
            ..Options::default()
        };
        let err = run_synth("goal inc :: x: Int -> {Int | _v == x + 1}", &opts).unwrap_err();
        assert_eq!(
            err,
            CliError::SynthesisFailed {
                goal: "inc".to_string(),
                timed_out: None,
            }
        );
        assert_eq!(
            err.to_string(),
            "synthesis failed for goal `inc`: search exhausted"
        );
    }

    #[test]
    fn synth_produces_a_parseable_program_for_a_small_goal() {
        let problem = r"
            goal id_list :: xs: List a -> {List a | len _v == len xs}
        ";
        let opts = Options {
            timeout: Duration::from_secs(30),
            ..Options::default()
        };
        let out = run_synth(problem, &opts).unwrap();
        assert!(out.contains("-- goal id_list"));
        // The synthesized text is itself valid surface syntax.
        let program_line = out.lines().find(|l| !l.starts_with("--")).unwrap();
        assert!(resyn_parse::parse_expr(program_line).is_ok());
    }
}
