//! `resyn parse`: validate a problem file and echo its signatures.

use std::fmt::Write as _;

use resyn_parse::parse_problem;
use resyn_parse::surface::schema_to_surface;

use crate::CliError;

/// `resyn parse`: validate a problem file and echo the parsed signatures.
///
/// # Errors
///
/// Returns [`CliError::Parse`] if the file does not parse.
pub fn run_parse(problem_text: &str) -> Result<String, CliError> {
    let problem = parse_problem(problem_text).map_err(|e| CliError::Parse(e.to_string()))?;
    let mut out = String::new();
    for (name, schema) in &problem.components {
        let _ = writeln!(out, "component {name} :: {}", schema_to_surface(schema));
    }
    for (name, schema) in &problem.goals {
        let _ = writeln!(out, "goal {name} :: {}", schema_to_surface(schema));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::APPEND_PROBLEM;

    #[test]
    fn shipped_problem_files_parse() {
        // The problem files under `examples/problems/` are part of the
        // documented workflow; keep them valid.
        for (name, text) in [
            (
                "append.re",
                include_str!("../../../examples/problems/append.re"),
            ),
            (
                "sorted_insert.re",
                include_str!("../../../examples/problems/sorted_insert.re"),
            ),
            (
                "range.re",
                include_str!("../../../examples/problems/range.re"),
            ),
            (
                "compare.re",
                include_str!("../../../examples/problems/compare.re"),
            ),
        ] {
            let report = run_parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.contains("goal "), "{name} lists no goals");
        }
    }

    #[test]
    fn parse_command_echoes_signatures() {
        let out = run_parse(APPEND_PROBLEM).unwrap();
        assert!(out.contains("goal append ::"));
        assert!(out.contains("forall a."));
        assert!(run_parse("component only :: Int -> Int").is_err());
    }
}
