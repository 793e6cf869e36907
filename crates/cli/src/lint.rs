//! `resyn lint`: the pre-synthesis diagnostics pass over problem files.

use std::fmt::Write as _;

use resyn_analysis::lint::{render_lint_json, Diagnostic, Level};
use resyn_budget::Budget;
use resyn_solver::SolverCache;

use crate::{CliError, Options};

/// The output of `resyn lint`: the rendered report plus the finding counts
/// (the caller decides the exit status from `denials`).
#[derive(Debug, Clone)]
pub struct LintOutput {
    /// The human or JSON report, per `--format`.
    pub report: String,
    /// Warn-level findings across all files.
    pub warnings: usize,
    /// Deny-level findings across all files.
    pub denials: usize,
}

/// `resyn lint`: run the full diagnostics pass over one or more problem
/// files (the caller has already read them — this library does no I/O).
///
/// Each file gets the structural checks (duplicates, shadowing, unreachable
/// components, non-recursing goals) plus refinement sorting and a budgeted
/// unsatisfiability query per refinement; `--timeout` bounds the solver time
/// per file. `--format json` renders the stable `resyn-lint/1` schema
/// instead of human-readable lines. Inline `-- resyn: allow(check)` markers
/// suppress findings on their own and the following line.
///
/// # Errors
///
/// Returns [`CliError::Parse`] if any file fails to scan (a lint needs a
/// token-level scan to anchor spans; syntactically broken files are the
/// parser's to report).
pub fn run_lint(files: &[(String, String)], opts: &Options) -> Result<LintOutput, CliError> {
    let cache = SolverCache::new();
    let mut per_file: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    for (path, text) in files {
        let budget = Budget::with_timeout(opts.timeout);
        let diags = resyn_parse::lint_source(text, Some(&cache), &budget)
            .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
        per_file.push((path.clone(), diags));
    }
    let warnings = per_file
        .iter()
        .flat_map(|(_, d)| d)
        .filter(|d| d.level == Level::Warn)
        .count();
    let denials = per_file
        .iter()
        .flat_map(|(_, d)| d)
        .filter(|d| d.level == Level::Deny)
        .count();
    let report = if opts.format.as_deref() == Some("json") {
        let mut json = render_lint_json(&per_file);
        json.push('\n');
        json
    } else {
        let mut out = String::new();
        for (path, diags) in &per_file {
            for d in diags {
                let _ = writeln!(out, "{}", d.render_human(path));
            }
        }
        let _ = writeln!(
            out,
            "{} file{} linted: {warnings} warning{}, {denials} deny-level finding{}",
            per_file.len(),
            if per_file.len() == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if denials == 1 { "" } else { "s" },
        );
        out
    };
    Ok(LintOutput {
        report,
        warnings,
        denials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_reports_findings_and_counts_denials() {
        let dirty = (
            "bad.re".to_string(),
            "component f :: x: Int -> Int\n\
             component f :: x: Int -> Int\n\
             goal g :: xs: List a -> List a"
                .to_string(),
        );
        let out = run_lint(std::slice::from_ref(&dirty), &Options::default()).unwrap();
        assert!(out.denials > 0, "{}", out.report);
        assert!(
            out.report.contains("deny[duplicate-declaration]"),
            "{}",
            out.report
        );
        assert!(out.report.contains("bad.re:"), "{}", out.report);

        // JSON format emits the stable schema with per-file diagnostics.
        let json_opts = Options {
            format: Some("json".to_string()),
            ..Options::default()
        };
        let out = run_lint(&[dirty], &json_opts).unwrap();
        assert!(
            out.report.starts_with("{\"schema\": \"resyn-lint/1\""),
            "{}",
            out.report
        );
        assert!(
            out.report.contains("duplicate-declaration"),
            "{}",
            out.report
        );

        // A clean file has no findings and no denials.
        let clean = (
            "ok.re".to_string(),
            "component leq :: x: a -> y: a -> {Bool | _v <==> x <= y}\n\
             goal insert :: x: a -> xs: IList a^1 ->\n\
                 {IList a | elems _v == {x} union elems xs}"
                .to_string(),
        );
        let out = run_lint(&[clean], &Options::default()).unwrap();
        assert_eq!((out.warnings, out.denials), (0, 0), "{}", out.report);
    }
}
