//! The `resyn lint` driver: scan a problem file into linter declarations,
//! run the [`resyn_analysis`] passes over them, and honour inline
//! allow-markers.
//!
//! Unlike [`crate::parse_problem`], the scanner here *tolerates* duplicate
//! declarations and files without goals — reporting those is the linter's
//! job, so the scan must survive them. Only genuine syntax errors abort.
//!
//! # Allow-markers
//!
//! A comment containing `resyn: allow(check-a, check-b)` suppresses the
//! named checks for declarations on the *same line* and on the *next line*:
//!
//! ```text
//! -- resyn: allow(unreachable-component)
//! component tree_eq :: s: Tree a -> t: Tree a -> Bool
//! ```

use std::collections::{BTreeMap, BTreeSet};

use resyn_analysis::lint::{Decl, DeclKind, Diagnostic, Span};
use resyn_analysis::{lint_problem, lint_structural};
use resyn_budget::Budget;
use resyn_solver::SolverCache;
use resyn_ty::datatypes::Datatypes;

use crate::cursor::Cursor;
use crate::lexer::{tokenize, Tok};
use crate::{problem, types, ParseError};

/// Scan a problem file into linter declarations: every `component` and
/// `goal` signature with the byte span of its name. `metric` directives are
/// parsed and discarded (the linter does not inspect them); duplicate names
/// are kept so the duplicate-declaration check can see them.
///
/// # Errors
///
/// Returns a [`ParseError`] only for genuine syntax errors.
pub fn scan_decls(input: &str) -> Result<Vec<Decl>, ParseError> {
    let mut cur = Cursor::new(tokenize(input)?);
    let mut decls = Vec::new();
    while !cur.is_eof() {
        match cur.peek().clone() {
            Tok::KwComponent => {
                cur.next();
                decls.push(scan_signature(&mut cur, DeclKind::Component)?);
            }
            Tok::KwGoal => {
                cur.next();
                decls.push(scan_signature(&mut cur, DeclKind::Goal)?);
            }
            Tok::KwMetric => {
                cur.next();
                problem::parse_metric(&mut cur)?;
            }
            other => {
                return Err(cur.error(format!(
                    "expected `component`, `goal` or `metric`, found {}",
                    other.describe()
                )))
            }
        }
    }
    Ok(decls)
}

fn scan_signature(cur: &mut Cursor, kind: DeclKind) -> Result<Decl, ParseError> {
    let spanned = cur.peek_spanned().clone();
    let name = cur.expect_ident()?;
    cur.expect(&Tok::ColonColon)?;
    let schema = types::parse_schema(cur)?;
    Ok(Decl {
        kind,
        name,
        schema,
        span: Span {
            offset: spanned.offset,
            len: spanned.len,
            line: spanned.line,
            col: spanned.col,
        },
    })
}

/// Lint a problem file with the structural checks only (no solver queries) —
/// the subset cheap enough to run before every synthesis of a generated
/// problem.
///
/// # Errors
///
/// Returns a [`ParseError`] if the file does not scan.
pub fn lint_source_structural(source: &str) -> Result<Vec<Diagnostic>, ParseError> {
    let decls = scan_decls(source)?;
    let diags = lint_structural(&decls, &Datatypes::standard());
    Ok(suppress_allowed(source, diags))
}

/// Lint a problem file with the full check set: the structural checks plus
/// refinement sorting and a budgeted unsatisfiability query per refinement.
/// `budget` bounds the total solver time; when `cache` is given, lint
/// verdicts are shared with the synthesis pipeline's solver cache.
///
/// # Errors
///
/// Returns a [`ParseError`] if the file does not scan.
pub fn lint_source(
    source: &str,
    cache: Option<&SolverCache>,
    budget: &Budget,
) -> Result<Vec<Diagnostic>, ParseError> {
    let decls = scan_decls(source)?;
    let diags = lint_problem(&decls, &Datatypes::standard(), cache, budget);
    Ok(suppress_allowed(source, diags))
}

/// Collect the allow-markers of a source file: a map from 1-based line
/// number to the set of check names suppressed on that line. A marker
/// covers its own line (trailing comments) and the next (comment above).
fn allowed_checks(source: &str) -> BTreeMap<usize, BTreeSet<String>> {
    let mut allowed: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    for (idx, line) in source.lines().enumerate() {
        let Some(start) = line.find("resyn: allow(") else {
            continue;
        };
        let rest = &line[start + "resyn: allow(".len()..];
        let Some(end) = rest.find(')') else {
            continue;
        };
        let checks: Vec<String> = rest[..end]
            .split(',')
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect();
        for covered in [idx + 1, idx + 2] {
            allowed.entry(covered).or_default().extend(checks.clone());
        }
    }
    allowed
}

fn suppress_allowed(source: &str, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let allowed = allowed_checks(source);
    if allowed.is_empty() {
        return diags;
    }
    diags
        .into_iter()
        .filter(|d| {
            !allowed
                .get(&d.span.line)
                .is_some_and(|checks| checks.contains(&d.check))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_analysis::lint::{has_deny, Level};

    #[test]
    fn scan_tolerates_duplicates_and_goalless_files() {
        let decls = scan_decls(
            "component f :: x: Int -> Int\n\
             component f :: x: Int -> Int",
        )
        .unwrap();
        assert_eq!(decls.len(), 2);
        assert!(decls.iter().all(|d| d.kind == DeclKind::Component));
        // `parse_problem` rejects both shapes; the linter must not.
        assert!(crate::parse_problem("component f :: x: Int -> Int").is_err());
    }

    #[test]
    fn scanned_spans_point_at_the_declared_name() {
        let src = "goal append :: xs: List a -> ys: List a -> List a";
        let decls = scan_decls(src).unwrap();
        let span = decls[0].span;
        assert_eq!(&src[span.offset..span.offset + span.len], "append");
        assert_eq!((span.line, span.col), (1, 6));
    }

    #[test]
    fn structural_lint_flags_duplicates_as_deny() {
        let diags = lint_source_structural(
            "component f :: x: Int -> Int\n\
             component f :: x: Int -> Int\n\
             goal g :: xs: List a -> List a",
        )
        .unwrap();
        assert!(has_deny(&diags), "{diags:?}");
        assert!(diags.iter().any(|d| d.check == "duplicate-declaration"));
    }

    #[test]
    fn full_lint_flags_unsat_refinements() {
        // `len _v` alone is uninterpreted to the solver, so contradict on
        // the integer itself: no value is both below and above zero.
        let diags = lint_source(
            "goal f :: xs: List a -> {Int | _v < 0 && _v > 0}",
            None,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(
            diags
                .iter()
                .any(|d| d.check == "unsat-refinement" && d.level == Level::Deny),
            "{diags:?}"
        );
    }

    #[test]
    fn allow_markers_suppress_on_their_line_and_the_next() {
        let clean = lint_source_structural(
            "-- resyn: allow(unreachable-component, no-decreasing-measure)\n\
             component mirror :: t: Tree a -> Tree a\n\
             goal f :: xs: List a -> List a",
        )
        .unwrap();
        assert!(
            !clean.iter().any(|d| d.check == "unreachable-component"),
            "{clean:?}"
        );
        // Without the marker, the component is flagged.
        let dirty = lint_source_structural(
            "component mirror :: t: Tree a -> Tree a\n\
             goal f :: xs: List a -> List a",
        )
        .unwrap();
        assert!(
            dirty.iter().any(|d| d.check == "unreachable-component"),
            "{dirty:?}"
        );
        // A marker for a different check suppresses nothing.
        let other = lint_source_structural(
            "-- resyn: allow(shadowed-name)\n\
             component mirror :: t: Tree a -> Tree a\n\
             goal f :: xs: List a -> List a",
        )
        .unwrap();
        assert!(
            other.iter().any(|d| d.check == "unreachable-component"),
            "{other:?}"
        );
    }
}
