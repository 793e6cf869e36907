//! The lint golden gate: everything this repository ships as a synthesis
//! problem must be free of deny-level lint findings.
//!
//! Two surfaces are covered: the example problem files under
//! `examples/problems/` (linted from source, full check set including the
//! budgeted unsatisfiability query), and the whole Table 1 benchmark suite
//! (built programmatically, linted at the declaration level with the
//! structural check set). The committed known-bad fixture
//! `tests/fixtures/lint_bad.re` anchors the other direction: the linter must
//! still *find* deny-level problems, and `resyn lint` exits 2 on them. The
//! wide example anchors the `unreachable-component` warning: it must name
//! exactly that file's tree-shaped distractors.

use std::path::PathBuf;
use std::time::Duration;

use resyn::analysis::lint::{has_deny, lint_structural, Decl, DeclKind, Level, Span};
use resyn::budget::Budget;
use resyn::ty::datatypes::Datatypes;

/// Repo root, resolved from the facade crate's manifest directory.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Deny-level findings of the full lint pass over one problem source.
fn deny_findings(path: &str, source: &str) -> Vec<String> {
    let budget = Budget::with_timeout(Duration::from_secs(10));
    resyn::parse::lint_source(source, None, &budget)
        .unwrap_or_else(|e| panic!("{path} does not lint: {e}"))
        .into_iter()
        .filter(|d| d.level == Level::Deny)
        .map(|d| d.render_human(path))
        .collect()
}

#[test]
fn example_problems_are_free_of_deny_findings() {
    let dir = repo_root().join("examples/problems");
    let mut linted = 0usize;
    let mut denies = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("examples/problems must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("re") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        denies.extend(deny_findings(&path.display().to_string(), &source));
        linted += 1;
    }
    assert!(
        linted >= 5,
        "expected the shipped example problems, saw {linted}"
    );
    assert!(
        denies.is_empty(),
        "deny-level findings:\n{}",
        denies.join("\n")
    );
}

#[test]
fn the_table1_suite_is_free_of_deny_findings() {
    let datatypes = Datatypes::standard();
    let suite = resyn::eval::suite::table1();
    assert!(suite.len() >= 37, "suite shrank to {} rows", suite.len());
    let mut denies = Vec::new();
    for bench in &suite {
        // Each benchmark is one goal plus its library; lint them as the
        // declaration list the surface scanner would have produced.
        let mut decls: Vec<Decl> = bench
            .goal
            .components
            .iter()
            .map(|(name, schema)| Decl {
                kind: DeclKind::Component,
                name: name.clone(),
                schema: schema.clone(),
                span: Span::default(),
            })
            .collect();
        decls.push(Decl {
            kind: DeclKind::Goal,
            name: bench.goal.name.clone(),
            schema: bench.goal.schema.clone(),
            span: Span::default(),
        });
        denies.extend(
            lint_structural(&decls, &datatypes)
                .into_iter()
                .filter(|d| d.level == Level::Deny)
                .map(|d| d.render_human(&bench.id)),
        );
    }
    assert!(
        denies.is_empty(),
        "deny-level findings:\n{}",
        denies.join("\n")
    );
}

#[test]
fn the_known_bad_fixture_still_denies() {
    let path = repo_root().join("tests/fixtures/lint_bad.re");
    let source = std::fs::read_to_string(&path).unwrap();
    let denies = deny_findings("lint_bad.re", &source);
    assert!(
        denies.iter().any(|d| d.contains("ill-sorted-refinement")),
        "the fixture must keep its deny-level finding, got: {denies:?}"
    );
    // The structural subset (what perfbench runs per generated problem)
    // already catches it — no solver needed.
    let structural = resyn::parse::lint_source_structural(&source).unwrap();
    assert!(has_deny(&structural));
}

#[test]
fn the_wide_example_warns_on_exactly_its_tree_components() {
    // `t0`…`t5` take or return trees, which the goal's list-only inputs can
    // never produce or consume; the other 30 components are reachable.
    let path = repo_root().join("examples/problems/wide_components.re");
    let source = std::fs::read_to_string(&path).unwrap();
    let budget = Budget::with_timeout(Duration::from_secs(10));
    let mut unreachable: Vec<String> = resyn::parse::lint_source(&source, None, &budget)
        .unwrap()
        .into_iter()
        .filter(|d| d.check == "unreachable-component")
        .map(|d| {
            assert_eq!(d.level, Level::Warn, "{}", d.render_human("wide"));
            d.message.split('`').nth(1).unwrap().to_string()
        })
        .collect();
    unreachable.sort();
    assert_eq!(unreachable, ["t0", "t1", "t2", "t3", "t4", "t5"]);
}
