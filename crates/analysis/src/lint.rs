//! The problem linter: byte-spanned diagnostics over the declarations of a
//! synthesis problem.
//!
//! The linter consumes a flat list of [`Decl`]s (built by the parser's
//! declaration scanner, which tolerates files the strict problem parser
//! rejects — e.g. duplicate names) and emits [`Diagnostic`]s at two levels:
//! `warn` for findings that cost performance or signal likely mistakes, and
//! `deny` for findings that make the problem unusable. Two entry points are
//! provided:
//!
//! * [`lint_structural`] — the cheap, solver-free subset (duplicates,
//!   shadowing, unreachable components, goals that cannot recurse
//!   structurally, higher-order goal parameters, refinement sorting —
//!   arity/shape mistakes inside refinements). The synthesis server runs
//!   this on every request.
//! * [`lint_problem`] — the full pass: structural checks plus a budgeted
//!   solver query per refinement that reports trivially-unsatisfiable
//!   conjunctions.
//!
//! Diagnostics render to a human format and to the stable `resyn-lint/1`
//! JSON schema via [`render_lint_json`].

use std::fmt;

use resyn_budget::Budget;
use resyn_logic::VALUE_VAR;
use resyn_solver::{Solver, SolverCache, ValidityResult};
use resyn_ty::ctx::Ctx;
use resyn_ty::datatypes::Datatypes;
use resyn_ty::shape::Shape;
use resyn_ty::types::{Schema, Ty};
use resyn_wire::Json;

use crate::reachability::{self, DropReason};

/// A byte-and-line source span for a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the spanned text.
    pub offset: usize,
    /// Byte length of the spanned text.
    pub len: usize,
    /// 1-based line of the span's start (0 when unknown).
    pub line: usize,
    /// 1-based column of the span's start (0 when unknown).
    pub col: usize,
}

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Likely mistake or wasted work; the problem is still usable.
    Warn,
    /// The problem (or this declaration) cannot behave as written.
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Warn => write!(f, "warn"),
            Level::Deny => write!(f, "deny"),
        }
    }
}

/// What kind of declaration a [`Decl`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclKind {
    /// A `component` declaration.
    Component,
    /// A `goal` declaration.
    Goal,
}

/// One declaration of a problem file, as seen by the linter.
#[derive(Debug, Clone)]
pub struct Decl {
    /// Component or goal.
    pub kind: DeclKind,
    /// The declared name.
    pub name: String,
    /// The declared signature.
    pub schema: Schema,
    /// Span of the declared name in the source.
    pub span: Span,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable check identifier (e.g. `unreachable-component`).
    pub check: String,
    /// Severity.
    pub level: Level,
    /// Human-readable message.
    pub message: String,
    /// Source location of the finding.
    pub span: Span,
}

impl Diagnostic {
    fn new(check: &str, level: Level, message: String, span: Span) -> Diagnostic {
        Diagnostic {
            check: check.to_string(),
            level,
            message,
            span,
        }
    }

    /// Render for terminals: `level[check]: message --> path:line:col`.
    pub fn render_human(&self, path: &str) -> String {
        format!(
            "{}[{}]: {} --> {}:{}:{}",
            self.level, self.check, self.message, path, self.span.line, self.span.col
        )
    }
}

/// Whether any finding is deny-level.
pub fn has_deny(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.level == Level::Deny)
}

fn sort_diagnostics(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| {
        (a.span.offset, &a.check, &a.message).cmp(&(b.span.offset, &b.check, &b.message))
    });
    diags
}

/// The structural (solver-free) linter pass.
///
/// Checks: duplicate declarations, goal/component and parameter shadowing,
/// higher-order goal parameters, components unreachable for every goal,
/// goals with no datatype parameter (which cannot recurse structurally), and
/// ill-sorted refinements (arity and shape mistakes — a sort check, not a
/// solver query).
pub fn lint_structural(decls: &[Decl], datatypes: &Datatypes) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Duplicate names within a kind (the strict parser rejects these).
    let mut seen: Vec<(DeclKind, &str)> = Vec::new();
    for d in decls {
        if seen.contains(&(d.kind, d.name.as_str())) {
            let kind = match d.kind {
                DeclKind::Component => "component",
                DeclKind::Goal => "goal",
            };
            diags.push(Diagnostic::new(
                "duplicate-declaration",
                Level::Deny,
                format!("{kind} `{}` is declared twice", d.name),
                d.span,
            ));
        } else {
            seen.push((d.kind, d.name.as_str()));
        }
    }

    let components: Vec<&Decl> = decls
        .iter()
        .filter(|d| d.kind == DeclKind::Component)
        .collect();
    let goals: Vec<&Decl> = decls.iter().filter(|d| d.kind == DeclKind::Goal).collect();

    for g in &goals {
        // A goal sharing a component's name shadows it in the checker's scope.
        if components.iter().any(|c| c.name == g.name) {
            diags.push(Diagnostic::new(
                "shadowed-name",
                Level::Warn,
                format!(
                    "goal `{}` shadows the component of the same name; the component becomes unusable",
                    g.name
                ),
                g.span,
            ));
        }
        let (params, _ret) = g.schema.ty.uncurry();
        // Parameters shadowing components or earlier parameters.
        let mut earlier: Vec<&str> = Vec::new();
        for (pname, _, _) in &params {
            if components.iter().any(|c| &c.name == pname) {
                diags.push(Diagnostic::new(
                    "shadowed-name",
                    Level::Warn,
                    format!(
                        "parameter `{pname}` of goal `{}` shadows the component `{pname}`",
                        g.name
                    ),
                    g.span,
                ));
            }
            if earlier.contains(&pname.as_str()) {
                diags.push(Diagnostic::new(
                    "shadowed-name",
                    Level::Warn,
                    format!(
                        "parameter `{pname}` of goal `{}` shadows an earlier parameter of the same name",
                        g.name
                    ),
                    g.span,
                ));
            }
            earlier.push(pname);
        }
        // `uncurry` absorbs nested arrows, so the *return* type always has a
        // base shape — but a higher-order parameter has none: the enumerator
        // drops it from the scope and refuses to treat the goal as callable,
        // which silently disables every recursion-based search path.
        for (pname, pty, _) in &params {
            if Shape::of(pty).is_none() {
                diags.push(Diagnostic::new(
                    "unshaped-goal",
                    Level::Warn,
                    format!(
                        "parameter `{pname}` of goal `{}` is higher-order; the synthesizer ignores it and disables recursive calls to `{}`",
                        g.name, g.name
                    ),
                    g.span,
                ));
            }
        }
        // Without a datatype parameter there is nothing to match on, so
        // recursive calls cannot decrease any structural measure.
        if !params.is_empty()
            && !params
                .iter()
                .any(|(_, t, _)| matches!(Shape::of(t), Some(Shape::Data(_))))
        {
            diags.push(Diagnostic::new(
                "no-decreasing-measure",
                Level::Warn,
                format!(
                    "goal `{}` has no datatype parameter: no measure can decrease structurally on recursive calls",
                    g.name
                ),
                g.span,
            ));
        }
    }

    // Components the reachability analysis drops for every goal.
    if !goals.is_empty() && !components.is_empty() {
        let library: std::collections::BTreeMap<String, Schema> = components
            .iter()
            .map(|c| (c.name.clone(), c.schema.clone()))
            .collect();
        let mut dropped_everywhere: Option<std::collections::BTreeMap<String, DropReason>> = None;
        for g in &goals {
            let report = reachability::analyze(&g.schema, &library, datatypes);
            let dropped: std::collections::BTreeMap<String, DropReason> =
                report.dropped.into_iter().collect();
            dropped_everywhere = Some(match dropped_everywhere {
                None => dropped,
                Some(prev) => prev
                    .into_iter()
                    .filter(|(name, _)| dropped.contains_key(name))
                    .collect(),
            });
        }
        for (name, reason) in dropped_everywhere.unwrap_or_default() {
            let span = components
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.span)
                .unwrap_or_default();
            diags.push(Diagnostic::new(
                "unreachable-component",
                Level::Warn,
                format!(
                    "component `{name}` can never appear in a solution of any goal: {}",
                    reason.describe()
                ),
                span,
            ));
        }
    }

    // Refinement sorting: arity and shape mistakes are decidable without a
    // solver, so even the cheap pass can deny them.
    for d in decls {
        for (label, env, refinement) in refinement_positions(&d.schema, datatypes) {
            if let Err(err) = env.check(&refinement, &resyn_logic::Sort::Bool) {
                diags.push(Diagnostic::new(
                    "ill-sorted-refinement",
                    Level::Deny,
                    format!(
                        "refinement of {} of `{}` is ill-sorted: {err}",
                        label, d.name
                    ),
                    d.span,
                ));
            }
        }
    }

    sort_diagnostics(diags)
}

/// Refinement positions of a signature: each parameter's refinement sorted
/// under the preceding parameters, and the return refinement under all of
/// them. Returns `(position label, env, refinement)` triples.
fn refinement_positions(
    schema: &Schema,
    datatypes: &Datatypes,
) -> Vec<(String, resyn_logic::SortingEnv, resyn_logic::Term)> {
    let (params, ret) = schema.ty.uncurry();
    let mut out = Vec::new();
    let mut ctx = Ctx::new();
    let positions: Vec<(String, Ty)> = params
        .iter()
        .map(|(n, t, _)| (format!("parameter `{n}`"), t.clone()))
        .chain(std::iter::once(("return type".to_string(), ret)))
        .collect();
    for (i, (label, ty)) in positions.iter().enumerate() {
        let refinement = ty.refinement();
        if !refinement.is_true() {
            if let Some(base) = ty.base_type() {
                let mut env = ctx.sorting_env(datatypes);
                env.bind_var(VALUE_VAR, base.sort());
                out.push((label.clone(), env, refinement));
            }
        }
        // Bind this parameter for the refinements that follow it.
        if i < params.len() {
            let (pname, pty, _) = &params[i];
            if pty.base_type().is_some() {
                ctx.bind_raw(pname.clone(), pty.clone());
            }
        }
    }
    out
}

/// The full linter pass: [`lint_structural`] plus a budgeted
/// unsatisfiability query per refinement.
///
/// `budget` bounds the *total* solver time spent by the lint; queries that
/// run out (or come back unknown) are silently skipped. When `cache` is
/// given, verdicts are shared with (and reused from) the synthesis pipeline.
pub fn lint_problem(
    decls: &[Decl],
    datatypes: &Datatypes,
    cache: Option<&SolverCache>,
    budget: &Budget,
) -> Vec<Diagnostic> {
    let mut diags = lint_structural(decls, datatypes);

    for d in decls {
        for (label, env, refinement) in refinement_positions(&d.schema, datatypes) {
            // Ill-sorted refinements were already denied by the structural
            // pass; querying the solver over one would be meaningless.
            if env.check(&refinement, &resyn_logic::Sort::Bool).is_err() {
                continue;
            }
            if budget.is_exceeded() {
                continue;
            }
            // A refinement is trivially unsatisfiable when its negation is
            // valid. For a goal's return type that means no program can ever
            // be accepted; anywhere else it makes the declaration vacuous.
            let mut solver = Solver::new(env).with_budget(budget.clone());
            if let Some(c) = cache {
                solver = solver.with_cache(c.scoped());
            }
            if let ValidityResult::Valid = solver.check_valid(&[], &refinement.clone().not()) {
                let level = if d.kind == DeclKind::Goal && label == "return type" {
                    Level::Deny
                } else {
                    Level::Warn
                };
                diags.push(Diagnostic::new(
                    "unsat-refinement",
                    level,
                    format!(
                        "refinement of {} of `{}` is unsatisfiable: `{}` has no model",
                        label, d.name, refinement
                    ),
                    d.span,
                ));
            }
        }
    }

    sort_diagnostics(diags)
}

/// Render findings for a set of files as the stable `resyn-lint/1` schema.
///
/// ```json
/// {"schema": "resyn-lint/1",
///  "files": [{"path": "a.re",
///             "diagnostics": [{"check": "...", "level": "warn",
///                              "message": "...", "line": 1, "col": 1,
///                              "offset": 0, "len": 4}]}],
///  "warnings": 1, "denials": 0}
/// ```
pub fn render_lint_json(files: &[(String, Vec<Diagnostic>)]) -> String {
    let mut warnings = 0usize;
    let mut denials = 0usize;
    let file_objs: Vec<Json> = files
        .iter()
        .map(|(path, diags)| {
            let diag_objs: Vec<Json> = diags
                .iter()
                .map(|d| {
                    match d.level {
                        Level::Warn => warnings += 1,
                        Level::Deny => denials += 1,
                    }
                    Json::Obj(vec![
                        ("check".to_string(), Json::Str(d.check.clone())),
                        ("level".to_string(), Json::Str(d.level.to_string())),
                        ("message".to_string(), Json::Str(d.message.clone())),
                        ("line".to_string(), Json::Num(d.span.line as f64)),
                        ("col".to_string(), Json::Num(d.span.col as f64)),
                        ("offset".to_string(), Json::Num(d.span.offset as f64)),
                        ("len".to_string(), Json::Num(d.span.len as f64)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("path".to_string(), Json::Str(path.clone())),
                ("diagnostics".to_string(), Json::Arr(diag_objs)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".to_string(), Json::Str("resyn-lint/1".to_string())),
        ("files".to_string(), Json::Arr(file_objs)),
        ("warnings".to_string(), Json::Num(warnings as f64)),
        ("denials".to_string(), Json::Num(denials as f64)),
    ]);
    resyn_wire::render_compact(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resyn_logic::Term;
    use resyn_ty::types::BaseType;

    fn list(elem: &str) -> Ty {
        Ty::data("List", vec![Ty::tvar(elem)])
    }

    fn decl(kind: DeclKind, name: &str, schema: Schema) -> Decl {
        Decl {
            kind,
            name: name.to_string(),
            schema,
            span: Span::default(),
        }
    }

    fn id_goal() -> Decl {
        decl(
            DeclKind::Goal,
            "id",
            Schema::poly(vec!["a"], Ty::fun(vec![("xs", list("a"))], list("a"))),
        )
    }

    #[test]
    fn duplicate_declarations_are_denied() {
        let c = Schema::poly(
            vec!["a"],
            Ty::fun(vec![("xs", list("a")), ("ys", list("a"))], list("a")),
        );
        let decls = vec![
            decl(DeclKind::Component, "append", c.clone()),
            decl(DeclKind::Component, "append", c),
            id_goal(),
        ];
        let diags = lint_structural(&decls, &Datatypes::standard());
        assert!(diags
            .iter()
            .any(|d| d.check == "duplicate-declaration" && d.level == Level::Deny));
        assert!(has_deny(&diags));
    }

    #[test]
    fn shadowed_parameter_names_warn() {
        let c = Schema::poly(
            vec!["a"],
            Ty::fun(vec![("xs", list("a")), ("ys", list("a"))], list("a")),
        );
        let g = decl(
            DeclKind::Goal,
            "id",
            Schema::poly(vec!["a"], Ty::fun(vec![("append", list("a"))], list("a"))),
        );
        let decls = vec![decl(DeclKind::Component, "append", c), g];
        let diags = lint_structural(&decls, &Datatypes::standard());
        let shadow: Vec<_> = diags
            .iter()
            .filter(|d| d.check == "shadowed-name")
            .collect();
        assert_eq!(shadow.len(), 1, "{diags:?}");
        assert_eq!(shadow[0].level, Level::Warn);
    }

    #[test]
    fn unreachable_components_warn_with_a_reason() {
        let tree = Ty::data("Tree", vec![Ty::tvar("a")]);
        let decls = vec![
            decl(
                DeclKind::Component,
                "mirror",
                Schema::poly(vec!["a"], Ty::fun(vec![("t", tree.clone())], tree)),
            ),
            id_goal(),
        ];
        let diags = lint_structural(&decls, &Datatypes::standard());
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.check == "unreachable-component")
            .collect();
        assert_eq!(unreachable.len(), 1, "{diags:?}");
        assert!(unreachable[0].message.contains("mirror"));
        assert!(!has_deny(&diags));
    }

    #[test]
    fn goals_without_datatype_parameters_warn() {
        let decls = vec![decl(
            DeclKind::Goal,
            "double",
            Schema::mono(Ty::fun(vec![("n", Ty::int())], Ty::int())),
        )];
        let diags = lint_structural(&decls, &Datatypes::standard());
        assert!(diags.iter().any(|d| d.check == "no-decreasing-measure"));
    }

    #[test]
    fn unsat_goal_refinements_are_denied() {
        // { Int | _v < 0 && _v > 0 } has no model.
        let contradiction = Term::value_var()
            .lt(Term::int(0))
            .and(Term::value_var().gt(Term::int(0)));
        let decls = vec![decl(
            DeclKind::Goal,
            "impossible",
            Schema::mono(Ty::fun(
                vec![("xs", Ty::data("List", vec![Ty::int()]))],
                Ty::refined(BaseType::Int, contradiction),
            )),
        )];
        let diags = lint_problem(&decls, &Datatypes::standard(), None, &Budget::unlimited());
        let unsat: Vec<_> = diags
            .iter()
            .filter(|d| d.check == "unsat-refinement")
            .collect();
        assert_eq!(unsat.len(), 1, "{diags:?}");
        assert_eq!(unsat[0].level, Level::Deny);
    }

    #[test]
    fn ill_sorted_refinements_are_denied() {
        // `len` applied to two arguments is an arity error.
        let bad = Term::app("len", vec![Term::value_var(), Term::value_var()]).gt(Term::int(0));
        let decls = vec![decl(
            DeclKind::Component,
            "weird",
            Schema::mono(Ty::fun(
                vec![("n", Ty::int())],
                Ty::refined(BaseType::Int, bad),
            )),
        )];
        let diags = lint_problem(&decls, &Datatypes::standard(), None, &Budget::unlimited());
        assert!(diags
            .iter()
            .any(|d| d.check == "ill-sorted-refinement" && d.level == Level::Deny));
    }

    #[test]
    fn satisfiable_problems_are_clean() {
        let leq = Schema::poly(
            vec!["a"],
            Ty::fun(
                vec![("x", Ty::tvar("a")), ("y", Ty::tvar("a"))],
                Ty::refined(
                    BaseType::Bool,
                    Term::value_var().iff(Term::var("x").le(Term::var("y"))),
                ),
            ),
        );
        let goal = Schema::poly(
            vec!["a"],
            Ty::fun(
                vec![("xs", list("a"))],
                Ty::refined(
                    BaseType::Data("List".into(), vec![Ty::tvar("a")]),
                    Term::app("len", vec![Term::value_var()])
                        .eq_(Term::app("len", vec![Term::var("xs")])),
                ),
            ),
        );
        let decls = vec![
            decl(DeclKind::Component, "leq", leq),
            decl(DeclKind::Goal, "id", goal),
        ];
        let diags = lint_problem(&decls, &Datatypes::standard(), None, &Budget::unlimited());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn lint_json_counts_levels_and_is_stable() {
        let diags = vec![
            Diagnostic::new(
                "unreachable-component",
                Level::Warn,
                "x".into(),
                Span::default(),
            ),
            Diagnostic::new(
                "duplicate-declaration",
                Level::Deny,
                "y".into(),
                Span::default(),
            ),
        ];
        let out = render_lint_json(&[("p.re".to_string(), diags)]);
        assert!(out.starts_with("{\"schema\": \"resyn-lint/1\""));
        assert!(out.contains("\"warnings\": 1"));
        assert!(out.contains("\"denials\": 1"));
        assert!(out.contains("\"path\": \"p.re\""));
        let parsed = resyn_wire::parse_json(&out).expect("self-parse");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some("resyn-lint/1")
        );
    }
}
