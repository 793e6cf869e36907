//! The `resyn` command-line tool.
//!
//! The subcommands operate on Synquid-style problem files (see
//! [`resyn_parse`] for the surface syntax) or on the paper's benchmark
//! suites:
//!
//! * `resyn synth <problem.re>` — synthesize every `goal` in the file and
//!   print the programs in surface syntax,
//! * `resyn check <problem.re> <program.re>` — type-check a hand-written
//!   program against a goal's resource-annotated signature,
//! * `resyn measure <problem.re> <program.re>` — run a program in the
//!   cost-semantics interpreter on inputs of growing size and report the
//!   fitted asymptotic bound (the `B` column of the paper's Table 2),
//! * `resyn parse <problem.re>` — validate a problem file and echo the parsed
//!   signatures,
//! * `resyn lint <problem.re|dir>` — run the pre-synthesis diagnostics pass
//!   (duplicates, shadowing, unreachable components, unsatisfiable
//!   refinements) with byte-spanned findings; deny-level findings exit 2,
//! * `resyn eval` — run the paper's benchmark suites through the parallel
//!   batch harness and (optionally) emit the machine-readable
//!   `BENCH_eval.json` report,
//! * `resyn gen` — print a seeded, byte-deterministic batch of generated
//!   synthesis problems (see [`resyn_gen`]),
//! * `resyn fuzz` — run a generated batch through the differential checker
//!   (ReSyn vs. EAC vs. NoInc plus a warm-cache replay) and shrink the
//!   first failing problem to a minimal reproducer.
//!
//! The command logic lives in this library crate so it can be unit-tested
//! without spawning processes; `main.rs` only handles I/O. Each subcommand
//! is one module (`parse`, `lint`, `synth`, `check`, `measure`, `eval`, and
//! `fuzz` with `gen`), and `flags` parses the command line into the
//! [`Options`] they all read. This file holds the error type, the usage
//! text and the re-exports.

use std::time::Duration;

mod check;
mod eval;
mod flags;
mod fuzz;
mod lint;
mod measure;
mod parse;
mod synth;

pub use check::run_check;
pub use eval::{run_eval, EvalOutput};
pub use flags::{check_flag_scope, parse_flags, Options};
pub use fuzz::{gen_config, run_fuzz, run_gen, FuzzFailure, FuzzOutput};
pub use lint::{run_lint, LintOutput};
pub use measure::run_measure;
pub use parse::run_parse;
pub use synth::run_synth;

/// Errors reported by the command-line front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// A problem or program file failed to parse.
    Parse(String),
    /// A goal named on the command line does not exist in the problem file.
    UnknownGoal(String),
    /// Synthesis found no program for the named goal: the search ran out
    /// of time or exhausted its candidates.
    SynthesisFailed {
        /// The goal that failed.
        goal: String,
        /// The per-goal timeout the search ran into, or `None` when it
        /// exhausted its candidates before the deadline.
        timed_out: Option<Duration>,
    },
    /// A checked program does not satisfy its signature.
    CheckFailed(String),
    /// `measure` could not run the program on one of its inputs.
    MeasureFailed {
        /// The goal whose program failed to run.
        goal: String,
        /// The size of the input it failed on.
        size: usize,
    },
    /// `fuzz` found a differential failure (the details and the shrunk
    /// reproducer have already been printed / written to `--out`).
    FuzzFailed(String),
    /// `lint` found deny-level diagnostics (the report has already been
    /// printed); exits with a distinct status so CI can gate on it.
    LintDeny(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Parse(msg) => write!(f, "parse error: {msg}"),
            CliError::UnknownGoal(name) => write!(f, "no goal named `{name}` in the problem file"),
            CliError::SynthesisFailed { goal, timed_out } => match timed_out {
                Some(timeout) => write!(
                    f,
                    "synthesis failed for goal `{goal}`: timed out after {}s",
                    timeout.as_secs_f64()
                ),
                None => write!(f, "synthesis failed for goal `{goal}`: search exhausted"),
            },
            CliError::CheckFailed(name) => {
                write!(f, "program does not satisfy the signature of goal `{name}`")
            }
            CliError::MeasureFailed { goal, size } => write!(
                f,
                "could not run the program for goal `{goal}` on a size-{size} input"
            ),
            CliError::FuzzFailed(msg) => write!(f, "differential failure: {msg}"),
            CliError::LintDeny(msg) => write!(f, "lint: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Top-level usage string printed by `main` for `--help` or usage errors.
pub const USAGE: &str = "\
resyn — resource-guided program synthesis

USAGE:
    resyn synth <problem-file> [--mode MODE] [--timeout SECS] [--goal NAME] [--stats]
    resyn check <problem-file> <program-file> [--mode MODE] [--goal NAME]
    resyn measure <problem-file> <program-file> [--goal NAME]
    resyn parse <problem-file>
    resyn lint <problem-file-or-dir> [--format human|json] [--timeout SECS]
    resyn eval [--table 1|2] [--jobs N] [--timeout SECS] [--filter SUBSTR,...]
               [--json PATH]
    resyn gen [--seed N] [--count N] [--size N]
    resyn fuzz [--seed N] [--count N] [--size N] [--timeout SECS] [--out PATH]
               [--check modes|lint]

MODES: resyn (default), synquid, eac, noinc, ct

`--timeout` is a *binding* wall-clock budget: every layer of the search
(enumeration, type checking, CEGIS, the SMT search) observes it
cooperatively, so a run reports `timed out` within one checkpoint interval
of the deadline instead of overrunning it.

`--stats` additionally reports, per goal, the solver query-cache hit/miss
counters and the size of the term intern table.

`lint` runs the static diagnostics pass over one problem file or
every `.re` file in a directory: duplicate and shadowed declarations,
components unreachable for every goal, goals that cannot recurse, ill-sorted
refinements and trivially-unsatisfiable refinements (a budgeted solver
query). `--format json` emits the stable `resyn-lint/1` schema. Exit status:
0 when clean or warnings only, 2 on deny-level findings, 1 on tool errors.
Inline `-- resyn: allow(check-name)` comments suppress a check for the
declaration on the same or the next line.

`eval` runs a paper benchmark suite through the parallel batch harness:
`--jobs` workers claim one (benchmark, mode) run at a time, each on a fresh
solver cache, so results (search counters included) are identical whatever
`--jobs` is, modulo runs right at the wall-clock timeout boundary. With
`--json` it writes the machine-readable `resyn-bench-eval/5` report
to PATH.

`gen` prints a seeded batch of generated, well-typed synthesis problems —
byte-identical across runs for the same `--seed`/`--count`/`--size`
(defaults: 42/10/3). `fuzz` runs such a batch through a per-problem
invariant checker, shrinks the first failing problem to a minimal
reproducer, writes it to `--out` if given, and exits nonzero. `--check`
picks the invariant: `modes` (default) demands ReSyn vs. EAC vs. NoInc
agreement under one per-run `--timeout`, a bit-identical warm-cache replay,
and that `lint` never calls a component of the ReSyn program unreachable;
`lint` demands that every generated problem is free of
deny-level lint findings.
";

/// Inputs that the subcommands' unit tests share.
#[cfg(test)]
mod fixtures {
    pub const APPEND_PROBLEM: &str = r"
        goal append :: xs: List a^1 -> ys: List a ->
                       {List a | len _v == len xs + len ys}
    ";

    // Recursive calls are charged by the cost metric; no explicit ticks are
    // needed (adding one would double-charge the call).
    pub const APPEND_PROGRAM: &str = r"fix append xs. \ys.
        match xs with
        | Nil -> ys
        | Cons h t -> (let r = append t ys in Cons h r)";
}
