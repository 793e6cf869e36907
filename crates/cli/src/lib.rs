//! The `resyn` command-line tool.
//!
//! Three subcommands operate on Synquid-style problem files (see
//! [`resyn_parse`] for the surface syntax):
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
//! * `resyn serve` — start the persistent synthesis server (one shared
//!   solver cache across every session; see [`resyn_server`]),
//! * `resyn client` — submit a problem file (or a `stats` query) to a
//!   running server over the `resyn-wire/1` protocol,
//! * `resyn gen` — print a seeded, byte-deterministic batch of generated
//!   synthesis problems (see [`resyn_gen`]),
//! * `resyn fuzz` — run a generated batch through the differential checker
//!   (ReSyn vs. EAC vs. NoInc plus a warm-cache replay) and shrink the
//!   first failing problem to a minimal reproducer.
//!
//! The command logic lives in this library crate so it can be unit-tested
//! without spawning processes; `main.rs` only handles I/O.

use std::fmt::Write as _;
use std::time::Duration;

use resyn_analysis::lint::{render_lint_json, Diagnostic, Level};
use resyn_budget::Budget;
use resyn_eval::parallel::{default_jobs, ParallelConfig};
use resyn_eval::report::{render_json, EvalReport};
use resyn_parse::surface::{expr_to_surface, schema_to_surface};
use resyn_parse::{parse_expr, parse_problem};
use resyn_server::wire::{Response, SynthRequest};
use resyn_server::{Client, ServerConfig};
use resyn_solver::SolverCache;
use resyn_synth::{Mode, Synthesizer};

/// Errors reported by the command-line front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// A problem or program file failed to parse.
    Parse(String),
    /// A goal named on the command line does not exist in the problem file.
    UnknownGoal(String),
    /// Synthesis failed (timeout or exhausted search space).
    SynthesisFailed(String),
    /// A checked program does not satisfy its signature.
    CheckFailed(String),
    /// `fuzz` found a differential failure (the details and the shrunk
    /// reproducer have already been printed / written to `--out`).
    FuzzFailed(String),
    /// `lint` found deny-level diagnostics (the report has already been
    /// printed); exits with a distinct status so CI can gate on it.
    LintDeny(String),
    /// The synthesis server could not be reached or broke protocol
    /// (`client`). Unlike [`Usage`](Self::Usage), this does not mean the
    /// command line was wrong, so `main` does not print the usage text.
    Transport(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Parse(msg) => write!(f, "parse error: {msg}"),
            CliError::UnknownGoal(name) => write!(f, "no goal named `{name}` in the problem file"),
            CliError::SynthesisFailed(name) => {
                write!(
                    f,
                    "synthesis failed for goal `{name}` (timeout or no solution)"
                )
            }
            CliError::CheckFailed(name) => {
                write!(f, "program does not satisfy the signature of goal `{name}`")
            }
            CliError::FuzzFailed(msg) => write!(f, "differential failure: {msg}"),
            CliError::LintDeny(msg) => write!(f, "lint: {msg}"),
            CliError::Transport(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Options shared by the subcommands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Synthesis / checking mode.
    pub mode: Mode,
    /// Per-goal timeout.
    pub timeout: Duration,
    /// Restrict `synth`/`check` to the goal with this name.
    pub goal: Option<String>,
    /// Report search and solver-cache statistics (`--stats`).
    pub stats: bool,
    /// `eval`: worker threads (`--jobs`); defaults to the machine's
    /// available parallelism, capped at 8.
    pub jobs: Option<usize>,
    /// `eval`: benchmark-id substring filters (`--filter a,b`).
    pub filters: Vec<String>,
    /// `eval`: which paper table to run (`--table 1|2`).
    pub table: u8,
    /// `eval`: write the JSON report to this path (`--json PATH`).
    pub json: Option<String>,
    /// `serve`/`client`: the server address (`--addr HOST:PORT`).
    pub addr: Option<String>,
    /// `serve`: queue-depth limit before requests bounce with `overloaded`
    /// (`--queue N`).
    pub queue: Option<usize>,
    /// `serve`: cap on concurrently-open connections (`--max-conns N`);
    /// accepts beyond it get an immediate `overloaded` response and close.
    pub max_conns: Option<usize>,
    /// `client`: submit the problem as a `resyn-wire/2` streaming request
    /// and print progress heartbeats as they arrive (`--stream`).
    pub stream: bool,
    /// `gen`/`fuzz`: the master seed (`--seed N`); defaults to 42.
    pub seed: Option<u64>,
    /// `gen`/`fuzz`: how many problems to draw (`--count N`).
    pub count: Option<usize>,
    /// `gen`/`fuzz`: the generator's difficulty knob (`--size N`).
    pub size: Option<usize>,
    /// `fuzz`: write the shrunk reproducer of the first failure to this
    /// path (`--out PATH`).
    pub out: Option<String>,
    /// `fuzz`: which invariant to check per problem (`--check
    /// modes|lint`); defaults to `modes` (the cross-mode differential).
    pub check: Option<String>,
    /// `serve`: approximate byte budget for the server's shared solver cache
    /// (`--cache-budget BYTES`); over it, cold entries are evicted.
    pub cache_budget: Option<usize>,
    /// `lint`: output format (`--format human|json`); human by default.
    pub format: Option<String>,
    /// Flags seen on the command line, for per-subcommand scope checking
    /// (see [`check_flag_scope`]).
    pub seen_flags: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            mode: Mode::ReSyn,
            timeout: Duration::from_secs(120),
            goal: None,
            stats: false,
            jobs: None,
            filters: Vec::new(),
            table: 1,
            json: None,
            addr: None,
            queue: None,
            max_conns: None,
            stream: false,
            seed: None,
            count: None,
            size: None,
            out: None,
            check: None,
            cache_budget: None,
            format: None,
            seen_flags: Vec::new(),
        }
    }
}

/// Reject flags that do not apply to the given subcommand (each flag is
/// parsed globally but only meaningful to some subcommands; silently
/// ignoring e.g. `resyn check … --json out.json` would surprise the user
/// expecting a report).
///
/// # Errors
///
/// Returns [`CliError::Usage`] naming the out-of-scope flag.
pub fn check_flag_scope(command: &str, opts: &Options) -> Result<(), CliError> {
    let allowed: &[&str] = match command {
        "parse" => &[],
        "synth" => &["--mode", "--timeout", "--goal", "--stats"],
        "check" => &["--mode", "--timeout", "--goal"],
        "measure" => &["--goal"],
        "eval" => &["--table", "--jobs", "--timeout", "--filter", "--json"],
        "serve" => &[
            "--addr",
            "--jobs",
            "--timeout",
            "--queue",
            "--max-conns",
            "--cache-budget",
        ],
        "client" => &[
            "--addr",
            "--mode",
            "--timeout",
            "--goal",
            "--stats",
            "--stream",
        ],
        "lint" => &["--format", "--timeout"],
        "gen" => &["--seed", "--count", "--size"],
        "fuzz" => &[
            "--seed",
            "--count",
            "--size",
            "--timeout",
            "--out",
            "--check",
        ],
        // Unknown subcommands are reported as such by the dispatcher.
        _ => return Ok(()),
    };
    for flag in &opts.seen_flags {
        if !allowed.contains(&flag.as_str()) {
            return Err(CliError::Usage(format!(
                "`{flag}` does not apply to `{command}`"
            )));
        }
    }
    Ok(())
}

/// The value following `flag` on the command line.
fn flag_value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a String, CliError> {
    it.next()
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
}

/// Parse a count that must be at least 1; `what` names it in the error
/// ("invalid job count").
fn positive_count(value: &str, what: &str) -> Result<usize, CliError> {
    value
        .parse()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| CliError::Usage(format!("invalid {what} `{value}`")))
}

/// Parse the flags of an argument list into [`Options`], returning the
/// remaining positional arguments.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown flags or malformed values.
pub fn parse_flags(args: &[String]) -> Result<(Vec<String>, Options), CliError> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            opts.seen_flags.push(arg.clone());
        }
        let flag = arg.as_str();
        match flag {
            "--mode" => {
                opts.mode = flag_value(&mut it, flag)?
                    .parse()
                    .map_err(CliError::Usage)?;
            }
            "--timeout" => {
                let value = flag_value(&mut it, flag)?;
                let secs: u64 = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid timeout `{value}`")))?;
                opts.timeout = Duration::from_secs(secs);
            }
            "--goal" => opts.goal = Some(flag_value(&mut it, flag)?.clone()),
            "--stats" => opts.stats = true,
            "--jobs" => opts.jobs = Some(positive_count(flag_value(&mut it, flag)?, "job count")?),
            "--filter" => {
                let value = flag_value(&mut it, flag)?;
                let before = opts.filters.len();
                opts.filters.extend(
                    value
                        .split(',')
                        .filter(|f| !f.is_empty())
                        .map(str::to_string),
                );
                if opts.filters.len() == before {
                    return Err(CliError::Usage(format!(
                        "--filter `{value}` contains no benchmark-id substring"
                    )));
                }
            }
            "--table" => {
                opts.table = match flag_value(&mut it, flag)?.as_str() {
                    "1" => 1,
                    "2" => 2,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown table `{other}` (expected 1 or 2)"
                        )))
                    }
                };
            }
            "--json" => opts.json = Some(flag_value(&mut it, flag)?.clone()),
            "--addr" => opts.addr = Some(flag_value(&mut it, flag)?.clone()),
            "--queue" => {
                opts.queue = Some(positive_count(flag_value(&mut it, flag)?, "queue depth")?);
            }
            "--max-conns" => {
                opts.max_conns = Some(positive_count(
                    flag_value(&mut it, flag)?,
                    "connection cap",
                )?);
            }
            "--stream" => opts.stream = true,
            "--format" => {
                let value = flag_value(&mut it, flag)?;
                match value.as_str() {
                    "human" | "json" => opts.format = Some(value.clone()),
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown format `{other}` (expected human or json)"
                        )))
                    }
                }
            }
            "--seed" => {
                let value = flag_value(&mut it, flag)?;
                let seed: u64 = value
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid seed `{value}`")))?;
                opts.seed = Some(seed);
            }
            "--count" => opts.count = Some(positive_count(flag_value(&mut it, flag)?, "count")?),
            "--size" => opts.size = Some(positive_count(flag_value(&mut it, flag)?, "size")?),
            "--out" => opts.out = Some(flag_value(&mut it, flag)?.clone()),
            "--check" => {
                let value = flag_value(&mut it, flag)?;
                match value.as_str() {
                    "modes" | "lint" => opts.check = Some(value.clone()),
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown check `{other}` (expected modes or lint)"
                        )))
                    }
                }
            }
            "--cache-budget" => {
                opts.cache_budget = Some(positive_count(
                    flag_value(&mut it, flag)?,
                    "cache budget in bytes",
                )?);
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")))
            }
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, opts))
}

fn load_goals(problem_text: &str, opts: &Options) -> Result<Vec<resyn_synth::Goal>, CliError> {
    let problem = parse_problem(problem_text).map_err(|e| CliError::Parse(e.to_string()))?;
    let goals = problem.into_goals();
    match &opts.goal {
        None => Ok(goals),
        Some(name) => {
            let selected: Vec<_> = goals.into_iter().filter(|g| &g.name == name).collect();
            if selected.is_empty() {
                Err(CliError::UnknownGoal(name.clone()))
            } else {
                Ok(selected)
            }
        }
    }
}

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
            return Err(CliError::SynthesisFailed(goal.name.clone()));
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

/// `resyn check`: type-check a hand-written program against a goal signature.
/// On success the report names the goal and the mode; on failure a
/// [`CliError::CheckFailed`] is returned.
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
    let synthesizer = Synthesizer::with_timeout(opts.timeout);
    if synthesizer.check(goal, opts.mode, &program) {
        Ok(format!(
            "ok: program satisfies goal `{}` ({:?} mode)\n",
            goal.name, opts.mode
        ))
    } else {
        Err(CliError::CheckFailed(goal.name.clone()))
    }
}

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
                return Err(CliError::CheckFailed(format!(
                    "{} (the program could not be executed on a size-{size} input)",
                    goal.name
                )))
            }
        }
    }
    let class = resyn_eval::measure::classify(goal, &program);
    let _ = writeln!(out, "fitted bound: {class}");
    Ok(out)
}

/// The output of `resyn eval`: the rendered text table and, when `--json`
/// was given, the serialized `resyn-bench-eval/5` report (the caller writes
/// it to the requested path — this library does no I/O).
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// The paper-style text table plus a run summary.
    pub table: String,
    /// The JSON report, present iff [`Options::json`] is set.
    pub json: Option<String>,
}

/// `resyn eval`: run a benchmark suite through the parallel batch harness.
///
/// `--table` selects the suite, `--filter` restricts it by id substring,
/// `--jobs` sets the worker count (results are row-for-row identical
/// whatever the worker count, except for benchmarks running right at the
/// wall-clock timeout boundary, which core contention can tip over),
/// `--timeout` bounds each synthesis mode, and `--json` additionally
/// serializes the run to the `resyn-bench-eval/5` schema (see
/// [`resyn_eval::report`]).
///
/// # Errors
///
/// Returns [`CliError::Usage`] if the filters match no benchmark.
pub fn run_eval(opts: &Options) -> Result<EvalOutput, CliError> {
    let suite = match opts.table {
        2 => resyn_eval::table2(),
        _ => resyn_eval::table1(),
    };
    let benches = resyn_eval::suite::filter_by_id_strict(suite, &opts.filters)
        .map_err(|msg| CliError::Usage(format!("table {}: {msg}", opts.table)))?;
    let config = ParallelConfig {
        jobs: opts.jobs.unwrap_or_else(default_jobs),
        timeout: opts.timeout,
        progress: true,
    };
    let run = resyn_eval::run_suite(&benches, &config);
    let suite_name = if opts.table == 2 { "table2" } else { "table1" };
    let mut table = run.render(opts.table == 2);
    let _ = writeln!(
        table,
        "\n{} rows in {:.2}s wall clock ({} jobs)",
        run.rows.len(),
        run.wall_clock.as_secs_f64(),
        run.jobs,
    );
    let json = opts
        .json
        .as_ref()
        .map(|_| render_json(&EvalReport::of_run(suite_name, opts.timeout, &run)));
    Ok(EvalOutput { table, json })
}

/// The default server address shared by `resyn serve` and `resyn client`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Build the [`ServerConfig`] for `resyn serve` from the parsed flags
/// (`--addr`, `--jobs`, `--timeout`, `--queue`; defaults otherwise).
pub fn server_config(opts: &Options) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        addr: opts
            .addr
            .clone()
            .unwrap_or_else(|| DEFAULT_ADDR.to_string()),
        jobs: opts.jobs.unwrap_or(defaults.jobs),
        timeout: if opts.seen_flags.iter().any(|f| f == "--timeout") {
            opts.timeout
        } else {
            defaults.timeout
        },
        queue_limit: opts.queue.unwrap_or(defaults.queue_limit),
        max_conns: opts.max_conns,
        cache_budget: opts.cache_budget,
        ..defaults
    }
}

/// Render a `resyn-wire/1` response for the terminal: the verdict first
/// (so scripts can grep it), then timing, the error if any, the counters,
/// and the synthesized program.
fn render_response(response: &Response) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "verdict: {}", response.verdict);
    if let Some(t) = response.time_secs {
        let _ = writeln!(out, "time: {t:.2}s");
    }
    if let Some(error) = &response.error {
        let _ = writeln!(out, "error: {error}");
    }
    for (key, value) in &response.stats {
        let _ = writeln!(out, "{key}: {value}");
    }
    if let Some(program) = &response.program {
        out.push_str(program);
    }
    out
}

/// `resyn client`: submit one request to a running server and render the
/// response. `problem_text` is the problem file's contents for a synthesis
/// request, or `None` with `--stats` for a statistics query.
///
/// The exit status reflects the *transport*: any server response — including
/// `parse_error` or `overloaded` — renders successfully with its verdict on
/// the first line, so callers script against the verdict, not the exit code.
///
/// # Errors
///
/// Returns [`CliError::Transport`] when the server cannot be reached or
/// the response violates the protocol.
pub fn run_client(problem_text: Option<&str>, opts: &Options) -> Result<String, CliError> {
    let addr = opts.addr.as_deref().unwrap_or(DEFAULT_ADDR);
    let mut client = Client::connect(addr)
        .map_err(|e| CliError::Transport(format!("cannot connect to `{addr}`: {e}")))?;
    let response = match problem_text {
        None => client.stats(),
        Some(problem) => client.synth(synth_request(problem, opts)),
    }
    .map_err(|e| CliError::Transport(format!("request to `{addr}` failed: {e}")))?;
    Ok(render_response(&response))
}

/// The synthesis request `resyn client` submits for a problem file.
fn synth_request(problem: &str, opts: &Options) -> SynthRequest {
    SynthRequest {
        id: None,
        problem: problem.to_string(),
        mode: Some(opts.mode.as_str().to_string()),
        timeout_secs: opts
            .seen_flags
            .iter()
            .any(|f| f == "--timeout")
            .then_some(opts.timeout.as_secs_f64()),
        goal: opts.goal.clone(),
        stream: opts.stream,
    }
}

/// `resyn client --stream`: submit the problem as a `resyn-wire/2`
/// streaming request. `on_progress` receives one pre-rendered line per
/// progress heartbeat *while the job runs* (the caller prints them as they
/// arrive — this library does no I/O); the returned report is the rendered
/// final response, identical to what [`run_client`] would produce.
///
/// # Errors
///
/// Returns [`CliError::Transport`] when the server cannot be reached or
/// the response violates the protocol.
pub fn run_client_stream(
    problem_text: &str,
    opts: &Options,
    mut on_progress: impl FnMut(String),
) -> Result<String, CliError> {
    let addr = opts.addr.as_deref().unwrap_or(DEFAULT_ADDR);
    let mut client = Client::connect(addr)
        .map_err(|e| CliError::Transport(format!("cannot connect to `{addr}`: {e}")))?;
    let response = client
        .synth_stream(synth_request(problem_text, opts), |progress| {
            on_progress(format!(
                "progress: #{} at {:.2}s",
                progress.seq, progress.elapsed_secs
            ));
        })
        .map_err(|e| CliError::Transport(format!("request to `{addr}` failed: {e}")))?;
    Ok(render_response(&response))
}

/// Build the [`resyn_gen::GenConfig`] for `gen`/`fuzz` from the parsed
/// flags, falling back to the generator's documented defaults.
pub fn gen_config(opts: &Options) -> resyn_gen::GenConfig {
    let defaults = resyn_gen::GenConfig::default();
    resyn_gen::GenConfig {
        seed: opts.seed.unwrap_or(defaults.seed),
        count: opts.count.unwrap_or(defaults.count),
        size: opts.size.unwrap_or(defaults.size),
    }
}

/// `resyn gen`: print a seeded batch of generated problems. Byte-identical
/// across runs for the same `--seed`/`--count`/`--size` (see [`resyn_gen`]'s
/// determinism contract), so the output can be diffed, archived or piped
/// straight into `resyn synth`.
pub fn run_gen(opts: &Options) -> String {
    resyn_gen::render_batch(&resyn_gen::problems(&gen_config(opts)))
}

/// The output of `resyn fuzz`: the per-problem log plus, on failure, the
/// shrunk reproducer (the caller writes it to `--out` — this library does no
/// I/O).
#[derive(Debug, Clone)]
pub struct FuzzOutput {
    /// One line per problem plus a summary line.
    pub report: String,
    /// The first failure: the differential complaint and the shrunk
    /// reproducer rendered as a `.re` file.
    pub failure: Option<FuzzFailure>,
}

/// A minimized differential failure found by `resyn fuzz`.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The failing problem's stable id (`gen-<seed>-<index>`).
    pub id: String,
    /// What the differential checker objected to, post-shrinking.
    pub complaint: String,
    /// The shrunk problem as a `.re` file (still reproduces the failure).
    pub reproducer: String,
}

/// One `resyn fuzz --check` pass over a single generated spec: the
/// complaint if the invariant fails, plus whether any run timed out (only
/// the cross-mode differential reports timeouts — lint does no synthesis).
fn fuzz_complaint(
    check: &str,
    spec: &resyn_gen::ProblemSpec,
    timeout: Duration,
) -> (Option<String>, bool) {
    match check {
        "lint" => {
            let budget = Budget::with_timeout(timeout);
            match resyn_parse::lint_source(&spec.render(), None, &budget) {
                Err(err) => (
                    Some(format!("generated problem does not lint: {err}")),
                    false,
                ),
                Ok(diags) => {
                    let denies: Vec<String> = diags
                        .iter()
                        .filter(|d| d.level == Level::Deny)
                        .map(|d| d.render_human("gen"))
                        .collect();
                    if denies.is_empty() {
                        (None, false)
                    } else {
                        (Some(denies.join("; ")), false)
                    }
                }
            }
        }
        _ => {
            let outcome = resyn_gen::run_differential(&spec.problem(), timeout);
            let timed_out = outcome.timed_out();
            (outcome.failure(), timed_out)
        }
    }
}

/// `resyn fuzz`: run a generated batch through a per-problem invariant
/// checker and greedily shrink the first failing problem to a minimal
/// reproducer. `--check` picks the invariant:
///
/// * `modes` (default) — the cross-mode differential: ReSyn vs. EAC vs.
///   NoInc under one budget, plus a warm-cache replay, must agree, and the
///   reachability analysis must not mark a component the ReSyn program
///   calls as unreachable;
/// * `lint` — every generated problem must lint without deny-level
///   findings (the generator's output is well-formed by construction, so a
///   deny here is a bug in one side or the other).
///
/// `--timeout` bounds *each synthesis run* (so one `modes` problem costs up
/// to four timeouts across the three modes and the replay); timeouts make a
/// run incomparable, never a failure. The walk stops at the first failure:
/// everything after it would shrink against a stale budget anyway, and the
/// artifact names the exact `--seed`/problem index to resume from.
pub fn run_fuzz(opts: &Options) -> FuzzOutput {
    let config = gen_config(opts);
    let check = opts.check.as_deref().unwrap_or("modes");
    let mut report = String::new();
    let mut timeouts = 0usize;
    let mut passed = 0usize;
    for problem in resyn_gen::problems(&config) {
        let (failure, timed_out) = fuzz_complaint(check, &problem.spec, opts.timeout);
        match failure {
            None => {
                passed += 1;
                if timed_out {
                    timeouts += 1;
                    let _ = writeln!(report, "{}: ok (some mode timed out)", problem.id);
                } else {
                    let _ = writeln!(report, "{}: ok", problem.id);
                }
            }
            Some(complaint) => {
                let _ = writeln!(report, "{}: FAIL — {complaint}", problem.id);
                let shrunk = resyn_gen::shrink(&problem.spec, &mut |spec| {
                    fuzz_complaint(check, spec, opts.timeout).0.is_some()
                });
                let complaint = fuzz_complaint(check, &shrunk, opts.timeout)
                    .0
                    .unwrap_or(complaint);
                let reproducer = format!(
                    "-- {} shrunk reproducer (resyn fuzz --seed {} ; problem {})\n-- {complaint}\n{}",
                    problem.id,
                    config.seed,
                    problem.index,
                    shrunk.render()
                );
                let _ = writeln!(
                    report,
                    "1 failure in {} problems ({passed} ok, {timeouts} with timeouts)",
                    problem.index + 1
                );
                return FuzzOutput {
                    report,
                    failure: Some(FuzzFailure {
                        id: problem.id,
                        complaint,
                        reproducer,
                    }),
                };
            }
        }
    }
    match check {
        "lint" => {
            let _ = writeln!(
                report,
                "{passed}/{} problems lint without deny-level findings",
                config.count
            );
        }
        _ => {
            let _ = writeln!(
                report,
                "{passed}/{} problems agree across {} modes ({timeouts} with timeouts)",
                config.count,
                resyn_gen::DIFF_MODES.len()
            );
        }
    }
    FuzzOutput {
        report,
        failure: None,
    }
}

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
    resyn serve [--addr HOST:PORT] [--jobs N] [--timeout SECS] [--queue N]
                [--max-conns N] [--cache-budget BYTES]
    resyn client <problem-file> [--addr HOST:PORT] [--mode MODE]
                 [--timeout SECS] [--goal NAME] [--stream]
    resyn client --stats [--addr HOST:PORT]
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

`serve` starts the persistent synthesis server (newline-delimited
`resyn-wire/1` and `/2` JSON over TCP; all sessions share one solver query
cache, `--queue` bounds the pending-job backlog before requests bounce
with `overloaded`, and per-request timeouts are clamped to `--timeout`).
`--cache-budget BYTES` bounds that shared cache: past the budget, cold
entries are evicted (approximate second-chance policy; recently-hit entries
survive a sweep).
Connections are multiplexed by one epoll readiness loop (synthesis
dominates, not I/O), so thousands of concurrent clients cost registered
fds, not threads. `--max-conns N` caps concurrently
open connections: accepts beyond the cap get one immediate `overloaded`
response and are closed (unlimited by default). Every synthesis request is
run through the linter's structural checks first; deny-level findings come
back as the error instead of being synthesized over.
`client` submits a problem file — or, with `--stats`, a statistics query —
to a running server; the default address for both is 127.0.0.1:7171.
`client --stream` opts into `resyn-wire/2` streaming: the server sends
rate-limited progress heartbeats while the job runs, printed as they
arrive, before the unchanged final verdict. `client --stats` reports
p50/p95/p99 request latency split into queue wait and solve time.
";

#[cfg(test)]
mod tests {
    use super::*;

    const APPEND_PROBLEM: &str = r"
        goal append :: xs: List a^1 -> ys: List a ->
                       {List a | len _v == len xs + len ys}
    ";

    // Recursive calls are charged by the cost metric; no explicit ticks are
    // needed (adding one would double-charge the call).
    const APPEND_PROGRAM: &str = r"fix append xs. \ys.
        match xs with
        | Nil -> ys
        | Cons h t -> (let r = append t ys in Cons h r)";

    const APPEND_PROGRAM_WRONG: &str = r"fix append xs. \ys. ys";

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
    fn flags_are_parsed_and_validated() {
        let args: Vec<String> = ["file.re", "--mode", "synquid", "--timeout", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert_eq!(positional, vec!["file.re".to_string()]);
        assert_eq!(opts.mode, Mode::Synquid);
        assert_eq!(opts.timeout, Duration::from_secs(7));

        let bad: Vec<String> = ["--mode", "quantum"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(parse_flags(&bad), Err(CliError::Usage(_))));
        let bad: Vec<String> = ["--frobnicate"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_flags(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_command_echoes_signatures() {
        let out = run_parse(APPEND_PROBLEM).unwrap();
        assert!(out.contains("goal append ::"));
        assert!(out.contains("forall a."));
        assert!(run_parse("component only :: Int -> Int").is_err());
    }

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
    fn stats_flag_is_parsed() {
        let args: Vec<String> = ["file.re", "--stats"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert_eq!(positional, vec!["file.re".to_string()]);
        assert!(opts.stats);
        assert!(!Options::default().stats);
    }

    #[test]
    fn eval_flags_are_parsed() {
        let args: Vec<String> = [
            "--jobs",
            "4",
            "--filter",
            "list-id,list-append",
            "--filter",
            "sorted",
            "--table",
            "2",
            "--json",
            "out/bench.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert!(positional.is_empty());
        assert_eq!(opts.jobs, Some(4));
        assert_eq!(opts.filters, vec!["list-id", "list-append", "sorted"]);
        assert_eq!(opts.table, 2);
        assert_eq!(opts.json.as_deref(), Some("out/bench.json"));

        for bad in [
            vec!["--jobs", "0"],
            vec!["--jobs", "many"],
            vec!["--table", "3"],
            vec!["--filter"],
            // Filters with no non-empty segment would silently run the full
            // suite; reject them at parse time instead.
            vec!["--filter", ""],
            vec!["--filter", ","],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_flags(&bad), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn eval_runs_a_filtered_slice_and_emits_schema_valid_json() {
        let opts = Options {
            timeout: Duration::from_secs(60),
            jobs: Some(2),
            // `list-nonempty` rather than `list-singleton`: the latter is a
            // substring of the `clist-`/`sslist-` singleton rows too.
            filters: vec!["list-id".to_string(), "list-nonempty".to_string()],
            json: Some("unused-path".to_string()),
            ..Options::default()
        };
        let out = run_eval(&opts).unwrap();
        assert!(out.table.contains("list-id"), "{}", out.table);
        assert!(out.table.contains("2 rows"), "{}", out.table);
        let json = out.json.expect("--json must produce a report");
        let parsed = resyn_eval::parse_json(&json).expect("report must be valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(resyn_eval::Json::as_str),
            Some("resyn-bench-eval/5")
        );
        assert_eq!(
            parsed.get("suite").and_then(resyn_eval::Json::as_str),
            Some("table1")
        );
        let rows = parsed
            .get("rows")
            .and_then(resyn_eval::Json::as_arr)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("id").and_then(resyn_eval::Json::as_str),
            Some("list-id")
        );
    }

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

    #[test]
    fn lint_flags_are_parsed_and_scoped() {
        let args: Vec<String> = ["problems/", "--format", "json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert_eq!(positional, vec!["problems/".to_string()]);
        assert_eq!(opts.format.as_deref(), Some("json"));
        assert!(check_flag_scope("lint", &opts).is_ok());
        assert!(matches!(
            check_flag_scope("synth", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--format")
        ));
        let bad: Vec<String> = ["--format", "xml"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_flags(&bad), Err(CliError::Usage(_))));
    }

    #[test]
    fn out_of_scope_flags_are_rejected_per_subcommand() {
        let args: Vec<String> = ["--json", "x.json"].iter().map(|s| s.to_string()).collect();
        let (_, opts) = parse_flags(&args).unwrap();
        assert!(check_flag_scope("eval", &opts).is_ok());
        assert!(matches!(
            check_flag_scope("check", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--json")
        ));

        let args: Vec<String> = ["--stats"].iter().map(|s| s.to_string()).collect();
        let (_, opts) = parse_flags(&args).unwrap();
        assert!(check_flag_scope("synth", &opts).is_ok());
        assert!(matches!(
            check_flag_scope("eval", &opts),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            check_flag_scope("parse", &opts),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_and_client_flags_are_parsed_and_scoped() {
        let args: Vec<String> = ["--addr", "127.0.0.1:9000", "--queue", "4", "--jobs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert!(positional.is_empty());
        assert_eq!(opts.addr.as_deref(), Some("127.0.0.1:9000"));
        assert_eq!(opts.queue, Some(4));
        assert!(check_flag_scope("serve", &opts).is_ok());
        // `--queue` is a server knob; clients cannot pass it.
        assert!(matches!(
            check_flag_scope("client", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--queue")
        ));

        for bad in [
            vec!["--queue", "0"],
            vec!["--queue", "deep"],
            vec!["--addr"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_flags(&bad), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn server_config_reflects_flags_and_defaults() {
        let (_, opts) = parse_flags(&[]).unwrap();
        let config = server_config(&opts);
        assert_eq!(config.addr, DEFAULT_ADDR);
        // Without `--timeout` the server keeps its own default budget, not
        // the CLI's synth default.
        assert_eq!(
            config.timeout,
            resyn_server::ServerConfig::default().timeout
        );

        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:0",
            "--jobs",
            "3",
            "--timeout",
            "7",
            "--queue",
            "5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (_, opts) = parse_flags(&args).unwrap();
        let config = server_config(&opts);
        assert_eq!(config.addr, "0.0.0.0:0");
        assert_eq!(config.jobs, 3);
        assert_eq!(config.timeout, Duration::from_secs(7));
        assert_eq!(config.queue_limit, 5);
    }

    #[test]
    fn stream_flag_is_parsed_and_scoped() {
        // The server runs one readiness loop; the flag that sized a set of
        // them is rejected, never silently ignored.
        let bad: Vec<String> = ["--io-threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(
            parse_flags(&bad),
            Err(CliError::Usage(msg)) if msg.contains("unknown flag")
        ));

        let args: Vec<String> = ["--stream"].iter().map(|s| s.to_string()).collect();
        let (_, opts) = parse_flags(&args).unwrap();
        assert!(opts.stream);
        assert!(check_flag_scope("client", &opts).is_ok());
        // … and `--stream` shapes the client's read loop, not the server.
        assert!(matches!(
            check_flag_scope("serve", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--stream")
        ));
    }

    #[test]
    fn a_streaming_client_sees_heartbeats_then_the_verdict() {
        // A zero heartbeat interval makes every budget checkpoint report,
        // so even a quick goal streams progress ahead of its verdict.
        let server = resyn_server::serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            timeout: Duration::from_secs(60),
            progress_interval: Duration::ZERO,
            ..ServerConfig::default()
        })
        .expect("ephemeral server starts");
        let opts = Options {
            addr: Some(server.addr().to_string()),
            stream: true,
            ..Options::default()
        };
        let problem = "goal id_list :: xs: List a -> {List a | len _v == len xs}";
        let mut progress_lines = Vec::new();
        let out = run_client_stream(problem, &opts, |line| progress_lines.push(line)).unwrap();
        assert!(out.starts_with("verdict: solved\n"), "{out}");
        assert!(out.contains("-- goal id_list"), "{out}");
        assert!(!progress_lines.is_empty(), "no heartbeats arrived");
        assert!(
            progress_lines[0].starts_with("progress: #1 "),
            "{}",
            progress_lines[0]
        );
        server.shutdown();
    }

    #[test]
    fn client_round_trips_against_an_in_process_server() {
        let server = resyn_server::serve(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        })
        .expect("ephemeral server starts");
        let opts = Options {
            addr: Some(server.addr().to_string()),
            ..Options::default()
        };
        let problem = "goal id_list :: xs: List a -> {List a | len _v == len xs}";
        let out = run_client(Some(problem), &opts).unwrap();
        assert!(out.starts_with("verdict: solved\n"), "{out}");
        assert!(out.contains("-- goal id_list"), "{out}");

        // A problem the surface parser rejects comes back as a verdict,
        // not a transport error — the caller scripts against line one.
        let out = run_client(Some("goal oops ::"), &opts).unwrap();
        assert!(out.starts_with("verdict: parse_error\n"), "{out}");
        assert!(out.contains("error: "), "{out}");

        // And `--stats` surfaces the cumulative counters.
        let stats_opts = Options {
            stats: true,
            ..opts.clone()
        };
        let out = run_client(None, &stats_opts).unwrap();
        assert!(out.starts_with("verdict: ok\n"), "{out}");
        assert!(out.contains("synth_requests: 2"), "{out}");
        assert!(out.contains("cache_hits: "), "{out}");
        server.shutdown();
    }

    #[test]
    fn cache_budget_flag_is_parsed_scoped_and_validated() {
        let args: Vec<String> = ["--cache-budget", "65536"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert!(positional.is_empty());
        assert_eq!(opts.cache_budget, Some(65536));
        // The budget bounds the long-running server's shared cache …
        assert!(check_flag_scope("serve", &opts).is_ok());
        // … and nothing else: one-shot `synth`, `lint` and `eval` runs own a
        // short-lived cache, and `client`'s cache lives server-side.
        for command in ["synth", "lint", "check", "eval"] {
            assert!(matches!(
                check_flag_scope(command, &opts),
                Err(CliError::Usage(msg)) if msg.contains("--cache-budget")
            ));
        }
        assert!(matches!(
            check_flag_scope("client", &opts),
            Err(CliError::Usage(_))
        ));

        for bad in [
            vec!["--cache-budget", "0"],
            vec!["--cache-budget", "plenty"],
            vec!["--cache-budget"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_flags(&bad), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        // Old cache-snapshot flags are rejected, never silently ignored.
        for flag in ["--cache-file", "--export-cache", "--import-cache"] {
            let bad = vec![flag.to_string(), "x".to_string()];
            assert!(
                matches!(parse_flags(&bad), Err(CliError::Usage(msg)) if msg.contains("unknown flag")),
                "{flag}"
            );
        }

        // And the budget reaches the server configuration.
        assert_eq!(server_config(&opts).cache_budget, Some(65536));
        let config = server_config(&parse_flags(&[]).unwrap().1);
        assert_eq!(config.cache_budget, None);
    }

    #[test]
    fn client_reports_unreachable_servers_as_transport_errors() {
        let opts = Options {
            // Port 1 is privileged and unbound in the test environment.
            addr: Some("127.0.0.1:1".to_string()),
            ..Options::default()
        };
        // Transport, not Usage: the command line was fine, so `main` must
        // not dump the usage text at the user.
        assert!(matches!(
            run_client(Some("goal g :: Int -> Int"), &opts),
            Err(CliError::Transport(msg)) if msg.contains("cannot connect")
        ));
    }

    #[test]
    fn gen_flags_are_parsed_scoped_and_validated() {
        let args: Vec<String> = ["--seed", "7", "--count", "3", "--size", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (positional, opts) = parse_flags(&args).unwrap();
        assert!(positional.is_empty());
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.count, Some(3));
        assert_eq!(opts.size, Some(2));
        assert!(check_flag_scope("gen", &opts).is_ok());
        assert!(check_flag_scope("fuzz", &opts).is_ok());
        // The generator knobs mean nothing to the other subcommands.
        assert!(matches!(
            check_flag_scope("eval", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--seed")
        ));
        // `--out` (the reproducer artifact) and `--timeout` (the per-run
        // budget) are fuzz-only knobs.
        let args: Vec<String> = ["--out", "repro.re"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (_, opts) = parse_flags(&args).unwrap();
        assert!(check_flag_scope("fuzz", &opts).is_ok());
        assert!(matches!(
            check_flag_scope("gen", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--out")
        ));

        for bad in [
            vec!["--seed", "many"],
            vec!["--seed"],
            vec!["--count", "0"],
            vec!["--size", "0"],
            vec!["--out"],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(parse_flags(&bad), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }

        // Defaults flow through gen_config when the flags are absent.
        let (_, opts) = parse_flags(&[]).unwrap();
        assert_eq!(gen_config(&opts), resyn_gen::GenConfig::default());
    }

    #[test]
    fn gen_is_byte_deterministic_and_well_formed() {
        let opts = Options {
            seed: Some(42),
            count: Some(5),
            ..Options::default()
        };
        let a = run_gen(&opts);
        assert_eq!(a, run_gen(&opts), "gen must be byte-identical per seed");
        assert!(a.contains("-- gen-42-0"), "{a}");
        assert!(a.contains("-- gen-42-4"), "{a}");
        // Every problem in the stream is itself a valid problem file.
        for (i, chunk) in a.split("\n\n").enumerate() {
            assert!(
                resyn_parse::parse_problem(chunk).is_ok(),
                "problem {i} does not parse:\n{chunk}"
            );
        }
        let other = run_gen(&Options {
            seed: Some(43),
            ..opts
        });
        assert_ne!(a, other, "distinct seeds must draw distinct batches");
    }

    #[test]
    fn fuzz_passes_on_a_small_clean_batch() {
        let opts = Options {
            seed: Some(42),
            count: Some(2),
            timeout: Duration::from_secs(60),
            ..Options::default()
        };
        let out = run_fuzz(&opts);
        assert!(out.failure.is_none(), "{}", out.report);
        assert!(out.report.contains("gen-42-0: ok"), "{}", out.report);
        assert!(out.report.contains("2/2 problems agree"), "{}", out.report);
    }

    #[test]
    fn fuzz_check_flag_selects_the_invariant() {
        // `--check` parses, validates its value, and is fuzz-only.
        let args: Vec<String> = ["--check", "lint"].iter().map(|s| s.to_string()).collect();
        let (_, opts) = parse_flags(&args).unwrap();
        assert_eq!(opts.check.as_deref(), Some("lint"));
        assert!(check_flag_scope("fuzz", &opts).is_ok());
        assert!(matches!(
            check_flag_scope("gen", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--check")
        ));
        let bad: Vec<String> = ["--check", "vibes"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(parse_flags(&bad), Err(CliError::Usage(_))));

        // Every generated problem lints clean of deny-level findings.
        let out = run_fuzz(&Options {
            seed: Some(42),
            count: Some(5),
            timeout: Duration::from_secs(60),
            check: Some("lint".to_string()),
            ..Options::default()
        });
        assert!(out.failure.is_none(), "{}", out.report);
        assert!(
            out.report
                .contains("5/5 problems lint without deny-level findings"),
            "{}",
            out.report
        );
    }

    #[test]
    fn eval_rejects_an_unmatched_filter() {
        let opts = Options {
            filters: vec!["no-such-benchmark".to_string()],
            ..Options::default()
        };
        assert!(matches!(run_eval(&opts), Err(CliError::Usage(_))));
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
