//! The command line's flags: one [`Options`] value parsed from every flag
//! of every subcommand, and the per-subcommand check that rejects a flag the
//! named subcommand does not take.

use std::time::Duration;

use resyn_parse::parse_problem;
use resyn_synth::Mode;

use crate::CliError;

/// Options shared by the subcommands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Synthesis / checking mode.
    pub mode: Mode,
    /// Per-goal timeout.
    pub timeout: Duration,
    /// Restrict `synth`/`check`/`measure` to the goal with this name.
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
            seed: None,
            count: None,
            size: None,
            out: None,
            check: None,
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
        "check" => &["--mode", "--goal"],
        "measure" => &["--goal"],
        "eval" => &["--table", "--jobs", "--timeout", "--filter", "--json"],
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
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")))
            }
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, opts))
}

/// The goals of a problem file, or only the one `--goal` names.
pub(crate) fn load_goals(
    problem_text: &str,
    opts: &Options,
) -> Result<Vec<resyn_synth::Goal>, CliError> {
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

#[cfg(test)]
mod tests {
    use super::*;

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

        // `check` runs to its verdict, so a timeout would be ignored.
        let args: Vec<String> = ["--timeout", "0"].iter().map(|s| s.to_string()).collect();
        let (_, opts) = parse_flags(&args).unwrap();
        assert!(matches!(
            check_flag_scope("check", &opts),
            Err(CliError::Usage(msg)) if msg.contains("--timeout")
        ));
    }

    #[test]
    fn serving_flags_and_snapshot_flags_are_unknown() {
        // Flags no subcommand takes are rejected, never silently ignored.
        for flag in [
            "--addr",
            "--queue",
            "--max-conns",
            "--stream",
            "--cache-budget",
            "--io-threads",
            "--cache-file",
        ] {
            let args = vec![flag.to_string(), "1".to_string()];
            assert!(
                matches!(parse_flags(&args), Err(CliError::Usage(msg)) if msg.contains("unknown flag")),
                "{flag}"
            );
        }
    }
}
