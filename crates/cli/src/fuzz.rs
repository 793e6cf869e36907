//! `resyn gen` and `resyn fuzz`: print a seeded batch of generated
//! problems, or run one through a per-problem invariant checker and shrink
//! the first failure.

use std::fmt::Write as _;
use std::time::Duration;

use resyn_analysis::lint::Level;
use resyn_budget::Budget;

use crate::Options;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_flag_scope, parse_flags, CliError};

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
}
