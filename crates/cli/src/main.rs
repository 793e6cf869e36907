//! Entry point for the `resyn` command-line tool; see [`resyn_cli`] for the
//! command logic and the crate-level documentation for usage.

use std::process::ExitCode;

use resyn_cli::{
    check_flag_scope, parse_flags, run_check, run_client, run_client_stream, run_eval, run_fuzz,
    run_gen, run_lint, run_measure, run_parse, run_synth, server_config, CliError, USAGE,
};

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{err}");
            if matches!(err, CliError::Usage(_)) {
                eprintln!("\n{USAGE}");
            }
            // Deny-level lint findings get a distinct exit status so CI can
            // tell "the problem files are bad" (2) from "the tool failed" (1).
            if matches!(err, CliError::LintDeny(_)) {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Collect the problem files for `resyn lint`: the path itself when it is a
/// file, otherwise every `*.re` file directly inside the directory, sorted.
fn lint_files(path: &str) -> Result<Vec<String>, CliError> {
    let meta = std::fs::metadata(path)
        .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?;
    if !meta.is_dir() {
        return Ok(vec![path.to_string()]);
    }
    let mut files: Vec<String> = std::fs::read_dir(path)
        .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "re"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(CliError::Usage(format!(
            "`{path}` contains no .re problem files"
        )));
    }
    Ok(files)
}

fn run(args: Vec<String>) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".to_string()));
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(USAGE.to_string());
    }
    let (positional, opts) = parse_flags(rest)?;
    check_flag_scope(command, &opts)?;
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))
    };
    match command.as_str() {
        "parse" => {
            let [problem] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "parse expects one problem file".to_string(),
                ));
            };
            run_parse(&read(problem)?)
        }
        "lint" => {
            let [target] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "lint expects one problem file or directory".to_string(),
                ));
            };
            let mut files = Vec::new();
            for path in lint_files(target)? {
                let text = read(&path)?;
                files.push((path, text));
            }
            let out = run_lint(&files, &opts)?;
            if out.denials > 0 {
                print!("{}", out.report);
                return Err(CliError::LintDeny(format!(
                    "{} deny-level finding{}",
                    out.denials,
                    if out.denials == 1 { "" } else { "s" }
                )));
            }
            Ok(out.report)
        }
        "synth" => {
            let [problem] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "synth expects one problem file".to_string(),
                ));
            };
            run_synth(&read(problem)?, &opts)
        }
        "check" => {
            let [problem, program] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "check expects a problem file and a program file".to_string(),
                ));
            };
            run_check(&read(problem)?, &read(program)?, &opts)
        }
        "measure" => {
            let [problem, program] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "measure expects a problem file and a program file".to_string(),
                ));
            };
            run_measure(&read(problem)?, &read(program)?, &opts)
        }
        "eval" => {
            if !positional.is_empty() {
                return Err(CliError::Usage(
                    "eval takes no positional arguments".to_string(),
                ));
            }
            let out = run_eval(&opts)?;
            if let (Some(path), Some(json)) = (&opts.json, &out.json) {
                std::fs::write(path, json)
                    .map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))?;
            }
            Ok(out.table)
        }
        "serve" => {
            if !positional.is_empty() {
                return Err(CliError::Usage(
                    "serve takes no positional arguments".to_string(),
                ));
            }
            let config = server_config(&opts);
            let handle = resyn_server::serve(config)
                .map_err(|e| CliError::Usage(format!("cannot start the server: {e}")))?;
            // Announce the bound address (resolving `--addr host:0`) on
            // stdout so scripts — e.g. the CI smoke job — can pick it up,
            // then serve until killed.
            println!("resyn-server listening on {}", handle.addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        "gen" => {
            if !positional.is_empty() {
                return Err(CliError::Usage(
                    "gen takes no positional arguments".to_string(),
                ));
            }
            Ok(run_gen(&opts))
        }
        "fuzz" => {
            if !positional.is_empty() {
                return Err(CliError::Usage(
                    "fuzz takes no positional arguments".to_string(),
                ));
            }
            let out = run_fuzz(&opts);
            match out.failure {
                None => Ok(out.report),
                Some(failure) => {
                    // The report and the reproducer go to stdout/the artifact
                    // file; the nonzero exit goes through CliError so CI can
                    // gate on it.
                    print!("{}", out.report);
                    if let Some(path) = &opts.out {
                        std::fs::write(path, &failure.reproducer)
                            .map_err(|e| CliError::Usage(format!("cannot write `{path}`: {e}")))?;
                        println!("shrunk reproducer written to {path}");
                    } else {
                        print!("{}", failure.reproducer);
                    }
                    Err(CliError::FuzzFailed(format!(
                        "{}: {}",
                        failure.id, failure.complaint
                    )))
                }
            }
        }
        "client" => {
            let wants_stats = opts.stats;
            match (positional.as_slice(), wants_stats) {
                ([], true) => run_client(None, &opts),
                ([problem], false) if opts.stream => {
                    // Heartbeats print as they arrive, so a long-running
                    // job is visibly alive before the final verdict.
                    run_client_stream(&read(problem)?, &opts, |line| {
                        use std::io::Write as _;
                        println!("{line}");
                        let _ = std::io::stdout().flush();
                    })
                }
                ([problem], false) => run_client(Some(&read(problem)?), &opts),
                _ => Err(CliError::Usage(
                    "client expects one problem file, or --stats and no file".to_string(),
                )),
            }
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}
