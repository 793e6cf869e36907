//! `resyn eval`: run a paper table through the parallel batch harness.

use std::fmt::Write as _;

use resyn_eval::parallel::{default_jobs, ParallelConfig};
use resyn_eval::report::{render_json, EvalReport};

use crate::{CliError, Options};

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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

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
    fn eval_rejects_an_unmatched_filter() {
        let opts = Options {
            filters: vec!["no-such-benchmark".to_string()],
            ..Options::default()
        };
        assert!(matches!(run_eval(&opts), Err(CliError::Usage(_))));
    }
}
