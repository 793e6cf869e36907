//! Machine-readable evaluation reports: the `BENCH_eval.json` schema.
//!
//! The text tables of [`crate::harness`] are for humans; downstream tooling
//! (CI artifacts, the perf trajectory) needs a stable machine-readable form.
//! This module serializes a suite run to JSON with the shared hand-rolled
//! writer/reader of [`resyn_wire`] (the workspace is offline — no serde);
//! the parser ([`parse_json`]) is re-exported here so the schema can be
//! round-trip-tested and so existing consumers keep their import paths.
//!
//! # Schema (`resyn-bench-eval/5`)
//!
//! ```json
//! {
//!   "schema": "resyn-bench-eval/5",
//!   "suite": "table1",
//!   "jobs": 4,
//!   "timeout_secs": 60.0,
//!   "wall_clock_secs": 1.93,
//!   "rows": [
//!     {
//!       "id": "list-append", "group": "List", "code": 10,
//!       "modes": {
//!         "resyn":   {"time_secs": 0.11, "timed_out": false,
//!                     "candidates": 42, "cache_hits": 7, "cache_misses": 3,
//!                     "cache_refuted": 1},
//!         "synquid": {"time_secs": null, "timed_out": true,
//!                     "candidates": 9000, "cache_hits": 1, "cache_misses": 2,
//!                     "cache_refuted": 0},
//!         "eac":   {"time_secs": 0.52, "timed_out": false, "...": "..."},
//!         "noinc": {"time_secs": 0.31, "timed_out": false, "...": "..."}
//!       },
//!       "bound_resyn": "O(n)", "bound_synquid": "-",
//!       "error": null,
//!       "speedup_noinc": 2.8
//!     }
//!   ],
//!   "aggregate": {
//!     "rows": 18, "solved_resyn": 18, "solved_synquid": 17,
//!     "timeouts": 1, "errors": 0,
//!     "median_resyn_over_synquid": 1.04,
//!     "cache_hits": 5120, "cache_misses": 870, "interned_terms": 5490,
//!     "total_synth_secs": 12.9,
//!     "median_speedup_noinc": 1.9
//!   }
//! }
//! ```
//!
//! Version history: `/5` appends the per-mode `"cache_refuted"` count.
//! `/4` drops the two per-mode library-size counts that
//! `/3` appended (declared and reachability-pruned; the synthesizer no
//! longer prunes its library, so the second always equalled the first).
//! `/2` appends the per-row `"speedup_noinc"` (NoInc time over ReSyn time,
//! `null` unless both solved) and the aggregate `"median_speedup_noinc"`,
//! and populates the ablation columns on *every* row rather than Table 2
//! only. A consumer that indexes by key reads `/2`, `/4` and `/5` documents
//! alike (a `/3` document merely carries two extra keys) —
//! [`schema_version`] distinguishes the versions where it matters.
//!
//! Encoding rules downstream tooling may rely on:
//!
//! * A mode that found no program has `"time_secs": null`; its `"timed_out"`
//!   flag distinguishes a timeout (`true`) from an exhausted search space
//!   (`false`). A failed row's modes carry `null` times and zero counters.
//! * `"error"` is `null` for a clean row and the panic message for a row the
//!   parallel runner had to fail; failed rows keep their `"id"`/`"group"`.
//! * Every mode runs on a fresh solver cache, so per-mode
//!   `"cache_hits"`/`"cache_misses"` are that run's own, whatever the
//!   worker count and whatever ran before it. `"cache_misses"` counts the
//!   queries not answered from the cache's table, solved or refuted;
//!   `"cache_refuted"` counts the misses one of the
//!   cache's recent counterexamples refuted instead of the solver.
//! * The aggregate `"cache_hits"`, `"cache_misses"` and `"interned_terms"`
//!   are sums over every mode of every row. A term interned by two runs
//!   counts twice.
//! * Keys are emitted in the order shown above; new keys may be appended in
//!   later schema versions, so consumers should index by name, not position.

use std::fmt::Write as _;
use std::time::Duration;

use resyn_synth::SynthStats;

use crate::harness::{median_ratio, BenchmarkRow, ModeOutcome};
use crate::parallel::SuiteRun;

pub use resyn_wire::{json_num, json_str, parse_json, Json};

/// Everything the JSON report records about a run.
#[derive(Debug, Clone)]
pub struct EvalReport<'a> {
    /// Which suite ran (`"table1"` or `"table2"`).
    pub suite: &'a str,
    /// Worker threads used.
    pub jobs: usize,
    /// Per-benchmark, per-mode timeout.
    pub timeout: Duration,
    /// Wall-clock time of the whole run.
    pub wall_clock: Duration,
    /// The rows, in suite order.
    pub rows: &'a [BenchmarkRow],
}

impl<'a> EvalReport<'a> {
    /// Package a [`SuiteRun`] for serialization.
    pub fn of_run(suite: &'a str, timeout: Duration, run: &'a SuiteRun) -> EvalReport<'a> {
        EvalReport {
            suite,
            jobs: run.jobs,
            timeout,
            wall_clock: run.wall_clock,
            rows: &run.rows,
        }
    }
}

/// The schema version of a parsed report document (`1` for
/// `"resyn-bench-eval/1"`, `2` for `"resyn-bench-eval/2"`, …); `None` for a
/// document that is not a bench-eval report at all. Consumers use this to
/// accept both the current schema and its strict-subset predecessors.
pub fn schema_version(report: &Json) -> Option<u64> {
    report
        .get("schema")
        .and_then(Json::as_str)?
        .strip_prefix("resyn-bench-eval/")?
        .parse()
        .ok()
}

/// Serialize a report to the `resyn-bench-eval/5` JSON schema.
pub fn render_json(report: &EvalReport<'_>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"resyn-bench-eval/5\",");
    let _ = writeln!(out, "  \"suite\": {},", json_str(report.suite));
    let _ = writeln!(out, "  \"jobs\": {},", report.jobs);
    let _ = writeln!(
        out,
        "  \"timeout_secs\": {},",
        json_num(report.timeout.as_secs_f64())
    );
    let _ = writeln!(
        out,
        "  \"wall_clock_secs\": {},",
        json_num(report.wall_clock.as_secs_f64())
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in report.rows.iter().enumerate() {
        write_row(&mut out, row);
        out.push_str(if i + 1 < report.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    write_aggregate(&mut out, report);
    out.push_str("}\n");
    out
}

fn write_row(out: &mut String, row: &BenchmarkRow) {
    out.push_str("    {");
    let _ = write!(
        out,
        "\"id\": {}, \"group\": {}, \"code\": {}, ",
        json_str(&row.id),
        json_str(&row.group),
        row.code
    );
    out.push_str("\"modes\": {");
    let _ = write!(out, "\"resyn\": {}, ", mode_json(&row.resyn));
    let _ = write!(out, "\"synquid\": {}, ", mode_json(&row.synquid));
    let _ = write!(out, "\"eac\": {}, ", mode_json(&row.eac));
    let _ = write!(out, "\"noinc\": {}", mode_json(&row.noinc));
    out.push_str("}, ");
    let _ = write!(
        out,
        "\"bound_resyn\": {}, \"bound_synquid\": {}, \"error\": {}, \
         \"speedup_noinc\": {}",
        json_str(&row.bound_resyn.to_string()),
        json_str(&row.bound_synquid.to_string()),
        row.error.as_deref().map_or("null".to_string(), json_str),
        row.speedup_noinc().map_or("null".to_string(), json_num),
    );
    out.push('}');
}

fn mode_json(mode: &ModeOutcome) -> String {
    format!(
        "{{\"time_secs\": {}, \"timed_out\": {}, \"candidates\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_refuted\": {}}}",
        mode.time.map_or("null".to_string(), json_num),
        mode.timed_out,
        mode.stats.candidates_checked,
        mode.stats.solver_cache_hits,
        mode.stats.solver_cache_misses,
        mode.stats.solver_refuted,
    )
}

fn write_aggregate(out: &mut String, report: &EvalReport<'_>) {
    let rows = report.rows;
    let solved_resyn = rows.iter().filter(|r| r.resyn.solved()).count();
    let solved_synquid = rows.iter().filter(|r| r.synquid.solved()).count();
    let timeouts = rows
        .iter()
        .filter(|r| {
            r.resyn.timed_out || r.synquid.timed_out || r.eac.timed_out || r.noinc.timed_out
        })
        .count();
    let errors = rows.iter().filter(|r| r.error.is_some()).count();
    let mut total = SynthStats::default();
    for row in rows {
        total.merge(&row.merged_stats());
    }
    out.push_str("  \"aggregate\": {\n");
    let _ = writeln!(out, "    \"rows\": {},", rows.len());
    let _ = writeln!(out, "    \"solved_resyn\": {solved_resyn},");
    let _ = writeln!(out, "    \"solved_synquid\": {solved_synquid},");
    let _ = writeln!(out, "    \"timeouts\": {timeouts},");
    let _ = writeln!(out, "    \"errors\": {errors},");
    let _ = writeln!(
        out,
        "    \"median_resyn_over_synquid\": {},",
        median_ratio(rows).map_or("null".to_string(), json_num)
    );
    let _ = writeln!(out, "    \"cache_hits\": {},", total.solver_cache_hits);
    let _ = writeln!(out, "    \"cache_misses\": {},", total.solver_cache_misses);
    let _ = writeln!(out, "    \"interned_terms\": {},", total.interned_terms);
    let _ = writeln!(
        out,
        "    \"total_synth_secs\": {},",
        json_num(total.duration.as_secs_f64())
    );
    // A ~0-second ReSyn time makes `speedup_noinc()` overflow to infinity
    // (and a NaN anywhere would panic a `partial_cmp(..).unwrap()` sort), so
    // take the median over the finite ratios only, under a total order.
    let mut speedups: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.speedup_noinc())
        .filter(|s| s.is_finite())
        .collect();
    speedups.sort_by(f64::total_cmp);
    let _ = writeln!(
        out,
        "    \"median_speedup_noinc\": {}",
        speedups
            .get(speedups.len() / 2)
            .map_or("null".to_string(), |s| json_num(*s))
    );
    out.push_str("  }\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::BoundClass;

    fn sample_rows() -> Vec<BenchmarkRow> {
        let mut solved = BenchmarkRow::failed("list-\"quoted\"\n", "Li\\st", String::new());
        solved.error = None;
        solved.code = 7;
        solved.resyn = ModeOutcome {
            time: Some(0.25),
            timed_out: false,
            ..ModeOutcome::default()
        };
        solved.resyn.stats.solver_cache_hits = 5;
        solved.resyn.stats.solver_cache_misses = 2;
        solved.synquid = ModeOutcome {
            time: None,
            timed_out: true,
            ..ModeOutcome::default()
        };
        solved.bound_resyn = BoundClass::Linear;
        let failed = BenchmarkRow::failed("boom", "List", "worker panicked: oh no".to_string());
        vec![solved, failed]
    }

    fn sample_report(rows: &[BenchmarkRow]) -> String {
        render_json(&EvalReport {
            suite: "table1",
            jobs: 4,
            timeout: Duration::from_secs(60),
            wall_clock: Duration::from_millis(1500),
            rows,
        })
    }

    #[test]
    fn report_is_valid_json_with_the_documented_top_level_keys() {
        let rows = sample_rows();
        let parsed = parse_json(&sample_report(&rows)).expect("report must parse");
        for key in [
            "schema",
            "suite",
            "jobs",
            "timeout_secs",
            "wall_clock_secs",
            "rows",
            "aggregate",
        ] {
            assert!(parsed.get(key).is_some(), "missing top-level key `{key}`");
        }
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("resyn-bench-eval/5")
        );
        assert_eq!(schema_version(&parsed), Some(5));
        assert_eq!(parsed.get("jobs").and_then(Json::as_num), Some(4.0));
        assert_eq!(
            parsed.get("rows").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn benchmark_ids_are_escaped_and_round_trip() {
        let rows = sample_rows();
        let parsed = parse_json(&sample_report(&rows)).unwrap();
        let row0 = &parsed.get("rows").and_then(Json::as_arr).unwrap()[0];
        // The quoted-and-newlined id survives the escape/unescape round trip.
        assert_eq!(
            row0.get("id").and_then(Json::as_str),
            Some("list-\"quoted\"\n")
        );
        assert_eq!(row0.get("group").and_then(Json::as_str), Some("Li\\st"));
    }

    #[test]
    fn null_vs_timeout_encoding_is_distinguishable() {
        let rows = sample_rows();
        let parsed = parse_json(&sample_report(&rows)).unwrap();
        let modes = parsed.get("rows").and_then(Json::as_arr).unwrap()[0]
            .get("modes")
            .cloned()
            .unwrap();
        let resyn = modes.get("resyn").unwrap();
        assert_eq!(resyn.get("time_secs").and_then(Json::as_num), Some(0.25));
        assert_eq!(resyn.get("timed_out"), Some(&Json::Bool(false)));
        // `/4` dropped the per-mode library counts `/3` carried; `/5`
        // appended the refuted misses.
        let keys: Vec<&str> = resyn
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "time_secs",
                "timed_out",
                "candidates",
                "cache_hits",
                "cache_misses",
                "cache_refuted"
            ]
        );
        // Synquid found nothing *because it timed out*: null time + true flag.
        let synquid = modes.get("synquid").unwrap();
        assert!(synquid.get("time_secs").unwrap().is_null());
        assert_eq!(synquid.get("timed_out"), Some(&Json::Bool(true)));
        // A mode that found nothing without timing out exhausted its search.
        let eac = modes.get("eac").unwrap();
        assert!(eac.get("time_secs").unwrap().is_null());
        assert_eq!(eac.get("timed_out"), Some(&Json::Bool(false)));
    }

    #[test]
    fn per_row_noinc_speedup_is_recorded_when_both_runs_solved() {
        let mut rows = sample_rows();
        rows[0].noinc = ModeOutcome {
            time: Some(0.75),
            timed_out: false,
            ..ModeOutcome::default()
        };
        let parsed = parse_json(&sample_report(&rows)).unwrap();
        let row0 = &parsed.get("rows").and_then(Json::as_arr).unwrap()[0];
        // resyn solved in 0.25s, noinc in 0.75s: a 3x incrementality win.
        assert_eq!(row0.get("speedup_noinc").and_then(Json::as_num), Some(3.0));
        assert_eq!(
            parsed
                .get("aggregate")
                .and_then(|a| a.get("median_speedup_noinc"))
                .and_then(Json::as_num),
            Some(3.0)
        );
        // The failed row (no runs at all) stays null.
        let row1 = &parsed.get("rows").and_then(Json::as_arr).unwrap()[1];
        assert!(row1.get("speedup_noinc").unwrap().is_null());
    }

    #[test]
    fn zero_time_rows_do_not_poison_the_median_speedup() {
        let mut rows = sample_rows();
        rows[0].noinc = ModeOutcome {
            time: Some(0.75),
            timed_out: false,
            ..ModeOutcome::default()
        };
        // A row whose ReSyn run finished below the clock's resolution: the
        // noinc/resyn ratio overflows to +inf, which used to land in the
        // median (and any NaN used to panic the `partial_cmp` sort).
        let mut zero = BenchmarkRow::failed("instant", "List", String::new());
        zero.error = None;
        zero.resyn = ModeOutcome {
            time: Some(5e-324),
            timed_out: false,
            ..ModeOutcome::default()
        };
        zero.noinc = ModeOutcome {
            time: Some(1.0),
            timed_out: false,
            ..ModeOutcome::default()
        };
        assert_eq!(zero.speedup_noinc(), Some(f64::INFINITY));
        rows.push(zero);
        let parsed = parse_json(&sample_report(&rows)).unwrap();
        // The non-finite ratio is dropped, leaving row 0's 3x as the median.
        assert_eq!(
            parsed
                .get("aggregate")
                .and_then(|a| a.get("median_speedup_noinc"))
                .and_then(Json::as_num),
            Some(3.0)
        );
    }

    #[test]
    fn v1_documents_still_parse_under_the_v2_consumer_path() {
        // A `/1` report is a strict subset of `/2` (no `speedup_noinc`, no
        // `median_speedup_noinc`): by-key consumers read it unchanged and
        // `schema_version` tells the versions apart.
        let v1 = r#"{
          "schema": "resyn-bench-eval/1",
          "suite": "table1", "jobs": 1, "timeout_secs": 60.0,
          "wall_clock_secs": 1.0,
          "rows": [
            {"id": "list-id", "group": "List", "code": 4,
             "modes": {"resyn": {"time_secs": 0.1, "timed_out": false,
                                 "candidates": 2, "cache_hits": 1,
                                 "cache_misses": 1},
                       "synquid": null, "eac": null, "noinc": null},
             "bound_resyn": "O(n)", "bound_synquid": "-", "error": null}
          ],
          "aggregate": {"rows": 1}
        }"#;
        let parsed = parse_json(v1).expect("v1 document must parse");
        assert_eq!(schema_version(&parsed), Some(1));
        let row0 = &parsed.get("rows").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(row0.get("id").and_then(Json::as_str), Some("list-id"));
        // The v2-only key is simply absent, not an error.
        assert!(row0.get("speedup_noinc").is_none());
        assert!(schema_version(&Json::Null).is_none());
    }

    #[test]
    fn failed_rows_carry_their_error_and_count_in_the_aggregate() {
        let rows = sample_rows();
        let parsed = parse_json(&sample_report(&rows)).unwrap();
        let row1 = &parsed.get("rows").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(
            row1.get("error").and_then(Json::as_str),
            Some("worker panicked: oh no")
        );
        let aggregate = parsed.get("aggregate").unwrap();
        assert_eq!(aggregate.get("errors").and_then(Json::as_num), Some(1.0));
        assert_eq!(aggregate.get("timeouts").and_then(Json::as_num), Some(1.0));
        // The cache counters sum every mode of every row.
        assert_eq!(
            aggregate.get("cache_hits").and_then(Json::as_num),
            Some(5.0)
        );
        assert_eq!(
            aggregate.get("cache_misses").and_then(Json::as_num),
            Some(2.0)
        );
        assert_eq!(aggregate.get("rows").and_then(Json::as_num), Some(2.0));
    }
}
