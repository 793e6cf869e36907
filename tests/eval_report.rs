//! End-to-end shape tests for the `resyn-bench-eval/5` JSON report: a real
//! (small) suite run is serialized and re-parsed, and the schema properties
//! downstream tooling relies on are asserted on the result. Writer/parser
//! unit coverage (escaping, null-vs-timeout, v1 backward compatibility,
//! rejection of malformed input) lives in `resyn_eval::report`.

use std::time::Duration;

use resyn::eval::parallel::{run_suite, ParallelConfig};
use resyn::eval::report::{parse_json, render_json, schema_version, EvalReport, Json};
use resyn::eval::{suite, Benchmark};

fn pick(ids: &[&str]) -> Vec<Benchmark> {
    suite::table1()
        .into_iter()
        .filter(|b| ids.contains(&b.id.as_str()))
        .collect()
}

fn run_json(benches: &[Benchmark], timeout: Duration) -> Json {
    let config = ParallelConfig {
        jobs: 2,
        timeout,
        progress: false,
    };
    let run = run_suite(benches, &config);
    let json = render_json(&EvalReport::of_run("table1", timeout, &run));
    parse_json(&json).expect("the emitted report must be valid JSON")
}

fn tiny_run_json() -> Json {
    run_json(
        &pick(&["list-id", "list-head", "list-nonempty"]),
        Duration::from_secs(60),
    )
}

#[test]
fn real_runs_serialize_to_the_documented_schema() {
    let report = tiny_run_json();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("resyn-bench-eval/5")
    );
    assert_eq!(schema_version(&report), Some(5));
    assert_eq!(report.get("suite").and_then(Json::as_str), Some("table1"));
    assert_eq!(report.get("jobs").and_then(Json::as_num), Some(2.0));
    assert!(
        report
            .get("wall_clock_secs")
            .and_then(Json::as_num)
            .unwrap()
            > 0.0
    );

    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 3);
    for row in rows {
        for key in [
            "id",
            "group",
            "code",
            "modes",
            "bound_resyn",
            "bound_synquid",
            "error",
            "speedup_noinc",
        ] {
            assert!(row.get(key).is_some(), "row missing `{key}`");
        }
        let modes = row.get("modes").unwrap();
        for mode in ["resyn", "synquid", "eac", "noinc"] {
            assert!(modes.get(mode).is_some(), "modes missing `{mode}`");
        }
        // Since schema 2 the ablations run on *every* row, Table 1
        // included: `eac`/`noinc` are run objects, not nulls.
        for ablation in ["eac", "noinc"] {
            assert!(
                modes.get(ablation).unwrap().get("time_secs").is_some(),
                "`{ablation}` must be a run object on a Table-1 row"
            );
        }
        // Schema 4 dropped the per-mode library counts of schema 3; schema
        // 5 appended the refuted misses.
        for mode in ["resyn", "synquid", "eac", "noinc"] {
            let keys: Vec<&str> = modes
                .get(mode)
                .and_then(Json::as_obj)
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
                ],
                "`{mode}`"
            );
        }
        assert!(row.get("error").unwrap().is_null());
    }
}

#[test]
fn solved_modes_and_ablation_speedups_appear_in_a_real_report() {
    let report = tiny_run_json();
    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    let head = rows
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some("list-head"))
        .expect("list-head row present");
    let modes = head.get("modes").unwrap();
    // Every mode solves `list-head` — including the resource-agnostic
    // baseline, whose termination check admits the vacuous recursive call
    // in the provably dead `Nil` branch (the inconsistent-context rule).
    for mode in ["resyn", "synquid", "eac", "noinc"] {
        assert!(
            modes
                .get(mode)
                .unwrap()
                .get("time_secs")
                .unwrap()
                .as_num()
                .is_some(),
            "mode `{mode}` should solve list-head"
        );
    }
    // Both the resyn and noinc runs solved, so the per-row ablation speedup
    // is a positive number.
    assert!(
        head.get("speedup_noinc").unwrap().as_num().unwrap() > 0.0,
        "speedup must be recorded when both runs solve"
    );

    let aggregate = report.get("aggregate").unwrap();
    assert_eq!(aggregate.get("rows").and_then(Json::as_num), Some(3.0));
    assert_eq!(
        aggregate.get("solved_resyn").and_then(Json::as_num),
        Some(3.0)
    );
    assert_eq!(
        aggregate.get("solved_synquid").and_then(Json::as_num),
        Some(3.0)
    );
    assert_eq!(aggregate.get("errors").and_then(Json::as_num), Some(0.0));
    // The aggregate cache counters are the sums of the per-mode counters.
    for key in ["cache_hits", "cache_misses"] {
        let per_mode: f64 = rows
            .iter()
            .flat_map(|row| {
                let modes = row.get("modes").unwrap();
                ["resyn", "synquid", "eac", "noinc"]
                    .map(|mode| modes.get(mode).unwrap().get(key).unwrap().as_num().unwrap())
            })
            .sum();
        assert_eq!(
            aggregate.get(key).and_then(Json::as_num),
            Some(per_mode),
            "{key}"
        );
    }
    assert!(
        aggregate
            .get("cache_misses")
            .and_then(Json::as_num)
            .unwrap()
            > 0.0
    );
    assert!(
        aggregate
            .get("median_speedup_noinc")
            .expect("aggregate carries the median ablation speedup")
            .as_num()
            .unwrap()
            > 0.0
    );
}

#[test]
fn timeouts_encode_as_null_time_with_the_flag_set() {
    // A real run under an already-expired budget: every mode times out, and
    // the report must distinguish that from search exhaustion (time null in
    // both cases; only the flag differs).
    let report = run_json(&pick(&["list-id"]), Duration::ZERO);
    let rows = report.get("rows").and_then(Json::as_arr).unwrap();
    let modes = rows[0].get("modes").unwrap();
    for mode in ["resyn", "synquid", "eac", "noinc"] {
        let run = modes.get(mode).unwrap();
        assert!(run.get("time_secs").unwrap().is_null(), "{mode}");
        assert_eq!(run.get("timed_out"), Some(&Json::Bool(true)), "{mode}");
    }
    // No noinc/resyn pair solved: the speedup is null, the aggregate median
    // absent-as-null too.
    assert!(rows[0].get("speedup_noinc").unwrap().is_null());
    let aggregate = report.get("aggregate").unwrap();
    assert_eq!(
        aggregate.get("solved_resyn").and_then(Json::as_num),
        Some(0.0)
    );
    assert!(aggregate.get("median_speedup_noinc").unwrap().is_null());
}
