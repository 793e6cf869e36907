//! Contracts of the parallel batch-evaluation subsystem, end to end:
//! determinism (parallel rows equal serial rows), wall-clock overlap, and
//! report integration. Panic isolation has unit coverage in
//! `resyn_eval::parallel`; here the whole pipeline runs real benchmarks.

use std::time::Duration;

use resyn::eval::parallel::{run_suite, run_suite_with, ParallelConfig};
use resyn::eval::{suite, Benchmark, BenchmarkRow};

/// A fast deterministic slice of Table 1.
fn fast_slice() -> Vec<Benchmark> {
    const IDS: &[&str] = &[
        "list-is-empty",
        "list-append",
        "list-snoc",
        "list-id",
        "list-singleton",
        "list-nonempty",
        "list-length",
        "list-head",
        "list-double",
        "sorted-singleton",
    ];
    suite::table1()
        .into_iter()
        .filter(|b| IDS.contains(&b.id.as_str()))
        .collect()
}

fn config(jobs: usize) -> ParallelConfig {
    ParallelConfig {
        jobs,
        timeout: Duration::from_secs(60),
        progress: false,
        goal_jobs: 1,
    }
}

#[test]
fn four_workers_produce_row_for_row_identical_results_to_one() {
    let benches = fast_slice();
    let serial = run_suite(&benches, &config(1));
    let parallel = run_suite(&benches, &config(4));
    assert_eq!(serial.rows.len(), parallel.rows.len());
    assert_eq!(serial.jobs, 1);
    assert_eq!(parallel.jobs, 4);
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert!(
            s.same_verdict(p),
            "row diverged between jobs=1 and jobs=4:\n  serial:   {s:?}\n  parallel: {p:?}"
        );
    }
    // `list-head` solves in every mode — including the resource-agnostic
    // baseline, whose termination check admits the vacuous recursive call in
    // the provably dead `Nil` branch (the inconsistent-context rule the
    // differential fuzzer forced into `check_termination`).
    let head_serial = serial.rows.iter().find(|r| r.id == "list-head").unwrap();
    assert!(head_serial.resyn.solved());
    assert!(head_serial.synquid.solved());
}

#[test]
fn the_pool_overlaps_waiting_work() {
    // Synthesis on a many-core machine overlaps CPU work; this test pins the
    // pool *mechanics* (true overlap, not serialization) in a way that holds
    // even on a single-CPU CI runner, by using wait-bound stand-in work.
    let benches: Vec<Benchmark> = suite::table1().into_iter().take(8).collect();
    let run_sleeping = |jobs: usize| {
        let start = std::time::Instant::now();
        let rows = run_suite_with(&benches, jobs, |_, bench| {
            std::thread::sleep(Duration::from_millis(50));
            BenchmarkRow::failed(&bench.id, &bench.group, String::new())
        });
        assert_eq!(rows.len(), 8);
        start.elapsed()
    };
    let serial = run_sleeping(1); // ≥ 400ms: 8 × 50ms back to back
    let parallel = run_sleeping(4); // ≈ 100ms: two waves of four
    assert!(
        parallel.as_secs_f64() * 1.5 < serial.as_secs_f64(),
        "4 workers must overlap waiting work by >1.5x (serial {serial:?}, parallel {parallel:?})"
    );
}

#[test]
fn run_suite_reports_per_mode_cache_activity_and_wall_clock() {
    let benches: Vec<Benchmark> = suite::table1()
        .into_iter()
        .filter(|b| b.id == "list-append" || b.id == "list-id")
        .collect();
    let run = run_suite(&benches, &config(2));
    assert_eq!(run.rows.len(), 2);
    assert!(run.wall_clock > Duration::ZERO);
    // Every mode starts cold, so every solved mode proved its own
    // obligations: none of them can be a pure replay of another's cache.
    for row in &run.rows {
        for (mode, outcome) in [
            ("resyn", &row.resyn),
            ("synquid", &row.synquid),
            ("eac", &row.eac),
            ("noinc", &row.noinc),
        ] {
            assert!(outcome.solved(), "{} {mode} must solve", row.id);
            assert!(
                outcome.stats.solver_cache_misses > 0,
                "{} {mode} recorded no solver misses: {:?}",
                row.id,
                outcome.stats
            );
        }
    }
    // And the rendered table carries both rows.
    let table = run.render(false);
    assert!(
        table.contains("list-append") && table.contains("list-id"),
        "{table}"
    );
}
