//! Parallel batch evaluation: a dependency-free worker pool over the
//! benchmark suites.
//!
//! The pool is `std::thread::scope` plus a shared atomic injector index —
//! each worker repeatedly claims the next unclaimed benchmark and runs all of
//! its modes through the [`Harness`], each mode on a fresh solver cache, so
//! no run's time or counters depend on what another run proved first.
//!
//! Two guarantees the serial harness never had to state become contracts
//! here:
//!
//! * **Deterministic ordering** — results are written into a slot per input
//!   index, so the output rows are row-for-row identical (and identically
//!   ordered) to a `jobs = 1` run; see `tests/eval_parallel.rs`. One caveat:
//!   timeouts are wall-clock, so a benchmark running *near* its budget can
//!   tip over it under worker contention for cores — verdicts are only
//!   guaranteed identical for rows that finish comfortably inside the
//!   timeout (or comfortably outside it).
//! * **Panic isolation** — a benchmark that panics inside the synthesizer
//!   becomes a [`BenchmarkRow::failed`] row carrying the panic message; the
//!   remaining benchmarks and workers are unaffected.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::harness::{render_table, run_benchmark, BenchmarkRow, Harness};
use crate::suite::Benchmark;

/// Configuration for a parallel suite run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker threads (clamped to at least 1 and at most the suite size).
    pub jobs: usize,
    /// Per-benchmark, per-mode timeout.
    pub timeout: Duration,
    /// Print a `running <id> ...` line per benchmark to stderr.
    pub progress: bool,
    /// Threads fanned across the skeletons of each goal *within* one
    /// benchmark mode (the synthesizer's first-win pool); results are
    /// identical to `1` by construction, only faster on hard goals.
    pub goal_jobs: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            jobs: default_jobs(),
            timeout: Duration::from_secs(600),
            progress: false,
            goal_jobs: 1,
        }
    }
}

/// The default worker count: the machine's available parallelism, capped at 8
/// (synthesis is memory-bandwidth-hungry; more workers than that buy no
/// wall-clock gain).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The result of a parallel suite run: ordered rows plus run-level
/// measurements the serial harness could not report.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// One row per input benchmark, in input order.
    pub rows: Vec<BenchmarkRow>,
    /// Wall-clock time for the whole suite.
    pub wall_clock: Duration,
    /// The worker count actually used.
    pub jobs: usize,
}

impl SuiteRun {
    /// Render the rows as the paper-style text table.
    pub fn render(&self, table2: bool) -> String {
        render_table(&self.rows, table2)
    }
}

/// Run a suite through the worker pool. `jobs = 1` degenerates to the serial
/// harness (same code path, same rows).
pub fn run_suite(benches: &[Benchmark], config: &ParallelConfig) -> SuiteRun {
    let harness = Harness {
        timeout: config.timeout,
        goal_jobs: config.goal_jobs,
    };
    let jobs = config.jobs.clamp(1, benches.len().max(1));
    let start = Instant::now();
    let rows = run_suite_with(benches, jobs, |_, bench| {
        if config.progress {
            eprintln!("running {} ...", bench.id);
        }
        run_benchmark(&harness, bench)
    });
    SuiteRun {
        rows,
        wall_clock: start.elapsed(),
        jobs,
    }
}

/// The worker pool itself, generic over the per-benchmark runner so tests can
/// inject failures. Each worker claims indices from a shared atomic counter;
/// results land in a fixed slot per index, so output order equals input order
/// regardless of completion order. A panicking runner produces a
/// [`BenchmarkRow::failed`] row for that benchmark only.
pub fn run_suite_with<F>(benches: &[Benchmark], jobs: usize, run: F) -> Vec<BenchmarkRow>
where
    F: Fn(usize, &Benchmark) -> BenchmarkRow + Sync,
{
    let jobs = jobs.clamp(1, benches.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<BenchmarkRow>>> =
        benches.iter().map(|_| Mutex::new(None)).collect();
    let run = &run;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(bench) = benches.get(idx) else {
                    break;
                };
                let row = match catch_unwind(AssertUnwindSafe(|| run(idx, bench))) {
                    Ok(row) => row,
                    Err(payload) => BenchmarkRow::failed(
                        &bench.id,
                        &bench.group,
                        panic_message(payload.as_ref()),
                    ),
                };
                *slots[idx].lock().expect("result slot poisoned") = Some(row);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index is filled before its worker exits")
        })
        .collect()
}

/// Extract a human-readable message from a panic payload (`panic!` with a
/// string literal or a formatted message; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_and_rows_are_shareable_across_threads() {
        fn assert_thread_safe<T: Send + Sync>() {}
        assert_thread_safe::<Harness>();
        assert_thread_safe::<BenchmarkRow>();
        assert_thread_safe::<Benchmark>();
    }

    #[test]
    fn results_keep_input_order_whatever_the_completion_order() {
        let benches: Vec<Benchmark> = crate::suite::table1().into_iter().take(6).collect();
        let rows = run_suite_with(&benches, 3, |idx, bench| {
            // Finish in reverse claim order to scramble completion times.
            std::thread::sleep(Duration::from_millis(20 - 3 * (idx as u64 % 6)));
            BenchmarkRow::failed(&bench.id, &bench.group, format!("slot {idx}"))
        });
        let got: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        let want: Vec<&str> = benches.iter().map(|b| b.id.as_str()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn jobs_are_clamped_to_the_suite_size() {
        let benches: Vec<Benchmark> = crate::suite::table1().into_iter().take(2).collect();
        let rows = run_suite_with(&benches, 64, |_, bench| {
            BenchmarkRow::failed(&bench.id, &bench.group, String::new())
        });
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn a_panicking_benchmark_becomes_a_failed_row_not_a_dead_pool() {
        let benches: Vec<Benchmark> = crate::suite::table1().into_iter().take(4).collect();
        let poisoned = benches[1].id.clone();
        let rows = run_suite_with(&benches, 2, |_, bench| {
            if bench.id == poisoned {
                panic!("injected failure in {}", bench.id);
            }
            BenchmarkRow::failed(&bench.id, &bench.group, "ok-marker".to_string())
        });
        assert_eq!(rows.len(), 4);
        let failed = &rows[1];
        assert_eq!(failed.id, poisoned);
        let message = failed.error.as_deref().unwrap();
        assert!(
            message.contains("injected failure"),
            "panic message must be preserved, got `{message}`"
        );
        // Every other row came from the runner, not the panic handler.
        for (i, row) in rows.iter().enumerate() {
            if i != 1 {
                assert_eq!(row.error.as_deref(), Some("ok-marker"));
            }
        }
    }
}
