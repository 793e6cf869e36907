//! Parallel batch evaluation: a dependency-free worker pool over the
//! benchmark suites.
//!
//! The pool is `std::thread::scope` plus a shared atomic injector index.
//! Its unit of work is one (benchmark, mode) run: each worker repeatedly
//! claims the next unclaimed unit and runs it on a fresh synthesizer, and so
//! on a fresh solver cache, so no run's time or counters depend on what
//! another run proved first. A row's four modes can therefore run on four
//! workers at once, and a slow row no longer serializes its modes.
//!
//! Two guarantees the serial harness never had to state become contracts
//! here:
//!
//! * **Deterministic ordering** — results are written into a slot per
//!   (benchmark, mode), and each row is assembled from its four slots in
//!   input order, so the output rows are row-for-row identical (and
//!   identically ordered) to a `jobs = 1` run, search counters included; see
//!   `tests/eval_parallel.rs`. One caveat: timeouts are wall-clock, so a
//!   run *near* its budget can tip over it under worker contention for
//!   cores — verdicts are only guaranteed identical for runs that finish
//!   comfortably inside the timeout (or comfortably outside it).
//! * **Panic isolation** — a mode that panics inside the synthesizer turns
//!   its row into a [`BenchmarkRow::failed`] row carrying the panic message;
//!   the remaining rows and workers are unaffected.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use resyn_synth::{Mode, SynthOutcome};

use crate::harness::{render_table, row_modes, BenchmarkRow, Harness, ModeRun};
use crate::suite::Benchmark;

/// Configuration for a parallel suite run.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker threads (clamped to at least 1 and at most the number of
    /// (benchmark, mode) units).
    pub jobs: usize,
    /// Per-benchmark, per-mode timeout.
    pub timeout: Duration,
    /// Print a `running <id> (<mode>) ...` line per unit to stderr.
    pub progress: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            jobs: default_jobs(),
            timeout: Duration::from_secs(600),
            progress: false,
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

/// The units of work per benchmark: one per mode of [`row_modes`].
const MODES: usize = 4;

/// Run a suite through the worker pool. `jobs = 1` runs every unit in input
/// order on one thread (same code path, same rows).
pub fn run_suite(benches: &[Benchmark], config: &ParallelConfig) -> SuiteRun {
    let harness = Harness::with_timeout(config.timeout);
    let jobs = config.jobs.clamp(1, (benches.len() * MODES).max(1));
    let start = Instant::now();
    let rows = run_suite_with(benches, jobs, |bench, mode| {
        if config.progress {
            eprintln!("running {} ({}) ...", bench.id, mode.as_str());
        }
        harness.run_mode(bench, mode)
    });
    SuiteRun {
        rows,
        wall_clock: start.elapsed(),
        jobs,
    }
}

/// The worker pool itself, generic over the per-(benchmark, mode) runner so
/// tests can inject failures. Each worker claims unit indices from a shared
/// counter (unit `u` is mode `u % 4` of benchmark `u / 4`); every result
/// lands in its own slot, and rows are assembled from their slots in input
/// order, regardless of completion order. A panicking unit turns its row
/// into a [`BenchmarkRow::failed`] row, and that row only.
pub fn run_suite_with<F>(benches: &[Benchmark], jobs: usize, run: F) -> Vec<BenchmarkRow>
where
    F: Fn(&Benchmark, Mode) -> SynthOutcome + Sync,
{
    let units = benches.len() * MODES;
    let jobs = jobs.clamp(1, units.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<ModeRun, String>>>> =
        (0..units).map(|_| Mutex::new(None)).collect();
    let run = &run;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let unit = next.fetch_add(1, Ordering::Relaxed);
                if unit >= units {
                    break;
                }
                let bench = &benches[unit / MODES];
                let mode = row_modes(bench)[unit % MODES];
                let result = catch_unwind(AssertUnwindSafe(|| {
                    ModeRun::of(bench, mode, &run(bench, mode))
                }))
                .map_err(|payload| panic_message(payload.as_ref()));
                *slots[unit].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    let mut results = slots.into_iter().map(|slot| {
        slot.into_inner()
            .expect("result slot poisoned")
            .expect("every claimed unit is filled before its worker exits")
    });
    benches
        .iter()
        .map(|bench| {
            // Take the whole row before looking for a failure, so the next
            // row starts at its own first slot.
            let runs: Vec<_> = results.by_ref().take(MODES).collect();
            match runs.into_iter().collect::<Result<Vec<ModeRun>, String>>() {
                Ok(runs) => BenchmarkRow::assemble(
                    bench,
                    runs.try_into().expect("a row has one run per mode"),
                ),
                Err(message) => BenchmarkRow::failed(&bench.id, &bench.group, message),
            }
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
    use resyn_synth::SynthStats;

    /// The index of the unit that runs `bench` in `mode`.
    fn unit_of(benches: &[Benchmark], bench: &Benchmark, mode: Mode) -> usize {
        let row = benches.iter().position(|b| b.id == bench.id).unwrap();
        let column = row_modes(bench).iter().position(|&m| m == mode).unwrap();
        row * MODES + column
    }

    /// A stand-in for a run that found nothing, tagged with `candidates`.
    fn no_program(candidates: usize) -> SynthOutcome {
        SynthOutcome {
            program: None,
            stats: SynthStats {
                candidates_checked: candidates,
                ..SynthStats::default()
            },
        }
    }

    /// Whether every column of `row` holds the run tagged with its own unit.
    fn columns_match_units(i: usize, row: &BenchmarkRow) -> bool {
        let columns = [&row.resyn, &row.synquid, &row.eac, &row.noinc];
        (0..MODES).all(|j| columns[j].stats.candidates_checked == i * MODES + j)
    }

    #[test]
    fn harness_and_rows_are_shareable_across_threads() {
        fn assert_thread_safe<T: Send + Sync>() {}
        assert_thread_safe::<Harness>();
        assert_thread_safe::<BenchmarkRow>();
        assert_thread_safe::<Benchmark>();
        assert_thread_safe::<ModeRun>();
    }

    #[test]
    fn results_keep_input_order_whatever_the_completion_order() {
        let benches: Vec<Benchmark> = crate::suite::table1().into_iter().take(6).collect();
        let rows = run_suite_with(&benches, 3, |bench, mode| {
            let unit = unit_of(&benches, bench, mode);
            // Finish later-claimed units first to scramble completion times.
            std::thread::sleep(Duration::from_millis(24 - unit as u64));
            no_program(unit)
        });
        let got: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        let want: Vec<&str> = benches.iter().map(|b| b.id.as_str()).collect();
        assert_eq!(got, want);
        // Each mode's run lands in its own column of its own row.
        for (i, row) in rows.iter().enumerate() {
            assert!(columns_match_units(i, row), "{row:?}");
        }
    }

    #[test]
    fn jobs_are_clamped_to_the_suite_size() {
        let benches: Vec<Benchmark> = crate::suite::table1().into_iter().take(2).collect();
        let rows = run_suite_with(&benches, 64, |_, _| no_program(0));
        assert_eq!(rows.len(), 2);
        let run = run_suite(
            &benches[..1],
            &ParallelConfig {
                jobs: 64,
                timeout: Duration::ZERO,
                progress: false,
            },
        );
        assert_eq!(run.jobs, MODES);
    }

    #[test]
    fn a_panicking_benchmark_becomes_a_failed_row_not_a_dead_pool() {
        let benches: Vec<Benchmark> = crate::suite::table1().into_iter().take(4).collect();
        let poisoned = benches[1].id.clone();
        let rows = run_suite_with(&benches, 2, |bench, mode| {
            if bench.id == poisoned && mode == Mode::Eac {
                panic!("injected failure in {}", bench.id);
            }
            no_program(unit_of(&benches, bench, mode))
        });
        assert_eq!(rows.len(), 4);
        let failed = &rows[1];
        assert_eq!(failed.id, poisoned);
        let message = failed.error.as_deref().unwrap();
        assert!(
            message.contains("injected failure"),
            "panic message must be preserved, got `{message}`"
        );
        // Every other row came from the runner, not the panic handler, and
        // holds its own four runs.
        for (i, row) in rows.iter().enumerate() {
            if i != 1 {
                assert_eq!(row.id, benches[i].id);
                assert!(row.error.is_none(), "{row:?}");
                assert!(columns_match_units(i, row), "{row:?}");
            }
        }
    }
}
