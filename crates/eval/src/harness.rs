//! The evaluation harness: run benchmarks in the paper's modes and render
//! table rows.
//!
//! Every (benchmark, mode) run starts from a fresh solver cache. The modes of
//! one benchmark discharge largely overlapping obligations, so a shared
//! cache would let a later mode replay the verdicts an earlier one proved,
//! and the table would time the order of the cache instead of the
//! algorithms the paper compares.

use std::time::Duration;

use resyn_synth::{Mode, SynthOutcome, SynthStats, Synthesizer};

use crate::measure::{classify, BoundClass};
use crate::suite::Benchmark;

/// The result of running one synthesis mode of one benchmark.
#[derive(Debug, Clone, Default)]
pub struct ModeOutcome {
    /// Synthesis time in seconds; `None` means no program was found (a
    /// timeout if [`timed_out`](Self::timed_out), an exhausted search space
    /// otherwise).
    pub time: Option<f64>,
    /// Whether the search hit its wall-clock budget.
    pub timed_out: bool,
    /// Search and solver-cache statistics for this mode.
    pub stats: SynthStats,
}

impl ModeOutcome {
    /// Capture a synthesis outcome (the program itself is consumed by the
    /// caller for bound measurement and golden tests).
    pub fn of(outcome: &SynthOutcome) -> ModeOutcome {
        ModeOutcome {
            time: outcome
                .program
                .as_ref()
                .map(|_| outcome.stats.duration.as_secs_f64()),
            timed_out: outcome.stats.timed_out,
            stats: outcome.stats.clone(),
        }
    }

    /// Whether the mode produced a program.
    pub fn solved(&self) -> bool {
        self.time.is_some()
    }
}

/// One finished (benchmark, mode) run, reduced to what its row reports: the
/// outcome, plus the code size and measured bound of the program it found.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Time, timeout flag and search statistics.
    pub outcome: ModeOutcome,
    /// Code size (AST nodes) of the program, 0 if none was found.
    pub code: usize,
    /// Measured bound of the program ([`BoundClass::Unknown`] if none, or
    /// if the row reports no bound for this mode).
    pub bound: BoundClass,
}

impl ModeRun {
    /// Reduce the outcome of running `bench` in `mode`. The program's bound
    /// is measured only in the modes whose bound a row reports (`B`, `B-NR`).
    pub fn of(bench: &Benchmark, mode: Mode, outcome: &SynthOutcome) -> ModeRun {
        let reported = !matches!(mode, Mode::Eac | Mode::ReSynNoInc);
        ModeRun {
            outcome: ModeOutcome::of(outcome),
            code: outcome.code_size(),
            bound: match &outcome.program {
                Some(p) if reported => classify(&bench.goal, p),
                _ => BoundClass::Unknown,
            },
        }
    }
}

/// One row of an output table.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Benchmark identifier.
    pub id: String,
    /// Benchmark group.
    pub group: String,
    /// Synthesized code size (AST nodes) in ReSyn mode.
    pub code: usize,
    /// The ReSyn (resource-guided) run.
    pub resyn: ModeOutcome,
    /// The Synquid (resource-agnostic) run.
    pub synquid: ModeOutcome,
    /// The enumerate-and-check ablation run.
    pub eac: ModeOutcome,
    /// The non-incremental-CEGIS ablation run.
    pub noinc: ModeOutcome,
    /// Measured bound of the ReSyn-synthesized program.
    pub bound_resyn: BoundClass,
    /// Measured bound of the Synquid-synthesized program.
    pub bound_synquid: BoundClass,
    /// A harness-level failure (e.g. a panic in the synthesizer, caught by
    /// the parallel runner). A failed row reports no times and renders `ERR`.
    pub error: Option<String>,
}

impl BenchmarkRow {
    /// A row recording a harness-level failure for a benchmark (used by the
    /// parallel runner's panic isolation: the run dies, the harness doesn't).
    pub fn failed(id: &str, group: &str, error: String) -> BenchmarkRow {
        BenchmarkRow {
            id: id.to_string(),
            group: group.to_string(),
            code: 0,
            resyn: ModeOutcome::default(),
            synquid: ModeOutcome::default(),
            eac: ModeOutcome::default(),
            noinc: ModeOutcome::default(),
            bound_resyn: BoundClass::Unknown,
            bound_synquid: BoundClass::Unknown,
            error: Some(error),
        }
    }

    /// Assemble a row from its four mode runs, given in [`row_modes`] order.
    pub fn assemble(bench: &Benchmark, [resyn, synquid, eac, noinc]: [ModeRun; 4]) -> BenchmarkRow {
        BenchmarkRow {
            id: bench.id.clone(),
            group: bench.group.clone(),
            code: resyn.code,
            bound_resyn: resyn.bound,
            bound_synquid: synquid.bound,
            resyn: resyn.outcome,
            synquid: synquid.outcome,
            eac: eac.outcome,
            noinc: noinc.outcome,
            error: None,
        }
    }

    /// ReSyn synthesis time (seconds), `None` on failure/timeout.
    pub fn t_resyn(&self) -> Option<f64> {
        self.resyn.time
    }

    /// Synquid synthesis time.
    pub fn t_synquid(&self) -> Option<f64> {
        self.synquid.time
    }

    /// Statistics merged over every mode that ran for this row.
    pub fn merged_stats(&self) -> SynthStats {
        let mut stats = self.resyn.stats.clone();
        stats.merge(&self.synquid.stats);
        stats.merge(&self.eac.stats);
        stats.merge(&self.noinc.stats);
        stats
    }

    /// The incrementality speedup on this row: NoInc time divided by ReSyn
    /// time (how much slower synthesis is when CEGIS re-solves the resource
    /// constraints from scratch). `None` unless both runs solved.
    pub fn speedup_noinc(&self) -> Option<f64> {
        let resyn = self.t_resyn()?;
        let noinc = self.noinc.time?;
        if resyn > 0.0 {
            Some(noinc / resyn)
        } else {
            None
        }
    }

    /// Whether two rows report the same verdict: identical identity, code
    /// size, per-mode success/timeout pattern, measured bounds and failure
    /// state. Wall-clock fields (times, durations, counters) are ignored —
    /// this is the equality the parallel runner guarantees against the serial
    /// one.
    pub fn same_verdict(&self, other: &BenchmarkRow) -> bool {
        fn mode_verdict(a: &ModeOutcome, b: &ModeOutcome) -> bool {
            a.solved() == b.solved() && a.timed_out == b.timed_out
        }
        self.id == other.id
            && self.group == other.group
            && self.code == other.code
            && mode_verdict(&self.resyn, &other.resyn)
            && mode_verdict(&self.synquid, &other.synquid)
            && mode_verdict(&self.eac, &other.eac)
            && mode_verdict(&self.noinc, &other.noinc)
            && self.bound_resyn == other.bound_resyn
            && self.bound_synquid == other.bound_synquid
            && self.error.is_some() == other.error.is_some()
    }

    fn fmt_time(&self, t: Option<f64>) -> String {
        match (t, &self.error) {
            (_, Some(_)) => "ERR".to_string(),
            (Some(s), None) => format!("{s:.2}"),
            (None, None) => "TO".to_string(),
        }
    }

    /// Render as a Table-1-style row (Code, Time, TimeNR).
    pub fn render_table1(&self) -> String {
        format!(
            "{:<16} {:<18} {:>5} {:>8} {:>8}",
            self.group,
            self.id,
            self.code,
            self.fmt_time(self.t_resyn()),
            self.fmt_time(self.t_synquid()),
        )
    }

    /// Render as a Table-2-style row (T, T-NR, T-EAC, T-NInc, B, B-NR).
    pub fn render_table2(&self) -> String {
        format!(
            "{:<18} {:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            self.group,
            self.id,
            self.fmt_time(self.t_resyn()),
            self.fmt_time(self.t_synquid()),
            self.fmt_time(self.eac.time),
            self.fmt_time(self.noinc.time),
            self.bound_resyn.to_string(),
            self.bound_synquid.to_string(),
        )
    }
}

/// The harness configuration.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Per-benchmark, per-mode timeout.
    pub timeout: Duration,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::with_timeout(Duration::from_secs(600))
    }
}

impl Harness {
    /// A harness with a per-run timeout.
    pub fn with_timeout(timeout: Duration) -> Harness {
        Harness { timeout }
    }

    /// Run one mode of one benchmark on a fresh synthesizer, and so on a
    /// fresh solver cache: its time and cache counters are its own.
    pub fn run_mode(&self, bench: &Benchmark, mode: Mode) -> SynthOutcome {
        Synthesizer::with_timeout(self.timeout).synthesize(&bench.goal, mode)
    }
}

/// The modes of a row, in column order: ReSyn (constant-resource on a
/// constant-time row), Synquid, enumerate-and-check and NoInc.
pub fn row_modes(bench: &Benchmark) -> [Mode; 4] {
    let resyn = if bench.constant_time {
        Mode::ConstantTime
    } else {
        Mode::ReSyn
    };
    [resyn, Mode::Synquid, Mode::Eac, Mode::ReSynNoInc]
}

/// Run one benchmark in the modes required for its table and produce a row.
pub fn run_benchmark(harness: &Harness, bench: &Benchmark) -> BenchmarkRow {
    let runs =
        row_modes(bench).map(|mode| ModeRun::of(bench, mode, &harness.run_mode(bench, mode)));
    BenchmarkRow::assemble(bench, runs)
}

/// The median ReSyn/Synquid time ratio over the rows where both modes
/// succeeded (the §5.1 headline statistic); `None` if no row qualifies.
pub fn median_ratio(rows: &[BenchmarkRow]) -> Option<f64> {
    let mut ratios: Vec<f64> = rows
        .iter()
        .filter_map(|r| match (r.t_resyn(), r.t_synquid()) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        })
        .filter(|s| s.is_finite())
        .collect();
    if ratios.is_empty() {
        return None;
    }
    ratios.sort_by(f64::total_cmp);
    Some(ratios[ratios.len() / 2])
}

/// Render a whole table with headers and a median-ratio summary (the §5.1
/// headline statistic).
pub fn render_table(rows: &[BenchmarkRow], table2: bool) -> String {
    let mut out = String::new();
    if table2 {
        out.push_str(&format!(
            "{:<18} {:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "Group", "Benchmark", "T", "T-NR", "T-EAC", "T-NInc", "B", "B-NR"
        ));
    } else {
        out.push_str(&format!(
            "{:<16} {:<18} {:>5} {:>8} {:>8}\n",
            "Group", "Benchmark", "Code", "Time", "TimeNR"
        ));
    }
    for r in rows {
        out.push_str(&if table2 {
            r.render_table2()
        } else {
            r.render_table1()
        });
        out.push('\n');
    }
    if let Some(median) = median_ratio(rows) {
        out.push_str(&format!(
            "\nmedian ReSyn/Synquid time ratio: {median:.2}x (paper reports ≈2.5x)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_bench(id: &str) -> Benchmark {
        crate::suite::table1()
            .into_iter()
            .find(|b| b.id == id)
            .unwrap_or_else(|| panic!("no benchmark `{id}`"))
    }

    #[test]
    fn every_mode_of_a_row_counts_the_misses_of_a_standalone_cold_run() {
        // Each mode must run cold: on a cache shared across the row, EAC and
        // NoInc would replay the verdicts ReSyn and Synquid proved, record
        // no misses, and time the order of the modes.
        let timeout = Duration::from_secs(60);
        let harness = Harness::with_timeout(timeout);
        for id in ["list-append", "list-length"] {
            let bench = fast_bench(id);
            let row = run_benchmark(&harness, &bench);
            for (mode, outcome) in [
                (Mode::ReSyn, &row.resyn),
                (Mode::Synquid, &row.synquid),
                (Mode::Eac, &row.eac),
                (Mode::ReSynNoInc, &row.noinc),
            ] {
                assert!(outcome.solved(), "{id} must synthesize in {mode:?}");
                let standalone = Synthesizer::with_timeout(timeout).synthesize(&bench.goal, mode);
                assert!(outcome.stats.solver_cache_misses > 0, "{id} in {mode:?}");
                assert_eq!(
                    outcome.stats.solver_cache_misses, standalone.stats.solver_cache_misses,
                    "{id} in {mode:?}: the row's run and a standalone cold run differ"
                );
            }
        }
    }

    #[test]
    fn failed_rows_render_err_and_compare_unequal_to_solved_ones() {
        let failed = BenchmarkRow::failed("x", "List", "worker panicked".to_string());
        assert!(failed.render_table1().contains("ERR"));
        assert!(failed.same_verdict(&failed.clone()));
        let mut ok = failed.clone();
        ok.error = None;
        assert!(!failed.same_verdict(&ok));
    }

    #[test]
    fn same_verdict_ignores_wall_clock_but_not_outcomes() {
        let harness = Harness::with_timeout(Duration::from_secs(60));
        let bench = fast_bench("list-is-empty");
        let row = run_benchmark(&harness, &bench);
        let mut jittered = row.clone();
        jittered.resyn.time = row.resyn.time.map(|t| t + 1.0);
        jittered.resyn.stats.duration += Duration::from_secs(1);
        assert!(row.same_verdict(&jittered));
        let mut worse = row.clone();
        worse.synquid.time = None;
        assert!(!row.same_verdict(&worse));
        let mut resized = row.clone();
        resized.code += 1;
        assert!(!row.same_verdict(&resized));
    }

    #[test]
    fn merged_stats_sum_across_modes() {
        let mut row = BenchmarkRow::failed("x", "g", "e".to_string());
        row.resyn.stats.candidates_checked = 3;
        row.synquid.stats.candidates_checked = 4;
        row.resyn.stats.solver_cache_hits = 10;
        row.synquid.stats.solver_cache_misses = 2;
        let merged = row.merged_stats();
        assert_eq!(merged.candidates_checked, 7);
        assert_eq!(merged.solver_cache_hits, 10);
        assert_eq!(merged.solver_cache_misses, 2);
    }
}
