//! Metrics from a run's records, the human-readable report, the paper-style
//! table and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use resyn_synth::Mode;

use crate::exec::{GoalRun, UnitRun};
use crate::reference;
use crate::trace::{self, Span};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name (fixed across versions of the benchmark).
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it aggregates.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics the final JSON line carries, which
/// `BENCHMARK.json` bounds: those that exist, are never zero, and stay
/// inside the largest allowed bound on every workload. Sums over many
/// goals qualify. The median and tail sit at gaps between goals of very
/// different sizes, and the per-mode sums are dominated by one or two
/// goals, so one goal's noise moves them far more than the sums; they are
/// printed, not bounded.
pub const GATED: &[&str] = &["setup_s", "wall_s", "warm_s", "peak_rss_mb"];

/// The median of a non-empty sample (mean of the middle two for even n).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, and its
/// rank as a percentage (the maximum when there are fewer than 11).
pub fn tail(values: &[f64]) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v[n - 1], 100);
    }
    (v[n - 11], 100 * (n - 10) / n)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn goal_runs(runs: &[UnitRun]) -> impl Iterator<Item = &GoalRun> {
    runs.iter().flat_map(|u| &u.goals)
}

/// (attempted, failed): every goal run, plus units that failed before any
/// goal ran.
pub fn failures(runs: &[UnitRun]) -> (usize, usize) {
    let unit_failures = runs.iter().filter(|u| u.failure.is_some()).count();
    let attempted = goal_runs(runs).count() + unit_failures;
    let failed = goal_runs(runs).filter(|g| g.failure.is_some()).count() + unit_failures;
    (attempted, failed)
}

/// One unit's times over the rounds of a run: medians of each round's
/// time scaled by the reference chunks around the unit (see `reference`),
/// and of the raw times.
#[derive(Debug)]
pub struct UnitTimes<'a> {
    /// The unit's record from the first round, whose outputs were checked.
    pub first: &'a UnitRun,
    /// Median scaled cold time.
    pub cold_s: f64,
    /// Median scaled sum of the unit's warm replays.
    pub warm_s: Option<f64>,
    /// Median raw cold time.
    pub raw_cold_s: f64,
    /// Median raw sum of the unit's warm replays.
    pub raw_warm_s: Option<f64>,
}

/// Per-unit medians over rounds that ran the same units (in any order),
/// with reference chunks around every unit.
pub fn unit_times(rounds: &[Vec<UnitRun>]) -> Vec<UnitTimes<'_>> {
    let mut by_id: BTreeMap<&str, Vec<&UnitRun>> = BTreeMap::new();
    for unit in rounds.iter().flatten() {
        by_id.entry(&unit.id).or_default().push(unit);
    }
    let warm = |u: &UnitRun| -> Option<f64> {
        u.failure.as_ref().map_or_else(
            || {
                u.goals
                    .iter()
                    .map(|g| g.warm.as_ref().map(|w| w.secs))
                    .sum()
            },
            |_| None,
        )
    };
    let medians = |runs: &[&UnitRun], f: &dyn Fn(&UnitRun) -> Option<f64>| {
        let values: Vec<f64> = runs.iter().filter_map(|u| f(u)).collect();
        (!values.is_empty()).then(|| median(&values))
    };
    rounds[0]
        .iter()
        .map(|first| {
            let runs = &by_id[first.id.as_str()];
            let scaled = |t: f64, u: &UnitRun| t * reference::scale(u.ref_s);
            UnitTimes {
                first,
                cold_s: medians(runs, &|u| Some(scaled(u.cold_s, u))).unwrap_or(0.0),
                warm_s: medians(runs, &|u| warm(u).map(|w| scaled(w, u))),
                raw_cold_s: medians(runs, &|u| Some(u.cold_s)).unwrap_or(0.0),
                raw_warm_s: medians(runs, &warm),
            }
        })
        .collect()
}

/// The end-to-end metrics of an untraced run from its per-unit medians
/// (setup and memory are added by the caller). Per-mode sums appear only
/// for the modes the workload runs. `failed_frac` counts the runs of every
/// round.
pub fn end_to_end(times: &[UnitTimes<'_>], attempted: usize, failed: usize) -> Vec<Metric> {
    let cold: Vec<f64> = times.iter().map(|t| t.cold_s).collect();
    let warm: Vec<f64> = times.iter().filter_map(|t| t.warm_s).collect();
    let n = cold.len();
    let (tail_value, _) = tail(&cold);
    let mut out = vec![
        metric("wall_s", cold.iter().sum(), "s", n),
        metric("goal_s_p50", median(&cold), "s", n),
        metric("goal_s_tail", tail_value, "s", n),
        metric("warm_s", warm.iter().sum(), "s", warm.len()),
    ];
    for (name, modes) in [
        ("resyn_s", &[Mode::ReSyn, Mode::ConstantTime][..]),
        ("synquid_s", &[Mode::Synquid][..]),
        ("eac_s", &[Mode::Eac][..]),
        ("noinc_s", &[Mode::ReSynNoInc][..]),
    ] {
        let of_mode: Vec<f64> = times
            .iter()
            .filter(|t| modes.contains(&t.first.mode))
            .map(|t| t.cold_s)
            .collect();
        if !of_mode.is_empty() {
            out.push(metric(name, of_mode.iter().sum(), "s", of_mode.len()));
        }
    }
    out.push(metric(
        "failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted,
    ));
    out.push(metric(
        "raw.wall_s",
        times.iter().map(|t| t.raw_cold_s).sum(),
        "s",
        n,
    ));
    out.push(metric(
        "raw.warm_s",
        times.iter().filter_map(|t| t.raw_warm_s).sum(),
        "s",
        warm.len(),
    ));
    out
}

/// The per-layer metrics of a traced pass.
///
/// `overhead_s` is the bookkeeping time of the spans on the timed cold
/// path: what tracing added to the traced pass's cold wall time.
pub fn per_layer(runs: &[UnitRun], spans: &[Span], overhead_s: f64) -> Vec<Metric> {
    let own = trace::self_seconds(spans);
    let span_s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let records: Vec<&GoalRun> = goal_runs(runs).collect();
    let n = records.len();
    let sum = |f: &dyn Fn(&GoalRun) -> u64| records.iter().map(|g| f(g)).sum::<u64>() as f64;
    let layer = |f: &dyn Fn(&crate::layers::LayerCounts) -> usize| {
        records
            .iter()
            .filter_map(|g| g.layers.as_ref().map(f))
            .sum::<usize>() as f64
    };

    let cold: f64 = records.iter().map(|g| g.cold_s).sum();
    let warm: f64 = records
        .iter()
        .filter_map(|g| g.warm.as_ref().map(|w| w.secs))
        .sum();
    let misses = sum(&|g| g.cold.solver_cache_misses);
    let hits = sum(&|g| g.cold.solver_cache_hits);
    let candidates = sum(&|g| g.cold.candidates_checked as u64);
    let solved = records.iter().filter(|g| g.program.is_some()).count() as f64;
    let resident = records.iter().map(|g| g.resident_bytes).max().unwrap_or(0) as f64;
    let parsed_bytes =
        runs.iter().map(|u| u.parsed_bytes).sum::<usize>() as f64 + layer(&|l| l.parsed_bytes);

    vec![
        metric("solver.miss_s", cold - warm, "s", n),
        metric(
            "solver.ms_per_miss",
            ratio(1e3 * (cold - warm), misses),
            "ms",
            n,
        ),
        metric("cache.misses", misses, "count", n),
        metric("cache.hits", hits, "count", n),
        metric("cache.hit_ratio", ratio(hits, hits + misses), "ratio", n),
        metric(
            "cache.interned_terms",
            sum(&|g| g.cold.interned_terms as u64),
            "count",
            n,
        ),
        metric("cache.resident_bytes", resident, "bytes", n),
        metric(
            "check.us_per_candidate",
            ratio(1e6 * warm, candidates),
            "us",
            n,
        ),
        metric(
            "check.final_s",
            span_s("check.final"),
            "s",
            count("check.final"),
        ),
        metric("synth.candidates", candidates, "count", n),
        metric(
            "synth.skeletons",
            sum(&|g| g.cold.skeletons as u64),
            "count",
            n,
        ),
        metric("synth.accept_ratio", ratio(solved, candidates), "ratio", n),
        metric(
            "skeleton.generate_s",
            span_s("skeleton.generate"),
            "s",
            count("skeleton.generate"),
        ),
        metric("skeleton.count", layer(&|l| l.skeletons), "count", n),
        metric(
            "enumerate.guards_s",
            span_s("enumerate.guards"),
            "s",
            count("enumerate.guards"),
        ),
        metric(
            "enumerate.eterms_s",
            span_s("enumerate.eterms"),
            "s",
            count("enumerate.eterms"),
        ),
        metric("enumerate.eterms", layer(&|l| l.eterms), "count", n),
        metric(
            "rescon.cegis_s",
            span_s("rescon.cegis"),
            "s",
            count("rescon.cegis"),
        ),
        metric("rescon.queries", layer(&|l| l.rescon_queries), "count", n),
        metric(
            "rescon.counterexamples",
            layer(&|l| l.rescon_counterexamples),
            "count",
            n,
        ),
        metric(
            "analysis.analyze_s",
            span_s("analysis.analyze"),
            "s",
            count("analysis.analyze"),
        ),
        metric("analysis.pruned", layer(&|l| l.pruned), "count", n),
        metric(
            "analysis.lint_s",
            span_s("analysis.lint"),
            "s",
            count("analysis.lint"),
        ),
        metric(
            "parse.problem_s",
            span_s("parse.problem"),
            "s",
            count("parse.problem"),
        ),
        metric("parse.bytes", parsed_bytes, "bytes", count("parse.problem")),
        metric(
            "measure.classify_s",
            span_s("measure.classify"),
            "s",
            count("measure.classify"),
        ),
        metric("trace.overhead_s", overhead_s, "s", runs.len()),
    ]
}

/// The human-readable metric lines.
pub fn render(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("{title}\n");
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<24} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The final line: one JSON object with the named metrics.
pub fn json(correct: bool, attempted: usize, failed: usize, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The paper's per-row columns from cold runs, one table per paper table:
/// T, T-NR, T-EAC, T-NInc (per-unit scaled medians, as in `wall_s`) and the measured bounds B and B-NR, with the median
/// ReSyn/Synquid and NoInc/ReSyn ratios (upper median over rows where both
/// modes solved, as `resyn eval` computes them).
pub fn paper_table(times: &[UnitTimes<'_>]) -> String {
    type Cell<'a> = (&'a GoalRun, f64);
    type Rows<'a> = BTreeMap<&'a str, BTreeMap<&'static str, Cell<'a>>>;
    let mut tables: BTreeMap<&str, Rows<'_>> = BTreeMap::new();
    for t in times {
        for g in &t.first.goals {
            let mode = match g.mode {
                Mode::ConstantTime => "resyn",
                m => m.as_str(),
            };
            tables
                .entry(g.table)
                .or_default()
                .entry(&g.row)
                .or_default()
                .insert(mode, (g, t.cold_s));
        }
    }
    let time = |c: Option<&Cell<'_>>| match c {
        Some((g, s)) if g.program.is_some() => format!("{s:.3}"),
        Some(_) => "-".to_string(),
        None => String::new(),
    };
    let bound = |c: Option<&Cell<'_>>| {
        c.and_then(|(g, _)| g.class)
            .map_or_else(String::new, |c| c.to_string())
    };
    let solved = |c: Option<&Cell<'_>>| c.filter(|(g, _)| g.program.is_some()).map(|(_, s)| *s);
    let upper_median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2)
            .map_or_else(|| "n/a".to_string(), |m| format!("{m:.2}"))
    };
    let mut out = String::new();
    for (table, rows) in &tables {
        let _ = write!(
            out,
            "## {table}: cold-cache synthesis times (s)\n\n\
             | row | T | T-NR | T-EAC | T-NInc | B | B-NR |\n|---|---|---|---|---|---|---|\n"
        );
        let mut speedups = Vec::new();
        let mut noinc = Vec::new();
        for (row, modes) in rows {
            let (r, s) = (modes.get("resyn"), modes.get("synquid"));
            let (e, n) = (modes.get("eac"), modes.get("noinc"));
            let _ = writeln!(
                out,
                "| {row} | {} | {} | {} | {} | {} | {} |",
                time(r),
                time(s),
                time(e),
                time(n),
                bound(r),
                bound(s)
            );
            if let (Some(a), Some(b)) = (solved(r), solved(s)) {
                speedups.push(a / b);
            }
            if let (Some(a), Some(b)) = (solved(n), solved(r)) {
                noinc.push(a / b);
            }
        }
        if !speedups.is_empty() {
            let _ = writeln!(
                out,
                "\nmedian ReSyn/Synquid time ratio: {} over {} rows",
                upper_median(speedups.clone()),
                speedups.len()
            );
        }
        if !noinc.is_empty() {
            let _ = writeln!(
                out,
                "median NoInc/ReSyn time ratio: {} over {} rows",
                upper_median(noinc.clone()),
                noinc.len()
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&values), (30.0, 75));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (5.0, 100));
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// The metric names listed in one section of BENCHMARK.json.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section ends")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("quoted name")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        assert_eq!(listed("end_to_end"), GATED);
        let printed: Vec<String> = per_layer(&[], &[], 0.0)
            .into_iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(listed("per_layer"), printed);
    }

    #[test]
    fn the_json_line_has_the_contract_keys() {
        let m = metric("wall_s", 1.5, "s", 3);
        let line = json(true, 3, 0, &[&m]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
