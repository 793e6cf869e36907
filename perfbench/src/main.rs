//! End-to-end synthesis benchmark for ReSyn-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|table2|gen|paper --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark drives the public synthesis API from outside, in one
//! process with one synthesis thread. Every timed (goal, mode) run gets a
//! fresh solver cache, so no time depends on run order, and is then
//! replayed on that synthesizer's warm cache.
//!
//! `--trace 0` measures the end-to-end metrics. It makes rounds over the
//! workload's units, alternating their order, at least [`MIN_ROUNDS`] and
//! more while the next one fits in `--seconds`; each unit's time is its
//! median over the rounds, and every time is scaled to a reference host
//! speed by reference chunks run around it (see `reference`). `--trace 1` makes one round that records spans
//! around the benchmark's calls into each layer and reports per-layer
//! metrics. Both check every output (see `verify`) and the determinism of
//! the program's own counts (see `determinism`). The last line of standard
//! output is one JSON object; files go to `perfbench/out/`.

mod determinism;
mod exec;
mod layers;
mod reference;
mod report;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use exec::{run_pass, Pass, UnitRun};
use report::{median, Metric};
use trace::Tracer;
use verify::Expected;
use workload::{Unit, Workload};

/// How often set-up is repeated at the start and after each round;
/// `setup_s` is the median of all repeats.
const SETUP_REPEATS: usize = 15;

/// The fewest rounds an untraced run makes, so that a unit's median is not
/// moved by a slowdown that hits one of its runs.
const MIN_ROUNDS: usize = 3;

/// The spans on the timed cold path, whose bookkeeping is the tracing
/// overhead.
const COLD_PATH: &[&str] = &["parse.problem", "analysis.lint", "synth.cold"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload table1|table2|gen|paper [--seed N] [--seconds S] [--trace 0|1]\n\
         gen seeds: {} by default, {} held out for re-checking claims",
        workload::DEFAULT_SEED,
        workload::HELD_OUT_SEED
    )
}

/// Checked command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = workload::DEFAULT_SEED;
        let mut seconds = 1;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.parse()?),
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad --seconds `{value}` (1 to 3600)"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                    }
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("`--workload` is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The units in forward or reverse order.
fn ordered(units: &[Unit], reversed: bool) -> Vec<&Unit> {
    let mut order: Vec<&Unit> = units.iter().collect();
    if reversed {
        order.reverse();
    }
    order
}

/// The process's peak resident set since the last [`reset_peak_rss`], from
/// `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak resident set to the current one, so that each round's
/// peak is its own, whatever the rounds before it left in the allocator.
/// Where the kernel refuses, the peak stays the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn write(path: &Path, text: &str) {
    if let Err(e) = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn print_failures(runs: &[UnitRun]) {
    for unit in runs {
        if let Some(e) = &unit.failure {
            eprintln!("perfbench: FAILED {}: {e}", unit.id);
        }
        for g in unit.goals.iter().filter(|g| g.failure.is_some()) {
            eprintln!(
                "perfbench: FAILED {}: {}",
                g.key,
                g.failure.as_deref().unwrap_or("")
            );
        }
    }
}

/// Build the workload's units [`SETUP_REPEATS`] times, between reference
/// chunks, adding each build's scaled wall time to `samples`; returns the
/// last build.
fn time_setup(workload: Workload, seed: u64, samples: &mut Vec<f64>) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut bracket = reference::Bracket::open();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let built = workload::build(workload, seed);
        let secs = start.elapsed().as_secs_f64();
        samples.push(secs * reference::scale(bracket.close()));
        units = built;
    }
    units
}

/// (attempted, failed) runs over all passes.
fn totals(passes: &[Vec<UnitRun>]) -> (usize, usize) {
    passes
        .iter()
        .map(|p| report::failures(p))
        .fold((0, 0), |(a, f), (pa, pf)| (a + pa, f + pf))
}

/// The determinism guard over this run's passes and the stored state.
fn determinism_errors(
    out: &Path,
    workload: &str,
    seed: Option<u64>,
    binary: &std::io::Result<String>,
    passes: &[Vec<UnitRun>],
) -> Vec<String> {
    let prints: Vec<_> = passes
        .iter()
        .map(|p| determinism::fingerprints(p))
        .collect();
    let mut errors: Vec<String> = prints[1..]
        .iter()
        .flat_map(|p| determinism::differences(&prints[0], p))
        .map(|d| format!("between rounds of this run: {d}"))
        .collect();
    match binary {
        Ok(binary) => {
            let path = determinism::state_path(out, workload, seed, binary);
            let last = prints.last().expect("a run makes at least one pass");
            match determinism::check_against(&path, last) {
                Ok(diffs) => errors.extend(
                    diffs
                        .into_iter()
                        .map(|d| format!("against {}: {d}", path.display())),
                ),
                Err(e) => errors.push(format!("state {}: {e}", path.display())),
            }
        }
        Err(e) => errors.push(format!("cannot fingerprint the binary: {e}")),
    }
    errors
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = args.workload.name();

    // Set-up: build the inputs through the program's suite and generator.
    // It is timed again after every round, so that a slow moment at any
    // one point of the run does not move the median.
    let mut setup = Vec::new();
    let units = time_setup(args.workload, args.seed, &mut setup);
    let expected = Expected::for_workload(args.workload);

    let mut passes = Vec::new();
    let mut lines = Vec::new();
    let mut metrics: Vec<Metric>;
    let mut errors = Vec::new();
    if args.trace {
        // One traced round, in the opposite order to an untraced run's
        // first round.
        let tracer = Tracer::new(true);
        let traced_pass = Pass {
            layers: true,
            verify: Some(&expected),
            reference: false,
        };
        passes.push(run_pass(&ordered(&units, true), traced_pass, &tracer));
        let spans = tracer.spans();
        errors.extend(trace::nesting_errors(&spans));
        write(
            &out.join(format!("trace-{name}-seed{}.json", args.seed)),
            &trace::to_json(name, args.seed, &spans),
        );
        let overhead = trace::cost_seconds(&spans, COLD_PATH);
        metrics = report::per_layer(&passes[0], &spans, overhead);
        lines.push(report::render(
            &format!(
                "{name} per-layer (traced, seed {}, {} spans)",
                args.seed,
                spans.len()
            ),
            &metrics,
        ));
    } else {
        // Rounds in alternating order, forward first; outputs are checked
        // in the first.
        let started = Instant::now();
        let mut peaks = Vec::new();
        loop {
            reset_peak_rss();
            let pass = Pass {
                layers: false,
                verify: passes.is_empty().then_some(&expected),
                reference: true,
            };
            let order = ordered(&units, passes.len() % 2 == 1);
            let round = Instant::now();
            passes.push(run_pass(&order, pass, &Tracer::new(false)));
            peaks.push(peak_rss_mb());
            time_setup(args.workload, args.seed, &mut setup);
            let next_ends = started.elapsed() + round.elapsed();
            if passes.len() >= MIN_ROUNDS && next_ends.as_secs_f64() > args.seconds as f64 {
                break;
            }
        }
        let times = report::unit_times(&passes);
        let (attempted, failed) = totals(&passes);
        metrics = vec![Metric {
            name: "setup_s",
            value: median(&setup),
            unit: "s",
            samples: setup.len(),
        }];
        metrics.extend(report::end_to_end(&times, attempted, failed));
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: median(&peaks),
            unit: "MB",
            samples: peaks.len(),
        });
        let chunks: Vec<f64> = passes.iter().flatten().map(|u| u.ref_s).collect();
        metrics.push(Metric {
            name: "raw.reference_ms",
            value: median(&chunks) * 1e3,
            unit: "ms",
            samples: chunks.len(),
        });
        lines.push(report::render(
            &format!(
                "{name} end-to-end (seed {}, {} rounds of {} units, times scaled to a {} ms reference chunk)",
                args.seed,
                passes.len(),
                units.len(),
                reference::NOMINAL_S * 1e3
            ),
            &metrics,
        ));
        if args.workload.tabled() {
            let table = report::paper_table(&times);
            write(&out.join(format!("paper-{name}.md")), &table);
            lines.push(table);
        }
    }

    let binary = determinism::binary_id();
    let seed_key = args.workload.seeded().then_some(args.seed);
    errors.extend(determinism_errors(&out, name, seed_key, &binary, &passes));
    for pass in &passes {
        print_failures(pass);
    }
    for e in &errors {
        eprintln!("perfbench: DETERMINISM OR TRACE ERROR: {e}");
    }
    let (attempted, failed) = totals(&passes);
    let correct = failed == 0 && errors.is_empty();

    for line in lines {
        println!("{line}");
    }
    let shown: Vec<&Metric> = if args.trace {
        metrics.iter().collect()
    } else {
        metrics
            .iter()
            .filter(|m| report::GATED.contains(&m.name))
            .collect()
    };
    println!("{}", report::json(correct, attempted, failed, &shown));
    ExitCode::SUCCESS
}
