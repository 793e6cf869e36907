//! Benchmark suites and the evaluation harness reproducing the ReSyn paper's
//! evaluation (Tables 1 and 2).
//!
//! The suites define synthesis [`Goal`](resyn_synth::Goal)s — resource-annotated signatures plus
//! component libraries — mirroring the paper's benchmarks. The harness runs
//! them through the synthesizer in the modes the paper compares (ReSyn,
//! Synquid, enumerate-and-check, non-incremental CEGIS, constant-resource) and
//! measures, with the cost-semantics interpreter, the tightest empirical bound
//! of the synthesized code (the `B`/`B-NR` columns of Table 2).
//!
//! Coverage relative to the paper is documented in `EXPERIMENTS.md`.
//!
//! Two subsystems turn the serial harness into an evaluation service: the
//! [`parallel`] worker pool shards a suite's (benchmark, mode) runs over
//! threads, each on a fresh solver cache (deterministic row order, per-row
//! panic isolation), and
//! [`report`] serializes runs to the stable machine-readable
//! `resyn-bench-eval/5` JSON schema (`BENCH_eval.json`).

pub mod components;
pub mod harness;
pub mod measure;
pub mod parallel;
pub mod report;
pub mod suite;

pub use harness::{run_benchmark, BenchmarkRow, Harness, ModeOutcome};
pub use parallel::{run_suite, ParallelConfig, SuiteRun};
pub use report::{parse_json, render_json, EvalReport, Json};
pub use suite::{table1, table2, Benchmark};
