//! ReSyn-rs: resource-guided program synthesis (PLDI 2019) in Rust.
//!
//! This facade crate re-exports the whole pipeline:
//!
//! * [`budget`] — cooperative wall-clock budgets and cancellation tokens
//!   observed by every layer below,
//! * [`logic`] — the refinement logic (terms, sorts, models),
//! * [`solver`] — decision procedures for the refinement logic,
//! * [`lang`] — the Re² core calculus and its cost-semantics interpreter,
//! * [`ty`] — the Re² type system (refinements + AARA potential annotations),
//! * [`analysis`] — static analysis of problems: shape reachability of
//!   component libraries and the `resyn lint` diagnostics pass,
//! * [`rescon`] — resource-constraint solving by (incremental) CEGIS,
//! * [`synth`] — the resource-guided synthesizer and its baseline modes,
//! * [`parse`] — the Synquid-style surface syntax for terms, types, programs
//!   and synthesis problem files,
//! * [`eval`] — the benchmark suites and harness reproducing the paper's
//!   evaluation tables,
//! * [`gen`] — the seeded problem generator, shrinker and differential fuzz
//!   runner (`resyn gen` / `resyn fuzz`),
//! * [`wire`] — the dependency-free JSON reader and writer behind the
//!   `resyn-bench-eval` and `resyn-lint` reports.
//!
//! See `README.md` for a quickstart and `DESIGN.md`/`EXPERIMENTS.md` for the
//! architecture and the experiment index.

pub use resyn_analysis as analysis;
pub use resyn_budget as budget;
pub use resyn_eval as eval;
pub use resyn_gen as gen;
pub use resyn_lang as lang;
pub use resyn_logic as logic;
pub use resyn_parse as parse;
pub use resyn_rescon as rescon;
pub use resyn_solver as solver;
pub use resyn_synth as synth;
pub use resyn_ty as ty;
pub use resyn_wire as wire;
