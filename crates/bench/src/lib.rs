//! Criterion benchmarks for ReSyn-rs.
//!
//! This crate has no library code of its own; its `benches/` directory hosts
//! the ablations called out in `DESIGN.md` and microbenchmarks of the layers
//! below the synthesizer:
//!
//! * `cegis_ablation` — incremental vs from-scratch CEGIS on growing systems
//!   of resource constraints,
//! * `solver` — the bespoke SMT solver on representative refinement-logic
//!   queries,
//! * `interning` — `check_valid` throughput on the Table-1 constraint corpus
//!   with the hash-consed solver query cache on vs. off,
//! * `surface` — the surface-syntax parser and printer.
//!
//! Run everything with `cargo bench --workspace`; the paper's tables are
//! regenerated by `resyn eval --table 1|2` instead, as documented in
//! `EXPERIMENTS.md`.
