//! The JSON reader and writer of ReSyn-rs.
//!
//! The workspace is offline, so there is no serde: [`json`] holds a
//! hand-rolled writer ([`json_str`], [`json_num`], [`render_compact`]) and a
//! strict reader ([`parse_json`] into a [`Json`] value). It has no
//! dependencies, so every layer that emits or reads a machine-readable
//! report can use it without pulling in the pipeline:
//!
//! * `resyn_analysis` renders the `resyn-lint/1` diagnostics report with it,
//!   which is why it sits below `resyn_eval` rather than inside it;
//! * `resyn_eval::report` writes and reads the `resyn-bench-eval/5` report
//!   and re-exports the reader for its callers.

pub mod json;

#[cfg(test)]
mod proptests;

pub use json::{json_num, json_str, parse_json, render_compact, Json};
