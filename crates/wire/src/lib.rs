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
//!
//! [`proto`] holds the `resyn-wire/1` and `resyn-wire/2` message formats of
//! a synthesis service: newline-delimited JSON requests, responses and
//! streamed progress frames, built on [`json`]. No program in the workspace
//! sends or receives them; the module and its tests stay until ROADMAP.md's
//! removal of the streaming protocol.

pub mod json;
pub mod proto;

#[cfg(test)]
mod proptests;

pub use json::{json_num, json_str, parse_json, render_compact, Json};
