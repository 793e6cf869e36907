//! Shared wire formats for ReSyn-rs.
//!
//! Two things live here, both dependency-free so every layer of the
//! workspace (the evaluation harness, the synthesis server, external
//! tooling) can speak them without pulling in the pipeline:
//!
//! * [`json`] — the hand-rolled JSON writer helpers and the minimal JSON
//!   reader (the workspace is offline — no serde). This is the code that
//!   used to live inside `resyn_eval::report`; the `resyn-bench-eval/1`
//!   report schema and the `resyn-wire/1` protocol below are both built on
//!   it.
//! * [`proto`] — the `resyn-wire/1` and `resyn-wire/2` request/response
//!   protocols of the `resyn serve` synthesis server: newline-delimited
//!   JSON messages that submit a surface-syntax synthesis problem (or query
//!   server statistics) and carry back the verdict, the synthesized
//!   program, timing and solver-cache counters — with `/2` adding streamed
//!   `progress` frames ahead of the final response.
//!
//! # The `resyn-wire/1` schema
//!
//! Every message is a single line of JSON terminated by `\n`. Requests:
//!
//! ```json
//! {"wire": "resyn-wire/1", "type": "synth", "id": "req-1",
//!  "problem": "goal id :: xs: List a -> {List a | len _v == len xs}",
//!  "mode": "resyn", "timeout_secs": 30, "goal": "id"}
//! {"wire": "resyn-wire/1", "type": "stats", "id": "req-2"}
//! ```
//!
//! `wire` and `type` are required; `id` is an arbitrary correlation string
//! echoed back in the response (the server assigns a deterministic
//! per-connection `srv-N` id when it is omitted); `mode` is one of `resyn`
//! (default), `synquid`, `eac`, `noinc`, `ct`; `timeout_secs` is clamped to
//! the server's `--timeout`; `goal` restricts synthesis to one goal of the
//! problem file.
//!
//! Responses:
//!
//! ```json
//! {"wire": "resyn-wire/1", "id": "req-1", "verdict": "solved",
//!  "program": "\\xs. xs", "time_secs": 0.42,
//!  "stats": {"candidates": 12, "cache_hits": 7, "cache_misses": 3},
//!  "error": null}
//! ```
//!
//! `verdict` is one of the [`proto::Verdict`] strings: `solved`,
//! `no_solution`, `timed_out` (synthesis outcomes), `parse_error` (the
//! problem text was rejected), `invalid_request` (malformed or oversized
//! request line), `overloaded` (the server's bounded queue was full —
//! back off and retry), `error` (a server-side failure, e.g. a panic
//! isolated by the scheduler) and `ok` (a `stats` response). `program` is
//! the synthesized program in surface syntax (or `null`); `stats` is a flat
//! object of numeric counters whose keys depend on the request type; new
//! keys may be appended, so consumers must index by name. Like
//! `resyn-bench-eval/1`, the schema is versioned by its name: breaking
//! changes bump the suffix.
//!
//! Earlier servers also took `cache_export` and `cache_import` requests,
//! which moved solver-cache snapshots between processes, and answered the
//! export with a `payload` response member. Both requests and the member
//! are gone; the names `resyn-wire/1` and `/2` are kept because every
//! `synth` and `stats` exchange is unchanged. A `cache_export` or
//! `cache_import` line now gets the `invalid_request` verdict for an
//! unknown request type, and the connection stays open.
//!
//! # The `resyn-wire/2` streaming extension
//!
//! `/2` is a strict superset of `/1`. A synthesis request opts into
//! streaming by carrying the `/2` schema and `"stream": true`:
//!
//! ```json
//! {"wire": "resyn-wire/2", "type": "synth", "id": "req-3",
//!  "problem": "goal id :: xs: List a -> {List a | len _v == len xs}",
//!  "stream": true}
//! ```
//!
//! The server then interleaves `progress` heartbeat frames — emitted from
//! the synthesis budget's checkpoints while the job runs — before the final
//! response:
//!
//! ```json
//! {"wire": "resyn-wire/2", "type": "progress", "id": "req-3", "seq": 1,
//!  "elapsed_secs": 0.104}
//! {"wire": "resyn-wire/2", "type": "progress", "id": "req-3", "seq": 2,
//!  "elapsed_secs": 0.221}
//! {"wire": "resyn-wire/1", "id": "req-3", "verdict": "solved", "...": "..."}
//! ```
//!
//! `seq` increases monotonically per request starting at 1; `elapsed_secs`
//! is wall-clock time since the request's budget started. The **final frame
//! is byte-identical to the `/1` response** — streaming changes what comes
//! *before* it, never the verdict line itself — so `/1`-era clients that
//! never set `"stream"` observe no difference at all. Readers of a
//! streaming exchange dispatch per line with [`proto::Frame::parse_line`]:
//! `"type": "progress"` marks a heartbeat, a missing `type` marks the final
//! response.

pub mod json;
pub mod proto;

#[cfg(test)]
mod proptests;

pub use json::{json_num, json_str, parse_json, render_compact, Json};
pub use proto::{
    Frame, Progress, Request, Response, SynthRequest, Verdict, WIRE_SCHEMA, WIRE_SCHEMA_2,
};
