//! The `resyn-wire/1` and `resyn-wire/2` protocols: typed requests,
//! responses and streaming frames plus their (de)serialization to
//! single-line JSON messages.
//!
//! See the crate-level documentation for the schemas. This module is
//! deliberately free of synthesis-pipeline types — modes are strings here
//! and are validated by the server — so clients in other languages can be
//! checked against the same description.
//!
//! `/2` is a strict superset of `/1`: a synthesis request may opt into
//! **streaming** (`"stream": true`), in which case the server interleaves
//! [`Progress`] frames before the final [`Response`]. The final frame is
//! byte-identical to what a `/1` server would send, so a `/1`-era reader
//! that only ever looks at the last line of a non-streaming exchange keeps
//! working unchanged.

use crate::json::{parse_json, render_compact, Json};

/// The original protocol identifier carried in every message's `"wire"`
/// field. Non-streaming messages still carry this one.
pub const WIRE_SCHEMA: &str = "resyn-wire/1";

/// The streaming protocol identifier: carried by requests that opt into
/// streaming and by the `progress` frames the server interleaves for them.
pub const WIRE_SCHEMA_2: &str = "resyn-wire/2";

/// A synthesis request: a surface-syntax problem plus search options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthRequest {
    /// Correlation id echoed in the response; the server assigns a
    /// deterministic per-connection one when omitted.
    pub id: Option<String>,
    /// The problem file text (Synquid-style surface syntax).
    pub problem: String,
    /// Synthesis mode (`resyn`, `synquid`, `eac`, `noinc`, `ct`);
    /// `resyn` when omitted.
    pub mode: Option<String>,
    /// Per-request wall-clock budget in seconds, clamped to the server's
    /// `--timeout`.
    pub timeout_secs: Option<f64>,
    /// Restrict synthesis to the goal with this name.
    pub goal: Option<String>,
    /// Opt into `resyn-wire/2` streaming: the server interleaves
    /// `progress` frames before the (unchanged) final response. Rendered
    /// requests carry `"wire": "resyn-wire/2"` when set.
    pub stream: bool,
}

/// A parsed `resyn-wire/1` request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a synthesis problem.
    Synth(SynthRequest),
    /// Query cumulative server statistics.
    Stats {
        /// Correlation id echoed in the response.
        id: Option<String>,
    },
}

impl Request {
    /// The correlation id the client supplied, if any.
    pub fn id(&self) -> Option<&str> {
        match self {
            Request::Synth(req) => req.id.as_deref(),
            Request::Stats { id } => id.as_deref(),
        }
    }

    /// Serialize to a single-line JSON message (no trailing newline).
    pub fn render(&self) -> String {
        // Only streaming requests need `/2`; everything else stays `/1` so
        // the rendered form keeps working against pre-streaming servers.
        let schema = match self {
            Request::Synth(req) if req.stream => WIRE_SCHEMA_2,
            _ => WIRE_SCHEMA,
        };
        let mut members = vec![("wire".to_string(), Json::Str(schema.to_string()))];
        match self {
            Request::Synth(req) => {
                members.push(("type".to_string(), Json::Str("synth".to_string())));
                if let Some(id) = &req.id {
                    members.push(("id".to_string(), Json::Str(id.clone())));
                }
                members.push(("problem".to_string(), Json::Str(req.problem.clone())));
                if let Some(mode) = &req.mode {
                    members.push(("mode".to_string(), Json::Str(mode.clone())));
                }
                if let Some(t) = req.timeout_secs {
                    members.push(("timeout_secs".to_string(), Json::Num(t)));
                }
                if let Some(goal) = &req.goal {
                    members.push(("goal".to_string(), Json::Str(goal.clone())));
                }
                if req.stream {
                    members.push(("stream".to_string(), Json::Bool(true)));
                }
            }
            Request::Stats { id } => {
                members.push(("type".to_string(), Json::Str("stats".to_string())));
                if let Some(id) = id {
                    members.push(("id".to_string(), Json::Str(id.clone())));
                }
            }
        }
        render_compact(&Json::Obj(members))
    }

    /// Parse a request line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformation: invalid JSON (with a
    /// byte position), a missing or mismatched `"wire"` field, an unknown
    /// `"type"`, or a missing/ill-typed required field.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let value = parse_json(line)?;
        check_wire_field(&value)?;
        let id = optional_str(&value, "id")?;
        match value.get("type").and_then(Json::as_str) {
            Some("synth") => {
                let problem = value
                    .get("problem")
                    .and_then(Json::as_str)
                    .ok_or("`synth` request needs a string `problem` field")?
                    .to_string();
                Ok(Request::Synth(SynthRequest {
                    id,
                    problem,
                    mode: optional_str(&value, "mode")?,
                    timeout_secs: match value.get("timeout_secs") {
                        None | Some(Json::Null) => None,
                        Some(Json::Num(t)) => Some(*t),
                        Some(_) => return Err("`timeout_secs` must be a number".to_string()),
                    },
                    goal: optional_str(&value, "goal")?,
                    stream: match value.get("stream") {
                        None | Some(Json::Null) => false,
                        Some(Json::Bool(b)) => *b,
                        Some(_) => return Err("`stream` must be a boolean".to_string()),
                    },
                }))
            }
            Some("stats") => Ok(Request::Stats { id }),
            Some(other) => Err(format!(
                "unknown request type `{other}` (expected `synth` or `stats`)"
            )),
            None => Err("request needs a string `type` field".to_string()),
        }
    }
}

/// Response verdicts; see the crate-level schema description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every selected goal was synthesized.
    Solved,
    /// The search space was exhausted without finding a program.
    NoSolution,
    /// The wall-clock budget expired before a program was found.
    TimedOut,
    /// The problem text was rejected by the parser or had no matching goal.
    ParseError,
    /// The request line itself was malformed or oversized.
    InvalidRequest,
    /// The server's bounded queue was full; back off and retry.
    Overloaded,
    /// A server-side failure (e.g. a panic isolated by the scheduler).
    Error,
    /// A successful non-synthesis response (`stats`).
    Ok,
}

impl Verdict {
    /// The wire string for this verdict.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Solved => "solved",
            Verdict::NoSolution => "no_solution",
            Verdict::TimedOut => "timed_out",
            Verdict::ParseError => "parse_error",
            Verdict::InvalidRequest => "invalid_request",
            Verdict::Overloaded => "overloaded",
            Verdict::Error => "error",
            Verdict::Ok => "ok",
        }
    }
}

impl std::str::FromStr for Verdict {
    type Err = String;

    fn from_str(s: &str) -> Result<Verdict, String> {
        Ok(match s {
            "solved" => Verdict::Solved,
            "no_solution" => Verdict::NoSolution,
            "timed_out" => Verdict::TimedOut,
            "parse_error" => Verdict::ParseError,
            "invalid_request" => Verdict::InvalidRequest,
            "overloaded" => Verdict::Overloaded,
            "error" => Verdict::Error,
            "ok" => Verdict::Ok,
            other => return Err(format!("unknown verdict `{other}`")),
        })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `resyn-wire/1` response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The correlation id (echoed from the request, or server-assigned).
    pub id: String,
    /// The outcome.
    pub verdict: Verdict,
    /// The synthesized program(s) in surface syntax, if any.
    pub program: Option<String>,
    /// Synthesis wall-clock time in seconds, if a search ran.
    pub time_secs: Option<f64>,
    /// Flat numeric counters; keys depend on the request type (per-request
    /// `SynthStats` for `synth`, cumulative server counters for `stats`).
    /// Consumers must index by name — new keys may be appended.
    pub stats: Vec<(String, f64)>,
    /// The error message for non-success verdicts.
    pub error: Option<String>,
}

impl Response {
    /// A response carrying only an id, a verdict and an error message.
    pub fn failure(id: impl Into<String>, verdict: Verdict, error: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            verdict,
            program: None,
            time_secs: None,
            stats: Vec::new(),
            error: Some(error.into()),
        }
    }

    /// Look up a counter in [`stats`](Self::stats) by name.
    pub fn stat(&self, key: &str) -> Option<f64> {
        self.stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Serialize to a single-line JSON message (no trailing newline).
    pub fn render(&self) -> String {
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        render_compact(&Json::Obj(vec![
            ("wire".to_string(), Json::Str(WIRE_SCHEMA.to_string())),
            ("id".to_string(), Json::Str(self.id.clone())),
            (
                "verdict".to_string(),
                Json::Str(self.verdict.as_str().to_string()),
            ),
            ("program".to_string(), opt_str(&self.program)),
            (
                "time_secs".to_string(),
                self.time_secs.map_or(Json::Null, Json::Num),
            ),
            (
                "stats".to_string(),
                Json::Obj(
                    self.stats
                        .iter()
                        .map(|(key, val)| (key.clone(), Json::Num(*val)))
                        .collect(),
                ),
            ),
            ("error".to_string(), opt_str(&self.error)),
        ]))
    }

    /// Parse a response line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformation (invalid JSON, wrong
    /// `"wire"` field, unknown verdict, ill-typed fields).
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let value = parse_json(line)?;
        check_wire_field(&value)?;
        Response::from_json(&value)
    }

    fn from_json(value: &Json) -> Result<Response, String> {
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("response needs a string `id` field")?
            .to_string();
        let verdict_str = value
            .get("verdict")
            .and_then(Json::as_str)
            .ok_or("response needs a string `verdict` field")?;
        let verdict: Verdict = verdict_str.parse()?;
        let stats = match value.get("stats") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Obj(members)) => {
                let mut stats = Vec::with_capacity(members.len());
                for (key, val) in members {
                    let num = val
                        .as_num()
                        .ok_or_else(|| format!("stat `{key}` must be a number"))?;
                    stats.push((key.clone(), num));
                }
                stats
            }
            Some(_) => return Err("`stats` must be an object".to_string()),
        };
        Ok(Response {
            id,
            verdict,
            program: optional_str(value, "program")?,
            time_secs: match value.get("time_secs") {
                None | Some(Json::Null) => None,
                Some(Json::Num(t)) => Some(*t),
                Some(_) => return Err("`time_secs` must be a number".to_string()),
            },
            stats,
            error: optional_str(value, "error")?,
        })
    }
}

/// A `resyn-wire/2` streaming progress frame: a heartbeat the server emits
/// at synthesis budget checkpoints while a streaming request is still
/// running, before the final [`Response`].
///
/// Progress frames are distinguishable from final responses by their
/// `"type": "progress"` member (responses have no `type` member at all), so
/// a streaming reader dispatches on [`Frame::parse_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct Progress {
    /// The correlation id of the request this heartbeat belongs to.
    pub id: String,
    /// Monotonic per-request sequence number, starting at 1.
    pub seq: u64,
    /// Wall-clock seconds since the request's synthesis budget started.
    pub elapsed_secs: f64,
}

impl Progress {
    /// Serialize to a single-line JSON message (no trailing newline).
    pub fn render(&self) -> String {
        render_compact(&Json::Obj(vec![
            ("wire".to_string(), Json::Str(WIRE_SCHEMA_2.to_string())),
            ("type".to_string(), Json::Str("progress".to_string())),
            ("id".to_string(), Json::Str(self.id.clone())),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("elapsed_secs".to_string(), Json::Num(self.elapsed_secs)),
        ]))
    }

    /// Parse a progress frame line.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformation.
    pub fn parse_line(line: &str) -> Result<Progress, String> {
        let value = parse_json(line)?;
        check_wire_field(&value)?;
        Progress::from_json(&value)
    }

    fn from_json(value: &Json) -> Result<Progress, String> {
        if value.get("type").and_then(Json::as_str) != Some("progress") {
            return Err("progress frame needs `\"type\": \"progress\"`".to_string());
        }
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .ok_or("progress frame needs a string `id` field")?
            .to_string();
        let seq = value
            .get("seq")
            .and_then(Json::as_num)
            .ok_or("progress frame needs a numeric `seq` field")?;
        if !(seq.is_finite() && seq >= 0.0) {
            return Err(format!("`seq` must be a non-negative number, got {seq}"));
        }
        let elapsed_secs = value
            .get("elapsed_secs")
            .and_then(Json::as_num)
            .ok_or("progress frame needs a numeric `elapsed_secs` field")?;
        Ok(Progress {
            id,
            seq: seq as u64,
            elapsed_secs,
        })
    }
}

/// One line of a streaming exchange: zero or more [`Progress`] heartbeats
/// followed by exactly one final [`Response`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An intermediate heartbeat; the request is still running.
    Progress(Progress),
    /// The final response; nothing follows for this request.
    Final(Response),
}

impl Frame {
    /// Serialize to a single-line JSON message (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Frame::Progress(p) => p.render(),
            Frame::Final(r) => r.render(),
        }
    }

    /// Parse one frame line, dispatching on the `"type"` member: progress
    /// frames carry `"type": "progress"`, final responses carry no `type`.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformation.
    pub fn parse_line(line: &str) -> Result<Frame, String> {
        let value = parse_json(line)?;
        check_wire_field(&value)?;
        if value.get("type").and_then(Json::as_str) == Some("progress") {
            Ok(Frame::Progress(Progress::from_json(&value)?))
        } else {
            Ok(Frame::Final(Response::from_json(&value)?))
        }
    }
}

fn check_wire_field(value: &Json) -> Result<(), String> {
    match value.get("wire").and_then(Json::as_str) {
        Some(WIRE_SCHEMA | WIRE_SCHEMA_2) => Ok(()),
        Some(other) => Err(format!(
            "unsupported wire schema `{other}` (this server speaks `{WIRE_SCHEMA}` \
             and `{WIRE_SCHEMA_2}`)"
        )),
        None => Err(format!(
            "message needs a `\"wire\": \"{WIRE_SCHEMA}\"` field"
        )),
    }
}

fn optional_str(value: &Json, key: &str) -> Result<Option<String>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_requests_round_trip() {
        let req = Request::Synth(SynthRequest {
            id: Some("req-1".to_string()),
            problem: "goal id :: xs: List a -> {List a | len _v == len xs}".to_string(),
            mode: Some("synquid".to_string()),
            timeout_secs: Some(12.5),
            goal: Some("id".to_string()),
            stream: false,
        });
        let line = req.render();
        assert!(!line.contains('\n'));
        assert!(line.contains("resyn-wire/1"), "{line}");
        assert_eq!(Request::parse_line(&line).unwrap(), req);

        let minimal = Request::Synth(SynthRequest {
            problem: "goal g :: Int -> Int".to_string(),
            ..SynthRequest::default()
        });
        assert_eq!(Request::parse_line(&minimal.render()).unwrap(), minimal);
    }

    #[test]
    fn stats_requests_round_trip() {
        let req = Request::Stats {
            id: Some("s".to_string()),
        };
        assert_eq!(Request::parse_line(&req.render()).unwrap(), req);
        assert_eq!(req.id(), Some("s"));
    }

    #[test]
    fn requests_without_the_wire_field_are_rejected() {
        let err = Request::parse_line("{\"type\": \"stats\"}").unwrap_err();
        assert!(err.contains("resyn-wire/1"), "{err}");
        // `/2` is a supported schema since streaming landed …
        let ok = Request::parse_line("{\"wire\": \"resyn-wire/2\", \"type\": \"stats\"}").unwrap();
        assert_eq!(ok, Request::Stats { id: None });
        // … but unknown versions still bounce.
        let err =
            Request::parse_line("{\"wire\": \"resyn-wire/9\", \"type\": \"stats\"}").unwrap_err();
        assert!(err.contains("unsupported wire schema"), "{err}");
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("{", "expected"),
            ("{\"wire\": \"resyn-wire/1\"}", "`type`"),
            (
                "{\"wire\": \"resyn-wire/1\", \"type\": \"dance\"}",
                "unknown request type",
            ),
            (
                "{\"wire\": \"resyn-wire/1\", \"type\": \"synth\"}",
                "`problem`",
            ),
            (
                "{\"wire\": \"resyn-wire/1\", \"type\": \"synth\", \"problem\": \"p\", \
                 \"timeout_secs\": \"soon\"}",
                "`timeout_secs`",
            ),
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` → `{err}`");
        }
    }

    #[test]
    fn responses_round_trip_including_null_fields() {
        let full = Response {
            id: "req-1".to_string(),
            verdict: Verdict::Solved,
            program: Some("\\xs. xs".to_string()),
            time_secs: Some(0.42),
            stats: vec![
                ("candidates".to_string(), 12.0),
                ("cache_hits".to_string(), 7.0),
            ],
            error: None,
        };
        let line = full.render();
        assert!(!line.contains('\n'));
        assert_eq!(Response::parse_line(&line).unwrap(), full);
        assert_eq!(full.stat("cache_hits"), Some(7.0));
        assert_eq!(full.stat("nope"), None);

        let failure = Response::failure("x", Verdict::Overloaded, "queue full (depth 32)");
        let parsed = Response::parse_line(&failure.render()).unwrap();
        assert_eq!(parsed.verdict, Verdict::Overloaded);
        assert!(parsed.program.is_none() && parsed.time_secs.is_none());
        assert_eq!(parsed.error.as_deref(), Some("queue full (depth 32)"));
    }

    #[test]
    fn streaming_requests_carry_wire_2_and_round_trip() {
        let req = Request::Synth(SynthRequest {
            problem: "goal g :: Int -> Int".to_string(),
            stream: true,
            ..SynthRequest::default()
        });
        let line = req.render();
        assert!(line.contains("resyn-wire/2"), "{line}");
        assert!(line.contains("\"stream\": true"), "{line}");
        assert_eq!(Request::parse_line(&line).unwrap(), req);

        let err = Request::parse_line(
            "{\"wire\": \"resyn-wire/2\", \"type\": \"synth\", \"problem\": \"p\", \
             \"stream\": \"yes\"}",
        )
        .unwrap_err();
        assert!(err.contains("`stream`"), "{err}");
    }

    #[test]
    fn progress_frames_round_trip_and_frames_dispatch_on_type() {
        let progress = Progress {
            id: "req-9".to_string(),
            seq: 3,
            elapsed_secs: 0.25,
        };
        let line = progress.render();
        assert!(line.contains("resyn-wire/2"), "{line}");
        assert_eq!(Progress::parse_line(&line).unwrap(), progress);
        assert_eq!(
            Frame::parse_line(&line).unwrap(),
            Frame::Progress(progress.clone())
        );

        // A final response — still spelled `resyn-wire/1` — parses as the
        // terminal frame of the same stream.
        let response = Response::failure("req-9", Verdict::TimedOut, "budget exhausted");
        let frame = Frame::parse_line(&response.render()).unwrap();
        assert_eq!(frame, Frame::Final(response.clone()));
        assert_eq!(frame.render(), response.render());

        // Frame round-trips in the other direction too.
        let reframed = Frame::Progress(progress);
        assert_eq!(Frame::parse_line(&reframed.render()).unwrap(), reframed);
    }

    #[test]
    fn malformed_progress_frames_are_rejected_with_reasons() {
        for (line, needle) in [
            (
                "{\"wire\": \"resyn-wire/2\", \"type\": \"progress\", \"seq\": 1, \
                 \"elapsed_secs\": 0.1}",
                "`id`",
            ),
            (
                "{\"wire\": \"resyn-wire/2\", \"type\": \"progress\", \"id\": \"x\", \
                 \"elapsed_secs\": 0.1}",
                "`seq`",
            ),
            (
                "{\"wire\": \"resyn-wire/2\", \"type\": \"progress\", \"id\": \"x\", \
                 \"seq\": -2, \"elapsed_secs\": 0.1}",
                "non-negative",
            ),
            (
                "{\"wire\": \"resyn-wire/2\", \"type\": \"progress\", \"id\": \"x\", \
                 \"seq\": 1}",
                "`elapsed_secs`",
            ),
        ] {
            let err = Progress::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "`{line}` → `{err}`");
        }
    }

    #[test]
    fn every_verdict_string_round_trips() {
        for verdict in [
            Verdict::Solved,
            Verdict::NoSolution,
            Verdict::TimedOut,
            Verdict::ParseError,
            Verdict::InvalidRequest,
            Verdict::Overloaded,
            Verdict::Error,
            Verdict::Ok,
        ] {
            assert_eq!(verdict.as_str().parse::<Verdict>(), Ok(verdict));
        }
        assert!("maybe".parse::<Verdict>().is_err());
    }
}
