//! Property-based tests for the wire JSON codec.
//!
//! The renderer escapes control characters as `\uXXXX` and writes everything
//! else as raw UTF-8, while external encoders may instead ship any character
//! as escapes — including astral-plane characters split into UTF-16
//! surrogate pairs. Both spellings must parse back to the same string.

use proptest::prelude::*;

use crate::json::{parse_json, render_compact, Json};
use crate::proto::{Frame, Progress, Response, Verdict};

/// Any Unicode scalar value, biased toward the interesting regions: control
/// characters, the BMP on both sides of the surrogate gap, and the astral
/// planes.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,             // control characters (always escaped on render)
        0x20u32..0x80,          // ASCII
        0x80u32..0xD800,        // BMP below the surrogate gap
        0xE000u32..0x1_0000,    // BMP above the surrogate gap
        0x1_0000u32..0x11_0000, // astral planes (surrogate pairs in UTF-16)
    ]
    .prop_map(|c| char::from_u32(c).expect("ranges exclude surrogates"))
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    /// Our own writer's output round-trips through the strict parser.
    #[test]
    fn render_parse_roundtrips_arbitrary_strings(s in arb_string()) {
        let rendered = render_compact(&Json::Str(s.clone()));
        let parsed = parse_json(&rendered).expect("rendered JSON parses");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// The spelling an external UTF-16-minded encoder would pick — every
    /// character written as `\uXXXX` escapes, astral characters as
    /// surrogate pairs — parses to the same string.
    #[test]
    fn fully_escaped_spelling_parses_to_same_string(s in arb_string()) {
        let mut escaped = String::from('"');
        for c in &mut s.chars() {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                escaped.push_str(&format!("\\u{unit:04x}"));
            }
        }
        escaped.push('"');
        let parsed = parse_json(&escaped).expect("escaped spelling parses");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }
}

/// An arbitrary verdict for the final frame of a stream.
fn arb_verdict() -> impl Strategy<Value = Verdict> {
    prop_oneof![
        Just(Verdict::Solved),
        Just(Verdict::NoSolution),
        Just(Verdict::TimedOut),
        Just(Verdict::Error),
    ]
}

/// A streaming exchange: any number of monotonically-sequenced progress
/// heartbeats, then exactly one final response, all for one request id.
fn arb_stream() -> impl Strategy<Value = Vec<Frame>> {
    (
        arb_string(),
        proptest::collection::vec(0u32..600_000, 0..12),
        arb_verdict(),
        prop_oneof![Just(None), arb_string().prop_map(Some)],
    )
        .prop_map(|(id, elapsed_ms, verdict, program)| {
            let mut frames: Vec<Frame> = elapsed_ms
                .into_iter()
                .enumerate()
                .map(|(i, ms)| {
                    Frame::Progress(Progress {
                        id: id.clone(),
                        seq: i as u64 + 1,
                        elapsed_secs: f64::from(ms) / 1000.0,
                    })
                })
                .collect();
            frames.push(Frame::Final(Response {
                id,
                verdict,
                program: program.filter(|_| verdict == Verdict::Solved),
                time_secs: Some(0.5),
                stats: vec![("candidates".to_string(), 7.0)],
                error: (verdict != Verdict::Solved).then(|| "nope".to_string()),
            }));
            frames
        })
}

proptest! {
    /// A whole streaming exchange — interleaved progress heartbeats plus
    /// the final response — survives render → parse frame by frame, with
    /// ordering, sequence numbers and the terminal position intact.
    #[test]
    fn interleaved_progress_and_final_frames_roundtrip(frames in arb_stream()) {
        let lines: Vec<String> = frames.iter().map(Frame::render).collect();
        let reparsed: Vec<Frame> = lines
            .iter()
            .map(|line| {
                prop_assert!(!line.contains('\n'), "frames are single lines");
                Frame::parse_line(line).expect("rendered frame parses")
            })
            .collect();
        prop_assert_eq!(&reparsed, &frames);
        // The final frame is terminal and unique; heartbeats are ordered.
        let mut seen_final = false;
        let mut last_seq = 0u64;
        for frame in &reparsed {
            prop_assert!(!seen_final, "nothing follows the final response");
            match frame {
                Frame::Progress(p) => {
                    prop_assert_eq!(p.seq, last_seq + 1, "seq increments by one");
                    last_seq = p.seq;
                }
                Frame::Final(_) => seen_final = true,
            }
        }
        prop_assert!(seen_final, "every stream ends in a final response");
    }
}
