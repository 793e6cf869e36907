//! A minimal JSON writer and reader shared by every machine-readable
//! report in the workspace (the workspace is offline — no serde).
//!
//! The writer side is two helpers, [`json_str`] and [`json_num`], plus
//! [`render_compact`] for serializing a whole [`Json`] value to one line;
//! the reader side is [`parse_json`]. Both ends are strict where it
//! matters for a machine-read report:
//!
//! * trailing garbage after the document is rejected with a byte-positioned
//!   error (a truncated or concatenated message must never be mistaken for
//!   a well-formed one),
//! * a `\u` escape must be followed by exactly four hex digits — escapes
//!   like `\u+0ab` (which `u32::from_str_radix` would happily accept) or
//!   `\uZZZZ` are rejected with a byte-positioned error instead of being
//!   silently accepted or replaced.

use std::fmt::Write as _;

/// Escape a string for JSON: quotes, backslashes and control characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format a float as a JSON number (JSON has no NaN/Infinity; those become
/// `null` at the call sites via `map_or`, and are clamped here defensively).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-round-trip Display for f64 is valid JSON.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members in source order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this is the literal `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Serialize a [`Json`] value on a single line (no newlines anywhere —
/// strings escape theirs — so the result is a valid newline-delimited wire
/// message). Round-trips through [`parse_json`].
pub fn render_compact(value: &Json) -> String {
    let mut out = String::new();
    write_compact(&mut out, value);
    out
}

fn write_compact(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&json_num(*n)),
        Json::Str(s) => out.push_str(&json_str(s)),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(key));
                out.push_str(": ");
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

/// Parse a JSON document.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// garbage.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("malformed number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // `*pos` points at the `u`; the escape began one
                        // byte earlier at the backslash.
                        let esc_start = *pos - 1;
                        let unit = parse_hex4(bytes, pos)?;
                        let c = match unit {
                            // High surrogate: standard JSON encoders write
                            // astral-plane characters as a `\uD8xx\uDCxx`
                            // pair of UTF-16 code units, so a high half is
                            // only meaningful with a low half right behind
                            // it.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos) != Some(&b'\\')
                                    || bytes.get(*pos + 1) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "lone high surrogate \\u{unit:04X} at byte {esc_start} \
                                         (expected a \\uDC00-\\uDFFF continuation)"
                                    ));
                                }
                                *pos += 1; // the backslash; parse_hex4 eats the `u`
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate \\u{unit:04X} at byte {esc_start} \
                                         followed by \\u{low:04X}, not a low surrogate"
                                    ));
                                }
                                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar).expect("surrogate pair combines to a scalar")
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{unit:04X} at byte {esc_start}"
                                ));
                            }
                            _ => char::from_u32(unit)
                                .expect("non-surrogate BMP code unit is a scalar"),
                        };
                        out.push(c);
                        continue;
                    }
                    _ => return Err(format!("unknown escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input came from a &str, so
                // slicing at char boundaries is safe to find).
                let rest = &bytes[*pos..];
                let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Consume the `uXXXX` tail of a `\u` escape (`*pos` points at the `u`),
/// returning the UTF-16 code unit and advancing past the four digits.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?;
    // Exactly four hex digits: `u32::from_str_radix` accepts a leading
    // sign, so `\u+0ab` used to be silently accepted. Validate the digit
    // class ourselves.
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!(
            "malformed \\u escape at byte {} (expected 4 hex digits)",
            *pos - 1
        ));
    }
    let code =
        u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16).expect("4 hex digits parse");
    *pos += 5;
    Ok(code)
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_garbage_and_truncation() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected_with_a_position() {
        // Two concatenated documents must not silently parse as the first.
        let err = parse_json("{\"a\": 1} {\"b\": 2}").unwrap_err();
        assert!(
            err.contains("trailing garbage at byte 9"),
            "expected a positioned trailing-garbage error, got `{err}`"
        );
        let err = parse_json("null null").unwrap_err();
        assert!(err.contains("trailing garbage at byte 5"), "{err}");
        // Whitespace after the document is not garbage.
        assert!(parse_json("{\"a\": 1}  \n").is_ok());
    }

    #[test]
    fn non_hex_unicode_escapes_are_rejected_with_a_position() {
        // `u32::from_str_radix` accepts a leading sign, so `\u+0ab` and
        // `\u-0ab` used to be silently accepted as escapes.
        for bad in ["\"\\u+0ab\"", "\"\\u-0ab\"", "\"\\uZZZZ\"", "\"\\u12g4\""] {
            let err = parse_json(bad).unwrap_err();
            assert!(
                err.contains("\\u escape at byte 1"),
                "`{bad}` must be rejected with a positioned error, got `{err}`"
            );
        }
        // Truncated escapes still report their own error.
        assert!(parse_json("\"\\u12\"").unwrap_err().contains("\\u escape"));
        // Well-formed escapes (including ones that need the full range)
        // still parse.
        assert_eq!(
            parse_json("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn surrogate_pairs_combine_into_astral_characters() {
        // `"😀"` as a standard JSON encoder writes it: a UTF-16 pair.
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        // Case-insensitive hex, and pairs mixed with ordinary text.
        assert_eq!(
            parse_json("\"x\\uD834\\uDD1Ey\"").unwrap().as_str(),
            Some("x𝄞y")
        );
    }

    #[test]
    fn lone_and_mismatched_surrogates_are_rejected_with_a_position() {
        // A high half with nothing behind it, with a non-escape behind it,
        // and with a BMP escape behind it.
        for bad in ["\"\\ud83d\"", "\"\\ud83d x\"", "\"\\ud83d\\u0041\""] {
            let err = parse_json(bad).unwrap_err();
            assert!(
                err.contains("surrogate") && err.contains("at byte 1"),
                "`{bad}` must be rejected with a positioned error, got `{err}`"
            );
        }
        // A low half on its own.
        let err = parse_json("\"a\\ude00\"").unwrap_err();
        assert!(
            err.contains("lone low surrogate") && err.contains("at byte 2"),
            "{err}"
        );
        // Two high halves in a row: the second is not a valid continuation.
        let err = parse_json("\"\\ud83d\\ud83d\"").unwrap_err();
        assert!(err.contains("not a low surrogate"), "{err}");
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v =
            parse_json(r#"{"s": "a\"b\\c\ndA", "n": -1.5e2, "b": [true, false, null]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(-150.0));
        assert_eq!(
            v.get("b").and_then(Json::as_arr),
            Some(&[Json::Bool(true), Json::Bool(false), Json::Null][..])
        );
    }

    #[test]
    fn render_compact_round_trips_and_stays_on_one_line() {
        let value = Json::Obj(vec![
            ("s".to_string(), Json::Str("multi\nline \"q\"".to_string())),
            ("n".to_string(), Json::Num(-1.5)),
            (
                "a".to_string(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("o".to_string(), Json::Obj(Vec::new())),
        ]);
        let line = render_compact(&value);
        assert!(!line.contains('\n'), "wire messages are single lines");
        assert_eq!(parse_json(&line).unwrap(), value);
    }

    #[test]
    fn json_num_clamps_non_finite_values() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(0.25), "0.25");
    }
}
