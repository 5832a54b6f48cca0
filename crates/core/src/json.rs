//! Hand-rolled RFC 8259 JSON reader/writer helpers.
//!
//! The repo's zero-external-dependency guarantee extends to its wire
//! and artifact formats: every JSON consumer shares this one small
//! recursive-descent parser instead of pulling in serde. It lives in
//! `armdse-core` because that is the lowest crate every JSON speaker
//! already depends on.
//!
//! The parser accepts the full RFC 8259 value grammar (objects, arrays,
//! strings with escapes, numbers, `true`/`false`/`null`) and rejects
//! trailing garbage. Numbers are parsed as `f64`; integer consumers read
//! them through [`Json::as_u64`], which refuses what an `f64` cannot
//! carry exactly. A duplicate object key is an error: whichever
//! occurrence won, the other would be a silently ignored field.

use std::collections::BTreeMap;

/// Parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string literal (escapes already decoded).
    Str(String),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object (the parser refuses duplicate keys).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The element slice, if this value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if this value is a
    /// whole non-negative number below 2^53. From 2^53 up an `f64` no
    /// longer identifies the integer literal it was parsed from
    /// (`9007199254740993` reads back as `…992`), so such values are
    /// refused rather than silently rounded.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT_BELOW: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_BELOW => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0;
    let v = json_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

/// Escape and quote `s` per RFC 8259, appending to `out`.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Format a finite `f64` as a JSON number that always carries a decimal
/// point (so the value reads back as a float and integers vs floats
/// stay visually distinct in artifacts).
pub fn json_num(v: f64) -> String {
    debug_assert!(v.is_finite());
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key_at = *pos;
                let key = match json_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                expect(b, pos, b':')?;
                let val = json_value(b, pos)?;
                if map.contains_key(&key) {
                    return Err(format!("duplicate key \"{key}\" at byte {key_at}"));
                }
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(json_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => json_string_lit(b, pos).map(Json::Str),
        Some(b't') => json_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => json_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => json_literal(b, pos, "null", Json::Null),
        Some(_) => json_number(b, pos),
    }
}

fn json_literal(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn json_string_lit(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs never appear in armdse schemas
                        // (IDs are ASCII); map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control byte at {pos}")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // guaranteed well-formed).
                let s = &b[*pos..];
                let ch = std::str::from_utf8(s)
                    .map_err(|_| "invalid utf-8")?
                    .chars()
                    .next()
                    .unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn json_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid number")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5, true, null, "x\n\"yA"]}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].as_str(), Some("x\n\"yA"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("{\"k\": }").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn parser_refuses_duplicate_keys_with_their_offset() {
        assert_eq!(
            parse_json(r#"{"configs": 4, "configs": 4000}"#),
            Err("duplicate key \"configs\" at byte 15".into())
        );
        // Nested objects too; sibling objects may share a key.
        assert!(parse_json(r#"{"pins": {"a": 1, "a": 1}}"#).is_err());
        assert!(parse_json(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn integer_accessor_requires_whole_non_negative_numbers() {
        assert_eq!(parse_json("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse_json("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("\"7\"").unwrap().as_u64(), None);
        assert_eq!(
            parse_json("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(parse_json("9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn string_writer_round_trips_through_the_parser() {
        let original = "tab\t nl\n quote\" backslash\\ bell\u{7} text";
        let mut doc = String::new();
        write_json_string(original, &mut doc);
        assert_eq!(parse_json(&doc).unwrap().as_str(), Some(original));
    }

    #[test]
    fn json_numbers_always_carry_a_decimal_point() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(1234.5), "1234.5");
        assert_eq!(json_num(0.25), "0.25");
    }
}
