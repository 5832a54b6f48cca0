//! The system's one JSON reader and one JSON writer, std only: every
//! JSON consumer parses with [`parse_json`], and every artifact and
//! wire body is built by the writer, so what one writes the other reads.
//!
//! **Writer.** [`object`] adds members through a closure over a
//! [`Writer`], in insertion order (a [`Json::Obj`] sorts its keys; no
//! artifact does); [`array()`] writes an iterator's items. Both nest as
//! [`ToJson`] values, and [`ToJson::render`] makes the document. Each
//! container has a [`Layout`]: `Block` (a member per line: artifacts),
//! `Spaced` (one line, `", "`/`": "`: wire bodies) or `Compact` (one
//! line, `","`/`":"`: report tables). Integers and finite `f64`s print
//! with `{}` (`1.0` is `1`), a [`Decimal`] as [`json_num`] does, a
//! non-finite number as `null`, and strings escaped per RFC 8259.
//!
//! **Parser.** One RFC 8259 value between optional whitespace, nothing
//! after it, its containers nested at most 64 deep. A number is
//! `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` exactly (`01`, `1.`,
//! `2.e3`, `+1` and `-` are refused) and finite as an `f64` (`1e999` is
//! refused, naming its byte offset), so every [`Json::Num`] is finite.
//! [`Json::as_u64`] refuses what an `f64` cannot carry exactly. A
//! duplicate object key is an error: whichever occurrence won, the other
//! would be a silently ignored field.

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
    let v = json_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

/// Escape and quote `s` per RFC 8259, appending to `out`.
fn write_json_string(s: &str, out: &mut String) {
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

/// How the writer lays out one object or array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces a level.
    Block,
    /// One line, `", "` between members and `": "` after keys.
    Spaced,
    /// One line, `","` between members and `":"` after keys.
    Compact,
}

/// A value the writer can place: a scalar, an [`object`] or an [`array()`].
pub trait ToJson {
    /// Append this value to `out`, nested `depth` containers deep.
    fn write_json(&self, out: &mut String, depth: usize);

    /// This value as a JSON document.
    fn render(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }
}

/// A number written in [`json_num`]'s form.
#[derive(Debug, Clone, Copy)]
pub struct Decimal(pub f64);

macro_rules! scalars {
    ($($t:ty: |$v:ident, $out:ident| $write:expr;)*) => {$(
        impl ToJson for $t {
            fn write_json(&self, $out: &mut String, _: usize) {
                let $v = self;
                $write
            }
        }
    )*};
}

scalars! {
    bool: |v, out| out.push_str(&v.to_string());
    u32: |v, out| out.push_str(&v.to_string());
    u64: |v, out| out.push_str(&v.to_string());
    usize: |v, out| out.push_str(&v.to_string());
    i64: |v, out| out.push_str(&v.to_string());
    f64: |v, out| out.push_str(&finite(*v).map_or("null".into(), |v| v.to_string()));
    Decimal: |v, out| out.push_str(&finite(v.0).map_or("null".into(), json_num));
    str: |v, out| write_json_string(v, out);
    String: |v, out| write_json_string(v, out);
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        match self {
            Some(v) => v.write_json(out, depth),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String, depth: usize) {
        (**self).write_json(out, depth);
    }
}

/// The members of one object or array, written in the order added.
pub struct Writer<'a> {
    out: &'a mut String,
    layout: Layout,
    depth: usize,
    empty: bool,
}

impl Writer<'_> {
    /// Add the object member `key: v`.
    pub fn field(&mut self, key: &str, v: impl ToJson) -> &mut Self {
        self.member(Some(key), v)
    }

    fn member(&mut self, key: Option<&str>, v: impl ToJson) -> &mut Self {
        let (comma, colon) = match self.layout {
            Layout::Block => (",", ": "),
            Layout::Spaced => (", ", ": "),
            Layout::Compact => (",", ":"),
        };
        if !std::mem::take(&mut self.empty) {
            self.out.push_str(comma);
        }
        if self.layout == Layout::Block {
            newline(self.out, self.depth + 1);
        }
        if let Some(key) = key {
            write_json_string(key, self.out);
            self.out.push_str(colon);
        }
        v.write_json(self.out, self.depth + 1);
        self
    }
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n("  ", depth));
}

/// An object or array whose members a closure adds.
struct Container<F>([char; 2], Layout, F);

impl<F: Fn(&mut Writer)> ToJson for Container<F> {
    fn write_json(&self, out: &mut String, depth: usize) {
        let Container([open, close], layout, members) = self;
        out.push(*open);
        members(&mut Writer {
            out,
            layout: *layout,
            depth,
            empty: true,
        });
        if *layout == Layout::Block {
            newline(out, depth);
        }
        out.push(*close);
    }
}

/// An object whose members `fields` adds with [`Writer::field`].
pub fn object(layout: Layout, fields: impl Fn(&mut Writer)) -> impl ToJson {
    Container(['{', '}'], layout, fields)
}

/// An array of `items`, in order.
pub fn array<I>(layout: Layout, items: I) -> impl ToJson
where
    I: IntoIterator + Clone,
    I::Item: ToJson,
{
    let items = move |w: &mut Writer| {
        for v in items.clone() {
            w.member(None, v);
        }
    };
    Container(['[', ']'], layout, items)
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

/// How deep containers may nest: parsing recurses once per level, and
/// a body of a million `[`s would otherwise overflow the stack.
const MAX_DEPTH: usize = 64;

fn json_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "containers nest deeper than {MAX_DEPTH} at byte {pos}"
        )),
        Some(&open @ (b'{' | b'[')) => json_container(b, pos, open, depth + 1),
        Some(b'"') => json_string_lit(b, pos).map(Json::Str),
        Some(b't') => json_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => json_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => json_literal(b, pos, "null", Json::Null),
        Some(_) => json_number(b, pos),
    }
}

/// An object (`open` is `{`) or an array (`[`), from its opening byte.
fn json_container(b: &[u8], pos: &mut usize, open: u8, depth: usize) -> Result<Json, String> {
    let close = if open == b'{' { b'}' } else { b']' };
    let (mut map, mut arr) = (BTreeMap::new(), Vec::new());
    *pos += 1;
    skip_ws(b, pos);
    let mut more = b.get(*pos) != Some(&close);
    if !more {
        *pos += 1;
    }
    while more {
        if open == b'[' {
            arr.push(json_value(b, pos, depth)?);
        } else {
            skip_ws(b, pos);
            let key_at = *pos;
            let Json::Str(key) = json_value(b, pos, depth)? else {
                return Err(format!("object key at byte {pos} is not a string"));
            };
            expect(b, pos, b':')?;
            let val = json_value(b, pos, depth)?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key \"{key}\" at byte {key_at}"));
            }
            map.insert(key, val);
        }
        skip_ws(b, pos);
        more = b.get(*pos) == Some(&b',');
        if !more && b.get(*pos) != Some(&close) {
            return Err(format!("expected ',' or '{}' at byte {pos}", close as char));
        }
        *pos += 1;
    }
    Ok(if open == b'{' {
        Json::Obj(map)
    } else {
        Json::Arr(arr)
    })
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
        // A run of plain characters ends at an ASCII byte, so it is
        // whole UTF-8 (the input is a `&str`).
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .ok_or("unterminated string")?;
        out.push_str(std::str::from_utf8(&b[*pos..*pos + run]).expect("whole UTF-8"));
        *pos += run;
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
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
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        // Surrogate pairs never appear in armdse schemas
                        // (IDs are ASCII); map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => return Err(format!("raw control byte at {pos}")),
        }
    }
}

/// One RFC 8259 number, finite as an `f64`.
fn json_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    *pos += usize::from(b.get(*pos) == Some(&b'-'));
    let (int_at, int_len) = (*pos, digits(pos));
    let mut ok = int_len == 1 || (int_len > 1 && b[int_at] != b'0');
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok &= digits(pos) > 0;
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1 + usize::from(matches!(b.get(*pos + 1), Some(b'+' | b'-')));
        ok &= digits(pos) > 0;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("the scan reads ASCII only");
    match text.parse::<f64>() {
        Ok(v) if ok && v.is_finite() => Ok(Json::Num(v)),
        Ok(_) if ok => Err(format!("number {text} at byte {start} is out of range")),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
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
        let v = parse_json(r#"["héllo ✓\u00e9\t€", ""]"#).unwrap();
        assert_eq!(v.as_array().unwrap()[0].as_str(), Some("héllo ✓é\t€"));
        assert_eq!(v.as_array().unwrap()[1].as_str(), Some(""));
        assert!(parse_json("\"tab\there\"").is_err(), "a raw control byte");
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
    fn parser_refuses_nesting_deeper_than_its_cap() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nest(MAX_DEPTH + 1)),
            Err(format!(
                "containers nest deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
            ))
        );
        assert!(parse_json(&"{\"a\": ".repeat(1_000_000)).is_err());
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
    fn parser_reads_rfc_numbers_only() {
        for ok in [
            "0", "-0", "7", "0.5", "-12.25", "1e3", "2E-3", "-1.5e+10", "1e-999",
        ] {
            assert!(parse_json(ok).unwrap().as_f64().is_some(), "{ok}");
        }
        for bad in [
            "01", "-01", "1.", "2.e3", "-", "+1", ".5", "1e", "1e+", "0x1",
        ] {
            assert!(parse_json(bad).is_err(), "{bad} parsed");
        }
        assert_eq!(
            parse_json("[1, 2.e3]"),
            Err("invalid number \"2.e3\" at byte 4".into())
        );
    }

    #[test]
    fn parser_refuses_numbers_that_overflow_with_their_offset() {
        assert_eq!(
            parse_json(r#"{"pins": {"Vector-Length": 1e999}}"#),
            Err("number 1e999 at byte 27 is out of range".into())
        );
        assert!(parse_json("-1e999").is_err());
        assert!(parse_json("2e308").is_err());
        assert_eq!(
            parse_json("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
    }

    #[test]
    fn writer_lays_out_members_in_insertion_order() {
        let inner = |layout| {
            object(layout, |o| {
                o.field("z", 1u64)
                    .field("a", "x\"y")
                    .field("n", None::<u64>);
            })
        };
        let list = |layout| {
            let rows = [inner(layout), inner(layout)];
            object(layout, move |o| {
                o.field("rows", array(layout, &rows)).field("t", true);
            })
            .render()
        };
        assert_eq!(
            list(Layout::Spaced),
            r#"{"rows": [{"z": 1, "a": "x\"y", "n": null}, {"z": 1, "a": "x\"y", "n": null}], "t": true}"#
        );
        assert_eq!(
            list(Layout::Compact),
            r#"{"rows":[{"z":1,"a":"x\"y","n":null},{"z":1,"a":"x\"y","n":null}],"t":true}"#
        );
        let rows = [inner(Layout::Block)];
        let doc = object(Layout::Block, |o| {
            o.field("k", 2.5).field("rows", array(Layout::Block, &rows));
            o.field("empty", array(Layout::Spaced, Vec::<u64>::new()));
        });
        assert_eq!(
            doc.render(),
            "{\n  \"k\": 2.5,\n  \"rows\": [\n    {\n      \"z\": 1,\n      \
             \"a\": \"x\\\"y\",\n      \"n\": null\n    }\n  ],\n  \"empty\": []\n}"
        );
        assert!(parse_json(&doc.render()).is_ok());
    }

    #[test]
    fn writer_prints_numbers_with_display_and_non_finite_ones_as_null() {
        let floats = [1.0, -0.25, f64::NEG_INFINITY, f64::NAN];
        let doc = object(Layout::Spaced, |o| {
            o.field("f", array(Layout::Spaced, floats));
            o.field("d", array(Layout::Spaced, floats.map(Decimal)));
            o.field("i", array(Layout::Spaced, [u64::MAX]));
            o.field("neg", -3i64);
        });
        let text = doc.render();
        assert_eq!(
            text,
            r#"{"f": [1, -0.25, null, null], "d": [1.0, -0.25, null, null], "i": [18446744073709551615], "neg": -3}"#
        );
        assert!(parse_json(&text).is_ok());
    }

    #[test]
    fn json_numbers_always_carry_a_decimal_point() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(1234.5), "1234.5");
        assert_eq!(json_num(0.25), "0.25");
    }
}
