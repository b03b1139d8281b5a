//! Minimal JSON tree, writer and recursive-descent parser.
//!
//! The workspace's `serde` is an offline marker-trait stand-in (its derives
//! expand to nothing), so the chaos harness serializes replay artifacts
//! through this hand-rolled module instead. Only what artifacts need is
//! implemented: the six JSON value kinds, deterministic pretty rendering,
//! and exact numeric round-trips (numbers keep their raw token, so a `u64`
//! digest or a shortest-repr `f64` survives parse → render unchanged).

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token to keep full `u64`/`f64` fidelity.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (and rendered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from a `u64` (exact — never routed through `f64`).
    pub(crate) fn from_u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a `usize` (exact).
    pub(crate) fn from_usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A number from a finite `f64`, using Rust's shortest round-trip
    /// representation so `parse` restores the identical bits.
    pub(crate) fn from_f64(v: f64) -> Json {
        debug_assert!(v.is_finite(), "JSON has no non-finite numbers");
        Json::Num(format!("{v:?}"))
    }

    /// A string value.
    pub(crate) fn from_str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Object field lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an integral number token.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `usize`, if this is an integral number token.
    pub(crate) fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline —
    /// deterministic, diff-friendly output for committed regression
    /// artifacts.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    render_string(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] follows: artifacts nest three
/// levels, and hostile input must not recurse the stack away.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document strictly; trailing whitespace is allowed,
/// trailing content, a repeated object key or nesting beyond
/// [`MAX_DEPTH`] is an error.
pub(crate) fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        if raw.is_empty() || raw == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape bytes")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|c| c as char)));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar value, not one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string")?;
                    let c = rest.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?} before byte {}", self.pos));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let doc = Json::Obj(vec![
            ("seed".into(), Json::from_u64(u64::MAX)),
            ("loss".into(), Json::from_f64(0.1 + 0.2)),
            ("name".into(), Json::from_str("a \"quoted\"\nline")),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::from_usize(3)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // Render is deterministic (byte-stable across round trips).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn u64_and_f64_fidelity() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = parse("0.30000000000000004").unwrap();
        assert_eq!(v.as_f64(), Some(0.1 + 0.2));
        let v = parse("-2.5e-3").unwrap();
        assert_eq!(v.as_f64(), Some(-0.0025));
        assert_eq!(v.as_u64(), None);
    }

    #[test]
    fn accessors() {
        let doc = parse(r#"{"a": [1, 2], "b": "x", "c": true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("b").unwrap().as_arr(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "nul",
            "[1 2]",
            "-",
            "\"\\q\"",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": {\"b\": 1, \"b\": 1}}",
            "{\"a\": 1",
            "{\"a\": 1}}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""tab\there \u00e9 caf\u00e9 \/slash""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there é café /slash"));
        let v = parse("\"直接 utf-8\"").unwrap();
        assert_eq!(v.as_str(), Some("直接 utf-8"));
    }
}
