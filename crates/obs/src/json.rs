//! Minimal JSON support shared across the workspace.
//!
//! The vendored `serde` is a marker facade (no real serialization), so
//! every JSON artifact in this repo — `FusionReport`, the bench files,
//! the trace/profile/metrics exports — is hand-rolled. This module
//! centralises the two fragile parts: string [`escape`]-ing and float
//! formatting on the write side, and a small recursive-descent
//! [`parse`]r on the read side so tests and CI can assert that exported
//! traces are *valid* JSON rather than merely string-shaped.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (the
/// surrounding quotes are the caller's job). Handles quotes,
/// backslashes, the named control escapes and `\u00XX` for the rest of
/// the C0 range; non-ASCII passes through as UTF-8, which JSON allows.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats `s` as a complete JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Formats an `f64` as a JSON value. JSON has no `Infinity`/`NaN`
/// literals, so non-finite values are encoded as strings (`"inf"`,
/// `"-inf"`, `"NaN"`) — matching the `FusionReport` convention.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

/// A parsed JSON value. Object keys keep only the last duplicate, which
/// is fine for validation purposes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup; `None` unless this is an object with that key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// A count: a number that is an exact non-negative integer below
    /// 2⁵³, the range in which an `f64` counts without rounding. Every
    /// `u64`/`usize` this workspace writes reads back through here, so
    /// `-1`, `1.5` or `1e300` are rejected instead of saturating.
    pub fn as_count(&self) -> Option<u64> {
        self.as_f64()
            .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x < 2f64.powi(53))
            .map(|x| x as u64)
    }

    /// Serializes this value back to compact JSON text. Object keys come
    /// out in `BTreeMap` (alphabetical) order, so a parse → serialize
    /// round trip is deterministic even if the source ordering was not.
    /// Non-finite numbers follow the [`number`] convention (encoded as
    /// strings), so `to_json` output always re-parses.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&number(*n)),
            Value::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Maximum container nesting the parser accepts. The recursive-descent
/// [`parse`]r uses one stack frame per open object/array, so an
/// adversarial input (a shard packet of nothing but `[[[[…`) could
/// otherwise overflow the thread stack; 128 levels is far beyond any
/// document this workspace emits.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after top-level value"));
    }
    Ok(value)
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    /// Runs a container parser one nesting level deeper, rejecting the
    /// document once [`MAX_DEPTH`] open containers are on the stack.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!(
                "nesting depth exceeds the {MAX_DEPTH}-level limit"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Run of plain UTF-8 bytes: copy without per-char handling.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape_sequence()?);
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape_sequence(&mut self) -> Result<char, ParseError> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: must be followed by \uDC00-\uDFFF.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&unit) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            _ => return Err(self.error("unknown escape sequence")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_controls_and_non_ascii() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape(r"a\b"), r"a\\b");
        assert_eq!(escape("line\nfeed\ttab\rret"), r"line\nfeed\ttab\rret");
        assert_eq!(escape("\u{08}\u{0c}"), r"\b\f");
        assert_eq!(escape("\u{01}\u{1f}"), r"\u0001\u001f");
        // Non-ASCII passes through unescaped (valid JSON as UTF-8).
        assert_eq!(escape("μΣ→κ₀"), "μΣ→κ₀");
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        let cases = [
            "plain",
            r#"quote " backslash \ mix \" done"#,
            "ctrl\u{01}\u{08}\u{0c}\n\r\t\u{1f}",
            "μ=0.5, Σ→∞, emoji 🦀",
            "",
        ];
        for case in cases {
            let doc = format!("{{\"k\":{}}}", string(case));
            let parsed = parse(&doc).unwrap_or_else(|e| panic!("{case:?}: {e}"));
            assert_eq!(
                parsed.get("k").and_then(Value::as_str),
                Some(case),
                "{case:?}"
            );
        }
    }

    #[test]
    fn number_formats_finite_and_non_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-0.25), "-0.25");
        assert_eq!(number(f64::INFINITY), "\"inf\"");
        assert_eq!(number(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(number(f64::NAN), "\"NaN\"");
        // Finite outputs must themselves be parseable JSON numbers.
        assert_eq!(parse(&number(1e-12)).unwrap().as_f64(), Some(1e-12));
    }

    #[test]
    fn parser_accepts_standard_documents() {
        let doc = r#"{
            "traceEvents": [
                {"name": "cv.select", "ph": "X", "ts": 1.5, "dur": 2e3, "pid": 1, "tid": 2}
            ],
            "otherData": {"cores": 8, "ok": true, "none": null},
            "unicode": "\u00b5 and \ud83e\udd80"
        }"#;
        let v = parse(doc).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[0].get("dur").and_then(Value::as_f64), Some(2000.0));
        assert_eq!(v.get("unicode").and_then(Value::as_str), Some("µ and 🦀"));
    }

    #[test]
    fn value_to_json_round_trips() {
        let doc = r#"{"b":[1,2.5,null,true],"a":{"nested":"tricky \" \\ \n text"},"n":-1e-3}"#;
        let parsed = parse(doc).unwrap();
        let emitted = parsed.to_json();
        // Re-parsing the emitted text yields the same tree.
        assert_eq!(parse(&emitted).unwrap(), parsed);
        // Keys serialize alphabetically (BTreeMap order), so the emitted
        // form is itself a fixed point.
        assert_eq!(parse(&emitted).unwrap().to_json(), emitted);
        assert!(emitted.starts_with("{\"a\":"));
    }

    #[test]
    fn deep_nesting_is_rejected_before_the_stack_overflows() {
        // Just inside the limit: parses fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "document at MAX_DEPTH must parse");

        // One level past the limit: a typed error naming the depth cap,
        // not a stack overflow. Mixed object/array nesting counts too.
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&too_deep).expect_err("must reject over-deep document");
        assert!(
            err.message.contains("nesting depth"),
            "error should name the depth limit, got: {err}"
        );

        let mixed = format!(
            "{}{}1{}{}",
            "{\"k\":[".repeat(MAX_DEPTH / 2 + 1),
            "[",
            "]",
            "]}".repeat(MAX_DEPTH / 2 + 1)
        );
        assert!(
            parse(&mixed).is_err(),
            "mixed-deep document must be rejected"
        );

        // An adversarially deep document (way past the limit) must come
        // back as an error rather than crash the process.
        let hostile = "[".repeat(1_000_000);
        assert!(parse(&hostile).is_err());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{\"a\" 1}",
            "nul",
            "01x",
            "\"unpaired \\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn as_count_accepts_only_exact_unsigned_integers() {
        for (text, want) in [
            ("0", Some(0)),
            ("42", Some(42)),
            ("9007199254740991", Some((1u64 << 53) - 1)),
            ("9007199254740992", None),
            ("1e300", None),
            ("-1", None),
            ("1.5", None),
            ("\"7\"", None),
        ] {
            assert_eq!(parse(text).unwrap().as_count(), want, "{text}");
        }
    }
}
