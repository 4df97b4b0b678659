//! A minimal JSON parser and writer over `std` only — the workspace's
//! one codec: the scan service's requests and reports, the suite's
//! `summary.json`, and the perf reports all go through it.
//!
//! The service boundary feeds this module raw, hostile request bodies,
//! so the parser is written for robustness first: a hard recursion
//! depth cap (`MAX_DEPTH`, stack overflow is a process kill — the one
//! failure mode a scan service must never offer a tenant), structured
//! errors with byte offsets, and no panics on any input. The body size
//! itself is capped upstream by the HTTP layer.
//!
//! Numbers are kept as `f64`; every integral field the scan API uses
//! (addresses, trial counts, cycle budgets) is well inside the 2^53
//! exact-integer range, and [`Json::as_u64`] refuses non-integral or
//! out-of-range values rather than rounding.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value,
    /// as `JSON.parse` does).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer; `None` for
    /// non-numbers, negatives, fractions, and values above 2^53.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, COMPACT);
        out
    }

    /// Serializes to the line-oriented layout of the suite's
    /// `summary.json` and the perf reports: a top-level object puts one
    /// field per line (indented 2), a top-level array field puts one
    /// element per line (indented 4), and everything deeper is inline
    /// with `", "` / `": "` separators. The text ends with a newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let Json::Obj(fields) = self else {
            self.write(&mut out, SPACED);
            out.push('\n');
            return out;
        };
        out.push_str("{\n");
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str("  ");
            write_str(k, &mut out);
            out.push_str(": ");
            if let Json::Arr(items) = v {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    item.write(&mut out, SPACED);
                    out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str("  ]");
            } else {
                v.write(&mut out, SPACED);
            }
            out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }

    fn write(&self, out: &mut String, (item_sep, key_sep): (&str, &str)) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    v.write(out, (item_sep, key_sep));
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    write_str(k, out);
                    out.push_str(key_sep);
                    v.write(out, (item_sep, key_sep));
                }
                out.push('}');
            }
        }
    }
}

/// Item and key separators of [`Json::dump`].
const COMPACT: (&str, &str) = (",", ":");
/// Item and key separators of the inline parts of [`Json::pretty`].
const SPACED: (&str, &str) = (", ", ": ");

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

fn write_num(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        out.push_str(&format!("{}", n as i64));
    } else if n.is_finite() {
        out.push_str(&format!("{n}"));
    } else {
        out.push_str("null"); // JSON has no NaN/Inf
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Why parsing failed, with the byte offset it failed at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            what,
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

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            let v = self.value(depth + 1)?;
            items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept, combine when valid,
                            // replace lone surrogates (robustness over
                            // strictness — the value is diagnostics-only).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let combined = 0x10000
                                            + ((cp - 0xD800) << 10)
                                            + (lo - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.unwrap_or('\u{FFFD}'));
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(
                        |_| JsonError {
                            offset: start,
                            what: "invalid UTF-8",
                        },
                    )?);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
            .expect("digits are ASCII");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

/// Convenience: an object from key/value pairs.
#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_document() {
        let text = r#"{"a":[1,2.5,"x\n",true,null],"b":{"c":-3}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("b").unwrap().get("c").unwrap(), &Json::Num(-3.0));
        assert_eq!(parse(&v.dump()).unwrap(), v);
    }

    #[test]
    fn as_u64_is_exact_or_nothing() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn depth_bomb_is_rejected_not_a_stack_overflow() {
        let bomb = "[".repeat(100_000);
        let e = parse(&bomb).unwrap_err();
        assert_eq!(e.what, "nesting too deep");
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "\"\\q\"", "01x", "nul",
            "{\"a\":1}garbage", "\"unterminated", "[1 2]", "-", "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn surrogate_pairs_and_lone_surrogates() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
        assert_eq!(
            parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{FFFD}x".to_string())
        );
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").unwrap(), &Json::Num(2.0));
    }

    #[test]
    fn pretty_round_trips_a_nested_document() {
        let v = obj(vec![
            ("n", Json::from(7)),
            ("s", Json::from("a\"b\n\u{1}")),
            ("inner", obj(vec![("xs", Json::Arr(vec![Json::Null, Json::Bool(true)]))])),
            (
                "rows",
                Json::Arr(vec![obj(vec![("k", Json::Num(-2.5))]), Json::Arr(Vec::new())]),
            ),
            ("none", Json::Arr(Vec::new())),
        ]);
        let text = v.pretty();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("  \"inner\": {\"xs\": [null, true]},\n"), "{text}");
        assert!(text.contains("    {\"k\": -2.5},\n    []\n  ],\n"), "{text}");
        assert!(text.ends_with("  \"none\": [\n  ]\n}\n"), "{text}");
    }

    #[test]
    fn escapes_control_characters_on_write() {
        let s = Json::Str("a\"b\\c\u{1}\n".to_string());
        assert_eq!(s.dump(), r#""a\"b\\c\u0001\n""#);
        assert_eq!(parse(&s.dump()).unwrap(), s);
    }

    /// Fixed-seed fuzzing: the parser returns a value or a [`JsonError`]
    /// inside the input for any text, never a panic.
    mod fuzz {
        use std::panic;

        use proptest::prelude::*;

        use super::*;

        /// JSON's own tokens, escapes and a multi-byte character: text
        /// built from them reaches the string, number and nesting paths
        /// instead of failing on the first byte.
        const PIECES: &[&str] = &[
            "{", "}", "[", "]", "\"", ":", ",", "-", "+", ".", "0", "7", "e", "E", "1e999",
            "true", "false", "null", "tru", "\\", "\\u", "\\ud83d", "\\ude00", "00ff", " ",
            "\n", "a", "\u{e9}",
        ];

        fn check(text: &str) -> Result<(), TestCaseError> {
            let parsed = panic::catch_unwind(|| parse(text));
            prop_assert!(parsed.is_ok(), "parse panicked");
            if let Err(e) = parsed.expect("checked above") {
                prop_assert!(e.offset <= text.len(), "error offset {} past the end", e.offset);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            #[test]
            fn arbitrary_text_never_panics_the_parser(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
                check(&String::from_utf8_lossy(&bytes))?;
            }

            #[test]
            fn json_shaped_text_never_panics_the_parser(
                pieces in prop::collection::vec(0..PIECES.len(), 0..48),
            ) {
                check(&pieces.iter().map(|&i| PIECES[i]).collect::<String>())?;
            }
        }
    }
}
