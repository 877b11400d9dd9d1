//! The workspace's one JSON codec: a value type, a panic-free parser and a
//! deterministic renderer, with no dependencies.
//!
//! The serve protocol's requests and replies, system snapshots
//! (`udi_core::UdiSystem::to_json`), trace events ([`crate::Event`]) and
//! audit reports all go through this module. It hand-rolls RFC 8259:
//!
//! * Objects render with keys in [`BTreeMap`] order, so a given value always
//!   renders to the same bytes — the byte-identity contract between the server
//!   and the library path rests on this.
//! * Floats render with Rust's shortest-round-trip `{:?}` formatting, and the
//!   parser reads them back with the correctly rounding `str::parse::<f64>`,
//!   so a finite float survives render → parse bit for bit. Non-finite floats
//!   render as `null` (JSON has no NaN).
//! * The parser walks raw bytes with bounds-checked access only and caps
//!   nesting depth, so untrusted input cannot panic or blow the stack.
//!
//! The scalar renderers ([`render_string`], [`render_float`],
//! [`render_int`]) are public so that emitters with a fixed field order, or
//! a streamed layout, write the same bytes as the tree would.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Maximum nesting depth accepted by [`parse`]. Requests are flat and a
/// snapshot nests nine levels deep, so 64 is generous while still
/// bounding recursion on hostile input.
const MAX_DEPTH: u32 = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent that fits in `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Returns the string slice if this value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the integer if this value is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the number as `f64` if this value is a `Float` or an `Int`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Looks up a key if this value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Renders this value to a compact JSON string with deterministic
    /// key order and shortest-round-trip float formatting.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the rendering of this value to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => render_int(*i, out),
            Json::Float(f) => render_float(*f, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (idx, item) in items.iter().enumerate() {
                    if idx > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (idx, (key, value)) in map.iter().enumerate() {
                    if idx > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

// Writing into a `String` cannot fail, so the `fmt::Result`s below carry
// nothing and are dropped with `.ok()`.

/// Appends an integer in decimal.
pub fn render_int(i: i64, out: &mut String) {
    write!(out, "{i}").ok();
}

/// Renders a float the same way the rest of the workspace prints
/// probabilities: shortest decimal that round-trips. Non-finite values
/// become `null` because JSON cannot carry them.
pub fn render_float(f: f64, out: &mut String) {
    if f.is_finite() {
        write!(out, "{f:?}").ok();
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters.
pub fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).ok();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON value from `input`, requiring that nothing but
/// whitespace follows it.
pub fn parse(input: &str) -> Result<Json, ParseJsonError> {
    let bytes = input.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(ParseJsonError::TrailingData(p.pos));
    }
    Ok(value)
}

/// Why a JSON line failed to parse. Positions are byte offsets into the
/// input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseJsonError {
    /// The input ended in the middle of a value.
    UnexpectedEnd,
    /// An unexpected byte at the given offset.
    UnexpectedByte(usize),
    /// Nesting exceeded the fixed depth cap.
    TooDeep,
    /// A number literal that fits neither `i64` nor `f64`.
    BadNumber(usize),
    /// A malformed string escape at the given offset.
    BadEscape(usize),
    /// The value parsed, but trailing non-whitespace bytes follow it.
    TrailingData(usize),
}

impl std::fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseJsonError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseJsonError::UnexpectedByte(at) => write!(f, "unexpected byte at offset {at}"),
            ParseJsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
            ParseJsonError::BadNumber(at) => write!(f, "malformed number at offset {at}"),
            ParseJsonError::BadEscape(at) => write!(f, "malformed string escape at offset {at}"),
            ParseJsonError::TrailingData(at) => {
                write!(f, "trailing data after value at offset {at}")
            }
        }
    }
}

impl std::error::Error for ParseJsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), ParseJsonError> {
        match self.bump() {
            Some(b) if b == byte => Ok(()),
            Some(_) => Err(ParseJsonError::UnexpectedByte(self.pos - 1)),
            None => Err(ParseJsonError::UnexpectedEnd),
        }
    }

    fn literal(&mut self, rest: &[u8], value: Json) -> Result<Json, ParseJsonError> {
        for &b in rest {
            self.expect_byte(b)?;
        }
        Ok(value)
    }

    fn value(&mut self, depth: u32) -> Result<Json, ParseJsonError> {
        if depth > MAX_DEPTH {
            return Err(ParseJsonError::TooDeep);
        }
        match self.peek() {
            None => Err(ParseJsonError::UnexpectedEnd),
            Some(b'n') => {
                self.pos += 1;
                self.literal(b"ull", Json::Null)
            }
            Some(b't') => {
                self.pos += 1;
                self.literal(b"rue", Json::Bool(true))
            }
            Some(b'f') => {
                self.pos += 1;
                self.literal(b"alse", Json::Bool(false))
            }
            Some(b'"') => {
                self.pos += 1;
                self.string().map(Json::Str)
            }
            Some(b'[') => {
                self.pos += 1;
                self.array(depth)
            }
            Some(b'{') => {
                self.pos += 1;
                self.object(depth)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(ParseJsonError::UnexpectedByte(self.pos)),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, ParseJsonError> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                Some(_) => return Err(ParseJsonError::UnexpectedByte(self.pos - 1)),
                None => return Err(ParseJsonError::UnexpectedEnd),
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, ParseJsonError> {
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            self.expect_byte(b'"')?;
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                Some(_) => return Err(ParseJsonError::UnexpectedByte(self.pos - 1)),
                None => return Err(ParseJsonError::UnexpectedEnd),
            }
        }
    }

    /// Parses the body of a string; the opening quote is already consumed.
    fn string(&mut self) -> Result<String, ParseJsonError> {
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: consume a run of plain UTF-8 bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                if let Some(chunk) = self
                    .bytes
                    .get(start..self.pos)
                    .and_then(|c| std::str::from_utf8(c).ok())
                {
                    out.push_str(chunk);
                } else {
                    return Err(ParseJsonError::UnexpectedByte(start));
                }
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    let at = self.pos;
                    match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4(at)?;
                            if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: require a low surrogate.
                                self.expect_byte(b'\\')?;
                                self.expect_byte(b'u')?;
                                let low = self.hex4(at)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(ParseJsonError::BadEscape(at));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                match char::from_u32(combined) {
                                    Some(c) => out.push(c),
                                    None => return Err(ParseJsonError::BadEscape(at)),
                                }
                            } else {
                                match char::from_u32(code) {
                                    Some(c) => out.push(c),
                                    None => return Err(ParseJsonError::BadEscape(at)),
                                }
                            }
                        }
                        Some(_) => return Err(ParseJsonError::BadEscape(at)),
                        None => return Err(ParseJsonError::UnexpectedEnd),
                    }
                }
                Some(_) => return Err(ParseJsonError::UnexpectedByte(self.pos - 1)),
                None => return Err(ParseJsonError::UnexpectedEnd),
            }
        }
    }

    fn hex4(&mut self, at: usize) -> Result<u32, ParseJsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                Some(_) => return Err(ParseJsonError::BadEscape(at)),
                None => return Err(ParseJsonError::UnexpectedEnd),
            };
            code = (code << 4) | digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseJsonError> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|c| std::str::from_utf8(c).ok())
            .ok_or(ParseJsonError::BadNumber(start))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(ParseJsonError::BadNumber(start)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "42", "-7", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.render(), text);
        }
    }

    #[test]
    fn renders_floats_shortest_round_trip() {
        let v = parse("0.30000000000000004").unwrap();
        assert_eq!(v.render(), "0.30000000000000004");
        assert_eq!(Json::Float(0.5).render(), "0.5");
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn object_keys_render_sorted() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.render(), r#"{"a":2,"b":1}"#);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"op":"answer","rows":[[1,"x",0.5],[null,true,-2]]}"#).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("answer"));
        match v.get("rows") {
            Some(Json::Arr(rows)) => assert_eq!(rows.len(), 2),
            other => panic!("expected rows array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""line\nquote\"backslash\\tab\tacute\u00e9""#).unwrap();
        assert_eq!(
            v,
            Json::Str("line\nquote\"backslash\\tab\tacute\u{e9}".to_owned())
        );
        // Control characters re-escape on render.
        assert_eq!(Json::Str("a\u{0001}b".to_owned()).render(), r#""a\u0001b""#);
    }

    #[test]
    fn surrogate_pairs_combine() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("\u{1F600}".to_owned()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "1e",
            "\"\\q\"",
            "{\"a\":1} trailing",
            "\u{0007}",
        ] {
            assert!(parse(text).is_err(), "expected error for {text:?}");
        }
    }

    #[test]
    fn depth_cap_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(parse(&deep), Err(ParseJsonError::TooDeep));
    }

    #[test]
    fn large_integers_fall_back_to_float() {
        let v = parse("9223372036854775807").unwrap();
        assert_eq!(v, Json::Int(i64::MAX));
        match parse("92233720368547758080").unwrap() {
            Json::Float(_) => {}
            other => panic!("expected float fallback, got {other:?}"),
        }
    }
}
