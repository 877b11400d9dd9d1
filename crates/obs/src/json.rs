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
//! * Floats render with Rust's shortest-round-trip `{:?}` formatting (short
//!   decimals through an exact fast path, see [`render_float`]), and the
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

/// Appends the decimal digits of `n`, left-padded with zeros to at least
/// `min_width` digits (at most 20, the width of `u64::MAX`).
fn push_digits(mut n: u64, min_width: usize, out: &mut String) {
    let mut buf = [b'0'; 20];
    let mut width = 0;
    for slot in buf.iter_mut().rev() {
        if n == 0 && width >= min_width.max(1) {
            break;
        }
        // `n % 10 < 10`, so the cast is exact.
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
        width += 1;
    }
    let digits = buf.get(buf.len() - width..).unwrap_or_default();
    out.push_str(std::str::from_utf8(digits).unwrap_or_default());
}

/// Appends an integer in decimal, the bytes `format!("{i}")` gives.
pub fn render_int(i: i64, out: &mut String) {
    if i < 0 {
        out.push('-');
    }
    push_digits(i.unsigned_abs(), 1, out);
}

/// `10^d` for the fractional digit counts [`render_float`]'s fast path
/// can take.
const POW10: [f64; 7] = [1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6];

/// 2^52, the magnitude below which a float's spacing is finer than 1.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// Renders a float the same way the rest of the workspace prints
/// probabilities: shortest decimal that round-trips, as `{:?}` writes it.
/// Non-finite values become `null` because JSON cannot carry them.
///
/// Most float cells are short decimals (prices), so an exact fast path
/// writes them without the general shortest-digit search. `{:?}` prints
/// fixed notation for `1e-4 ≤ a < 1e16`, `a = |f|`. Let `d ≤ 6` be the
/// most fractional digits with `a·10^d < 2^52`, and `m` the integer
/// nearest `a·10^d`. If `m / 10^d == a`, the digits of `m`, with trailing
/// fractional zeros dropped, are `{:?}`'s:
///
/// * *They round-trip.* `m` and `10^d` are exact integers below 2^53, so
///   the division is correctly rounded: equality says the decimal
///   `m·10^-d` parses back to `a`.
/// * *No other decimal of at most `d` fractional digits does.* A float's
///   spacing is at most 2^-52 of its value, so `a·10^d < 2^52` puts `a`'s
///   neighbours closer than `10^-d`, and `a`'s rounding interval holds at
///   most one multiple of `10^-d`.
/// * *So it is the shortest.* A round-tripping decimal with no more
///   significant digits but more fractional digits would lie below a
///   power of ten that `m·10^-d` reaches, making `m·10^-d` that power;
///   the two would then be at least a tenth of it apart, far wider than
///   `a`'s rounding interval.
///
/// Everything else falls back to `{:?}`: exponent notation, more than `d`
/// fractional digits, and an `m` that `+ 0.5` rounding put one off (the
/// test, not the guess, decides). A single test serves every `d`, so a
/// long fraction, such as a probability, pays one multiply and one divide
/// before its fallback. No per-value cache is kept: the kernel needs no
/// memory.
pub fn render_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let a = f.abs();
    let widest = POW10
        .iter()
        .enumerate()
        .rev()
        .find(|&(_, &scale)| a * scale < TWO_POW_52);
    if let (true, Some((d, &scale))) = (a >= 1e-4, widest) {
        // `a·10^d + 0.5 < 2^52 + 1`, so the casts are exact.
        let m = (a * scale + 0.5) as u64;
        if m as f64 / scale == a {
            if f < 0.0 {
                out.push('-');
            }
            let scale = scale as u64;
            push_digits(m / scale, 1, out);
            out.push('.');
            // `{:?}` keeps one fractional digit, even a zero.
            let (mut frac, mut width) = (m % scale, d.max(1));
            if frac == 0 {
                width = 1;
            }
            while width > 1 && frac % 10 == 0 {
                frac /= 10;
                width -= 1;
            }
            push_digits(frac, width, out);
            return;
        }
    }
    write!(out, "{f:?}").ok();
}

/// Which bytes a JSON string must escape: the control characters, `"`
/// and `\`. Every byte of a multibyte UTF-8 character is ≥ 0x80, so a
/// byte scan cannot mistake one for an escape.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut rest: &mut [bool] = &mut table;
    let mut b: u8 = 0;
    while let [slot, tail @ ..] = rest {
        *slot = b < 0x20 || b == b'"' || b == b'\\';
        rest = tail;
        b = b.wrapping_add(1);
    }
    table
};

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters. A string with nothing to escape, as nearly
/// every cell is, is copied whole after one scan of its bytes.
pub fn render_string(s: &str, out: &mut String) {
    out.push('"');
    if s.bytes()
        .any(|b| NEEDS_ESCAPE.get(usize::from(b)).copied().unwrap_or(true))
    {
        escape_into(s, out);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// The escaping loop for strings that need it, one char at a time.
fn escape_into(s: &str, out: &mut String) {
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

    /// The renderers as they were before the kernels, kept as oracles.
    mod oracle {
        use std::fmt::Write;

        pub fn float(f: f64) -> String {
            if f.is_finite() {
                format!("{f:?}")
            } else {
                "null".to_owned()
            }
        }

        pub fn string(s: &str) -> String {
            let mut out = String::from('"');
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
                        write!(out, "\\u{:04x}", c as u32).unwrap();
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
    }

    /// splitmix64: a seeded stream of test inputs, no dependency.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn float(f: f64) -> String {
        let mut out = String::new();
        render_float(f, &mut out);
        out
    }

    fn check_float(f: f64) {
        for x in [f, -f] {
            assert_eq!(float(x), oracle::float(x), "bits {:#018x}", x.to_bits());
        }
    }

    #[test]
    fn float_kernel_matches_debug_on_edge_cases() {
        let two52 = 4_503_599_627_370_496.0_f64;
        for f in [
            0.0,
            1e-4,
            9.999e-5,
            1e15,
            1e16,
            two52 - 0.5,
            two52 + 0.5,
            two52,
            two52 / 2.0 + 0.5,
            two52 / 10.0 + 0.25,
            // Past the bound at d = 6: `a·10^6` is no longer exact.
            1_358_049_604_121.0,
            4_754_645_535_805.552,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.1,
            0.30000000000000004,
            1.0 / 3.0,
            123_456.789_012,
            0.000_123_4,
            f64::NAN,
            f64::INFINITY,
        ] {
            check_float(f);
        }
    }

    #[test]
    fn float_kernel_matches_debug_on_random_bits() {
        let mut s = Stream(1);
        for _ in 0..500_000 {
            check_float(f64::from_bits(s.next()));
        }
    }

    #[test]
    fn float_kernel_matches_debug_on_short_decimals() {
        // `k / 10^d` for d in 0..=9: every length the fast path takes,
        // the three it refuses, and magnitudes up to past 2^52.
        let mut s = Stream(2);
        for d in 0..=9 {
            let scale = 10f64.powi(d);
            for k in 0..20_000u64 {
                check_float(k as f64 / scale);
            }
            for _ in 0..50_000 {
                let digits = s.next() % 17;
                let k = s.next() % 10u64.pow(digits as u32).max(1);
                check_float(k as f64 / scale);
            }
        }
    }

    #[test]
    fn int_kernel_matches_display() {
        let mut s = Stream(3);
        let fixed = [
            0,
            1,
            -1,
            9,
            10,
            -10,
            99,
            100,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ];
        let random = (0..100_000).map(|_| s.next() as i64 >> (s.next() % 64));
        for i in fixed.into_iter().chain(random) {
            let mut out = String::new();
            render_int(i, &mut out);
            assert_eq!(out, format!("{i}"));
        }
    }

    #[test]
    fn string_kernel_matches_the_char_loop() {
        let mut cases: Vec<String> = (0u8..0x20)
            .map(|c| format!("a{}b", char::from(c)))
            .collect();
        cases.extend(
            [
                "",
                "plain",
                "\"",
                "\\",
                "\u{7f}",
                "é",
                "日本語",
                "😀",
                "mixed \"é\" \\ \u{1}",
                "tail\n",
            ]
            .map(str::to_owned),
        );
        let alphabet: Vec<char> = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain(['é', '日', '😀', '\u{2028}'])
            .collect();
        let mut s = Stream(4);
        for _ in 0..20_000 {
            let len = s.next() % 12;
            cases.push(
                (0..len)
                    .filter_map(|_| alphabet.get((s.next() % alphabet.len() as u64) as usize))
                    .collect(),
            );
        }
        for case in cases {
            let mut out = String::new();
            render_string(&case, &mut out);
            assert_eq!(out, oracle::string(&case), "{case:?}");
        }
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
