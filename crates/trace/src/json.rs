//! A minimal dependency-free JSON parser, and the writer helpers every
//! JSON emitter in the workspace shares.
//!
//! The workspace bans external crates, but the CI trace smoke job must
//! *validate* the Chrome/Perfetto export it just produced. This module is
//! a small recursive-descent parser covering the full JSON grammar —
//! enough to load a trace back and check it structurally (see
//! [`crate::perfetto::validate_chrome_trace`]). It is a validator, not a
//! performance project: numbers are kept as `f64` and parse depth is
//! bounded to keep malformed input from recursing unboundedly.
//!
//! The writer half is [`escape`] / [`escape_into`], the one JSON string
//! escaper the trace, profile, analyzer, verifier and server writers
//! use, plus the crate's integer writers, which append decimal and `0x`
//! hex digits without going through `core::fmt` (the Perfetto export and
//! the JSONL encoding write several integers per event).

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted (far beyond any trace we emit).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys are kept sorted (`BTreeMap`) so
/// introspection is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses `input` as a single JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

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

    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.consume(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: only decode the common case;
                        // unpaired surrogates become the replacement char.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bytes[self.pos..].starts_with(b"\\u") {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                out.push(
                                    char::from_u32(combined).unwrap_or(char::REPLACEMENT_CHARACTER),
                                );
                            } else {
                                out.push(char::REPLACEMENT_CHARACTER);
                            }
                        } else {
                            out.push(char::from_u32(cp).unwrap_or(char::REPLACEMENT_CHARACTER));
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-for-byte;
                    // the input is a &str so they are guaranteed valid.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = if b >= 0xF0 {
                            4
                        } else if b >= 0xE0 {
                            3
                        } else {
                            2
                        };
                        let end = (start + len).min(self.bytes.len());
                        out.push_str(std::str::from_utf8(&self.bytes[start..end]).map_err(
                            |_| ParseError {
                                offset: start,
                                message: "invalid utf-8".into(),
                            },
                        )?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = (v << 4) | d;
        }
        Ok(v)
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
        // The scanned slice is ASCII digits/sign/dot/exponent only, but
        // the lint is right that a parser should not be able to panic.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Appends `s` to `out`, escaped for the inside of a JSON string
/// literal: `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use
/// their short escapes, other control characters become `\u00XX`, and
/// everything else (non-ASCII included) is copied as is.
pub fn escape_into(out: &mut String, s: &str) {
    // Every character that needs escaping is ASCII, and UTF-8 never puts
    // an ASCII byte inside a multi-byte character, so a byte scan finds
    // them all and every cut below falls on a character boundary.
    let mut copied = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        match short {
            Some(escaped) => out.push_str(escaped),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
                out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
            }
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// `s` escaped for the inside of a JSON string literal (see
/// [`escape_into`]).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends the ASCII digits at the end of `buf`, from `start` on.
fn push_digits(out: &mut String, buf: &[u8], start: usize) {
    for &d in &buf[start..] {
        out.push(char::from(d));
    }
}

/// Appends `v` in decimal, as `write!(out, "{v}")` would.
pub(crate) fn push_dec(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    push_digits(out, &buf, i);
}

/// Appends `v` as `0x`-prefixed lowercase hex, as `write!(out, "{v:#x}")`
/// would.
pub(crate) fn push_hex(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 16];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = HEX_DIGITS[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    out.push_str("0x");
    push_digits(out, &buf, i);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = parse("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}").unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn decodes_escapes() {
        let v = parse("\"a\\n\\t\\\"\\u0041\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"Aé"));
    }

    #[test]
    fn surrogate_pair() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    /// 0, 9, 10, 99, 100, every power of ten ± 1, and the type limits.
    fn edge_values() -> Vec<u64> {
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        let mut p: u64 = 1;
        while let Some(next) = p.checked_mul(10) {
            p = next;
            values.extend([p - 1, p, p + 1]);
        }
        values
    }

    #[test]
    fn dec_writer_matches_fmt() {
        for v in edge_values() {
            let mut out = String::from("x");
            push_dec(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn hex_writer_matches_fmt() {
        for v in edge_values().into_iter().chain([0xf, 0x10, 0xdead_beef]) {
            let mut out = String::new();
            push_hex(&mut out, v);
            assert_eq!(out, format!("{v:#x}"));
        }
        let mut zero = String::new();
        push_hex(&mut zero, 0);
        assert_eq!(zero, "0x0");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
        assert_eq!(escape("\r\t\u{1f}é"), "\\r\\t\\u001fé");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn escaped_strings_round_trip() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "q\"b\\",
            "héllo — 世界\n",
            all_controls.as_str(),
        ] {
            let literal = format!("\"{}\"", escape(s));
            assert_eq!(parse(&literal).unwrap().as_str(), Some(s), "{literal}");
        }
    }

    #[test]
    fn utf8_passthrough() {
        let v = parse("\"héllo — 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo — 世界"));
    }
}
