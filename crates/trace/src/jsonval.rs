//! The workspace's JSON: one value type, one writer, one parser.
//!
//! The build environment is offline (no `serde`), so this module owns the
//! JSON text format. Every exporter — lifecycle events and metrics, stats
//! snapshots, baselines, Chrome traces, health JSONL, lint output — builds a
//! [`Value`] and serializes it once, through [`fmt::Display`] (compact, one
//! line) or [`Value::pretty`] (outer levels one member per line). `--check`
//! and the tests read documents back with [`parse`].
//!
//! Three rules make writing then parsing return the input unchanged:
//!
//! - **Integers are exact.** A non-negative integer is a [`Value::U64`],
//!   written as its decimal digits and parsed back without passing through
//!   `f64`, so counters above 2^53 survive.
//! - **Floats stay floats.** A finite [`Value::F64`] is written in Rust's
//!   shortest round-trip form, which always carries a `.` or an exponent
//!   (`2.0`, `1e-7`), so it parses back to the same bits and variant.
//!   Non-finite floats have no JSON spelling: the writer emits `null`.
//! - **Objects are ordered lists.** Members keep insertion order and
//!   repeated keys, so a snapshot that names one counter twice keeps both in
//!   its text (a sorted, de-duplicating map would silently drop one).

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer, exact over the whole `u64` range.
    U64(u64),
    /// Any other number: negative, fractional, or written with an exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object: members in order, repeated keys kept.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::with`].
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends one member to an object (builder-style).
    ///
    /// # Panics
    ///
    /// When `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(members) => members.push((key.into(), value.into())),
            other => panic!("Value::with on a non-object {other:?}"),
        }
        self
    }

    /// Member lookup on an object (the first member with that key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as an exact `u64` (fails on negatives and fractions, and
    /// on floats too large to be exact integers).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) => Some(x as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value's object members, in order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The JSON text with the outer `depth` levels of non-empty arrays and
    /// objects laid out one member per line (two-space indent, `": "` after
    /// keys) and everything deeper compact. `pretty(0)` equals the compact
    /// [`fmt::Display`] form. No trailing newline.
    pub fn pretty(&self, depth: usize) -> String {
        let mut out = String::new();
        write_value(&mut out, self, depth, 0).expect("writing to a String cannot fail");
        out
    }
}

/// The compact (single-line) JSON text.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0, 0)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::U64(n as u64)
            }
        }
    )*};
}
from_unsigned!(u8, u32, u64, usize);

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::F64(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().map(Into::into).collect())
    }
}

/// The writer. `expand` counts how many more container levels are laid out
/// one member per line; `indent` is the current line's indent in spaces.
fn write_value(out: &mut impl Write, v: &Value, expand: usize, indent: usize) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::U64(n) => write!(out, "{n}"),
        // `{:?}` is the shortest text that parses back to the same bits,
        // and always carries a `.` or an exponent.
        Value::F64(x) if x.is_finite() => write!(out, "{x:?}"),
        Value::F64(_) => out.write_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            write_container(out, "[]", items.iter().map(|v| (None, v)), expand, indent)
        }
        Value::Obj(members) => write_container(
            out,
            "{}",
            members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            expand,
            indent,
        ),
    }
}

fn write_container<'a>(
    out: &mut impl Write,
    brackets: &str,
    members: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Value)>,
    expand: usize,
    indent: usize,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    let broken = expand > 0 && members.len() > 0;
    out.write_str(open)?;
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        if broken {
            write!(out, "\n{:1$}", "", indent + 2)?;
        }
        if let Some(key) = key {
            write_str(out, key)?;
            out.write_str(if broken { ": " } else { ":" })?;
        }
        write_value(out, v, expand.saturating_sub(1), indent + 2)?;
    }
    if broken {
        write!(out, "\n{:1$}", "", indent)?;
    }
    out.write_str(close)
}

/// The one JSON string-escape routine: quote, backslash and the C0 control
/// characters are escaped; everything else is written as UTF-8.
fn write_str(out: &mut impl Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Parse failure: a message and the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of the failure in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Value::Obj(members)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Value::Arr(out)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pair handling for completeness.
                        let c = if (0xd800..0xdc00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xdc00..0xe000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(c);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    let start = self.pos - 1;
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    /// A plain digit string that fits is a [`Value::U64`]; anything with a
    /// sign, a fraction or an exponent (or too large for `u64`) is a
    /// [`Value::F64`].
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), Value::F64(-125.0));
        assert_eq!(parse("7").unwrap(), Value::U64(7));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert!(v.get("d").unwrap().as_object().unwrap().is_empty());
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"\\x\"",
            "\"unterminated",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn u64_accessor_is_exact() {
        assert_eq!(parse("12345").unwrap().as_u64(), Some(12345));
        assert_eq!(parse("12.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(
            parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1f600}")
        );
    }

    #[test]
    fn objects_keep_order_and_repeated_keys() {
        let v = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b").and_then(Value::as_u64), Some(1), "first wins");
        assert_eq!(v.to_string(), r#"{"b":1,"a":2,"b":3}"#);
    }

    #[test]
    fn layouts() {
        let v = Value::object()
            .with("n", 1u64)
            .with("x", 2.0)
            .with("bad", f64::NAN)
            .with("list", Value::Arr(vec![Value::object().with("k", "v")]))
            .with("empty", Value::Arr(Vec::new()));
        assert_eq!(
            v.to_string(),
            r#"{"n":1,"x":2.0,"bad":null,"list":[{"k":"v"}],"empty":[]}"#
        );
        assert_eq!(
            v.pretty(2),
            "{\n  \"n\": 1,\n  \"x\": 2.0,\n  \"bad\": null,\n  \"list\": [\n    {\"k\":\"v\"}\n  ],\n  \"empty\": []\n}"
        );
    }
}
