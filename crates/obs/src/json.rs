//! A minimal JSON reader/writer shared by every line-oriented format in
//! the workspace: the findings store, the dist wire protocol, and the
//! trace/metrics files this crate emits.
//!
//! The offline build environment has no serde, so everything serializes
//! through this tiny self-contained module. It supports exactly the JSON
//! subset those formats emit: objects, arrays, strings with standard
//! escapes, `u64` integers, finite floats, booleans, and `null`. Unsigned
//! integers are kept distinct from floats so 64-bit counters and seeds
//! round-trip losslessly (an `f64` number type would silently truncate
//! above 2^53).
//!
//! [`parse`] reads untrusted lines (peers, journals), so it refuses what
//! it cannot represent instead of guessing: nesting past [`MAX_DEPTH`],
//! and a number past the `f64` range (`1e999`), which would otherwise
//! parse to an infinity the writer turns into `null`. An integer past the
//! `u64` range parses as the nearest `F64`. A `\u` surrogate pair decodes
//! to its character; a lone surrogate decodes to U+FFFD.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (no decimal point or exponent in the source).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order follows the map, not the source.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer content; integral floats are refused.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric content as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// Array content.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self);
        out
    }
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Json::F64(x) => {
            if x.is_finite() {
                // `{:?}` prints a round-trippable shortest representation.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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
}

/// Deepest array/object nesting [`parse`] accepts. Every format in the
/// workspace nests a handful of levels; the cap keeps a hostile line from
/// recursing the reader off its stack (a stack overflow aborts the
/// process, which no panic guard can catch).
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON value from a full line of text.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        c: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.c.len() {
        return Err(format!("trailing characters at {}", p.i));
    }
    Ok(v)
}

/// A recursive-descent reader over the line's UTF-8 bytes. Every
/// structural character is ASCII, and no byte of a multi-byte UTF-8
/// sequence is, so string contents are copied through byte for byte.
struct Parser<'a> {
    c: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.c.len() && self.c[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.c.get(self.i).copied()
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.peek() == Some(ch) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", char::from(ch), self.i))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for &ch in word.as_bytes() {
            self.expect(ch)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at {}",
                other.map(char::from),
                self.i
            )),
        }
    }

    /// Runs `inner` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at {}", self.i));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}', got {:?}",
                        other.map(char::from)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']', got {:?}",
                        other.map(char::from)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go; it
            // starts and ends on ASCII bytes, so it is whole UTF-8.
            let run = self.c[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(
                std::str::from_utf8(&self.c[self.i..self.i + run]).map_err(|e| e.to_string())?,
            );
            self.i += run;
            let c = self.c[self.i];
            self.i += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err("unterminated escape".into());
            };
            self.i += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                other => return Err(format!("bad escape '\\{}'", char::from(other))),
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(h) = self.peek().and_then(|c| char::from(c).to_digit(16)) else {
                return Err("bad \\u escape".into());
            };
            self.i += 1;
            code = code * 16 + h;
        }
        Ok(code)
    }

    /// The character of a `\u` escape whose `\u` was just read. A high
    /// surrogate directly followed by a `\u` escape of a low surrogate is
    /// one character (`"\ud83d\ude00"` is U+1F600); a lone surrogate
    /// decodes to U+FFFD, and an escape after a lone high surrogate is
    /// read on its own.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.c[self.i..].starts_with(b"\\u") {
            let resume = self.i;
            self.i += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let pair = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(pair).expect("a surrogate pair is a scalar value"));
            }
            self.i = resume;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.i += 1;
            } else if matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                is_float = true;
                self.i += 1;
            } else {
                break;
            }
        }
        // Only ASCII digits and signs were consumed.
        let text = std::str::from_utf8(&self.c[start..self.i]).map_err(|e| e.to_string())?;
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            // The writer writes a non-finite float as `null`, so one
            // parsed here could not round-trip.
            Ok(_) => Err(format!("number out of range '{text}'")),
            Err(e) => Err(format!("bad number '{text}': {e}")),
        }
    }
}

/// Builds an object from key/value pairs (ergonomic constructor).
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = obj(vec![
            ("t", Json::Str("finding".into())),
            ("shard", Json::U64(3)),
            ("vhour", Json::F64(2.5)),
            ("big", Json::U64(u64::MAX)),
            ("sig", Json::Null),
            (
                "theories",
                Json::Arr(vec![Json::Str("ints".into()), Json::Str("sets".into())]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        let line = v.to_line();
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn escapes_control_and_quotes() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let line = v.to_line();
        assert!(!line.contains('\n'), "one record per line: {line}");
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn u64_precision_is_preserved() {
        let n = (1u64 << 53) + 1; // not representable as f64
        let line = Json::U64(n).to_line();
        assert_eq!(parse(&line).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn multibyte_strings_round_trip() {
        let v = obj(vec![("s", Json::Str("λ→\u{1F600} \"q\" ü".into()))]);
        assert_eq!(parse(&v.to_line()).unwrap(), v);
        assert!(
            parse("[\"é").is_err(),
            "unterminated after a multibyte char"
        );
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nesting"));
        // A megabyte of openers: an error, not a stack overflow.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_become_replacements() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#),
            Ok(Json::Str("\u{1F600}".into()))
        );
        assert_eq!(
            parse(r#""\uD83D\uDE00x""#),
            Ok(Json::Str("\u{1F600}x".into()))
        );
        // A lone high surrogate, a lone low one, and a high one followed
        // by an escape that is not a low surrogate (read on its own).
        assert_eq!(parse(r#""\ud83d""#), Ok(Json::Str("\u{fffd}".into())));
        assert_eq!(parse(r#""\ude00a""#), Ok(Json::Str("\u{fffd}a".into())));
        assert_eq!(
            parse(r#""\ud83d\u0041""#),
            Ok(Json::Str("\u{fffd}A".into()))
        );
        assert_eq!(
            parse(r#""\ud83d\ud83d\ude00""#),
            Ok(Json::Str("\u{fffd}\u{1F600}".into()))
        );
        assert!(parse(r#""\ud83d\u00""#).is_err(), "a cut second escape");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
    }
}
