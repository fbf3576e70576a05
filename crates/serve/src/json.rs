//! A minimal JSON parser and string escaper for the serve API.
//!
//! The request/response bodies the serving tier exchanges are small and
//! flat, and the build is offline, so this hand-rolls the subset of JSON
//! the API needs: full parsing into a [`Value`] tree (objects, arrays,
//! strings with escapes, f64 numbers, booleans, null) plus an escaping
//! helper for response generation. Not a general-purpose implementation:
//! no streaming, no arbitrary-precision numbers, recursion depth capped.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `text` as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => {
                self.depth += 1;
                let v = self.object();
                self.depth -= 1;
                v
            }
            Some(b'[') => {
                self.depth += 1;
                let v = self.array();
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!(
                "unexpected byte {:?} at offset {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
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
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // A multi-byte character: decode it from the input
                    // `&str` at its own offset (O(1), the input is valid
                    // UTF-8). `get` rejects an offset inside a character.
                    let start = self.pos - 1;
                    let c = self
                        .text
                        .get(start..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    /// The character of a `\\uXXXX` escape whose `\\u` is consumed. A
    /// character outside the BMP arrives as a UTF-16 surrogate pair — a
    /// high surrogate escape immediately followed by a low one; a lone or
    /// reversed surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let code = match self.hex4()? {
            hi @ 0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(format!("unpaired high surrogate at offset {at}"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(format!(
                        "high surrogate at offset {at} not followed by a low surrogate"
                    ));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(format!("unpaired low surrogate at offset {at}")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| format!("bad \\u escape at offset {at}"))
    }

    /// Exactly four hex digits (`u32::from_str_radix` alone would also take
    /// a sign).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &b in hex {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
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
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_query_object() {
        let v = parse(r#"{"node": 3, "attr": "ML", "method": "codl", "deadline_ms": 50}"#).unwrap();
        assert_eq!(v.get("node").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("attr").and_then(Value::as_str), Some("ML"));
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(50));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_batch() {
        let v = parse(r#"{"queries": [{"node": 0}, {"node": 1, "attr": "A"}]}"#).unwrap();
        let qs = v.get("queries").and_then(Value::as_arr).unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[1].get("attr").and_then(Value::as_str), Some("A"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse("nul").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_runaway_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and unicode é";
        let wire = format!("\"{}\"", escape(original));
        let v = parse(&wire).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        let v = parse(r#""\u0041\u00e9\ud83d\ude80\uD83D\uDE80""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé🚀🚀"));
    }

    #[test]
    fn unpaired_or_reversed_surrogates_are_rejected() {
        for bad in [
            r#""\ud83d""#,       // lone high surrogate at the end
            r#""\ud83dx""#,      // high surrogate followed by a character
            r#""\ud83d\n""#,     // ... or by another escape
            r#""\ud83d\u0041""#, // ... or by a non-surrogate \u escape
            r#""\ud83d\ud83d""#, // ... or by another high surrogate
            r#""\ude80""#,       // lone low surrogate
            r#""\ude80\ud83d""#, // reversed pair
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u004""#,
            r#""\u00G1""#,
            r#""\u 041""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn numbers_parse_and_validate() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e2").unwrap().as_u64(), Some(100));
    }
}
