//! A minimal JSON reader/writer for the wire request/response structs.
//!
//! The workspace is dependency-free by policy (the same reason rand and
//! proptest are vendored stubs), so [`QueryRequest`](crate::QueryRequest)
//! cannot lean on serde. This module implements exactly the JSON subset
//! the wire protocol needs: objects, arrays, strings with `\uXXXX`
//! escapes, finite numbers, booleans, and `null` — strict on structure
//! (trailing garbage and unterminated literals are errors) and tolerant
//! on whitespace.

use cfq_types::{CfqError, Result};
use std::io;

/// Deepest nesting of arrays and objects [`parse`] accepts. The wire
/// protocol needs three levels (envelope, `req`, `support`); the parser is
/// recursive, so without a cap one long line of `[` overflows a worker's
/// stack and aborts the whole server.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order. A repeated key is kept as parsed and
    /// [`Json::get`] returns its first value, so decoders that must not
    /// guess which one the sender meant reject the object through
    /// [`Json::duplicate_key`].
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key of an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The first key an object repeats, if any (`None` for non-objects).
    pub fn duplicate_key(&self) -> Option<&str> {
        let Json::Obj(fields) = self else { return None };
        fields
            .iter()
            .enumerate()
            .find(|(i, (key, _))| fields[..*i].iter().any(|(k, _)| k == key))
            .map(|(_, (key, _))| key.as_str())
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parses one JSON value from `text`, rejecting trailing non-whitespace.
pub fn parse(text: &str) -> Result<Json> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(v)
}

/// `\u0000` … `\u001f`, six bytes each: the escapes of the control
/// characters that have no short form.
const CONTROL_ESCAPES: &str = "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\u0009\\u000a\\u000b\\u000c\\u000d\\u000e\\u000f\
\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f";

/// Feeds `s` as a JSON string literal (with quotes) to `emit`, piece by
/// piece: runs that need no escaping, and the escapes between them.
pub(crate) fn escaped(s: &str, mut emit: impl FnMut(&str) -> io::Result<()>) -> io::Result<()> {
    emit("\"")?;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        // Only ASCII bytes are escaped, so every cut is a char boundary.
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => &CONTROL_ESCAPES[b as usize * 6..][..6],
            _ => continue,
        };
        emit(&s[start..i])?;
        emit(escape)?;
        start = i + 1;
    }
    emit(&s[start..])?;
    emit("\"")
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    // Pushing onto a `String` cannot fail.
    let _ = escaped(s, |piece| {
        out.push_str(piece);
        Ok(())
    });
}

/// The decimal digits of 00..=99, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Writes `n` in decimal at the start of `out`, two digits per table
/// lookup, and returns how many bytes that took (1 to 20). The length is
/// known before the first digit, so the digits go straight to where they
/// belong: the result encoder stores hundreds of thousands of integers a
/// reply.
#[inline]
pub(crate) fn put_u64(out: &mut [u8], mut n: u64) -> usize {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let digits = &mut out[..len];
    let mut at = len;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        digits[0] = b'0' + n as u8;
    }
    len
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CfqError {
        CfqError::Parse(format!("json: {msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object, refusing to go deeper than
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are rejected rather than
                            // combined; the protocol never emits them.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: `self.bytes` came from a `&str`, and `pos`
                    // only ever advances past whole ASCII bytes or by
                    // `len_utf8` of a decoded scalar, so `rest` starts on
                    // a character boundary of valid UTF-8.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        // `peek()` said a byte is there; an empty `rest`
                        // cannot happen, but a protocol error beats a
                        // panic in the request path.
                        None => return Err(self.err("truncated string")),
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        // Only ASCII sign/digit/exponent bytes were consumed, so the
        // slice is valid UTF-8; map the impossible failure to a protocol
        // error rather than panicking the worker.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| CfqError::Parse(format!("json: bad number bytes at {start}")))?;
        let n: f64 = text
            .parse()
            .map_err(|_| CfqError::Parse(format!("json: bad number `{text}` at byte {start}")))?;
        if !n.is_finite() {
            return Err(CfqError::Parse(format!("json: non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_subset() {
        let v = parse(
            r#"{"query":"max(S.Price) <= 30","support":{"frac":0.25},
                "s_universe":[0,1,2],"trim":null,"bypass_cache":false}"#,
        )
        .unwrap();
        assert_eq!(v.get("query").unwrap().as_str().unwrap(), "max(S.Price) <= 30");
        assert_eq!(v.get("support").unwrap().get("frac").unwrap().as_f64(), Some(0.25));
        let u: Vec<u64> =
            v.get("s_universe").unwrap().as_arr().unwrap().iter().map(|j| j.as_u64().unwrap()).collect();
        assert_eq!(u, vec![0, 1, 2]);
        assert!(v.get("trim").unwrap().is_null());
        assert_eq!(v.get("bypass_cache").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\u{1}f — π");
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str().unwrap(), "a\"b\\c\nd\te\u{1}f — π");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "\"unterminated", "01x", "{\"a\":1} trailing",
            "nul", "1e999",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn numbers_and_nesting() {
        let v = parse("[-1.5, 0, 2e3, [true, false], {\"k\": null}]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(-1.5));
        assert_eq!(a[0].as_u64(), None, "negative is not a u64");
        assert_eq!(a[1].as_u64(), Some(0));
        assert_eq!(a[2].as_u64(), Some(2000));
        assert_eq!(a[3].as_arr().unwrap()[0].as_bool(), Some(true));
        assert!(a[4].get("k").unwrap().is_null());
    }

    #[test]
    fn nesting_is_capped_not_recursed_into_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 32 levels"), "{err}");
        // The bomb that used to abort the server: 200,000 open brackets.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(200_000);
            assert!(parse(&bomb).is_err());
        }
        // Depth is the open count at one point, not the total: siblings
        // at the cap still parse.
        let wide = format!("[{}]", vec![at_cap[1..at_cap.len() - 1].to_string(); 3].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn duplicate_keys_are_reported_first_repeat_first() {
        let v = parse(r#"{"a":1,"b":2,"b":3,"a":4}"#).unwrap();
        assert_eq!(v.duplicate_key(), Some("b"));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(2), "get is first-match");
        assert_eq!(parse(r#"{"a":1,"b":{"a":2}}"#).unwrap().duplicate_key(), None);
        assert_eq!(parse("[1]").unwrap().duplicate_key(), None);
    }

    #[test]
    fn integer_writer_boundaries() {
        for n in [
            0u64, 9, 10, 99, 100, 999, 1000, 9_999, 10_000, 12_345, 99_999, 100_000,
            u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX - 1, u64::MAX,
        ] {
            let mut out = [b'x'; 22];
            let len = put_u64(&mut out[1..], n);
            assert_eq!(std::str::from_utf8(&out[..1 + len]).unwrap(), format!("x{n}"));
            assert_eq!(out[1 + len], b'x', "{n}: nothing written past the digits");
        }
    }

    #[test]
    fn byte_and_string_escaping_agree() {
        let all: String = (0u8..0x80).map(|b| b as char).chain("é — π \u{1F600}".chars()).collect();
        let mut text = String::new();
        write_escaped(&mut text, &all);
        let mut bytes = Vec::new();
        escaped(&all, |piece| {
            bytes.extend_from_slice(piece.as_bytes());
            Ok(())
        })
        .unwrap();
        assert_eq!(text.as_bytes(), bytes.as_slice());
        assert!(text.contains("\\u0001") && text.contains("\\u001f") && text.contains("\\n"));
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), all);
    }
}
