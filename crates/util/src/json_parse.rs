//! Recursive-descent reader for the canonical JSON dialect — the writer's
//! inverse.
//!
//! [`parse`] walks the input once and builds the [`Json`] tree directly,
//! one call frame per open container. Nesting deeper than a fixed bound
//! (512 levels) is rejected with a [`ParseError`] rather than recursed
//! into, so a hostile document can neither overflow the reader's stack nor
//! the recursive drop of the tree it would build.
//!
//! The grammar is strict RFC 8259 JSON with one deliberate restriction:
//! numbers without `.`/`e` must fit in `i64` (the canonical writer always
//! marks floats with a fraction or exponent, so this is lossless for
//! round-trips). Non-finite floats have no JSON representation; the
//! canonical writer emits `null` for them, so `write → parse` maps
//! `Num(inf)` to `Null` — callers that must preserve infinities (the phase
//! database's infeasible-entry sentinel) encode them at the schema layer.

use crate::json::Json;

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`parse`] accepts. Every document this
/// workspace writes nests fewer than ten levels; the bound keeps both the
/// reader's recursion and the recursive drop of the resulting tree far
/// from the thread's stack limit on hostile input.
const MAX_DEPTH: usize = 512;

/// Recursive-descent reader over a complete input string.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, msg: msg.into() })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    /// Parse one value (after leading whitespace) nested inside `depth`
    /// enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'[') | Some(b'{') if depth == MAX_DEPTH => {
                self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                let mut closed = self.open(b']');
                while !closed {
                    items.push(self.value(depth + 1)?);
                    closed = self.comma_or_close(b']')?;
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                let mut closed = self.open(b'}');
                while !closed {
                    if self.peek() != Some(b'"') {
                        return self.err("expected object key string");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    fields.push((key, self.value(depth + 1)?));
                    closed = self.comma_or_close(b'}')?;
                }
                Ok(Json::Obj(fields))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
        }
    }

    /// Consume a container's opening bracket; true when `close` follows
    /// immediately (an empty container, consumed too).
    fn open(&mut self, close: u8) -> bool {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
        }
        empty
    }

    /// Consume the `,` or `close` after a container element; true when it
    /// was `close`.
    fn comma_or_close(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.err(format!("expected ',' or '{}'", close as char)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero-led digit run (no leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return self.err("expected digit"),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("expected digit after '.'");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("expected exponent digit");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            let x: f64 = text.parse().map_err(|e| ParseError {
                offset: start,
                msg: format!("bad float '{text}': {e}"),
            })?;
            Ok(Json::Num(x))
        } else {
            let i: i64 = text.parse().map_err(|_| ParseError {
                offset: start,
                msg: format!("integer '{text}' out of i64 range"),
            })?;
            Ok(Json::Int(i))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(ParseError {
                        offset: self.pos,
                        msg: "unterminated escape".into(),
                    })?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                self.literal("\\u")
                                    .map_err(|_| self.pair_err("expected low surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.pair_err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        c => {
                            return self.err(format!("invalid escape '\\{}'", c as char));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return self.err("unescaped control character in string");
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. All three are ASCII, so they
                    // never split a multi-byte UTF-8 scalar and the run
                    // ends on a char boundary.
                    let start = self.pos;
                    let run = self.src.as_bytes()[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.src.len() - start);
                    self.pos += run;
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn pair_err(&self, msg: &str) -> ParseError {
        ParseError { offset: self.pos, msg: msg.into() }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return self.err("expected 4 hex digits"),
            };
            self.pos += 1;
            v = v * 16 + d;
        }
        Ok(v)
    }
}

/// Parse a complete JSON document into a [`Json`] tree.
///
/// Round-trip guarantee: for any `Json` built from finite numbers,
/// `parse(&doc.to_string_compact()) == Ok(doc)` and likewise for the pretty
/// encoding (integers stay [`Json::Int`], floats stay [`Json::Num`] with
/// identical bit patterns, object key order is preserved).
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let mut r = Reader { src, pos: 0 };
    r.skip_ws();
    let doc = r.value(0)?;
    r.skip_ws();
    match r.peek() {
        None => Ok(doc),
        Some(_) => r.err("trailing characters after document"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("false"), Ok(Json::Bool(false)));
        assert_eq!(parse("42"), Ok(Json::Int(42)));
        assert_eq!(parse("-7"), Ok(Json::Int(-7)));
        assert_eq!(parse("0.5"), Ok(Json::Num(0.5)));
        assert_eq!(parse("\"hi\""), Ok(Json::Str("hi".into())));
    }

    #[test]
    fn nested_documents_parse() {
        let doc = parse(r#"{"a":[1,2.5,{"b":null}],"c":"x"}"#).unwrap();
        let expected = Json::obj()
            .set(
                "a",
                Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::obj().set("b", Json::Null)]),
            )
            .set("c", "x");
        assert_eq!(doc, expected);
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_at_the_bound_parses_and_deeper_errors() {
        let mut doc = parse(&nested_arrays(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            doc = match doc {
                Json::Arr(mut items) => items.pop().unwrap(),
                other => panic!("expected array, got {other:?}"),
            };
        }
        assert_eq!(doc, Json::Arr(vec![]));

        let err = parse(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.msg, format!("nesting deeper than {MAX_DEPTH} levels"));
        let obj = format!("{}{{}}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(parse(&obj).unwrap_err().offset, MAX_DEPTH);
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(parse(r#""a\"b\\c\nd\u0041""#), Ok(Json::Str("a\"b\\c\ndA".into())));
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(parse(r#""\ud834\udd1e""#), Ok(Json::Str("\u{1D11E}".into())));
        assert_eq!(parse("\"caf\u{e9}\""), Ok(Json::Str("café".into())));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "  ",
            "{",
            "[",
            "}",
            "]",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "{\"a\":1,}",
            "[1,]",
            "tru",
            "nul",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "\"",
            "\"\\q\"",
            "\"\\u12\"",
            "[1]]",
            "{}{}",
            "1 2",
            "+1",
            "NaN",
            "Infinity",
            r#""\ud800""#,
            r#""\ud834\u0041""#,
            "9223372036854775808", // last: i64::MAX + 1
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn i64_bounds_parse() {
        assert_eq!(parse("9223372036854775807"), Ok(Json::Int(i64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
    }

    #[test]
    fn writer_nulls_nonfinite_and_parser_reads_null() {
        let doc = Json::obj().set("inf", f64::INFINITY);
        let text = doc.to_string_compact();
        assert_eq!(parse(&text).unwrap().get("inf"), Some(&Json::Null));
    }
}
