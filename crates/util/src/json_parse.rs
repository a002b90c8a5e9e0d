//! Streaming parser for the canonical JSON dialect — the writer's inverse.
//!
//! [`Parser`] is a pull parser: each [`Parser::next_event`] call consumes
//! exactly one structural element from the input and returns it as a
//! [`ParseEvent`] — no intermediate token list is ever materialized, and
//! consumers that want to skip the tree (e.g. future sharded readers of
//! the persisted phase database) can fold the events directly.
//! [`parse`] folds the event stream into a [`Json`] tree.
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

/// One structural element of a JSON document, in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseEvent {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i64),
    /// A number with fraction or exponent.
    Num(f64),
    /// A string value (not an object key).
    Str(String),
    /// `[`.
    StartArr,
    /// `]`.
    EndArr,
    /// `{`.
    StartObj,
    /// An object key; the next event is its value.
    Key(String),
    /// `}`.
    EndObj,
}

/// What the parser expects next inside the current container.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// A value (top level, after `:`, or after `[`/`,` in an array).
    Value,
    /// The first array element or `]`.
    FirstElem,
    /// `,` or `]`.
    ElemSep,
    /// The first object key or `}`.
    FirstKey,
    /// `,` or `}`.
    KeySep,
    /// A key (after `,` in an object).
    NextKey,
    /// End of document (only trailing whitespace allowed).
    Done,
}

/// Container kind on the nesting stack.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ctx {
    Arr,
    Obj,
}

/// Pull parser over a complete input string.
pub struct Parser<'a> {
    src: &'a str,
    pos: usize,
    stack: Vec<Ctx>,
    mode: Mode,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Parser { src, pos: 0, stack: Vec::new(), mode: Mode::Value }
    }

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

    /// Pop one container and transition to the state after its value.
    fn close(&mut self) {
        self.stack.pop();
        self.mode = match self.stack.last() {
            None => Mode::Done,
            Some(Ctx::Arr) => Mode::ElemSep,
            Some(Ctx::Obj) => Mode::KeySep,
        };
    }

    /// Pull the next event, or `None` at the end of a complete document.
    ///
    /// Trailing non-whitespace input after the document is an error.
    pub fn next_event(&mut self) -> Result<Option<ParseEvent>, ParseError> {
        self.skip_ws();
        match self.mode {
            Mode::Done => match self.peek() {
                None => Ok(None),
                Some(_) => self.err("trailing characters after document"),
            },
            Mode::Value => self.value(),
            Mode::FirstElem => {
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.close();
                    return Ok(Some(ParseEvent::EndArr));
                }
                self.value()
            }
            Mode::ElemSep => match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.mode = Mode::Value;
                    self.skip_ws();
                    self.value()
                }
                Some(b']') => {
                    self.pos += 1;
                    self.close();
                    Ok(Some(ParseEvent::EndArr))
                }
                _ => self.err("expected ',' or ']'"),
            },
            Mode::FirstKey => {
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.close();
                    return Ok(Some(ParseEvent::EndObj));
                }
                self.key()
            }
            Mode::KeySep => match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.mode = Mode::NextKey;
                    self.skip_ws();
                    self.key()
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.close();
                    Ok(Some(ParseEvent::EndObj))
                }
                _ => self.err("expected ',' or '}'"),
            },
            Mode::NextKey => self.key(),
        }
    }

    /// Parse an object key plus its `:`, leaving the parser before the value.
    fn key(&mut self) -> Result<Option<ParseEvent>, ParseError> {
        if self.peek() != Some(b'"') {
            return self.err("expected object key string");
        }
        let k = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.mode = Mode::Value;
        Ok(Some(ParseEvent::Key(k)))
    }

    /// Parse one value's leading token and set the follow-up mode.
    fn value(&mut self) -> Result<Option<ParseEvent>, ParseError> {
        let ev = match self.peek() {
            None => return self.err("unexpected end of input"),
            Some(b'[') => {
                self.pos += 1;
                self.stack.push(Ctx::Arr);
                self.mode = Mode::FirstElem;
                return Ok(Some(ParseEvent::StartArr));
            }
            Some(b'{') => {
                self.pos += 1;
                self.stack.push(Ctx::Obj);
                self.mode = Mode::FirstKey;
                return Ok(Some(ParseEvent::StartObj));
            }
            Some(b'"') => ParseEvent::Str(self.string()?),
            Some(b'n') => {
                self.literal("null")?;
                ParseEvent::Null
            }
            Some(b't') => {
                self.literal("true")?;
                ParseEvent::Bool(true)
            }
            Some(b'f') => {
                self.literal("false")?;
                ParseEvent::Bool(false)
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number()?,
            Some(c) => return self.err(format!("unexpected character '{}'", c as char)),
        };
        // Scalar complete: move to the post-value state of the container.
        self.mode = match self.stack.last() {
            None => Mode::Done,
            Some(Ctx::Arr) => Mode::ElemSep,
            Some(Ctx::Obj) => Mode::KeySep,
        };
        Ok(Some(ev))
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<ParseEvent, ParseError> {
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
            Ok(ParseEvent::Num(x))
        } else {
            let i: i64 = text.parse().map_err(|_| ParseError {
                offset: start,
                msg: format!("integer '{text}' out of i64 range"),
            })?;
            Ok(ParseEvent::Int(i))
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
    let mut p = Parser::new(src);
    // Stack of containers under construction; objects carry pending keys.
    enum Slot {
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>, Option<String>),
    }
    let mut stack: Vec<Slot> = Vec::new();
    let mut root: Option<Json> = None;

    while let Some(ev) = p.next_event()? {
        let completed: Option<Json> = match ev {
            ParseEvent::Null => Some(Json::Null),
            ParseEvent::Bool(b) => Some(Json::Bool(b)),
            ParseEvent::Int(i) => Some(Json::Int(i)),
            ParseEvent::Num(x) => Some(Json::Num(x)),
            ParseEvent::Str(s) => Some(Json::Str(s)),
            ParseEvent::StartArr => {
                stack.push(Slot::Arr(Vec::new()));
                None
            }
            ParseEvent::StartObj => {
                stack.push(Slot::Obj(Vec::new(), None));
                None
            }
            ParseEvent::Key(k) => {
                match stack.last_mut() {
                    Some(Slot::Obj(_, pending)) => *pending = Some(k),
                    _ => unreachable!("parser emits keys only inside objects"),
                }
                None
            }
            ParseEvent::EndArr => match stack.pop() {
                Some(Slot::Arr(items)) => Some(Json::Arr(items)),
                _ => unreachable!("parser balances array events"),
            },
            ParseEvent::EndObj => match stack.pop() {
                Some(Slot::Obj(fields, None)) => Some(Json::Obj(fields)),
                _ => unreachable!("parser balances object events"),
            },
        };
        if let Some(value) = completed {
            match stack.last_mut() {
                None => root = Some(value),
                Some(Slot::Arr(items)) => items.push(value),
                Some(Slot::Obj(fields, pending)) => {
                    let key = pending.take().expect("parser emits Key before each value");
                    fields.push((key, value));
                }
            }
        }
    }
    root.ok_or(ParseError { offset: 0, msg: "empty document".into() })
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

    #[test]
    fn event_stream_is_pullable() {
        let mut p = Parser::new(r#"[1,{"k":true}]"#);
        let mut events = Vec::new();
        while let Some(ev) = p.next_event().unwrap() {
            events.push(ev);
        }
        assert_eq!(
            events,
            vec![
                ParseEvent::StartArr,
                ParseEvent::Int(1),
                ParseEvent::StartObj,
                ParseEvent::Key("k".into()),
                ParseEvent::Bool(true),
                ParseEvent::EndObj,
                ParseEvent::EndArr,
            ]
        );
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
