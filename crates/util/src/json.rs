//! Minimal JSON document model with a canonical writer and a
//! recursive-descent [`parse`]r (the writer's inverse).
//!
//! Campaign results must serialize byte-identically across runs and thread
//! counts, so the writer is deliberately boring: object keys keep insertion
//! order, floats use Rust's shortest round-trip formatting, non-finite
//! floats become `null`, and indentation is fixed two-space. Because the
//! float encoding is shortest-round-trip, `write → parse` reproduces every
//! finite `f64` bit-exactly — the property the persisted phase database
//! relies on.

use std::fmt::Write as _;

pub use crate::json_parse::{parse, ParseError};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Start an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field to an object (panics on non-objects).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty two-space-indented encoding with a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest round-trip float; exponent form for extreme
                    // magnitudes (Rust's `{}` would print every digit), and
                    // a forced marker so integral values stay recognizably
                    // floating point.
                    let s = if *x != 0.0 && (x.abs() >= 1e15 || x.abs() < 1e-4) {
                        format!("{x:e}")
                    } else {
                        format!("{x}")
                    };
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |o, i| {
                items[i].write(o, indent, level + 1)
            }),
            Json::Obj(fields) => write_seq(out, indent, level, '{', '}', fields.len(), |o, i| {
                let (k, v) = &fields[i];
                write_escaped(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                v.write(o, indent, level + 1);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    n: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if n == 0 {
        out.push(close);
        return;
    }
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (level + 1)));
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i as i64)
    }
}
impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_compact_encoding() {
        let doc = Json::obj()
            .set("name", "fig6")
            .set("cores", 8usize)
            .set("savings", vec![0.5f64, 1.0, 2.25e-3])
            .set("ok", true)
            .set("none", Json::Null);
        assert_eq!(
            doc.to_string_compact(),
            r#"{"name":"fig6","cores":8,"savings":[0.5,1.0,0.00225],"ok":true,"none":null}"#
        );
    }

    #[test]
    fn escaping_and_nonfinite() {
        let doc = Json::obj().set("s", "a\"b\\c\nd").set("inf", f64::INFINITY);
        assert_eq!(doc.to_string_compact(), r#"{"s":"a\"b\\c\nd","inf":null}"#);
    }

    #[test]
    fn pretty_is_stable() {
        let doc = Json::obj().set("a", vec![1i64, 2]).set("b", Json::obj());
        assert_eq!(doc.to_string_pretty(), "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}\n");
    }

    #[test]
    fn floats_round_trip_shortest() {
        assert_eq!(Json::Num(0.1).to_string_compact(), "0.1");
        assert_eq!(Json::Num(3.0).to_string_compact(), "3.0");
        assert_eq!(Json::Num(1e300).to_string_compact(), "1e300");
        assert_eq!(Json::Num(2.5e-7).to_string_compact(), "2.5e-7");
        assert_eq!(Json::Num(0.0).to_string_compact(), "0.0");
        assert_eq!(Json::Num(-1.5e16).to_string_compact(), "-1.5e16");
    }

    #[test]
    fn get_finds_fields() {
        let doc = Json::obj().set("x", 1i64);
        assert_eq!(doc.get("x"), Some(&Json::Int(1)));
        assert_eq!(doc.get("y"), None);
    }
}
