//! Minimal self-contained JSON for instance persistence.
//!
//! The build environment has no crates.io access, so instead of `serde`
//! this module provides a small [`Json`] value type with a strict parser
//! and compact/pretty writers. The wire shapes match what the previous
//! serde derives produced, so traces archived by earlier builds keep
//! loading:
//!
//! ```json
//! {
//!   "servers": 4,
//!   "cost": { "mu": 1.0, "lambda": 1.0, "upload": null },
//!   "requests": [ { "server": 1, "time": 0.5 } ]
//! }
//! ```
//!
//! `ServerId` serializes transparently as its `u32`, [`Fixed`] as its raw
//! `i64` micro-unit count, and `f64` through shortest-roundtrip formatting
//! (Rust's `{:?}`), so save/load is value-exact for both scalar modes.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::cost::CostModel;
use crate::error::ModelError;
use crate::ids::ServerId;
use crate::instance::Instance;
use crate::request::Request;
use crate::scalar::{Fixed, Scalar};

/// A parsed JSON value.
///
/// Numbers keep their lexical class: integer literals that fit an `i64`
/// become [`Json::Int`] (exact for [`Fixed`] micro-units beyond 2^53),
/// everything else becomes [`Json::Float`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal that fits `i64`.
    Int(i64),
    /// Any other numeric literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (from either lexical class).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer value, if this is an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). Arrays and objects nested deeper than
    /// [`MAX_JSON_DEPTH`] are rejected with [`ModelError::Parse`]: the
    /// parser recurses per level, so an unbounded depth would let one
    /// hostile line overflow the stack.
    pub fn parse(text: &str) -> Result<Json, ModelError> {
        let mut p = Parser::new(text);
        let v = p.value(true)?;
        p.end()?;
        Ok(v)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Appends the compact single-line rendering to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (k, (key, val)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    val.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Appends `f` in shortest-roundtrip form (Rust's `{:?}`), written
/// straight into `out`; integral values get a `.0` suffix so they
/// re-parse as floats, matching serde_json.
pub fn write_f64(out: &mut String, f: f64) {
    debug_assert!(f.is_finite(), "JSON cannot represent non-finite floats");
    let start = out.len();
    let _ = write!(out, "{f:?}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no
/// escape are copied whole; every escaped byte is ASCII, so each cut
/// lands on a char boundary.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// this workspace writes (traces, `serve/1` lines, `BENCH_*.json`) nests
/// fewer than ten levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// One top-level member value as [`scan_object`] hands it out.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonAtom<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal that fits `i64` (the [`Json::Int`] rule).
    Int(i64),
    /// Any other numeric literal.
    Float(f64),
    /// A string, borrowed from the input unless it holds escapes.
    Str(Cow<'a, str>),
    /// An array or object, checked and skipped.
    Nested,
}

impl JsonAtom<'_> {
    /// Numeric value as `f64` (from either lexical class).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonAtom::Int(i) => Some(*i as f64),
            JsonAtom::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer value, if this is an integer literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonAtom::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// Checks `text` exactly as [`Json::parse`] does — same grammar, depth
/// cap, trailing-garbage rule and error text — without building a tree.
/// If the document is an object, each of its members is handed to
/// `member` in order, key decoded; nested arrays and objects are checked
/// and skipped. A document that is not an object reaches `member` never.
/// Members arrive as they are read, so a caller that wants only valid
/// documents must wait for `Ok` before acting on them.
pub fn scan_object<'a>(
    text: &'a str,
    mut member: impl FnMut(&str, JsonAtom<'a>),
) -> Result<(), ModelError> {
    let mut p = Parser::new(text);
    if p.peek() == Some(b'{') {
        p.nested(|p| {
            p.members(|p, key| {
                let value = p.atom()?;
                member(&key, value);
                Ok(())
            })
        })?;
    } else {
        p.value(false)?;
    }
    p.end()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-whitespace byte of `text`.
    fn new(text: &'a str) -> Self {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn err(&self, detail: &str) -> ModelError {
        ModelError::Parse {
            line: 1 + self.bytes()[..self.pos]
                .iter()
                .filter(|&&b| b == b'\n')
                .count(),
            detail: format!("JSON: {detail} (byte {})", self.pos),
        }
    }

    /// Accepts only whitespace after the document.
    fn end(&mut self) -> Result<(), ModelError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ModelError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ModelError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parses one value. With `keep` false the value is only checked:
    /// strings, arrays and objects come back as an empty stand-in
    /// ([`Json::Null`], an empty array or object) and nothing is built.
    fn value(&mut self, keep: bool) -> Result<Json, ModelError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => {
                let s = self.string()?;
                Ok(if keep {
                    Json::Str(s.into_owned())
                } else {
                    Json::Null
                })
            }
            Some(b'[') => self.nested(|p| p.array(keep)),
            Some(b'{') => self.nested(|p| p.object(keep)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// One member value for [`scan_object`].
    fn atom(&mut self) -> Result<JsonAtom<'a>, ModelError> {
        Ok(match self.peek() {
            Some(b'"') => JsonAtom::Str(self.string()?),
            Some(b'[' | b'{') => {
                self.value(false)?;
                JsonAtom::Nested
            }
            _ => match self.value(false)? {
                Json::Bool(b) => JsonAtom::Bool(b),
                Json::Int(i) => JsonAtom::Int(i),
                Json::Float(f) => JsonAtom::Float(f),
                _ => JsonAtom::Null,
            },
        })
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ModelError>,
    ) -> Result<T, ModelError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self, keep: bool) -> Result<Json, ModelError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value(keep)?;
            if keep {
                items.push(item);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self, keep: bool) -> Result<Json, ModelError> {
        let mut fields = Vec::new();
        self.members(|p, key| {
            let val = p.value(keep)?;
            if keep {
                fields.push((key.into_owned(), val));
            }
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// Walks one object, handing each decoded key to `member`, which
    /// reads that member's value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ModelError>,
    ) -> Result<(), ModelError> {
        self.eat(b'{', "expected {")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected : after object key")?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }

    /// Reads one string literal, borrowed from the input unless it holds
    /// escapes. The bytes up to the next `"` or `\` are taken as one run:
    /// both are ASCII, so the cut lands on a char boundary, and the scan
    /// stays linear in the string's length.
    fn string(&mut self) -> Result<Cow<'a, str>, ModelError> {
        self.eat(b'"', "expected string")?;
        let mut decoded: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(run) = self.bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += run;
            let plain = &self.text[start..self.pos];
            if self.bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(plain);
            self.pos += 1;
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
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
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogates are not needed by the writer; map
                    // unpaired ones to the replacement character.
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ModelError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut lexical_int = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    lexical_int = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Every byte taken is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        if lexical_int {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Scalars with a canonical JSON representation.
///
/// `f64` uses shortest-roundtrip floats; [`Fixed`] uses its raw micro-unit
/// `i64` (the shape the old `#[serde(transparent)]` derive produced), so
/// both modes round-trip value-exactly.
pub trait JsonScalar: Scalar {
    /// This scalar as a JSON value.
    fn to_json(self) -> Json;

    /// Reads a scalar back from its JSON form.
    fn from_json(v: &Json) -> Option<Self>;
}

impl JsonScalar for f64 {
    fn to_json(self) -> Json {
        Json::Float(self)
    }

    fn from_json(v: &Json) -> Option<f64> {
        v.as_f64()
    }
}

impl JsonScalar for Fixed {
    fn to_json(self) -> Json {
        Json::Int(self.micros())
    }

    fn from_json(v: &Json) -> Option<Fixed> {
        v.as_i64().map(Fixed::from_micros)
    }
}

impl<S: JsonScalar> Instance<S> {
    /// This instance as a JSON tree (the archived-trace wire shape).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("servers".into(), Json::Int(self.servers() as i64)),
            (
                "cost".into(),
                Json::Obj(vec![
                    ("mu".into(), self.cost().mu.to_json()),
                    ("lambda".into(), self.cost().lambda.to_json()),
                    (
                        "upload".into(),
                        match self.cost().upload {
                            Some(b) => b.to_json(),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            (
                "requests".into(),
                Json::Arr(
                    self.requests()
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("server".into(), Json::Int(r.server.0 as i64)),
                                ("time".into(), r.time.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Compact JSON text form.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Pretty JSON text form.
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Rebuilds (and re-validates) an instance from a JSON tree.
    pub fn from_json(v: &Json) -> Result<Self, ModelError> {
        let field_err = |what: &str| ModelError::Parse {
            line: 1,
            detail: format!("JSON instance: missing or malformed `{what}`"),
        };
        let servers = v
            .get("servers")
            .and_then(Json::as_i64)
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| field_err("servers"))?;
        let cost = v.get("cost").ok_or_else(|| field_err("cost"))?;
        let mu = cost
            .get("mu")
            .and_then(S::from_json)
            .ok_or_else(|| field_err("cost.mu"))?;
        let lambda = cost
            .get("lambda")
            .and_then(S::from_json)
            .ok_or_else(|| field_err("cost.lambda"))?;
        let upload = match cost.get("upload") {
            None | Some(Json::Null) => None,
            Some(b) => Some(S::from_json(b).ok_or_else(|| field_err("cost.upload"))?),
        };
        let mut model = CostModel::new(mu, lambda)?;
        model.upload = upload;
        let requests = v
            .get("requests")
            .and_then(Json::as_arr)
            .ok_or_else(|| field_err("requests"))?
            .iter()
            .map(|r| {
                let server = r
                    .get("server")
                    .and_then(Json::as_i64)
                    .and_then(|s| u32::try_from(s).ok())
                    .ok_or_else(|| field_err("requests[].server"))?;
                let time = r
                    .get("time")
                    .and_then(S::from_json)
                    .ok_or_else(|| field_err("requests[].time"))?;
                Ok(Request {
                    server: ServerId(server),
                    time,
                })
            })
            .collect::<Result<Vec<_>, ModelError>>()?;
        Instance::new(servers, model, requests)
    }

    /// Parses an instance from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ModelError> {
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v = Json::parse(r#" {"a": [1, -2.5, null, true, "x\n\"y\""], "b": {}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Float(-2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[4],
            Json::Str("x\n\"y\"".into())
        );
        assert_eq!(v.get("b").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nulll",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let at_cap = "[".repeat(MAX_JSON_DEPTH) + &"]".repeat(MAX_JSON_DEPTH);
        assert!(Json::parse(&at_cap).is_ok());
        let over = "[".repeat(MAX_JSON_DEPTH + 1) + &"]".repeat(MAX_JSON_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Deep enough to overflow the stack of an uncapped recursive
        // parser; the cap rejects it after 128 levels.
        let hostile = "{\"a\":".repeat(300_000) + &"[".repeat(300_000);
        assert!(Json::parse(&hostile).is_err());
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A scan that re-checks the rest of the input at every character
        // is quadratic: tens of seconds for one 1 MiB string.
        let body = "a".repeat(1 << 20);
        let t0 = std::time::Instant::now();
        assert_eq!(
            Json::parse(&format!("\"{body}\"")).unwrap(),
            Json::Str(body)
        );
        // The same with escapes and multibyte characters throughout.
        let mixed = "ab\\n✓".repeat(1 << 18);
        let parsed = Json::parse(&format!("\"{mixed}\"")).unwrap();
        assert_eq!(parsed, Json::Str("ab\n✓".repeat(1 << 18)));
        let elapsed = t0.elapsed();
        assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
    }

    #[test]
    fn scan_object_checks_like_parse_and_hands_over_members() {
        for text in [
            r#" {"a": [1, {"b": null}], "k\u0065y": "v\n", "s": "plain", "i": -7, "f": 2.5, "n": null, "t": true} "#,
            r#"{"a":1,"a":2}"#,
            "{}",
            "[1,2]",
            "\"top\"",
            "{\"a\":1} x",
            "{\"a\":}",
            "{\"a\":\"\\q\"}",
            "{\"a\" 1}",
            "",
        ] {
            let mut seen = Vec::new();
            let scanned = scan_object(text, |k, v| seen.push((k.to_string(), v)));
            match Json::parse(text) {
                Err(e) => assert_eq!(scanned.unwrap_err().to_string(), e.to_string(), "{text}"),
                Ok(doc) => {
                    assert!(scanned.is_ok(), "{text}");
                    let fields = match doc {
                        Json::Obj(fields) => fields,
                        _ => Vec::new(),
                    };
                    assert_eq!(seen.len(), fields.len(), "{text}");
                    for ((key, atom), (k, v)) in seen.iter().zip(&fields) {
                        assert_eq!(key, k);
                        let same = match (atom, v) {
                            (JsonAtom::Null, Json::Null) => true,
                            (JsonAtom::Bool(a), Json::Bool(b)) => a == b,
                            (JsonAtom::Int(a), Json::Int(b)) => a == b,
                            (JsonAtom::Float(a), Json::Float(b)) => a == b,
                            (JsonAtom::Str(a), Json::Str(b)) => a == b,
                            (JsonAtom::Nested, Json::Arr(_) | Json::Obj(_)) => true,
                            _ => false,
                        };
                        assert!(same, "{text}: {atom:?} vs {v:?}");
                    }
                }
            }
        }
        // A string without escapes is borrowed from the input.
        scan_object(r#"{"op":"req"}"#, |_, v| {
            assert!(matches!(v, JsonAtom::Str(Cow::Borrowed("req"))));
        })
        .unwrap();
        let deep = "{\"a\":".repeat(MAX_JSON_DEPTH + 1) + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert_eq!(
            scan_object(&deep, |_, _| {}).unwrap_err().to_string(),
            Json::parse(&deep).unwrap_err().to_string()
        );
    }

    #[test]
    fn writer_parser_roundtrip_including_pretty() {
        let v = Json::parse(r#"{"k":[0.1,9007199254740993,"s",null,false]}"#).unwrap();
        // i64 beyond 2^53 survives exactly because it stays lexically int.
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1],
            Json::Int(9007199254740993)
        );
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn floats_render_shortest_roundtrip_with_float_marker() {
        assert_eq!(Json::Float(1.0).to_string_compact(), "1.0");
        assert_eq!(Json::Float(0.1).to_string_compact(), "0.1");
        let tricky = 0.1 + 0.2;
        let text = Json::Float(tricky).to_string_compact();
        assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), tricky);
    }

    #[test]
    fn instance_roundtrips_in_both_scalar_modes() {
        let inst = Instance::<f64>::from_compact("m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4")
            .unwrap();
        let back = Instance::<f64>::from_json_str(&inst.to_json_string()).unwrap();
        assert_eq!(inst, back);
        let fixed: Instance<Fixed> = inst.map_scalar();
        let back = Instance::<Fixed>::from_json_str(&fixed.to_json_string_pretty()).unwrap();
        assert_eq!(fixed, back);
    }

    #[test]
    fn instance_wire_shape_matches_the_archived_format() {
        let inst = Instance::<f64>::from_compact("m=2 mu=1 lambda=2.5 | s2@0.5").unwrap();
        assert_eq!(
            inst.to_json_string(),
            r#"{"servers":2,"cost":{"mu":1.0,"lambda":2.5,"upload":null},"requests":[{"server":1,"time":0.5}]}"#
        );
    }

    #[test]
    fn instance_from_json_revalidates() {
        let err = Instance::<f64>::from_json_str(
            r#"{"servers":1,"cost":{"mu":1.0,"lambda":1.0,"upload":null},
                "requests":[{"server":5,"time":0.5}]}"#,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::ServerOutOfRange { .. }));
        let err = Instance::<f64>::from_json_str(r#"{"cost":{},"requests":[]}"#).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }));
    }
}
