//! The workspace's one JSON module: a strict parser and a writer.
//!
//! Every document the workspace emits — the metrics, bench, trace,
//! intervals, profile, loops and heartbeat exports and the daemon's
//! wire lines — is written with [`JsonWriter`], and everything that
//! reads JSON (the daemon, the client, the tests) parses with
//! [`Json::parse`]. The workspace is hermetic (no serde), so this module
//! is the single place that knows how strings are escaped, how floats
//! are rounded and how documents are laid out.
//!
//! # Parser
//!
//! [`Json::parse`] accepts the full JSON grammar except `\uXXXX` escapes
//! beyond the Basic Multilingual Plane, which no writer here emits. It
//! refuses arrays and objects nested deeper than 64 levels, so one line
//! of `[`s cannot overflow the stack of the thread parsing it. A
//! non-negative integer literal that fits in `u64` is kept exactly
//! ([`Json::u64`]); every other number is an `f64`. [`member_text`]
//! returns the unparsed text of one top-level member, which is how a
//! client compares a daemon payload byte for byte.
//!
//! # Writer
//!
//! [`JsonWriter`] appends straight into one `String` in one of three
//! [`Layout`]s, the three in use:
//!
//! * [`Layout::Indented`] — documents with one member per line, two
//!   spaces per level. [`JsonWriter::row`] writes a one-line object
//!   inside them (a table row).
//! * [`Layout::Line`] — one line with `", "` and `": "` separators
//!   (JSONL records).
//! * [`Layout::Compact`] — one line with no spaces at all (wire lines).
//!
//! # Examples
//!
//! ```
//! use instrep_core::json::{Json, JsonWriter, Layout};
//!
//! let mut w = JsonWriter::new(Layout::Compact, 64);
//! w.object(|w| {
//!     w.key("id").uint(u64::MAX);
//!     w.key("name").str("a \"b\"");
//!     w.key("rate").f3(0.25);
//! });
//! let line = w.finish();
//! assert_eq!(line, r#"{"id":18446744073709551615,"name":"a \"b\"","rate":0.250}"#);
//! let doc = Json::parse(&line).unwrap();
//! assert_eq!(doc.get("id").and_then(Json::u64), Some(u64::MAX));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so without a bound one line of `[`s far
/// under the daemon's request cap would overflow the thread's stack and
/// abort the whole process. Every document this workspace writes nests
/// only a few levels.
const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal that fits in `u64`, kept exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; duplicates rejected).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a description with a byte offset for the first violation,
    /// including arrays and objects nested deeper than 64 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser { bytes: text.as_bytes(), pos: 0, depth: 0 }.document(Parser::value)
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// The numeric value, if this is a number (integers convert, and
    /// may round past 2^53; use [`Json::u64`] where exactness matters).
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of a non-negative integer literal in `u64` range;
    /// `None` for every other value, including `1.0` and `1e3`.
    pub fn u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The raw text of top-level member `key` of the JSON object `text`:
/// exactly the bytes of its value, unparsed and unnormalized (the last
/// one if the key repeats). `None` when the object has no such member.
///
/// # Errors
///
/// Returns the parse error when `text` is not a JSON object.
///
/// # Examples
///
/// ```
/// use instrep_core::json::member_text;
///
/// let line = r#"{"a":"not {the} \"report\":{","report":{"x":1,"ys":[{"z":2}]}}"#;
/// assert_eq!(member_text(line, "report"), Ok(Some(r#"{"x":1,"ys":[{"z":2}]}"#)));
/// assert_eq!(member_text(line, "missing"), Ok(None));
/// ```
pub fn member_text<'a>(text: &'a str, key: &str) -> Result<Option<&'a str>, String> {
    let mut found = None;
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.document(|p| {
        p.nested(|p| {
            p.members(|p, name| {
                let start = p.pos;
                p.value()?;
                if name == key {
                    found = Some(start..p.pos);
                }
                Ok(())
            })
        })
    })?;
    Ok(found.map(|span| &text[span]))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    /// Parses one whole document with `body`, allowing only whitespace
    /// around it.
    fn document<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.skip_ws();
        let v = body(self)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected byte `{}` at offset {}", c as char, self.pos)),
        }
    }

    /// Parses one array or object a level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut map = BTreeMap::new();
        self.members(|p, key| {
            let val = p.value()?;
            if map.contains_key(&key) {
                return Err(format!("duplicate key `{key}`"));
            }
            map.insert(key, val);
            Ok(())
        })?;
        Ok(Json::Obj(map))
    }

    /// Walks one object's members: for each, reads the key and the `:`
    /// and hands the key to `member`, which must consume the value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            member(p, key)
        })
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    /// Walks `open`, comma-separated elements each consumed by `item`,
    /// and `close`.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected `,` or `{}` at offset {}",
                        char::from(close),
                        self.pos
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().ok_or("bad escape")?;
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control character in string".to_string()),
                _ => {
                    // Consume one UTF-8 scalar (input came from a &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// A number: an unsigned integer literal that fits `u64` stays
    /// exact; anything else (signed, fractional, exponent, or too large)
    /// becomes an `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

/// The whitespace style of a [`JsonWriter`] document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member or item per line, indented two spaces per level of
    /// [`JsonWriter::object`]/[`JsonWriter::array`]; rows written with
    /// [`JsonWriter::row`] stay on one line.
    Indented,
    /// Everything on one line, separated by `", "` and `": "`.
    Line,
    /// Everything on one line, with no whitespace at all.
    Compact,
}

/// Where the next value goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// At the top level: the caller separates documents.
    Top,
    /// Inside a container that stays on one line.
    Inline,
    /// Inside a container that puts each member on its own line.
    Block,
}

/// Appends JSON to one `String` in a fixed [`Layout`]. Containers are
/// opened with a closure that writes their contents, so brackets always
/// balance; inside an object, [`JsonWriter::key`] precedes each value.
/// The writer owns string escaping and float formatting: floats are
/// written with three or six decimals ([`JsonWriter::f3`],
/// [`JsonWriter::f6`]), and NaN and the infinities, which no analysis
/// produces, are written as zero.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    layout: Layout,
    place: Place,
    /// Block containers open around the cursor.
    indent: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
    /// A key was just written; its value needs no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer whose buffer starts with room for `capacity` bytes.
    pub fn new(layout: Layout, capacity: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(capacity),
            layout,
            place: Place::Top,
            indent: 0,
            first: true,
            after_key: false,
        }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Ends a line at the top level: after a whole indented document,
    /// or between JSONL records.
    pub fn newline(&mut self) {
        self.out.push('\n');
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        self.escaped(key);
        self.out.push_str(if self.layout == Layout::Compact { ":" } else { ": " });
        self.after_key = true;
        self
    }

    /// An unsigned integer.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// A boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// A number with three decimals (non-finite values as `0.000`).
    pub fn f3(&mut self, v: f64) -> &mut Self {
        self.separate();
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.out, "{v:.3}");
        self
    }

    /// A number with six decimals (non-finite values as `0.000000`).
    pub fn f6(&mut self, v: f64) -> &mut Self {
        self.separate();
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.out, "{v:.6}");
        self
    }

    /// `thousandths / 1000` as an exact number with three decimals
    /// (e.g. nanoseconds written as microseconds).
    pub fn thousandths(&mut self, thousandths: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{}.{:03}", thousandths / 1000, thousandths % 1000);
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.separate();
        self.escaped(v);
        self
    }

    /// An address as a string of `0x` and eight hex digits.
    pub fn hex32(&mut self, v: u32) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "\"{v:#010x}\"");
        self
    }

    /// Already-rendered JSON, copied verbatim (a payload another writer
    /// produced).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self
    }

    /// An object whose members `body` writes: one per line in an
    /// [`Layout::Indented`] document, on one line otherwise.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'{', b'}', Place::Block, body)
    }

    /// An array whose items `body` writes, laid out like
    /// [`JsonWriter::object`].
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'[', b']', Place::Block, body)
    }

    /// An object kept on one line in every layout (a table row). Arrays
    /// and objects opened inside it still follow the layout.
    pub fn row(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(b'{', b'}', Place::Inline, body)
    }

    fn container(
        &mut self,
        open: u8,
        close: u8,
        place: Place,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.separate();
        self.out.push(char::from(open));
        let place = if self.layout == Layout::Indented { place } else { Place::Inline };
        let outer = std::mem::replace(&mut self.place, place);
        self.first = true;
        if place == Place::Block {
            self.indent += 1;
        }
        body(self);
        if place == Place::Block {
            self.indent -= 1;
            self.line_break();
        }
        self.out.push(char::from(close));
        self.place = outer;
        self.first = false;
        self
    }

    /// Writes what goes before the next key or value.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let first = std::mem::take(&mut self.first);
        match self.place {
            Place::Top => {}
            Place::Inline if first => {}
            Place::Inline => {
                self.out.push_str(if self.layout == Layout::Compact { "," } else { ", " });
            }
            Place::Block => {
                if !first {
                    self.out.push(',');
                }
                self.line_break();
            }
        }
    }

    fn line_break(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    /// Writes `v` quoted, escaping `"`, `\\` and control characters.
    /// Runs of bytes that need no escape are copied whole; every byte
    /// that does is ASCII, so slicing there keeps UTF-8 intact.
    fn escaped(&mut self, v: &str) {
        self.out.push('"');
        let mut start = 0;
        for (i, b) in v.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&v[start..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            start = i + 1;
        }
        self.out.push_str(&v[start..]);
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| r#"{"a":"#.repeat(n) + "1" + &"}".repeat(n);
        assert!(Json::parse(&arrays(MAX_JSON_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_JSON_DEPTH)).is_ok());
        for deep in [arrays(MAX_JSON_DEPTH + 1), objects(MAX_JSON_DEPTH + 1)] {
            let e = Json::parse(&deep).unwrap_err();
            assert!(e.contains(&format!("nesting deeper than {MAX_JSON_DEPTH} levels")), "{e}");
            assert!(member_text(&deep, "a").is_err());
        }
        // Far past the limit and unterminated: refused at the limit, long
        // before the recursion could reach the end of the stack.
        let bomb = "[".repeat(200_000);
        assert!(Json::parse(&bomb).is_err());
        assert!(member_text(&("{\"a\":".to_string() + &bomb), "a").is_err());
    }

    #[test]
    fn strict_grammar() {
        for bad in [
            "",
            "{",
            r#"{"a":1,}"#,
            r#"{"a":1,"a":2}"#,
            "[1 2]",
            "\"raw\ncontrol\"",
            r#""\x""#,
            "tru",
            "1 2",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
        let doc = Json::parse(" {\"s\":\"\\u00e9\\n\\/\",\"n\":null,\"t\":[true,false]} ").unwrap();
        assert_eq!(doc.get("s").and_then(Json::str), Some("é\n/"));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert_eq!(doc.get("t").map(|t| t.items().len()), Some(2));
    }

    #[test]
    fn member_text_is_top_level_and_string_aware() {
        // A string value containing braces and the key name must not
        // confuse the lookup.
        let line = r#"{"a":"not {the} \"report\":{", "report" : {"x":1,"ys":[{"z":2}]} ,"b":3}"#;
        assert_eq!(member_text(line, "report"), Ok(Some(r#"{"x":1,"ys":[{"z":2}]}"#)));
        assert_eq!(member_text(line, "b"), Ok(Some("3")));
        assert_eq!(member_text(line, "missing"), Ok(None));
        // Nested keys are not top-level members.
        assert_eq!(member_text(r#"{"outer":{"report":{"x":1}}}"#, "report"), Ok(None));
        assert!(member_text(r#"{"report":{"x":1}"#, "report").is_err());
        assert!(member_text("[1]", "report").is_err());
    }

    #[test]
    fn writer_escapes_strings_and_clamps_non_finite_floats() {
        let mut w = JsonWriter::new(Layout::Line, 0);
        w.row(|w| {
            w.key("s").str("a\"b\\c\n\r\t\u{1}é");
            w.key("nan").f3(f64::NAN);
            w.key("inf").f6(f64::INFINITY);
            w.key("us").thousandths(1_234_567);
            w.key("pc").hex32(0x40_0010);
        });
        assert_eq!(
            w.finish(),
            r#"{"s": "a\"b\\c\n\r\t\u0001é", "nan": 0.000, "inf": 0.000000, "us": 1234.567, "pc": "0x00400010"}"#
        );
    }
}
