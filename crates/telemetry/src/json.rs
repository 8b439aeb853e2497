//! The workspace's one JSON codec. Every report writer (campaign and
//! queue JSON, triage JSONL, SARIF, the metrics stream) spells its
//! output with [`Obj`], and every reader of those files
//! (`teapot stats`, `teapot explain`) goes through [`parse`].
//!
//! The builders append straight into one `String`, with no intermediate
//! tree; a nested container is written by a closure, so brackets always
//! balance. Strings are escaped here only: quotes, backslashes and
//! control characters, everything else verbatim. [`parse`] keeps object
//! members in file order and numbers as their source text, and fails
//! with a [`JsonError`] naming the byte offset and what was expected,
//! also on input nested deeper than [`MAX_DEPTH`].

use std::fmt::Write as _;

/// How a container spells its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":2}`.
    Compact,
    /// `{"a": 1, "b": 2}`.
    Spaced,
    /// One member per line, indented two spaces past the enclosing
    /// `Lines` container; `{}` / `[]` when empty.
    Lines,
}

/// A value written in one step: an integer, a boolean, a string, `null`
/// (`None`), or one of [`Hex`], [`Fixed`] and [`Raw`].
pub trait Scalar {
    /// Appends the value's JSON spelling to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! scalar {
    ($($t:ty),* => |$v:ident, $out:ident| $body:expr) => {$(
        impl Scalar for $t {
            fn write_json(&self, $out: &mut String) {
                let $v = self;
                _ = $body;
            }
        }
    )*};
}
scalar!(u8, u32, u64, usize, bool => |v, out| write!(out, "{v}"));
scalar!(str, String => |v, out| escape(out, v));
scalar!(Hex => |v, out| write!(out, "\"{:#x}\"", v.0));
scalar!(Fixed => |v, out| write!(out, "{:.*}", v.1, v.0));
scalar!(Raw<'_> => |v, out| out.push_str(v.0));

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// An address, written as the string `"0x…"`.
pub struct Hex(pub u64);

/// A float with a fixed number of decimals (`Fixed(12.5, 3)` is `12.500`).
pub struct Fixed(pub f64, pub usize);

/// Already-rendered JSON, embedded verbatim.
pub struct Raw<'a>(pub &'a str);

fn escape(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    let special = |&(_, b): &(usize, u8)| b == b'"' || b == b'\\' || b < 0x20;
    for (i, b) in s.bytes().enumerate().filter(special) {
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => _ = write!(out, "\\u{b:04x}"),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A JSON object being written (and, inside [`Obj::list`], an array).
pub struct Obj {
    out: String,
    layout: Layout,
    /// Indent of the line the container opened on.
    indent: usize,
    empty: bool,
}

impl Obj {
    /// Starts an object in a new buffer.
    pub fn new(layout: Layout) -> Obj {
        Obj::append(String::new(), layout)
    }

    /// Starts an object at the end of `out` (one more JSONL line).
    pub fn append(out: String, layout: Layout) -> Obj {
        Obj::open(out, layout, 0, '{')
    }

    fn open(mut out: String, layout: Layout, indent: usize, bracket: char) -> Obj {
        out.push(bracket);
        Obj {
            out,
            layout,
            indent,
            empty: true,
        }
    }

    /// Opens a container nested at the cursor.
    fn child(&mut self, layout: Layout, bracket: char) -> Obj {
        let indent = self.indent + if self.layout == Layout::Lines { 2 } else { 0 };
        Obj::open(std::mem::take(&mut self.out), layout, indent, bracket)
    }

    /// Writes the separator before the next member.
    fn next(&mut self) {
        if !self.empty {
            self.out.push(',');
            if self.layout == Layout::Spaced {
                self.out.push(' ');
            }
        }
        if self.layout == Layout::Lines {
            self.newline(self.indent + 2);
        }
        self.empty = false;
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }

    fn close(mut self, bracket: char) -> String {
        if self.layout == Layout::Lines && !self.empty {
            self.newline(self.indent);
        }
        self.out.push(bracket);
        self.out
    }

    fn key(&mut self, key: &str) {
        self.next();
        escape(&mut self.out, key);
        self.out.push(':');
        if self.layout != Layout::Compact {
            self.out.push(' ');
        }
    }

    /// Adds a member with a scalar value.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Obj {
        self.key(key);
        v.write_json(&mut self.out);
        self
    }

    /// Adds a member whose value is an object written by `f`.
    pub fn obj(&mut self, key: &str, layout: Layout, f: impl FnOnce(&mut Obj)) -> &mut Obj {
        self.key(key);
        let mut inner = self.child(layout, '{');
        f(&mut inner);
        self.out = inner.close('}');
        self
    }

    /// Adds a member whose value is an array in `layout` holding one
    /// object in `item_layout` per item, each written by `f`.
    pub fn list<T>(
        &mut self,
        key: &str,
        layout: Layout,
        item_layout: Layout,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut Obj, T),
    ) -> &mut Obj {
        self.key(key);
        let mut array = self.child(layout, '[');
        for item in items {
            array.next();
            let mut inner = array.child(item_layout, '{');
            f(&mut inner, item);
            array.out = inner.close('}');
        }
        self.out = array.close(']');
        self
    }

    /// Closes the object and returns the buffer.
    pub fn finish(self) -> String {
        self.close('}')
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members, in file order.
    Obj(Vec<(String, Value)>),
}

macro_rules! accessors {
    ($($(#[$doc:meta])* $name:ident: $variant:ident -> $t:ty;)*) => {$(
        $(#[$doc])*
        pub fn $name(&self) -> Option<&$t> {
            match self {
                Value::$variant(v) => Some(v),
                _ => None,
            }
        }
    )*};
}

impl Value {
    accessors! {
        /// The object's members, in file order.
        members: Obj -> [(String, Value)];
        /// The array's elements.
        as_array: Arr -> [Value];
        /// The string's contents.
        as_str: Str -> str;
        /// The number's source text (`12.500` stays `12.500`).
        as_number: Num -> str;
    }

    /// The first member named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let members = self.members()?;
        members.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The number, if it is an integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_number()?.parse().ok()
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first byte that does not fit.
    pub offset: usize,
    /// What the parser expected there.
    pub expected: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.ws();
    match p.pos < text.len() {
        true => Err(p.err("end of input")),
        false => Ok(v),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            expected,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `b` if it is the next byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err("at most 128 levels of nesting"))
            }
            Some(b'{') => self
                .items(b'}', "`,` or `}`", |p| {
                    let key = p.string()?;
                    p.ws();
                    if !p.eat(b':') {
                        return Err(p.err("`:`"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            Some(b'[') => self
                .items(b']', "`,` or `]`", |p| p.value(depth + 1))
                .map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a value")),
        }
    }

    /// The comma-separated items of the container whose opening bracket
    /// is under the cursor, up to its `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        expected: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        self.ws();
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.ws();
            items.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.err(expected));
            }
        }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.err(word));
        }
        self.pos += word.len();
        Ok(v)
    }

    /// Consumes one or more digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        match self.pos > start {
            true => Ok(()),
            false => Err(self.err("a digit")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("a string"));
        }
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control byte: all
            // ASCII, so the slice ends on a char boundary.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            let c = match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                None => return Err(self.err("a closing `\"`")),
                Some(b'\\') => {
                    let esc = self.text.as_bytes().get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode()?,
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("an escape character"));
                        }
                    }
                }
                Some(_) => return Err(self.err("an escaped control character")),
            };
            out.push(c);
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let v = digits
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("four hex digits"))?;
        self.pos += 4;
        Ok(v)
    }

    /// The code point of a `\u` escape (its `\u` consumed), joining a
    /// surrogate pair.
    fn unicode(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
            self.pos += 2;
            let lo = self.hex4()?;
            if (0xdc00..0xe000).contains(&lo) {
                code = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("a code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_spell_members_and_nesting() {
        let mut o = Obj::new(Layout::Lines);
        o.field("a", 1u64)
            .obj("s", Layout::Spaced, |s| {
                s.field("x", true)
                    .list("l", Layout::Lines, Layout::Compact, [0x10], |c, pc| {
                        c.field("k", Hex(pc)).field("n", None::<&str>);
                    });
            })
            .list("e", Layout::Lines, Layout::Lines, [(); 0], |_, ()| {})
            .field("f", Fixed(2.0, 1));
        assert_eq!(
            o.finish(),
            "{\n  \"a\": 1,\n  \"s\": {\"x\": true, \"l\": [\n    \
             {\"k\":\"0x10\",\"n\":null}\n  ]},\n  \"e\": [],\n  \"f\": 2.0\n}"
        );
    }

    #[test]
    fn control_chars_are_u_escaped() {
        let mut a = Obj::new(Layout::Compact);
        a.field("s", "a\u{1}b\t\"\\\u{7f}é");
        assert_eq!(a.finish(), "{\"s\":\"a\\u0001b\\t\\\"\\\\\u{7f}é\"}");
    }

    #[test]
    fn reader_keeps_order_and_unescapes() {
        let v = parse(r#" {"b":[1,-2.5e3,null,true],"a":"xé😀\/"} "#).unwrap();
        let keys: Vec<&str> = v
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(v.get("a").and_then(Value::as_str), Some("xé😀/"));
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Value::Str("😀".into())));
        let b = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b[0].as_u64(), Some(1));
        assert_eq!(b[1].as_number(), Some("-2.5e3"));
        assert_eq!(b[1].as_u64(), None);
    }

    #[test]
    fn reader_errors_name_offset_and_expectation() {
        for (text, offset, expected) in [
            (r#"{"event":"counters","tlb_hits":5,"#, 33, "a string"),
            ("garbage", 0, "a value"),
            (r#"{"a":1}x"#, 7, "end of input"),
            (r#"{"a" 1}"#, 5, "`:`"),
            (r#"["\q"]"#, 3, "an escape character"),
            ("\"a\u{1}\"", 2, "an escaped control character"),
            (r#""\ud800x""#, 7, "a code point"),
            ("01", 1, "end of input"),
            ("-", 1, "a digit"),
            ("\"\\", 2, "an escape character"),
            (r#""\udc00""#, 7, "a code point"),
        ] {
            assert_eq!(parse(text), Err(JsonError { offset, expected }), "{text}");
        }
    }
}
