//! The workspace's JSON: three writing primitives, plus the one reader
//! the workspace uses to read JSON back.
//!
//! The two documents that persist are written by hand, each beside its
//! decoder and from the same member tables, so one table declares each
//! member name for both directions: [`crate::metric::sets_to_json`] for
//! `MetricSet`s and the campaign's result-cache document. Both share
//! [`escape_into`] for strings, [`write_f64`] for numbers (the shortest
//! round-trip text; non-finite floats as `null`) and [`write_key`] for
//! member keys, and [`JsonValue::number`] spells floats through
//! `write_f64` too. Scalars are written in place: no number or escaped
//! string allocates on its own.
//!
//! Reading goes through one pull tokenizer, [`Tokenizer`]: it walks a
//! `&str` and hands out one key, string, number, literal or bracket at a
//! time, borrowing strings from the input unless they hold escapes. It
//! enforces the grammar, the [`MAX_DEPTH`] nesting cap and the trailing
//! garbage check, so everything built on it shares them. Two kinds of
//! reader sit on top:
//!
//! - [`parse`] builds a generic [`JsonValue`] tree — for envelopes,
//!   campaign specs and the daemon's request lines;
//! - typed decoders build records straight from the input, with no tree
//!   in between — [`crate::metric::decode_sets`] for `MetricSet`s, and
//!   on top of it the campaign's result-cache loader and the service
//!   client's `unit` lines. They read members with
//!   [`Tokenizer::next_member`], which predicts the emitter's member
//!   order, and values with the typed reads ([`Tokenizer::string_value`],
//!   [`Tokenizer::f64_value`], [`Tokenizer::u64_value`],
//!   [`Tokenizer::begin_object`], [`Tokenizer::begin_array`]).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Append `s` to `out` as a quoted JSON string. Runs of bytes that need
/// no escape are copied whole; every byte that needs one is ASCII, so
/// each run ends on a char boundary.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (index, &byte) in s.as_bytes().iter().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..index]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => write!(out, "\\u{control:04x}").expect("writing to a String cannot fail"),
        }
        run = index + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `value` as a JSON number: its shortest round-trip text
/// (`2900`, `-0`, `0.0000001`), or `null` when it is not finite, since
/// JSON has no spelling for NaN or an infinity.
pub fn write_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        write!(out, "{value}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Append an object member's key, `"name":`, after `separator`: `{` for
/// an object's first member, `,` for every later one.
pub fn write_key(out: &mut String, separator: char, name: &str) {
    out.push(separator);
    escape_into(out, name);
    out.push(':');
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/// A parsed JSON document.
///
/// Objects preserve key order (a `Vec` of pairs, not a map): the writers
/// emit members in their tables' order and round-trip tests compare
/// re-emitted text byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. The source text is kept verbatim so 64-bit integers
    /// round-trip exactly (an eager `f64` would silently lose precision
    /// past 2^53).
    Number(JsonNumber),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

/// A JSON number, kept as its (validated) source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonNumber(String);

impl JsonNumber {
    /// The number as `f64` (always valid — the parser checked it).
    pub fn as_f64(&self) -> f64 {
        self.0.parse().expect("validated at parse time")
    }

    /// The number as `u64`, exactly — `None` if it is negative,
    /// fractional, in exponent form, or out of range.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.parse().ok()
    }

    /// The number as `i64`, exactly — `None` if it is fractional, in
    /// exponent form, or out of range.
    pub fn as_i64(&self) -> Option<i64> {
        self.0.parse().ok()
    }
}

impl JsonValue {
    /// A number value from an `f64`, spelled as [`write_f64`] writes it:
    /// JSON has no spelling for a non-finite value, so one is `null`.
    pub fn number(value: f64) -> JsonValue {
        let mut text = String::new();
        write_f64(&mut text, value);
        match text.as_str() {
            "null" => JsonValue::Null,
            _ => JsonValue::Number(JsonNumber(text)),
        }
    }

    /// A number value from a `u64`, kept exact (no `f64` rounding).
    pub fn integer(value: u64) -> JsonValue {
        JsonValue::Number(JsonNumber(value.to_string()))
    }

    /// Re-emit this tree as JSON text. Numbers are written with their
    /// (validated) source text, so `parse` → `to_json_string` round-trips
    /// emitter output byte-for-byte — which is what lets wire envelopes
    /// carry embedded documents without perturbing value identity.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    /// Append this tree's JSON text to `out`.
    pub(crate) fn emit_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => out.push_str(&n.0),
            JsonValue::String(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, key);
                    out.push(':');
                    value.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as an exact `u64`, if this is a whole
    /// non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric payload as an exact `i64`, if this is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest nesting of arrays and objects the [`Tokenizer`] accepts. Far
/// above anything the workspace emits; it bounds the tree builder's
/// recursion and the tokenizer's bracket stack, so a hostile line of a
/// million `[` is an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document into a tree (trailing whitespace
/// allowed, trailing garbage rejected, nesting deeper than [`MAX_DEPTH`]
/// rejected).
pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut tokens = Tokenizer::new(text);
    let value = read_value(&mut tokens)?;
    tokens.finish()?;
    Ok(value)
}

/// Read the tokenizer's next value into a [`JsonValue`] tree. Recursion
/// is bounded by the tokenizer's [`MAX_DEPTH`] check.
pub fn read_value(tokens: &mut Tokenizer<'_>) -> Result<JsonValue, JsonParseError> {
    Ok(match tokens.next_value_token()? {
        Token::Null => JsonValue::Null,
        Token::Bool(b) => JsonValue::Bool(b),
        Token::Number(text) => JsonValue::Number(JsonNumber(text.to_string())),
        Token::String(s) => JsonValue::String(s.into_owned()),
        Token::BeginArray => {
            let mut items = Vec::new();
            while tokens.next_item()? {
                items.push(read_value(tokens)?);
            }
            JsonValue::Array(items)
        }
        Token::BeginObject => {
            let mut fields = Vec::new();
            while let Some(key) = tokens.next_key()? {
                let value = read_value(tokens)?;
                fields.push((key.into_owned(), value));
            }
            JsonValue::Object(fields)
        }
        Token::Key(_) | Token::EndArray | Token::EndObject => {
            unreachable!("next_value_token yields only the first token of a value")
        }
    })
}

/// One step of a JSON document, as [`Tokenizer`] yields it. Strings and
/// keys borrow from the input unless they hold escapes; a number is its
/// source text, already checked to parse as `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number's source text.
    Number(&'a str),
    /// A string value.
    String(Cow<'a, str>),
    /// An object member's key; the member's value follows.
    Key(Cow<'a, str>),
    /// `[`.
    BeginArray,
    /// `]`.
    EndArray,
    /// `{`.
    BeginObject,
    /// `}`.
    EndObject,
}

/// A pull tokenizer over one JSON document.
///
/// Each [`next_token`](Tokenizer::next_token) call reads one token and
/// checks it against the grammar: separators, `:` after keys, matching
/// brackets, at most [`MAX_DEPTH`] open containers, and nothing but
/// whitespace after the document. The first violation is an error with
/// the byte offset it was found at; after an error the tokenizer's
/// further output is unspecified. Numbers keep the lax forms Rust's
/// `f64` parser accepts (`+1`, `.5`, `1.`, `01`). In a string, an escaped
/// surrogate pair (`\ud83d\ude00`) is one character and a lone
/// surrogate is U+FFFD.
///
/// ```
/// use oranges_harness::json::{Token, Tokenizer};
///
/// let mut tokens = Tokenizer::new(r#"{"n":[1,true]}"#);
/// let mut seen = Vec::new();
/// while let Some(token) = tokens.next_token().unwrap() {
///     seen.push(token);
/// }
/// assert_eq!(seen.len(), 7);
/// assert_eq!(seen[1], Token::Key("n".into()));
/// assert_eq!(seen[3], Token::Number("1"));
/// ```
///
/// Typed decoders skip the [`Token`]s. [`next_member`](Tokenizer::next_member)
/// reads an object's keys against the member names the emitter writes,
/// in its order, and the typed reads take a value of the type they name
/// or leave it unread. Each keeps the grammar checks, the depth cap and
/// the error messages of the token it stands for:
///
/// ```
/// use oranges_harness::json::{Member, Tokenizer};
///
/// const POINT: [&str; 2] = ["chip", "gflops"];
/// let mut tokens = Tokenizer::new(r#"{"chip":"M1","gflops":2.5e3}"#);
/// assert!(tokens.begin_object().unwrap());
/// let mut next = 0;
/// assert_eq!(tokens.next_member(&POINT, &mut next).unwrap(), Some(Member::Known(0)));
/// assert_eq!(tokens.f64_value().unwrap(), None, "a string is not a number");
/// assert_eq!(tokens.string_value().unwrap().as_deref(), Some("M1"));
/// assert_eq!(tokens.next_member(&POINT, &mut next).unwrap(), Some(Member::Known(1)));
/// assert_eq!(tokens.f64_value().unwrap(), Some((2500.0, "2.5e3")));
/// assert_eq!(tokens.next_member(&POINT, &mut next).unwrap(), None);
/// tokens.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct Tokenizer<'a> {
    text: &'a str,
    pos: usize,
    /// The containers open at `pos`, innermost last: `true` for an
    /// object.
    open: Vec<bool>,
    next: Expect,
}

/// What the grammar allows at the tokenizer's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: the document's, an array item after `,`, or a member's
    /// after `:`.
    Value,
    /// The first item or member of the container just opened, or its
    /// close.
    First,
    /// `,` or the innermost container's close — or, with none open, the
    /// end of the document.
    Separator,
}

/// An object member's key, as [`Tokenizer::next_member`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub enum Member<'a> {
    /// The key at this index of the caller's member names.
    Known(usize),
    /// A key that is not among them.
    Other(Cow<'a, str>),
}

fn error(message: &str, offset: usize) -> JsonParseError {
    JsonParseError {
        message: message.to_string(),
        offset,
    }
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Tokenizer {
            text,
            pos: 0,
            open: Vec::new(),
            next: Expect::Value,
        }
    }

    /// The next token, or `None` once the document is complete and only
    /// whitespace follows it.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, JsonParseError> {
        let token = match (self.next, self.open.last()) {
            (Expect::Value, _) => self.value()?,
            (_, Some(false)) => match self.next_item()? {
                true => self.value()?,
                false => Token::EndArray,
            },
            (_, Some(true)) => match self.next_key()? {
                Some(key) => Token::Key(key),
                None => Token::EndObject,
            },
            (_, None) => {
                self.skip_ws();
                if self.pos != self.text.len() {
                    return Err(error("trailing characters after document", self.pos));
                }
                return Ok(None);
            }
        };
        Ok(Some(token))
    }

    /// Inside an object: the next member's key, or `None` once the
    /// object has closed. The member's value is the next thing to read.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        if !self.at_separator(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(error("expected ':'", self.pos));
        }
        self.pos += 1;
        self.next = Expect::Value;
        Ok(Some(key))
    }

    /// Inside an object: the next member's key, or `None` once the object
    /// has closed. The member's value is the next thing to read.
    ///
    /// `names` lists the members a decoder knows, in the order the
    /// emitter writes them, and `next` is the decoder's place in that
    /// list: the index after the member matched last, 0 before the first.
    /// When the input holds `,"<names[next]>":` (`"<names[next]>":` for an
    /// object's first member), byte for byte as the emitter writes it,
    /// that one comparison reads the key. Anything else (another member,
    /// whitespace, an escape inside the key, the object's close) takes
    /// the general key read of [`next_key`](Tokenizer::next_key) and a
    /// lookup in `names`. Both paths return the same member and leave the
    /// same state behind, so the prediction decides only the cost. The
    /// names must need no escape.
    pub fn next_member(
        &mut self,
        names: &[&str],
        next: &mut usize,
    ) -> Result<Option<Member<'a>>, JsonParseError> {
        if let Some(name) = names.get(*next) {
            if self.predicted(name) {
                *next += 1;
                return Ok(Some(Member::Known(*next - 1)));
            }
        }
        let Some(key) = self.next_key()? else {
            return Ok(None);
        };
        Ok(Some(match names.iter().position(|name| *name == key) {
            Some(index) => {
                *next = index + 1;
                Member::Known(index)
            }
            None => Member::Other(key),
        }))
    }

    /// Read the next member's key up to its `:` if it is `name`, spelled
    /// as the emitter spells it; otherwise read nothing.
    fn predicted(&mut self, name: &str) -> bool {
        debug_assert!(
            !name.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)),
            "member name {name:?} needs an escape"
        );
        let opener: &[u8] = match (self.next, self.open.last()) {
            (Expect::First, Some(true)) => b"\"",
            (Expect::Separator, Some(true)) => b",\"",
            _ => return false,
        };
        let rest = &self.text.as_bytes()[self.pos..];
        let hit = rest.starts_with(opener)
            && rest[opener.len()..].starts_with(name.as_bytes())
            && rest[opener.len() + name.len()..].starts_with(b"\":");
        if hit {
            self.pos += opener.len() + name.len() + 2;
            self.next = Expect::Value;
        }
        hit
    }

    /// Inside an array: `true` when another item follows (it is the
    /// next value to read), `false` once the array has closed.
    pub fn next_item(&mut self) -> Result<bool, JsonParseError> {
        if !self.at_separator(b']')? {
            return Ok(false);
        }
        self.next = Expect::Value;
        Ok(true)
    }

    /// Read the whole next value and return its first token: a scalar
    /// comes back as itself, an array or object as its opening token
    /// with everything up to its close skipped.
    pub fn next_value(&mut self) -> Result<Token<'a>, JsonParseError> {
        let first = self.next_value_token()?;
        if matches!(first, Token::BeginArray | Token::BeginObject) {
            let depth = self.open.len();
            while self.open.len() >= depth {
                self.next_token()?;
            }
        }
        Ok(first)
    }

    /// Skip the next value.
    pub fn skip_value(&mut self) -> Result<(), JsonParseError> {
        self.next_value().map(drop)
    }

    /// Skip the next value and return its source text, for a caller that
    /// can only decode it once later members are known. The text is one
    /// complete value (with any whitespace before it), so a fresh
    /// tokenizer reads it back.
    pub fn raw_value(&mut self) -> Result<&'a str, JsonParseError> {
        let start = self.pos;
        self.skip_value()?;
        Ok(&self.text[start..self.pos])
    }

    /// The next value, if it is a string. Otherwise nothing but
    /// whitespace is read and the result is `None`, so
    /// [`next_value`](Tokenizer::next_value) can still read the value and
    /// say what it is. The other typed reads work the same way.
    pub fn string_value(&mut self) -> Result<Option<Cow<'a, str>>, JsonParseError> {
        if self.value_start() != Some(b'"') {
            return Ok(None);
        }
        self.next = Expect::Separator;
        self.string().map(Some)
    }

    /// The next value, if it is a number: its value and its source text.
    /// The text is parsed once, both to check it and to convert it.
    pub fn f64_value(&mut self) -> Result<Option<(f64, &'a str)>, JsonParseError> {
        match self.value_start() {
            None | Some(b'n' | b't' | b'f' | b'"' | b'[' | b'{') => Ok(None),
            Some(_) => {
                self.next = Expect::Separator;
                self.number().map(Some)
            }
        }
    }

    /// The next value, if it is a number whose text is exactly a `u64`
    /// (any other number is left unread). Text that parses as a `u64`
    /// also parses as an `f64`, so the number needs no other check.
    pub fn u64_value(&mut self) -> Result<Option<u64>, JsonParseError> {
        if !matches!(self.value_start(), Some(b'0'..=b'9' | b'+')) {
            return Ok(None);
        }
        let start = self.pos;
        match self.number_text().parse() {
            Ok(value) => {
                self.next = Expect::Separator;
                Ok(Some(value))
            }
            Err(_) => {
                self.pos = start;
                Ok(None)
            }
        }
    }

    /// Read the next token, as [`next_token`](Tokenizer::next_token)
    /// would: `true` when it opens an object.
    pub fn begin_object(&mut self) -> Result<bool, JsonParseError> {
        self.begin(b'{', Token::BeginObject)
    }

    /// Read the next token, as [`next_token`](Tokenizer::next_token)
    /// would: `true` when it opens an array.
    pub fn begin_array(&mut self) -> Result<bool, JsonParseError> {
        self.begin(b'[', Token::BeginArray)
    }

    /// A typed read of the next value, or `None` after skipping a value
    /// of any other type: for members whose mistyped value is ignored.
    pub fn read_or_skip<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<Option<T>, JsonParseError>,
    ) -> Result<Option<T>, JsonParseError> {
        match read(self)? {
            Some(value) => Ok(Some(value)),
            None => self.skip_value().map(|()| None),
        }
    }

    /// Check that the document is complete and only whitespace follows.
    pub fn finish(&mut self) -> Result<(), JsonParseError> {
        match self.next_token()? {
            None => Ok(()),
            Some(_) => Err(error("document is not complete", self.pos)),
        }
    }

    /// The first token of the next value.
    fn next_value_token(&mut self) -> Result<Token<'a>, JsonParseError> {
        match self.next_token()? {
            Some(Token::Key(_) | Token::EndArray | Token::EndObject) | None => {
                Err(error("expected a value", self.pos))
            }
            Some(first) => Ok(first),
        }
    }

    /// The first byte of the next value, past whitespace, when a value is
    /// what the grammar expects here.
    fn value_start(&mut self) -> Option<u8> {
        if self.next != Expect::Value {
            return None;
        }
        self.skip_ws();
        self.peek()
    }

    fn begin(&mut self, bracket: u8, token: Token<'a>) -> Result<bool, JsonParseError> {
        if self.value_start() == Some(bracket) {
            self.enter(bracket)?;
            return Ok(true);
        }
        Ok(self.next_token()? == Some(token))
    }

    /// Open the container whose bracket is at the position.
    fn enter(&mut self, bracket: u8) -> Result<(), JsonParseError> {
        if self.open.len() == MAX_DEPTH {
            return Err(error(
                &format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.pos += 1;
        self.open.push(bracket == b'{');
        self.next = Expect::First;
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// Between the items or members of the innermost container, whose
    /// closing bracket is `close`: consume the `,` before the next one
    /// and return `true`, or consume `close` and return `false`.
    fn at_separator(&mut self, close: u8) -> Result<bool, JsonParseError> {
        let object = close == b'}';
        let after_first = match (self.next, self.open.last()) {
            (Expect::First, Some(&open)) if open == object => false,
            (Expect::Separator, Some(&open)) if open == object => true,
            _ if object => return Err(error("expected an object member", self.pos)),
            _ => return Err(error("expected an array item", self.pos)),
        };
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.open.pop();
            self.next = Expect::Separator;
            return Ok(false);
        }
        if after_first {
            if self.peek() != Some(b',') {
                let expected = format!("expected ',' or '{}'", close as char);
                return Err(error(&expected, self.pos));
            }
            self.pos += 1;
        }
        Ok(true)
    }

    fn value(&mut self) -> Result<Token<'a>, JsonParseError> {
        self.skip_ws();
        self.next = Expect::Separator;
        Ok(match self.peek() {
            None => return Err(error("unexpected end of input", self.pos)),
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'"') => Token::String(self.string()?),
            Some(bracket @ (b'[' | b'{')) => {
                self.enter(bracket)?;
                if bracket == b'{' {
                    Token::BeginObject
                } else {
                    Token::BeginArray
                }
            }
            Some(_) => Token::Number(self.number()?.1),
        })
    }

    fn literal(&mut self, literal: &str, token: Token<'a>) -> Result<Token<'a>, JsonParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(token)
        } else {
            Err(error(&format!("expected '{literal}'"), self.pos))
        }
    }

    /// A number's value and its source text, checked by that parse.
    fn number(&mut self) -> Result<(f64, &'a str), JsonParseError> {
        let start = self.pos;
        let text = self.number_text();
        match text.parse::<f64>() {
            Ok(value) => Ok((value, text)),
            Err(_) => Err(error(&format!("invalid number '{text}'"), start)),
        }
    }

    /// Read the run of bytes a number may hold: an optional `-`, then
    /// digits, points, exponent marks and signs.
    fn number_text(&mut self) -> &'a str {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && matches!(
                bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// The code unit of the `\u` escape whose `u` is at `at`.
    fn code_unit(&self, at: usize) -> Result<u32, JsonParseError> {
        let hex = self
            .text
            .as_bytes()
            .get(at + 1..at + 5)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| error("truncated \\u escape", at))?;
        u32::from_str_radix(hex, 16).map_err(|_| error("invalid \\u escape", at))
    }

    /// A quoted string, borrowed from the input when it holds no escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        if self.peek() != Some(b'"') {
            return Err(error("expected '\"'", self.pos));
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // `"` and `\` are ASCII, so every span boundary below sits on a
        // char boundary of the input.
        let Some(run) = bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
            self.pos = bytes.len();
            return Err(error("unterminated string", self.pos));
        };
        self.pos += run;
        if bytes[self.pos] == b'"' {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match bytes.get(self.pos) {
                None => return Err(error("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.code_unit(self.pos)?;
                            self.pos += 4;
                            // A high surrogate escape followed by a low
                            // one is one character, as JSON writes those
                            // past U+FFFF. The emitter itself only writes
                            // \u for control chars; a lone surrogate is
                            // replaced rather than rejected.
                            let low = match code {
                                0xd800..=0xdbff if bytes[self.pos + 1..].starts_with(b"\\u") => {
                                    self.code_unit(self.pos + 2)
                                        .ok()
                                        .filter(|low| (0xdc00..=0xdfff).contains(low))
                                }
                                _ => None,
                            };
                            let code = match low {
                                Some(low) => {
                                    self.pos += 6;
                                    0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                                }
                                None => code,
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(error("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let run = self.pos;
                    while self.pos < bytes.len()
                        && bytes[self.pos] != b'"'
                        && bytes[self.pos] != b'\\'
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn string_escaping() {
        let emit = |text: &str| JsonValue::String(text.into()).to_json_string();
        assert_eq!(emit("say \"hi\"\n"), r#""say \"hi\"\n""#);
        assert_eq!(emit("\t"), r#""\t""#);
        assert_eq!(emit("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap().as_f64(), Some(-250.0));
        let array = parse(r#"[1,"two",null]"#).unwrap();
        let items = array.as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_str(), Some("two"));
        assert!(items[2].is_null());
        let object = parse(r#"{"a":1,"b":[true]}"#).unwrap();
        assert_eq!(object.get("a").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(
            object
                .get("b")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        assert!(object.get("missing").is_none());
    }

    #[test]
    fn large_integers_survive_parsing_exactly() {
        let value = parse("12797480707342861577").unwrap();
        assert_eq!(value.as_u64(), Some(12797480707342861577));
        let value = parse("-9223372036854775807").unwrap();
        assert_eq!(value.as_i64(), Some(-9223372036854775807));
        // f64 access still works, merely rounded.
        assert!(value.as_f64().unwrap() < -9.2e18);
        // Fractional numbers refuse exact-integer access.
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(
            parse(r#""say \"hi\"\nA tschüß""#).unwrap(),
            JsonValue::String("say \"hi\"\nA tschüß".into())
        );
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_character() {
        let decoded = |text: &str| parse(text).map(|value| value.as_str().map(str::to_string));
        // How Python's `json.dumps` writes U+1F600 by default, in a value
        // and in a key, and in upper-case hex.
        assert_eq!(decoded(r#""\ud83d\ude00""#), Ok(Some("\u{1f600}".into())));
        assert_eq!(
            decoded(r#""a\uD83D\uDE01b""#),
            Ok(Some("a\u{1f601}b".into()))
        );
        assert_eq!(
            decoded(r#""\ud83d\ud83d\ude00""#),
            Ok(Some("\u{fffd}\u{1f600}".into()))
        );
        let object = parse(r#"{"\ud83d\ude00":1}"#).unwrap();
        assert_eq!(
            object.get("\u{1f600}").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        // Any surrogate that is not the high half of a pair stays U+FFFD,
        // as the per-escape oracle decodes it.
        for (text, expected) in [
            (r#""\ud83d""#, "\u{fffd}"),
            (r#""\ud83dx""#, "\u{fffd}x"),
            (r#""\ude00""#, "\u{fffd}"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
        ] {
            assert_eq!(decoded(text), Ok(Some(expected.into())), "{text}");
            assert_eq!(parse(text), oracle::parse(text), "{text}");
        }
        // A high surrogate before a truncated or invalid escape fails
        // exactly as that escape fails on its own.
        for text in [r#""\ud83d\ude"#, r#""\ud83d\ude0x""#, r#""\ud83d\u"#] {
            let error = parse(text).unwrap_err();
            assert_eq!(Err(error.clone()), oracle::parse(text), "{text}");
            assert_eq!(error.offset, 8, "{text}: {error}");
        }
        // The typed string read shares the decoding.
        let mut tokens = Tokenizer::new(r#""\ud83d\ude00""#);
        assert_eq!(tokens.string_value().unwrap().as_deref(), Some("\u{1f600}"));
    }

    #[test]
    fn non_finite_numbers_are_null() {
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(JsonValue::number(value), JsonValue::Null);
        }
        assert_eq!(JsonValue::number(1.5).to_json_string(), "1.5");
        assert_eq!(JsonValue::number(-0.0).to_json_string(), "-0");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "nul", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        // Exactly at the cap parses; one level deeper is a typed error
        // pointing at the container that crossed it.
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let error = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(error.offset, MAX_DEPTH);
        assert!(error.message.contains("nesting"), "{error}");
        // Hostile depths fail the same way, fast, at the same offset.
        let error = parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(error.offset, MAX_DEPTH);
        let error = parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert_eq!(error.offset, MAX_DEPTH * 5);
        assert!(error.message.contains("nesting"), "{error}");
    }

    #[test]
    fn reemission_round_trips_byte_for_byte() {
        for text in [
            "null",
            "true",
            r#"{"a":1.5,"b":[1,"two",null],"c":{"d":12797480707342861577}}"#,
            r#"["say \"hi\"\n",-2.5e2,0.1]"#,
        ] {
            assert_eq!(parse(text).unwrap().to_json_string(), text);
        }
        assert_eq!(
            JsonValue::integer(u64::MAX).to_json_string(),
            u64::MAX.to_string()
        );
    }

    /// The recursive-descent parser the tokenizer replaced, kept as the
    /// reference `parse` must agree with: same tree, or same error
    /// message at the same offset.
    mod oracle {
        use super::super::{JsonNumber, JsonParseError, JsonValue, MAX_DEPTH};

        pub fn parse(text: &str) -> Result<JsonValue, JsonParseError> {
            let bytes = text.as_bytes();
            let mut pos = 0;
            let value = parse_value(bytes, &mut pos, 0)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(err("trailing characters after document", pos));
            }
            Ok(value)
        }

        fn err(message: &str, offset: usize) -> JsonParseError {
            JsonParseError {
                message: message.to_string(),
                offset,
            }
        }

        fn skip_ws(bytes: &[u8], pos: &mut usize) {
            while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
                *pos += 1;
            }
        }

        fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonParseError> {
            if bytes.get(*pos) == Some(&byte) {
                *pos += 1;
                Ok(())
            } else {
                Err(err(&format!("expected '{}'", byte as char), *pos))
            }
        }

        fn parse_value(
            bytes: &[u8],
            pos: &mut usize,
            depth: usize,
        ) -> Result<JsonValue, JsonParseError> {
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                None => Err(err("unexpected end of input", *pos)),
                Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
                Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
                Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
                Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
                Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(
                    &format!("nesting deeper than {MAX_DEPTH} levels"),
                    *pos,
                )),
                Some(b'[') => parse_array(bytes, pos, depth + 1),
                Some(b'{') => parse_object(bytes, pos, depth + 1),
                Some(_) => parse_number(bytes, pos),
            }
        }

        fn parse_literal(
            bytes: &[u8],
            pos: &mut usize,
            literal: &str,
            value: JsonValue,
        ) -> Result<JsonValue, JsonParseError> {
            if bytes[*pos..].starts_with(literal.as_bytes()) {
                *pos += literal.len();
                Ok(value)
            } else {
                Err(err(&format!("expected '{literal}'"), *pos))
            }
        }

        fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonParseError> {
            let start = *pos;
            if bytes.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
            text.parse::<f64>()
                .map(|_| JsonValue::Number(JsonNumber(text.to_string())))
                .map_err(|_| err(&format!("invalid number '{text}'"), start))
        }

        fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
            expect(bytes, pos, b'"')?;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err(err("unterminated string", *pos)),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = bytes
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| err("truncated \\u escape", *pos))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| err("invalid \\u escape", *pos))?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(err("invalid escape", *pos)),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        let start = *pos;
                        while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                            *pos += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&bytes[start..*pos])
                                .expect("input is a valid &str"),
                        );
                    }
                }
            }
        }

        fn parse_array(
            bytes: &[u8],
            pos: &mut usize,
            depth: usize,
        ) -> Result<JsonValue, JsonParseError> {
            expect(bytes, pos, b'[')?;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(err("expected ',' or ']'", *pos)),
                }
            }
        }

        fn parse_object(
            bytes: &[u8],
            pos: &mut usize,
            depth: usize,
        ) -> Result<JsonValue, JsonParseError> {
            expect(bytes, pos, b'{')?;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(err("expected ',' or '}'", *pos)),
                }
            }
        }
    }

    /// The char-by-char escaper the run-copying one replaced.
    fn escape_oracle(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Number texts: strict JSON, the lax forms Rust's `f64` parser also
    /// takes, an overflow to infinity, and forms neither accepts.
    const NUMBERS: &[&str] = &[
        "0",
        "-0",
        "7",
        "-42",
        "1.5",
        "-2.5e2",
        "1E+3",
        "6.02e23",
        "12797480707342861577",
        "+1",
        ".5",
        "1.",
        "01",
        "-.5",
        "1e999",
        "-1e999",
        "1.e5",
        "-",
        "--1",
        "+-1",
        "1e",
        "1.2.3",
        "e5",
        ".",
        "1e+",
        "0x10",
    ];

    /// String bodies as JSON source: plain and non-ASCII text, every
    /// escape, raw control bytes, and escapes that must fail.
    const STRING_SOURCES: &[&str] = &[
        "",
        "a",
        "M1 GPU",
        "tsch\u{fc}\u{df}",
        "\u{1f600}",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\r",
        "\\t",
        "\\b",
        "\\f",
        "\\u0041",
        "\\u00e9",
        "\\ud83d",
        "\\u+041",
        "\t",
        "\u{1}",
        "\\x",
        "\\u12",
        "\\u00g0",
    ];

    /// Fragments for token soup.
    const FRAGMENTS: &[&str] = &[
        "{", "}", "[", "]", ",", ":", " ", "\n", "\"k\"", "\"v\\n\"", "\"", "\\", "1", "-2.5",
        "+1", ".5", "true", "false", "null", "nul", "tru", "x", "\u{e9}", "{\"a\":", "[[", "]]",
    ];

    /// Characters a mutation writes in place of one input char.
    const SUBSTITUTES: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', ' ', '\n', '0', '9', '-', '+', '.', 'e', 'n', 't',
        'x', '\u{0}', '\u{1f}',
    ];

    fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize].clone()
    }

    fn write_ws(rng: &mut TestRng, out: &mut String) {
        if rng.below(4) == 0 {
            out.push_str(pick(rng, &[" ", "\t", "\n", "\r\n", "  "]));
        }
    }

    /// Write a random document as source text, with random whitespace
    /// between tokens.
    fn write_document(rng: &mut TestRng, out: &mut String, depth: usize) {
        write_ws(rng, out);
        let kind = if depth >= 4 {
            rng.below(4)
        } else {
            rng.below(6)
        };
        match kind {
            0 => out.push_str(pick(rng, &["null", "true", "false"])),
            1 => out.push_str(pick(rng, NUMBERS)),
            2 | 3 => {
                out.push('"');
                for _ in 0..rng.below(3) {
                    out.push_str(pick(rng, STRING_SOURCES));
                }
                out.push('"');
            }
            4 => {
                out.push('[');
                for i in 0..rng.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    write_document(rng, out, depth + 1);
                }
                write_ws(rng, out);
                out.push(']');
            }
            _ => {
                out.push('{');
                for i in 0..rng.below(4) {
                    if i > 0 {
                        out.push(',');
                    }
                    write_ws(rng, out);
                    out.push('"');
                    out.push_str(pick(rng, STRING_SOURCES));
                    out.push('"');
                    write_ws(rng, out);
                    out.push(':');
                    write_document(rng, out, depth + 1);
                }
                write_ws(rng, out);
                out.push('}');
            }
        }
        write_ws(rng, out);
    }

    /// A random tree of valid values, for emitter output.
    fn random_tree(rng: &mut TestRng, depth: usize) -> JsonValue {
        let text = |rng: &mut TestRng| {
            (0..rng.below(4))
                .map(|_| {
                    pick(
                        rng,
                        &['a', '"', '\\', '\n', '\u{1}', '\u{7f}', '\u{e9}', '/'],
                    )
                })
                .collect::<String>()
        };
        match if depth >= 4 {
            rng.below(4)
        } else {
            rng.below(6)
        } {
            0 => pick(rng, &[JsonValue::Null, JsonValue::Bool(true)]),
            1 => loop {
                let number = pick(rng, NUMBERS);
                if number.parse::<f64>().is_ok() {
                    break JsonValue::Number(JsonNumber(number.to_string()));
                }
            },
            2 | 3 => JsonValue::String(text(rng)),
            4 => JsonValue::Array(
                (0..rng.below(4))
                    .map(|_| random_tree(rng, depth + 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..rng.below(4))
                    .map(|_| (text(rng), random_tree(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// Random inputs for the parser: a written document, emitter output
    /// or token soup, sometimes nested near [`MAX_DEPTH`], then usually
    /// truncated or with one char substituted.
    struct Documents;

    impl Strategy for Documents {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            let mut text = match rng.below(3) {
                0 => {
                    let mut out = String::new();
                    write_document(rng, &mut out, 0);
                    out
                }
                1 => random_tree(rng, 0).to_json_string(),
                _ => (0..1 + rng.below(12))
                    .map(|_| pick(rng, FRAGMENTS))
                    .collect(),
            };
            if rng.below(8) == 0 {
                let depth = MAX_DEPTH - 1 + rng.below(3) as usize;
                let (open, close) = pick(rng, &[("[", "]"), ("{\"a\":", "}")]);
                text = format!("{}{text}{}", open.repeat(depth), close.repeat(depth));
            }
            let boundaries: Vec<usize> = text
                .char_indices()
                .map(|(i, _)| i)
                .chain([text.len()])
                .collect();
            match rng.below(4) {
                0 => {}
                1 => text.truncate(pick(rng, &boundaries)),
                _ if text.is_empty() => {}
                _ => {
                    let at = rng.below(boundaries.len() as u64 - 1) as usize;
                    let replacement = pick(rng, SUBSTITUTES).to_string();
                    text.replace_range(boundaries[at]..boundaries[at + 1], &replacement);
                }
            }
            text
        }
    }

    /// Strings over every char class the escaper treats differently.
    struct EscapeInputs;

    impl Strategy for EscapeInputs {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            (0..rng.below(24))
                .map(|_| match rng.below(4) {
                    0 => char::from(rng.below(0x20) as u8),
                    1 => pick(rng, &['"', '\\', '/', '\u{7f}', ' ']),
                    2 => pick(
                        rng,
                        &['\u{e9}', '\u{20ac}', '\u{1f600}', '\u{2028}', '\u{fffd}'],
                    ),
                    _ => char::from(b'a' + rng.below(26) as u8),
                })
                .collect()
        }
    }

    /// Walk a document token by token and skip it whole, as the typed
    /// decoders skip members they do not know.
    fn skim(text: &str) -> Result<(), JsonParseError> {
        let mut tokens = Tokenizer::new(text);
        tokens.skip_value()?;
        tokens.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]
        #[test]
        fn parse_agrees_with_the_recursive_oracle(text in Documents) {
            let reference = oracle::parse(&text);
            prop_assert_eq!(skim(&text), reference.clone().map(drop), "input {:?}", text);
            prop_assert_eq!(parse(&text), reference, "input {:?}", text);
        }

        #[test]
        fn run_escaping_is_byte_identical_to_char_escaping(s in EscapeInputs) {
            let (mut fast, mut reference) = (String::from("x"), String::from("x"));
            escape_into(&mut fast, &s);
            escape_oracle(&mut reference, &s);
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn parse_agrees_with_the_oracle_on_edge_cases() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        let mut inputs: Vec<String> = vec![
            nested("[", "]", MAX_DEPTH),
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(1_000_000),
            "{\"a\":".repeat(200_000),
            String::new(),
            " \n".to_string(),
            "this is not json".to_string(),
            "[1,]".to_string(),
            "{\"a\" 1}".to_string(),
            "{,}".to_string(),
            "[1 2]".to_string(),
            "{\"a\":1 \"b\":2}".to_string(),
            "\"\\u00e9\\ud800\\u+041\"".to_string(),
            "\"\\u12\"".to_string(),
            "\"\\".to_string(),
            "1 2".to_string(),
            "{} x".to_string(),
        ];
        inputs.extend(NUMBERS.iter().map(|n| format!("[{n}]")));
        for text in &inputs {
            assert_eq!(parse(text), oracle::parse(text), "input {text:?}");
            assert_eq!(skim(text), oracle::parse(text).map(drop), "input {text:?}");
        }
        // The lax number forms stay accepted.
        for lax in ["+1", ".5", "1.", "01"] {
            assert!(parse(lax).is_ok(), "{lax} must still parse");
        }
    }

    #[test]
    fn tokens_borrow_unescaped_strings_and_skip_whole_values() {
        let text = r#"{"plain":"abc","escaped":"a\nb","skip":[{"x":[1,2]},3],"n":-1.5e3}"#;
        let mut tokens = Tokenizer::new(text);
        assert_eq!(tokens.next_token().unwrap(), Some(Token::BeginObject));
        assert!(matches!(
            tokens.next_key().unwrap(),
            Some(Cow::Borrowed("plain"))
        ));
        assert!(matches!(
            tokens.next_value().unwrap(),
            Token::String(Cow::Borrowed("abc"))
        ));
        assert_eq!(tokens.next_key().unwrap().as_deref(), Some("escaped"));
        match tokens.next_value().unwrap() {
            Token::String(Cow::Owned(s)) => assert_eq!(s, "a\nb"),
            other => panic!("escaped strings are owned: {other:?}"),
        }
        assert_eq!(tokens.next_key().unwrap().as_deref(), Some("skip"));
        assert_eq!(tokens.raw_value().unwrap(), r#"[{"x":[1,2]},3]"#);
        assert_eq!(tokens.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(tokens.next_value().unwrap(), Token::Number("-1.5e3"));
        assert_eq!(tokens.next_key().unwrap(), None);
        tokens.finish().unwrap();
        assert_eq!(tokens.next_token().unwrap(), None);
    }
}
