//! The workspace's one JSON value type, writer and reader. The writer
//! is a pure function of the value (insertion-order keys, scalar-only
//! containers on one line), so reports are byte-stable;
//! [`Value::to_line`] writes every container flat, for JSON-lines
//! streams such as the fleet worker's stdout. The reader is
//! strict RFC 8259 plus Python's `NaN`/`Infinity`, which the writer
//! also prints: a benchmark that measured NaN still parses, and the
//! gate can name it.

use std::fmt::{self, Write as _};

/// One JSON value. Non-negative integers are [`Value::UInt`], printed
/// exactly (an `f64` would round counters above 2^53); every other
/// number is a [`Value::Float`], printed with a decimal point. Object
/// keys keep insertion order.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// An object of `(key, value)` pairs, in the given order.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

impl Value {
    /// `x` rounded to `decimals` places: a measured figure reported at
    /// a fixed precision.
    pub fn fixed(x: f64, decimals: i32) -> Value {
        let scale = 10f64.powi(decimals);
        Value::Float((x * scale).round() / scale)
    }

    /// The value of `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Object(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else { return None };
        Some(s)
    }

    /// The integer, when this is a non-negative one.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::UInt(n) = *self else { return None };
        Some(n)
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        let Value::Array(items) = self else {
            return None;
        };
        Some(items)
    }

    /// Any number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// This value on one line: the [`Display`](fmt::Display) layout
    /// with nested containers written flat too. Strings escape their
    /// newlines, so the result never contains one.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Writes the value; `indent` is `None` on one line, else the
    /// indentation of the enclosing container.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', fields.collect())
            }
            Value::Str(s) => return write_str(out, s),
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => return out.push_str(&n.to_string()),
            Value::Float(x) if x.is_nan() => return out.push_str("NaN"),
            Value::Float(x) if x.is_infinite() => {
                return out.push_str(if *x > 0.0 { "Infinity" } else { "-Infinity" })
            }
            // Always with a point, so a float stays a float for readers
            // that tell integers apart (`2.0`, never `2`).
            Value::Float(x) if x.fract() == 0.0 => return out.push_str(&format!("{x}.0")),
            Value::Float(x) => return out.push_str(&x.to_string()),
        };
        let nested = items
            .iter()
            .any(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)));
        let indent = indent.filter(|_| nested);
        let flat = indent.is_none();
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            out.push_str(match (i, flat) {
                (0, true) => "",
                (_, true) => ", ",
                (0, false) => "\n",
                (_, false) => ",\n",
            });
            if let Some(indent) = indent {
                out.push_str(&" ".repeat(indent + 2));
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent.map(|i| i + 2));
        }
        if let (Some(indent), false) = (indent, items.is_empty()) {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        f.write_str(&out)
    }
}

macro_rules! from {
    ($($t:ty => $make:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                $make(v)
            }
        }
    )*};
}

from! {
    u64 => Value::UInt,
    u32 => |n: u32| Value::UInt(n.into()),
    usize => |n: usize| Value::UInt(n as u64),
    i64 => |n: i64| u64::try_from(n).map_or(Value::Float(n as f64), Value::UInt),
    f64 => Value::Float,
    bool => Value::Bool,
    &str => |s: &str| Value::Str(s.to_string()),
    String => Value::Str,
    Vec<Value> => Value::Array,
}

/// Why [`parse`] refused a document: what was wrong at which byte.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Nesting deeper than this is refused rather than risking the stack.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document; anything but whitespace after
/// it is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut r = Reader { text, pos: 0 };
    let value = r.value(0)?;
    r.ws();
    if r.pos < text.len() {
        return Err(r.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += usize::from(b.is_some());
        b
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Skips the bytes `pred` accepts; returns how many.
    fn skip(&mut self, pred: impl Fn(&u8) -> bool) -> usize {
        let n = self.text.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| pred(b))
            .count();
        self.pos += n;
        n
    }

    fn ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn digits(&mut self) -> usize {
        self.skip(u8::is_ascii_digit)
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.ws();
        let rest = &self.text[self.pos..];
        for (word, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
            ("NaN", Value::Float(f64::NAN)),
            ("Infinity", Value::Float(f64::INFINITY)),
            ("-Infinity", Value::Float(f64::NEG_INFINITY)),
        ] {
            if rest.starts_with(word) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        match self.peek() {
            _ if depth > MAX_DEPTH => Err(self.err("nesting too deep")),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b']', |r| r.value(depth + 1).map(|v| items.push(v)))?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                self.seq(b'}', |r| {
                    r.ws();
                    let key = r.string()?;
                    r.ws();
                    if !r.eat(b':') {
                        return Err(r.err("expected ':' after a key"));
                    }
                    fields.push((key, r.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(fields))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    /// The comma-separated elements of a container, after its opener.
    fn seq(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.pos += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            element(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or the closing bracket"));
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.digits();
        let leading_zero = int > 1 && self.text.as_bytes()[self.pos - int] == b'0';
        let frac = self.eat(b'.').then(|| self.digits());
        let exp = matches!(self.peek(), Some(b'e' | b'E')).then(|| {
            self.pos += 1;
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        });
        if int == 0 || leading_zero || frac == Some(0) || exp == Some(0) {
            return Err(ParseError {
                offset: start,
                message: "malformed number",
            });
        }
        let text = &self.text[start..self.pos];
        Ok(text.parse().map_or_else(
            |_| Value::Float(text.parse().unwrap_or(f64::NAN)),
            Value::UInt,
        ))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        // The one-character escapes, and what each stands for.
        let e = self.bump();
        let simple = b"\"\\/bfnrt".iter().position(|&b| Some(b) == e);
        if let Some(c) = simple.and_then(|i| "\"\\/\u{8}\u{c}\n\r\t".chars().nth(i)) {
            return Ok(c);
        }
        if e != Some(b'u') {
            return Err(self.err("unknown escape"));
        }
        let hi = self.hex4()?;
        let code = match hi {
            0xd800..=0xdbff if self.eat(b'\\') && self.eat(b'u') => match self.hex4()? {
                lo @ 0xdc00..=0xdfff => 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00),
                _ => return Err(self.err("unpaired surrogate")),
            },
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        let code = hex
            .bytes()
            .all(|b| b.is_ascii_hexdigit())
            .then(|| u32::from_str_radix(hex, 16).ok())
            .flatten()
            .ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(code)
    }
}
