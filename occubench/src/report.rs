//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (`{name: {value, unit}}`), written and read
//! back by the same small module.

use std::fmt::Write;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`, `count`.
    pub unit: String,
}

/// The machine-readable outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every output verified and every record accounted for.
    pub correct: bool,
    /// Operations attempted (records offered, or retrain iterations).
    pub attempted: u64,
    /// Operations that failed: NACKed, shed, lost, mismatched, or over
    /// the latency limit.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
}

impl ResultLine {
    /// Serialises to one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(value),
                quote(&m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Parses a line produced by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = Parser::new(text).document()?;
        let top = value.object()?;
        let field = |key: &str| top.get(key).ok_or_else(|| format!("missing {key:?}"));
        let whole = |key: &str| -> Result<u64, String> {
            let v = field(key)?.number()?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("{key:?} is not a whole number"));
            }
            Ok(v as u64)
        };
        let mut metrics = Vec::new();
        for (name, entry) in field("metrics")?.object()? {
            let entry = entry.object()?;
            metrics.push(Metric {
                name: name.clone(),
                value: entry.get("value").ok_or("metric without value")?.number()?,
                unit: entry.get("unit").ok_or("metric without unit")?.string()?,
            });
        }
        Ok(Self {
            correct: field("correct")?.boolean()?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            metrics,
        })
    }
}

/// Formats a finite `f64` as the shortest JSON number that reads back
/// to the same bits (`{:?}` prints `40000.0` or `1.5e-9`, both valid).
fn number(v: f64) -> String {
    format!("{v:?}")
}

pub(crate) fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value of the result line's shape (objects keep key
/// order; arrays and null never occur in it and are refused).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Number(f64),
    Str(String),
    Object(Vec<(String, Json)>),
}

/// Ordered key lookup over a parsed object.
struct Object<'a>(&'a [(String, Json)]);

impl<'a> Object<'a> {
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl<'a> IntoIterator for Object<'a> {
    type Item = &'a (String, Json);
    type IntoIter = std::slice::Iter<'a, (String, Json)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Json {
    fn object(&self) -> Result<Object<'_>, String> {
        match self {
            Json::Object(o) => Ok(Object(o)),
            other => Err(format!("expected an object, found {other:?}")),
        }
    }
    fn number(&self) -> Result<f64, String> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }
    fn string(&self) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("expected a string, found {other:?}")),
        }
    }
    fn boolean(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected a boolean, found {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn document(&mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at {}", self.pos));
        }
        Ok(v)
    }

    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Json::Number)
                    .map_err(|e| format!("bad number {text:?}: {e}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escaped {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                }
                Some(_) => {
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_bit_exactly() {
        let line = ResultLine {
            correct: true,
            attempted: 400_123,
            failed: 2,
            metrics: vec![
                Metric {
                    name: "rtt_p50_us".into(),
                    value: 1_234.567_890_123_4,
                    unit: "us".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 1.0 / 3.0,
                    unit: "s".into(),
                },
                Metric {
                    name: "tiny".into(),
                    value: 1.5e-9,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "whole".into(),
                    value: 40_000.0,
                    unit: "count".into(),
                },
            ],
        };
        let json = line.to_json();
        assert!(!json.contains('\n'));
        let back = ResultLine::parse(&json).expect("parses");
        assert_eq!(back, line);
        for (a, b) in back.metrics.iter().zip(&line.metrics) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ResultLine::parse("").is_err());
        assert!(ResultLine::parse("{\"correct\": true}").is_err());
        assert!(ResultLine::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(ResultLine::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x"
        )
        .is_err());
        let ok = ResultLine::parse(
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {\"a\\\"b\": {\"value\": -2, \"unit\": \"%\"}}}",
        )
        .expect("parses");
        assert_eq!(ok.metrics[0].name, "a\"b");
        assert_eq!(ok.metrics[0].value, -2.0);
    }
}
