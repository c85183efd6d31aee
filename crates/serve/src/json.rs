//! A minimal JSON value model, parser, and writer.
//!
//! The workspace builds offline with no JSON crate, so the serving layer
//! carries its own hand-rolled JSON — small, strict, and typed: integers
//! stay integers ([`Json::U64`]/[`Json::I64`]) so group keys round-trip
//! exactly into the engine's [`Value`] model; only decimals and
//! exponents become [`Json::F64`].

use sketches_streamdb::Value;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal.
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// A decimal or exponent literal (or an integer too big for 64 bits).
    F64(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

/// Where and why a JSON parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    /// A [`JsonError`] locating the first malformed byte.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up a key on an object (`None` on other kinds or a missing
    /// key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` on other kinds).
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A numeric value as `f64` (`None` on non-numbers).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::U64(v) => Some(*v as f64),
            Self::I64(v) => Some(*v as f64),
            Self::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// A non-negative integer value (`None` on non-integers).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload (`None` on non-strings).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Converts a JSON scalar into an engine [`Value`]. Integers map to
    /// `U64`/`I64` exactly; decimals map to `F64`; strings to `Str`.
    ///
    /// # Errors
    /// A message naming the unsupported kind (`null`, booleans, and
    /// nested containers are not row values).
    pub fn to_value(&self) -> Result<Value, String> {
        match self {
            Self::U64(v) => Ok(Value::U64(*v)),
            Self::I64(v) => Ok(Value::I64(*v)),
            Self::F64(v) => Ok(Value::F64(*v)),
            Self::Str(s) => Ok(Value::Str(s.clone())),
            Self::Null => Err("null is not a row value".to_string()),
            Self::Bool(_) => Err("booleans are not row values".to_string()),
            Self::Arr(_) | Self::Obj(_) => Err("nested containers are not row values".to_string()),
        }
    }

    /// Renders the value as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Self::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Self::F64(v) => out.push_str(&render_f64(*v)),
            Self::Str(s) => out.push_str(&escape(s)),
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Converts an engine [`Value`] into JSON (strings escape, numbers stay
/// typed).
#[must_use]
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::U64(n) => Json::U64(*n),
        Value::I64(n) => Json::I64(*n),
        Value::F64(n) => Json::F64(*n),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

/// Renders an `f64` as a JSON number (`null` for NaN/infinity, which
/// JSON cannot carry).
#[must_use]
pub fn render_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON-escapes and quotes a string — the workspace's one escaper, shared
/// with the metrics and trace renderers in `sketches-obs`.
pub use sketches_obs::json_string as escape;

/// Nesting depth cap: requests are flat (`rows` of scalars), so a deep
/// document is hostile input, not a use case.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document too deeply nested"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume `[`
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]` in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume `{`
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}` in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs are rejected rather than
                            // combined: row values are telemetry keys,
                            // not rich text.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("unpaired surrogate escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // bytes are valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    if let Ok(chunk) = std::str::from_utf8(&rest[..len.min(rest.len())]) {
                        out.push_str(chunk);
                    }
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        if integral {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Length of the UTF-8 sequence starting with `first` (1 for malformed
/// leads, which cannot occur in `&str` input).
fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_with_exact_integer_types() {
        assert_eq!(Json::parse("18446744073709551615").unwrap(), {
            Json::U64(u64::MAX)
        });
        assert_eq!(Json::parse("-42").unwrap(), Json::I64(-42));
        assert_eq!(Json::parse("2.5").unwrap(), Json::F64(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1_000.0));
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".to_string())
        );
    }

    #[test]
    fn containers_parse_and_render() {
        let doc = "{\"rows\":[[1,\"x\",2.5],[2,\"y\",3.5]],\"n\":2}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("n"), Some(&Json::U64(2)));
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\x\"", "nul", "[1]]",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad} gave {err:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().message.contains("nested"));
    }

    #[test]
    fn value_conversion_is_exact() {
        assert_eq!(Json::U64(7).to_value().unwrap(), Value::U64(7));
        assert_eq!(Json::I64(-7).to_value().unwrap(), Value::I64(-7));
        assert_eq!(Json::F64(1.5).to_value().unwrap(), Value::F64(1.5));
        assert_eq!(
            Json::Str("k".into()).to_value().unwrap(),
            Value::Str("k".into())
        );
        assert!(Json::Null.to_value().is_err());
        assert!(Json::Arr(vec![]).to_value().is_err());
        assert_eq!(value_to_json(&Value::U64(9)), Json::U64(9));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(1.5).render(), "1.5");
    }
}
