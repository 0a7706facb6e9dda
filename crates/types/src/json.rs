//! A minimal JSON document model, parser and the [`ToJson`] trait.
//!
//! This is the workspace's only serialization path: machine-readable output
//! (`--json` on the harness binaries, sweep reports, bench baselines) and
//! the `mav-server` wire specs all go through this hand-rolled value type.
//! Each crate implements [`ToJson`] for its own types; rendering is
//! deterministic (object keys keep insertion order, floats use Rust's
//! shortest-roundtrip formatting) so equal values always render to
//! identical text. [`Json::parse`] is the matching
//! reader — CI pipes harness `--json` output through it (the `json_check`
//! binary) so a malformed document fails the build instead of a figure
//! script.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite floating-point number (non-finite floats render as `null`).
    Number(f64),
    /// An integer, kept exact (never routed through `f64`, so 64-bit values
    /// such as sweep seeds round-trip losslessly).
    Integer(i128),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds or replaces a field on an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Json {
        match &mut self {
            Json::Object(fields) => {
                let value = value.to_json();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Looks up a field on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite f64, when it is numeric (lossy above 2^53 for
    /// integers; use [`Json::as_i128`] for exact integer access).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            Json::Integer(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The value as an exact integer, when it is one.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Integer(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses a required object field into `T`, prefixing any error with the
    /// field name so nested failures read as a path (`rates: camera_fps: …`).
    ///
    /// # Errors
    ///
    /// Fails when `self` is not an object, the field is missing, or the
    /// field's [`FromJson`] conversion fails.
    pub fn parse_field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(value) => T::from_json(value).map_err(|e| format!("{key}: {e}")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// Parses an optional object field: a missing field or an explicit `null`
    /// both yield `None`, any other value goes through `T`'s [`FromJson`].
    ///
    /// # Errors
    ///
    /// Fails when the field is present, non-null, and fails to convert.
    pub fn parse_opt_field<T: FromJson>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::from_json(value)
                .map(Some)
                .map_err(|e| format!("{key}: {e}")),
        }
    }

    /// Parses an object field, falling back to `default` when the field is
    /// missing or `null` — the workhorse for sparse wire specs where every
    /// omitted knob keeps its configured default.
    ///
    /// # Errors
    ///
    /// Fails when the field is present, non-null, and fails to convert.
    pub fn parse_field_or<T: FromJson>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt_field(key)?.unwrap_or(default))
    }

    /// Rejects unknown object keys so a typoed knob in a wire spec fails
    /// loudly (HTTP 400) instead of silently running with defaults.
    ///
    /// # Errors
    ///
    /// Fails when `self` is not an object or contains a key not in `allowed`.
    pub fn check_fields(&self, allowed: &[&str]) -> Result<(), String> {
        match self {
            Json::Object(fields) => {
                for (key, _) in fields {
                    if !allowed.contains(&key.as_str()) {
                        return Err(format!("unknown field `{key}`"));
                    }
                }
                Ok(())
            }
            _ => Err("expected an object".to_string()),
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document: accepts every rendering the `Display`/pretty
    /// writers produce. Note one asymmetry in the value model rather than
    /// the text: whole-valued floats render without a decimal point
    /// (`Json::Number(8.0)` → `8`), so they parse back as [`Json::Integer`];
    /// the *text* round-trips exactly, the enum variant may not.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset and message for the
    /// first syntax error, trailing garbage, or excessive nesting.
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        format!("{self}")
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    item.write_pretty(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push(']');
            }
            Json::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    out.push_str(&format!("{}: ", Json::String(key.clone())));
                    value.write_pretty(out, depth + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

/// A JSON syntax error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum nesting depth accepted by [`Json::parse`] (keeps the recursive
/// parser clear of the stack guard on adversarial input).
const MAX_PARSE_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => {
                if self.consume_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b't') => {
                if self.consume_literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.consume_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.error("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Json::String),
            Some(b'[') => self.parse_array(depth),
            Some(b'{') => self.parse_object(depth),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            // Combine a surrogate pair when one follows.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if !self.consume_literal("\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(unit)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid unicode escape")),
                            }
                            continue; // parse_hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                // Strict JSON: control characters must be escaped; a raw one
                // means the renderer regressed — exactly what CI's
                // json_check exists to catch.
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8; find the char boundary).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let slice = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(slice);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated unicode escape"));
        }
        // Exactly four ASCII hex digits — from_str_radix alone would also
        // accept a leading `+`, which strict JSON forbids.
        if !self.bytes[self.pos..end]
            .iter()
            .all(|byte| byte.is_ascii_hexdigit())
        {
            return Err(self.error("invalid unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid unicode escape"))?;
        let value =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos = end;
        Ok(value)
    }

    /// Consumes one or more ASCII digits; errors if none are present.
    fn parse_digits(&mut self) -> Result<(), JsonParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// Parses a number under the strict JSON grammar
    /// (`-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`): lenient forms such
    /// as `1.`, `-.5` or `007` are rejected so the CI validator flags a
    /// renderer emitting them before a stricter downstream parser does.
    fn parse_number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone zero, or a non-zero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.parse_digits()?,
            _ => return Err(self.error("expected a digit")),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("leading zeros are not allowed"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.parse_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.parse_digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(value) = text.parse::<i128>() {
                return Ok(Json::Integer(value));
            }
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error(format!("invalid number `{text}`")))
    }
}

fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(x) if x.is_finite() => {
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::Number(_) => f.write_str("null"),
            Json::Integer(x) => write!(f, "{x}"),
            Json::String(s) => escape_into(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

macro_rules! float_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }
    )*};
}
float_to_json!(f32, f64);

macro_rules! integer_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Integer(*self as i128)
            }
        }
    )*};
}
integer_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(value) => value.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for crate::Energy {
    fn to_json(&self) -> Json {
        Json::Number(self.as_joules())
    }
}

impl ToJson for crate::SimDuration {
    fn to_json(&self) -> Json {
        Json::Number(self.as_secs())
    }
}

impl ToJson for crate::Frequency {
    fn to_json(&self) -> Json {
        Json::Number(self.as_ghz())
    }
}

impl ToJson for crate::Vec3 {
    fn to_json(&self) -> Json {
        Json::Array(vec![
            Json::Number(self.x),
            Json::Number(self.y),
            Json::Number(self.z),
        ])
    }
}

impl ToJson for (f64, f64) {
    fn to_json(&self) -> Json {
        Json::Array(vec![Json::Number(self.0), Json::Number(self.1)])
    }
}

/// Types that can reconstruct themselves from a [`Json`] value — the reverse
/// of [`ToJson`], and the foundation of the wire API: every config type that
/// implements both must satisfy `from_json(&to_json(&c)) == Ok(c)`.
///
/// Errors are plain strings; callers layer field names on via
/// [`Json::parse_field`] so a deep failure reads as a path.
pub trait FromJson: Sized {
    /// Reconstructs a value from JSON.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the value has the wrong shape.
    fn from_json(json: &Json) -> Result<Self, String>;
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(json.clone())
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_bool()
            .ok_or_else(|| format!("expected a bool, got {json}"))
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected a string, got {json}"))
    }
}

macro_rules! float_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            /// Rejects values that overflow to infinity (`1e400`): they would
            /// pass range checks and then render as `null`.
            fn from_json(json: &Json) -> Result<Self, String> {
                let value = json
                    .as_f64()
                    .ok_or_else(|| format!("expected a number, got {json}"))?
                    as $t;
                if value.is_finite() {
                    Ok(value)
                } else {
                    Err(format!("number out of range for {}", stringify!($t)))
                }
            }
        }
    )*};
}
float_from_json!(f32, f64);

macro_rules! integer_from_json {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, String> {
                let raw = json
                    .as_i128()
                    .ok_or_else(|| format!("expected an integer, got {json}"))?;
                <$t>::try_from(raw)
                    .map_err(|_| format!("integer {raw} out of range for {}", stringify!($t)))
            }
        }
    )*};
}
integer_from_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, String> {
        let items = json
            .as_array()
            .ok_or_else(|| format!("expected an array, got {json}"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl FromJson for (f64, f64) {
    fn from_json(json: &Json) -> Result<Self, String> {
        match json.as_array() {
            Some([a, b]) => Ok((f64::from_json(a)?, f64::from_json(b)?)),
            _ => Err(format!("expected a two-element array, got {json}")),
        }
    }
}

impl FromJson for crate::Energy {
    fn from_json(json: &Json) -> Result<Self, String> {
        f64::from_json(json).map(crate::Energy::from_joules)
    }
}

impl FromJson for crate::SimDuration {
    fn from_json(json: &Json) -> Result<Self, String> {
        f64::from_json(json).map(crate::SimDuration::from_secs)
    }
}

impl FromJson for crate::Frequency {
    fn from_json(json: &Json) -> Result<Self, String> {
        f64::from_json(json).map(crate::Frequency::from_ghz)
    }
}

impl FromJson for crate::Vec3 {
    fn from_json(json: &Json) -> Result<Self, String> {
        match json.as_array() {
            Some([x, y, z]) => Ok(crate::Vec3::new(
                f64::from_json(x)?,
                f64::from_json(y)?,
                f64::from_json(z)?,
            )),
            _ => Err(format!("expected a three-element array, got {json}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Number(3.0).to_string(), "3");
        assert_eq!(Json::Number(3.5).to_string(), "3.5");
        assert_eq!(Json::Number(f64::NAN).to_string(), "null");
        assert_eq!(Json::String("a\"b".into()).to_string(), "\"a\\\"b\"");
    }

    #[test]
    fn objects_keep_insertion_order_and_replace() {
        let obj = Json::object()
            .field("b", 1u32)
            .field("a", 2u32)
            .field("b", 3u32);
        assert_eq!(obj.to_string(), "{\"b\":3,\"a\":2}");
        assert_eq!(obj.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big: u64 = 18_149_964_264_234_262_961; // > 2^53: would corrupt via f64
        assert_eq!(big.to_json().to_string(), "18149964264234262961");
        assert_eq!(big.to_json().as_i128(), Some(big as i128));
        assert_eq!((-3i64).to_json().to_string(), "-3");
        assert_eq!(7u32.to_json().as_f64(), Some(7.0));
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let huge = Json::parse("1e400").unwrap();
        assert!(f64::from_json(&huge).is_err());
        assert!(f32::from_json(&Json::parse("1e39").unwrap()).is_err());
        assert_eq!(f64::from_json(&Json::parse("1e300").unwrap()), Ok(1e300));
    }

    #[test]
    fn arrays_and_options() {
        let arr = vec![1u32, 2, 3].to_json();
        assert_eq!(arr.to_string(), "[1,2,3]");
        let none: Option<u32> = None;
        assert_eq!(none.to_json(), Json::Null);
        assert_eq!(Some("x".to_string()).to_json().to_string(), "\"x\"");
    }

    #[test]
    fn pretty_rendering_is_valid_and_indented() {
        let doc = Json::object()
            .field("name", "sweep")
            .field("cells", vec![1u32, 2])
            .field("empty", Json::Array(vec![]));
        let pretty = doc.to_string_pretty();
        assert!(pretty.contains("\n  \"name\": \"sweep\""));
        assert!(pretty.contains("\"empty\": []"));
    }

    #[test]
    fn parse_round_trips_compact_and_pretty_renderings() {
        let doc = Json::object()
            .field("figure", "fig08b")
            .field("fast", true)
            .field("seed", 18_149_964_264_234_262_961u64)
            .field("nothing", Json::Null)
            .field("velocity", 7.4532)
            .field(
                "cells",
                vec![
                    Json::object().field("cores", 4u32).field("ghz", 2.2),
                    Json::object().field("cores", 2u32).field("ghz", 0.8),
                ],
            )
            .field("empty_array", Json::Array(vec![]))
            .field("empty_object", Json::object())
            .field("escape\n\"me\"", "tab\there");
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn parse_accepts_standard_json_forms() {
        assert_eq!(Json::parse(" null ").unwrap(), Json::Null);
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Number(-50.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Integer(42));
        assert_eq!(
            Json::parse("\"\\u00e9\\u20ac\"").unwrap(),
            Json::String("é€".to_string())
        );
        // Surrogate pair (🚁, U+1F681).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude81\"").unwrap(),
            Json::String("🚁".to_string())
        );
        // Raw (non-escaped) multi-byte UTF-8 passes through.
        assert_eq!(
            Json::parse("\"héli\"").unwrap(),
            Json::String("héli".to_string())
        );
        assert_eq!(
            Json::parse("[1, [2, [3]]]").unwrap(),
            Json::Array(vec![
                Json::Integer(1),
                Json::Array(vec![Json::Integer(2), Json::Array(vec![Json::Integer(3)])]),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "truefalse",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"\\ud83d\"", // unpaired surrogate
            "1 2",
            "{\"a\":1} extra",
            "--5",
            "[1 2]",
            // Strict number grammar: lenient forms a stricter downstream
            // parser (e.g. Python json.loads) would reject must fail here.
            "1.",
            "-.5",
            ".5",
            "007",
            "01",
            "1e",
            "1e+",
            "-",
            "1.e3",
            "\"raw\ncontrol\"",
            "\"raw\tcontrol\"",
            "\"\\u+041\"",
            "\"\\u00 1\"",
        ] {
            let err = Json::parse(bad).expect_err(&format!("`{bad}` should fail"));
            assert!(!err.message.is_empty());
            assert!(!format!("{err}").is_empty());
        }
    }

    #[test]
    fn parse_depth_limit_holds() {
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // A reasonable depth still parses.
        let fine = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&fine).is_ok());
    }

    #[test]
    fn unit_types_render_in_natural_units() {
        assert_eq!(
            crate::Energy::from_joules(1500.0).to_json().to_string(),
            "1500"
        );
        assert_eq!(
            crate::SimDuration::from_secs(2.5).to_json().to_string(),
            "2.5"
        );
        assert_eq!(
            crate::Vec3::new(1.0, 2.0, 3.0).to_json().to_string(),
            "[1,2,3]"
        );
    }
}
