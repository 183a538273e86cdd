//! Byte-stable JSON string quoting, shared by every crate that renders
//! JSON (the verifier's diagnostics and analysis reports, the solve
//! service's responses), and the minimal reader for the JSON this
//! workspace writes itself (search traces, the benchmark baseline).

use core::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short escapes, every
/// other control character below U+0020 becomes `\u00XX`, and all other
/// characters pass through unchanged.
///
/// # Examples
///
/// ```
/// let mut out = String::from("name=");
/// rotsched_dfg::json::push_json_string(&mut out, "a\"b\\c\n\u{1}");
/// assert_eq!(out, r#"name="a\"b\\c\n\u0001""#);
/// ```
pub fn push_json_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
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

/// A parsed JSON value: the subset this workspace's own renderers emit —
/// objects, arrays, escape-free strings, `-?digits(.digits)?` numbers,
/// `true`, `false` and `null`.
#[derive(Debug)]
pub enum Value {
    /// A JSON object, in source order.
    Object(Vec<(String, Value)>),
    /// A JSON array.
    Array(Vec<Value>),
    /// An escape-free string.
    Str(String),
    /// A number, kept as its source text and parsed when read.
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The object's fields, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an object.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(format!("{what} is not an object")),
        }
    }

    /// The array's items, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not an array.
    pub fn as_array(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(format!("{what} is not an array")),
        }
    }

    /// The string, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{what} is not a string")),
        }
    }

    /// The number as an unsigned integer, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number, or is signed, fractional or past
    /// `u64::MAX`.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        self.number(what)?
            .parse()
            .map_err(|_| format!("{what} is not a u64"))
    }

    /// The number as a `u32`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// [`Value::as_u64`]'s errors, and a value past `u32::MAX`.
    pub fn as_u32(&self, what: &str) -> Result<u32, String> {
        u32::try_from(self.as_u64(what)?).map_err(|_| format!("{what} overflows u32"))
    }

    /// The number as an `f64`, or an error naming `what`.
    ///
    /// # Errors
    ///
    /// When the value is not a number.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        self.number(what)?
            .parse()
            .map_err(|_| format!("{what} is not an f64"))
    }

    fn number(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Num(text) => Ok(text),
            _ => Err(format!("{what} is not a number")),
        }
    }

    /// Follows a dotted path of object keys, each optionally indexed
    /// into an array: `batch_throughput.solves_per_sec_p50`,
    /// `results[0].rows_fingerprint`.
    ///
    /// # Errors
    ///
    /// Names `path` and the step that does not resolve.
    ///
    /// # Examples
    ///
    /// ```
    /// let doc = rotsched_dfg::json::parse(r#"{"a": [{"b": -5.4}]}"#).unwrap();
    /// assert_eq!(doc.path("a[0].b").unwrap().as_f64("b"), Ok(-5.4));
    /// assert!(doc.path("a[1].b").is_err());
    /// ```
    pub fn path(&self, path: &str) -> Result<&Value, String> {
        let mut value = self;
        for step in path.split('.') {
            let (key, index) = match step.split_once('[') {
                Some((key, index)) => (key, Some(index)),
                None => (step, None),
            };
            value = get(value.as_object(path)?, key).map_err(|e| format!("{path}: {e}"))?;
            if let Some(index) = index {
                value = index
                    .strip_suffix(']')
                    .and_then(|i| i.parse::<usize>().ok())
                    .and_then(|i| value.as_array(path).ok()?.get(i))
                    .ok_or_else(|| format!("{path}: no item `{key}[{index}`"))?;
            }
        }
        Ok(value)
    }
}

/// The value of `key` among an object's `fields`.
///
/// # Errors
///
/// When no field is named `key`.
pub fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// Parses one JSON document of the subset [`Value`] describes.
///
/// # Errors
///
/// Names the byte offset of the first input outside that subset,
/// trailing input included.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\n' | b'\t' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in [
                    ("null", Value::Null),
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                ] {
                    if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(format!("unexpected input at byte {}", self.pos))
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'"' => {
                    let s = core::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => return Err("escape sequences are not part of the schema".to_string()),
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    /// `-?digits(.digits)?`, kept as text.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        let mut ok = digits(self);
        if ok && self.peek() == Some(b'.') {
            self.pos += 1;
            ok = digits(self);
        }
        if !ok {
            return Err(format!("bad number at byte {start}"));
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        Ok(Value::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value() {
        let doc = parse(r#"{"a": -5.4, "b": 1030.5, "c": true, "d": false, "e": null, "f": [7]}"#)
            .unwrap();
        assert_eq!(doc.path("a").unwrap().as_f64("a"), Ok(-5.4));
        assert_eq!(doc.path("b").unwrap().as_f64("b"), Ok(1030.5));
        assert!(matches!(doc.path("c"), Ok(Value::Bool(true))));
        assert!(matches!(doc.path("d"), Ok(Value::Bool(false))));
        assert!(matches!(doc.path("e"), Ok(Value::Null)));
        assert_eq!(doc.path("f[0]").unwrap().as_u32("f[0]"), Ok(7));
        assert_eq!(doc.path("f[0]").unwrap().as_f64("f[0]"), Ok(7.0));
    }

    #[test]
    fn integer_reads_reject_signs_fractions_and_overflow() {
        let doc = parse(
            r#"{"neg": -5, "frac": 1.5, "big": 4294967296, "huge": 18446744073709551616,
                "max": 18446744073709551615}"#,
        )
        .unwrap();
        for key in ["neg", "frac", "huge"] {
            assert!(doc.path(key).unwrap().as_u64(key).is_err(), "{key}");
        }
        assert_eq!(doc.path("big").unwrap().as_u64("big"), Ok(1 << 32));
        assert_eq!(
            doc.path("big").unwrap().as_u32("big"),
            Err("big overflows u32".to_string())
        );
        assert_eq!(doc.path("max").unwrap().as_u64("max"), Ok(u64::MAX));
    }

    #[test]
    fn wrong_types_and_missing_steps_name_the_path() {
        let doc = parse(r#"{"a": {"b": [1]}, "s": "x"}"#).unwrap();
        assert_eq!(
            doc.path("a.c").unwrap_err(),
            "a.c: missing field `c`".to_string()
        );
        assert!(doc.path("a.b[1]").unwrap_err().starts_with("a.b[1]"));
        assert!(doc.path("s.t").unwrap_err().starts_with("s.t"));
        assert_eq!(
            doc.path("s").unwrap().as_f64("s"),
            Err("s is not a number".to_string())
        );
        assert_eq!(
            doc.path("a.b").unwrap().as_u64("a.b"),
            Err("a.b is not a number".to_string())
        );
    }

    #[test]
    fn malformed_input_is_rejected() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": 1} x",
            "{\"a\" 1}",
            "[1 2]",
            "-",
            "1.",
            ".5",
            "--1",
            "tru",
            "nul",
            "\"a\\nb\"",
            "\"open",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
