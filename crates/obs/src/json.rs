//! A minimal JSON writer and parser — just enough for trace snapshots
//! and the bench-comparison tooling.
//!
//! The workspace is intentionally free of external crates (the build must
//! work with no registry access), so trace export uses this hand-rolled
//! emitter instead of serde, and `parma bench diff` uses the small
//! recursive-descent [`parse`] below instead of a JSON crate.

use std::fmt::Write;

/// Escapes and quotes a string per RFC 8259.
pub fn string(out: &mut String, s: &str) {
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

/// Writes an f64. JSON has no NaN/Infinity; they are emitted as `null`
/// so the document stays parseable (a NaN residual is itself a signal the
/// trace consumer should see, and `null` is unambiguous).
pub fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, keeping the token a JSON number.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Incremental object writer handling comma placement.
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Object<'a> {
    /// Opens a `{`.
    pub fn begin(out: &'a mut String) -> Self {
        out.push('{');
        Object { out, first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        string(self.out, k);
        self.out.push(':');
    }

    /// Writes `"k": "v"`.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        string(self.out, v);
    }

    /// Writes `"k": v` for a float.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        number(self.out, v);
    }

    /// Writes `"k": v` for an integer.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        let _ = write!(self.out, "{v}");
    }

    /// Writes `"k": <raw>` where `raw` is already-valid JSON.
    pub fn field_raw(&mut self, k: &str, raw: &str) {
        self.key(k);
        self.out.push_str(raw);
    }

    /// Closes the `}`.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// A parsed JSON value. Object keys keep document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64 — adequate for bench data).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            token
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number '{token}' at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
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
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through unchanged.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(s(|o| string(o, "plain")), "\"plain\"");
        assert_eq!(s(|o| string(o, "a\"b\\c\nd")), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(s(|o| string(o, "\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_and_stay_valid_json() {
        assert_eq!(s(|o| number(o, 1.5)), "1.5");
        assert_eq!(s(|o| number(o, 3.0)), "3.0");
        assert_eq!(s(|o| number(o, f64::NAN)), "null");
        assert_eq!(s(|o| number(o, f64::INFINITY)), "null");
    }

    #[test]
    fn arrays_and_objects_compose() {
        let out = s(|o| {
            let mut obj = Object::begin(o);
            obj.field_str("name", "cg");
            obj.field_u64("iters", 7);
            obj.field_f64("residual", 0.25);
            obj.field_raw("hist", "[1.0]");
            obj.end();
        });
        assert_eq!(
            out,
            "{\"name\":\"cg\",\"iters\":7,\"residual\":0.25,\"hist\":[1.0]}"
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(s(|o| Object::begin(o).end()), "{}");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let doc = "{\"name\":\"cg\",\"iters\":7,\"ok\":true,\"none\":null,\"hist\":[1.0,-2.5e3]}";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("cg"));
        assert_eq!(v.get("iters").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let hist = v.get("hist").unwrap().as_arr().unwrap();
        assert_eq!(hist[1].as_f64(), Some(-2500.0));
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse(" { \"a\\n\\\"b\" : [ {}, [ ] , \"\\u0041\" ] } ").unwrap();
        let arr = v.get("a\n\"b").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_str(), Some("A"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
