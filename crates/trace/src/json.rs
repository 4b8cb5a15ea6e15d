//! A minimal JSON representation: the one JSON reader and writer of the
//! workspace, with no external dependencies.
//!
//! A number written as bare digits is an unsigned integer ([`Value::Num`],
//! full u128 precision, never routed through floating point), so `emit ∘
//! parse` and `parse ∘ emit` are both identities on snapshot data. Any
//! other number — signed, fractional, with an exponent, or too large for
//! u128 — is a finite [`Value::Float`], emitted in Rust's shortest
//! round-trip form. A float with an integral value is written as bare
//! digits and so reads back as a `Num`; [`Value::as_f64`] reads either
//! kind, and returns exactly the `f64` that was emitted.

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// `null`.
    Null,
    /// An unsigned integer (u128 covers histogram totals).
    Num(u128),
    /// A finite floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer inside, if this is a number.
    pub fn as_num(&self) -> Option<u128> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number inside as `f64`, if this is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer inside as u64, if this is a number that fits.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(|n| u64::try_from(n).ok())
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    ///
    /// # Panics
    ///
    /// On a non-finite [`Value::Float`]: JSON has no spelling for it.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Num(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                assert!(x.is_finite(), "JSON numbers must be finite, got {x}");
                out.push_str(&x.to_string());
            }
            Value::Str(s) => emit_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
fn emit_string(s: &str, out: &mut String) {
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

/// A parse failure, with a byte offset for context.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses JSON text into a [`Value`]: everything [`Value::emit`]
/// produces, any JSON number, `null`, and insignificant whitespace.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            msg: "trailing characters",
        });
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError {
            at: *pos,
            msg: "unexpected end of input",
        }),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
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
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
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
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError {
                        at: *pos,
                        msg: "expected ':'",
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(ParseError {
            at: *pos,
            msg: "unexpected character",
        }),
    }
}

/// Parses one number by the JSON grammar `-? int frac? exp?`. Bare
/// digits that fit u128 stay an exact [`Value::Num`]; anything else is
/// a [`Value::Float`].
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - from
    };
    let bad = |at: usize| ParseError {
        at,
        msg: "malformed number",
    };
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    let int_at = *pos;
    match digits(pos) {
        0 => return Err(bad(*pos)),
        n if n > 1 && bytes[int_at] == b'0' => return Err(bad(int_at)),
        _ => {}
    }
    let mut bare = !negative;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        bare = false;
        if digits(pos) == 0 {
            return Err(bad(*pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        bare = false;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(pos) == 0 {
            return Err(bad(*pos));
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("number text is ascii");
    if let Some(n) = bare.then(|| text.parse::<u128>().ok()).flatten() {
        return Ok(Value::Num(n));
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Value::Float(x)),
        _ => Err(ParseError {
            at: start,
            msg: "number out of range",
        }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            at: *pos,
            msg: "expected '\"'",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    msg: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(ParseError {
                            at: *pos,
                            msg: "short \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
                            at: *pos,
                            msg: "bad \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            at: *pos,
                            msg: "bad \\u escape",
                        })?;
                        out.push(char::from_u32(code).ok_or(ParseError {
                            at: *pos,
                            msg: "bad \\u escape",
                        })?);
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            msg: "bad escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| ParseError {
                    at: *pos,
                    msg: "invalid utf-8",
                })?;
                let c = s.chars().next().expect("non-empty remainder");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::Obj(vec![
            ("at".to_string(), Value::Num(12345)),
            (
                "counters".to_string(),
                Value::Arr(vec![Value::Obj(vec![
                    (
                        "name".to_string(),
                        Value::Str("vm.faults \"odd\"\n".to_string()),
                    ),
                    ("value".to_string(), Value::Num(u128::from(u64::MAX))),
                ])]),
            ),
            ("empty".to_string(), Value::Arr(vec![])),
        ]);
        let text = v.emit();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        // Fractional, negative and exponent-sized values stay floats.
        for x in [
            0.5,
            -0.5,
            -3.0,
            -2.5e-300,
            1.5e-7,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
        ] {
            let v = Value::Float(x);
            assert_eq!(parse(&v.emit()).unwrap(), v, "{x}");
        }
        // Integral floats are written as bare digits; they read back as
        // the same f64 whether or not they fit u128.
        for x in [0.0, 54.0, 6.02214076e23, 1e300, f64::MAX] {
            let back = parse(&Value::Float(x).emit()).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{x}");
        }
        assert_eq!(parse("54").unwrap(), Value::Num(54));
        // The exponent forms an emitter never writes still parse.
        assert_eq!(parse("-1.5e3").unwrap(), Value::Float(-1500.0));
        assert_eq!(parse("2E-2").unwrap(), Value::Float(0.02));
        assert_eq!(parse("1e+2").unwrap(), Value::Float(100.0));
        assert_eq!(parse("7.25").unwrap().as_f64(), Some(7.25));
    }

    #[test]
    fn null_round_trips() {
        let v = Value::Arr(vec![Value::Null, Value::Num(1)]);
        assert_eq!(v.emit(), "[null,1]");
        assert_eq!(parse(" [ null , 1 ] ").unwrap(), v);
        assert!(parse("nul").is_err());
    }

    #[test]
    fn rejects_malformed_numbers() {
        for bad in [
            "1.", "-", "1e", ".5", "01", "-.5", "1e+", "1.e5", "--1", "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_floats_refuse_to_emit() {
        Value::Float(f64::NAN).emit();
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }
}
