//! Dependency-free JSON value type with a writer and a strict parser.
//!
//! It lives in the engine so the [`trace`](crate::trace) JSONL sink can
//! serialize events. The workspace builds without crates.io access, so
//! both the writer and the parser are hand-rolled.
//!
//! The subset implemented is full JSON minus one deliberate
//! restriction: numbers are `f64` (ints round-trip exactly up to
//! 2⁵³, far beyond any record count or millisecond figure we emit).
//! Non-finite floats serialize as `null`, which keeps the writer total.

use std::fmt;

/// A JSON value. Object member order is preserved (and duplicate keys
/// rejected at parse time), so exports diff cleanly across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs on `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(members: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects (`None` on other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    /// Nesting deeper than [`MAX_PARSE_DEPTH`] is rejected with `Err`
    /// rather than overflowing the stack — the CI validator feeds this
    /// arbitrary files and must report malformed input, not abort.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at byte {pos}", pos = *pos))
    }
}

/// Deepest container nesting [`Json::parse`] accepts; bench exports
/// use ~4 levels, so this is generous while keeping recursion bounded.
pub const MAX_PARSE_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members: Vec<(String, Json)> = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(format!("duplicate object key `{key}`"));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are rejected rather than paired:
                        // the writer never emits them.
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("invalid \\u{hex} escape"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&lead) => {
                // Consume one UTF-8 scalar. The input is &str, so
                // *pos always sits on a char boundary; decode just
                // this character's bytes (its length is encoded in
                // the leading byte) instead of re-validating the
                // whole remaining document per character.
                let len = match lead {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or("truncated UTF-8 sequence")?;
                let c = std::str::from_utf8(chunk)
                    .map_err(|e| e.to_string())?
                    .chars()
                    .next()
                    .expect("non-empty");
                if (c as u32) < 0x20 {
                    return Err(format!("raw control character at byte {pos}", pos = *pos));
                }
                out.push(c);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Rust's f64 parser is laxer than RFC 8259 (it accepts `.5`, `5.`,
    // `+5`, `01`, `inf`, …), so validate the token against the JSON
    // number grammar first — the CI guard exists to catch exactly the
    // nonstandard forms other consumers would reject.
    if !is_json_number(text) {
        return Err(format!("invalid number `{text}` at byte {start}"));
    }
    text.parse::<f64>()
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

/// RFC 8259 `number` grammar: `-? (0 | [1-9][0-9]*) (\.[0-9]+)?
/// ([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &str) -> bool {
    let b = text.as_bytes();
    let mut i = 0usize;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        if !matches!(b.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    if matches!(b.get(i), Some(b'e') | Some(b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+') | Some(b'-')) {
            i += 1;
        }
        if !matches!(b.get(i), Some(b'0'..=b'9')) {
            return false;
        }
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
    }
    i == b.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) -> Json {
        Json::parse(&value.to_string()).expect("writer output must parse")
    }

    #[test]
    fn writer_output_reparses_identically() {
        let value = Json::obj([
            ("name", Json::str("micro_engine")),
            ("wall_ms", Json::Num(12.75)),
            ("records", Json::Num(4096.0)),
            (
                "tasks",
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Bool(true)]),
            ),
            ("nested", Json::obj([("ok", Json::Null)])),
        ]);
        assert_eq!(roundtrip(&value), value);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(4096.0).to_string(), "4096");
        assert_eq!(Json::Num(0.6).to_string(), "0.6");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::str("a \"b\"\\\n\tc\u{0007}é");
        let text = s.to_string();
        assert!(text.contains("\\u0007"));
        assert_eq!(roundtrip(&s), s);
    }

    #[test]
    fn lookup_helpers() {
        let value = Json::obj([("x", Json::Num(3.0)), ("s", Json::str("y"))]);
        assert_eq!(value.get("x").and_then(Json::as_f64), Some(3.0));
        assert_eq!(value.get("s").and_then(Json::as_str), Some("y"));
        assert!(value.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
        assert_eq!(
            Json::Arr(vec![Json::Num(1.0)]).as_arr().map(<[_]>::len),
            Some(1)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"dup\":1,\"dup\":2}",
            "nul",
            "- 5",
            "{\"a\" 1}",
            // RFC 8259 forbids these even though Rust's f64 parser
            // accepts them.
            ".5",
            "5.",
            "+5",
            "01",
            "1e",
            "1e+",
            "-",
            "inf",
            "NaN",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn parser_rejects_pathological_nesting_without_overflowing() {
        let deep = "[".repeat(MAX_PARSE_DEPTH + 10);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting deeper"));
        // At-the-limit nesting still parses.
        let ok = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn parser_accepts_whitespace_and_unicode() {
        let parsed = Json::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u00e9\" ] } ").unwrap();
        assert_eq!(
            parsed,
            Json::obj([(
                "k",
                Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0), Json::str("é")])
            )])
        );
    }
}
