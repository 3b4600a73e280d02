//! A minimal JSON document model and recursive-descent parser.
//!
//! The workspace is offline and carries no serde; the daemon protocol
//! needs to *read* JSON as well as write it (writing is hand-rolled at
//! each producer — see `dsm_exec::wire`). Two properties matter more
//! than generality:
//!
//! * **numbers stay text** — [`Value::Num`] stores the literal slice,
//!   so a `u64` written in full (cycle counters, IEEE-754 bit patterns)
//!   converts back losslessly with [`Value::as_u64`] instead of passing
//!   through an `f64`;
//! * **object key order is preserved** — objects are association lists,
//!   so a parsed-and-rewritten document round-trips byte-identically,
//!   which the daemon's bit-identity guarantees lean on.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text (lossless for u64).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as an ordered association list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64` (lossless; the literal text is kept).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64` (shortest-round-trip literals written
    /// by Rust's `Display` parse back exactly).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
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

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serialize back to compact single-line JSON. Numbers re-emit their
    /// original literal text, so parse → write round-trips exactly.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(n),
            Value::Str(s) => write_json_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_str(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` as a JSON string literal (quotes and escapes included):
/// the workspace's one escaper, defined by the lowest crate that writes
/// JSON.
pub use dsm_exec::wire::push_json_str as write_json_str;

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// is recursive descent, one host stack frame per level; a request line
/// of 20 000 `[` used to overflow the daemon's stack and abort it. No
/// document of the protocol nests deeper than 5.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document, requiring it to span the whole input
/// (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a byte offset and description on malformed input, and on
/// arrays and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut pos = 0;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

/// The value at `*pos` of `text`, itself nested `depth` arrays and
/// objects deep.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(text, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let lit = &text[start..*pos];
            // Validate: every number literal must parse as f64 (u64-range
            // integers also pass; they are converted from the text later).
            if lit.parse::<f64>().is_err() && lit.parse::<u64>().is_err() {
                return Err(format!("malformed number `{lit}` at byte {start}"));
            }
            Ok(Value::Num(lit.to_string()))
        }
        Some(c) => Err(format!("unexpected `{}` at byte {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-ASCII \\u escape".to_string())?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        // Surrogate pairs are not produced by our writers
                        // (they escape only control characters); reject
                        // rather than mis-decode.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| format!("invalid code point \\u{hex}"))?;
                        s.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume a maximal run of unescaped bytes and append it
                // whole. `"` and `\` are ASCII and never occur inside a
                // multi-byte sequence, so the run starts and ends on
                // character boundaries of `text`, which is already UTF-8.
                let start = *pos;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                s.push_str(&text[start..*pos]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e3").unwrap(), Value::Num("-12.5e3".into()));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn u64_numbers_survive_exactly() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        // An f64 path would have rounded this.
        let bits = parse("9007199254740993").unwrap();
        assert_eq!(bits.as_u64(), Some(9007199254740993));
    }

    #[test]
    fn nested_documents_round_trip() {
        let src = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":true}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_json(), src);
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\ny"));
        assert_eq!(v.get("a").and_then(Value::as_arr).map(<[_]>::len), Some(3));
    }

    #[test]
    fn escapes_round_trip_through_writer() {
        let mut s = String::new();
        write_json_str(&mut s, "q\"uote \\slash \u{1} tab\t");
        let v = parse(&s).unwrap();
        assert_eq!(v.as_str(), Some("q\"uote \\slash \u{1} tab\t"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("--3").is_err());
    }

    #[test]
    fn object_lookup_ignores_non_objects() {
        assert_eq!(parse("[1]").unwrap().get("x"), None);
        assert!(parse("{}").unwrap().get("x").is_none());
    }

    /// Nesting is refused past `MAX_DEPTH` with an error, never a stack
    /// overflow, and accepted up to it.
    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, n| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"k\":", "}", MAX_DEPTH)).is_ok());
        for line in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"k\":", "}", MAX_DEPTH + 1),
            "[".repeat(20_000),
        ] {
            let e = parse(&line).expect_err("too deep");
            assert!(e.starts_with("nesting deeper than 128"), "{e}");
        }
    }

    /// The char-by-char writer the run-based one replaced, kept as its
    /// oracle.
    fn write_by_char(out: &mut String, s: &str) {
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

    proptest::proptest! {
        /// Control characters, quotes, backslashes and one- to four-byte
        /// characters: the writer's bytes are the oracle's, and the parser
        /// reads back the string written.
        #[test]
        fn strings_write_as_before_and_read_back(
            s in "[\u{0}-\u{7f}\u{7f}-\u{a0}é€中😀]{0,64}",
            prefix in "[a-z\"]{0,3}",
        ) {
            let (mut new, mut old) = (prefix.clone(), prefix.clone());
            write_json_str(&mut new, &s);
            write_by_char(&mut old, &s);
            proptest::prop_assert_eq!(&new, &old);
            proptest::prop_assert_eq!(parse(&new[prefix.len()..]), Ok(Value::Str(s)));
        }
    }
}
