//! A minimal, dependency-free JSON value with deterministic rendering
//! and a recursive-descent parser.
//!
//! Manifests, traces, lock files and serve requests go through the
//! [`Json`] tree. Result stores do not: `store::codec` renders and
//! reads the store schema directly, through this module's lexers
//! (`parse_members`, `parse_value`) and writer pieces (`write_key`,
//! `write_close`, `write_num`, `write_str`). So a store's bytes are
//! exactly its tree's (`ResultStore::to_json`, kept as `campaign gc`'s
//! document form and as the codec's test oracle).
//!
//! Every format needs the same three properties: (1) byte-stable
//! output — equal campaigns render to equal bytes, so golden tests and
//! memoization fingerprints are meaningful; (2) round-tripping — a
//! store written by one run loads in the next; (3) zero external
//! dependencies. Object members keep insertion order (no hash-map
//! scrambling), numbers render integers without a fractional part and
//! everything else via Rust's shortest-roundtrip `f64` formatting.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. Far above any
/// store, manifest, trace or request shape; it bounds the parser's
/// recursion so a hostile line cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline —
    /// the byte-stable on-disk format.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no trailing newline — the journal
    /// line format (one value per line, so a torn tail is detectable by
    /// line rather than by byte).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders pretty at nesting level `indent`, or compact with `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|i| i + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    write_item(out, indent, i == 0);
                    item.write(out, inner);
                }
                write_close(out, indent, items.is_empty(), ']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    write_key(out, indent, i == 0, k);
                    v.write(out, inner);
                }
                write_close(out, indent, members.is_empty(), '}');
            }
        }
    }

    /// Reads and parses a JSON file; errors carry the path (the shared
    /// entry point for stores, manifests and the diff CLI).
    pub fn parse_file(path: &std::path::Path) -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a JSON document. Nesting deeper than [`MAX_DEPTH`] is an
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        parse_document(text, |bytes, pos| parse_value(bytes, pos, 0))
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Opens an array item of a container at nesting level `indent`
/// (pretty) or on one line (`None`): the comma before every item but
/// the first, then the pretty layout's line break and padding.
fn write_item(out: &mut String, indent: Option<usize>, first: bool) {
    if !first {
        out.push(',');
    }
    if let Some(indent) = indent {
        out.push('\n');
        pad(out, indent + 1);
    }
}

/// Opens an object member: [`write_item`], then the key and its colon.
/// The store codec renders its fixed schema through this and
/// [`write_close`], so its bytes are the tree's by construction.
pub(crate) fn write_key(out: &mut String, indent: Option<usize>, first: bool, key: &str) {
    write_item(out, indent, first);
    write_str(out, key);
    out.push_str(if indent.is_some() { ": " } else { ":" });
}

/// Closes a container opened at nesting level `indent`; an empty one
/// stays on its line (`{}`, `[]`).
pub(crate) fn write_close(out: &mut String, indent: Option<usize>, empty: bool, close: char) {
    if let (Some(indent), false) = (indent, empty) {
        out.push('\n');
        pad(out, indent);
    }
    out.push(close);
}

pub(crate) fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        // JSON has no NaN/Inf, and a `null` metric would not load
        // back, so the executor fails a cell with a non-finite metric
        // before it reaches a store; render defensively anyway.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x:?}");
    }
}

pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    // Copy the runs between escapes whole: every escaped byte is ASCII,
    // so each run starts and ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

pub(crate) fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses a whole document whose top-level value `value` reads, then
/// rejects trailing garbage — [`Json::parse`] and the store codec's
/// direct readers share this frame.
pub(crate) fn parse_document<T>(
    text: &str,
    value: impl FnOnce(&[u8], &mut usize) -> Result<T, String>,
) -> Result<T, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

/// Parses one value that sits inside `depth` enclosing arrays/objects.
pub(crate) fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(lex_str(bytes, pos)?.into_owned())),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// Lexes the string at `pos`, borrowed from the input when it holds no
/// escape; anything else (and every error) takes [`parse_str`].
pub(crate) fn lex_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, String> {
    if bytes.get(*pos) == Some(&b'"') {
        let body = &bytes[*pos + 1..];
        if let Some(end) = body.iter().position(|&b| b == b'"' || b == b'\\') {
            if let (b'"', Ok(s)) = (body[end], std::str::from_utf8(&body[..end])) {
                *pos += end + 2;
                return Ok(Cow::Borrowed(s));
            }
        }
    }
    parse_str(bytes, pos).map(Cow::Owned)
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: combine with the low half
                            // of the pair (standard JSON non-BMP escape).
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err("lone high surrogate".into());
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err("bad low surrogate".into());
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                // ASCII fast path: one byte, no UTF-8 validation. The
                // obvious `from_utf8(&bytes[*pos..])` re-validates the
                // whole remaining document per character and turns
                // parsing quadratic on string-heavy stores.
                out.push(b as char);
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte scalar: validate at most the 4 bytes a
                // UTF-8 sequence can span, not the rest of the input.
                let end = (*pos + 4).min(bytes.len());
                let c = match std::str::from_utf8(&bytes[*pos..end]) {
                    Ok(s) => s.chars().next(),
                    // A valid char followed by the start of another
                    // multi-byte sequence fails validation at the
                    // boundary; the prefix up to it is still good.
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&bytes[*pos..*pos + e.valid_up_to()])
                            .expect("validated prefix")
                            .chars()
                            .next()
                    }
                    Err(_) => None,
                };
                let c = c.ok_or("invalid UTF-8")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?, 16)
        .map_err(|_| "bad \\u escape".to_string())
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    let mut members = Vec::new();
    parse_members(bytes, pos, |key, pos| {
        members.push((key.into_owned(), parse_value(bytes, pos, depth)?));
        Ok(())
    })?;
    Ok(Json::Obj(members))
}

/// Walks the object at `pos` with the object grammar and errors of
/// [`Json::parse`], handing `member` each key with `pos` at its value,
/// which `member` must consume. The store codec reads its schema
/// through this without building a tree.
pub(crate) fn parse_members<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    mut member: impl FnMut(Cow<'a, str>, &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        let key = lex_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        member(key, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str("campaign")),
            ("seed".into(), Json::Num(42.0)),
            ("ratio".into(), Json::Num(0.75)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("empty".into(), Json::Obj(vec![])),
            ("quote\"\n".into(), Json::str("tab\there")),
        ])
    }

    #[test]
    fn round_trip_preserves_value_and_order() {
        let v = sample();
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.pretty(), text, "render is a fixed point");
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().pretty(), sample().pretty());
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let v = sample();
        let text = v.compact();
        assert!(!text.contains('\n'), "compact output must be one line");
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::Num(42.0).compact(), "42");
        assert_eq!(
            Json::Arr(vec![Json::Num(1.0), Json::Bool(false)]).compact(),
            "[1,false]"
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).pretty(), "42\n");
        assert_eq!(Json::Num(-3.0).pretty(), "-3\n");
        assert_eq!(Json::Num(0.5).pretty(), "0.5\n");
    }

    #[test]
    fn lookup_helpers() {
        let v = sample();
        assert_eq!(v.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("campaign"));
        assert_eq!(
            v.get("flags").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A spawned thread has the default (small) stack, where the
        // unbounded recursion used to abort the whole process.
        let err = std::thread::spawn(|| Json::parse(&"[".repeat(1_000_000)))
            .join()
            .expect("parser must not overflow the stack")
            .unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn parses_surrogate_pair_escapes() {
        let v = Json::parse(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v, Json::str("\u{1F600} ok"));
        // Raw (unescaped) non-BMP characters also pass through.
        assert_eq!(Json::parse("\"😀\"").unwrap(), Json::str("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(
            Json::parse(r#""\ud83dA""#).is_err(),
            "high surrogate needs a low surrogate"
        );
    }

    #[test]
    fn parses_consecutive_multibyte_chars() {
        // Back-to-back multi-byte scalars exercise the bounded UTF-8
        // window: the 4-byte peek ends mid-sequence and the parser must
        // take the valid prefix, not reject the string.
        for s in ["éé", "é😀", "😀😀", "αβγδ", "é", "漢字かな"] {
            let doc = format!("\"{s}\"");
            assert_eq!(Json::parse(&doc).unwrap(), Json::str(s), "{s}");
        }
    }

    #[test]
    fn parses_standard_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, "xA"], "b": {"c": null}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_arr).unwrap()[2],
            Json::str("xA")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
    }
}
