//! Minimal, deterministic JSON tree: writer and parser.
//!
//! The workspace's machine-readable artifacts — sweep reports under
//! `results/` and the `BENCH_*.json` perf baselines — need JSON, but the
//! offline `serde` shim is a no-op facade. This module provides the small
//! subset actually required, with two properties serde_json does not
//! promise by default:
//!
//! * **Determinism**: objects are ordered `Vec`s (insertion order), float
//!   formatting is Rust's shortest-roundtrip `Display`, and the writer
//!   has no configuration — equal trees produce byte-identical output.
//!   The sweep determinism tests rely on this.
//! * **Self-containment**: the comparator binary in CI parses these files
//!   with [`Json::parse`], so the format is round-trippable in-tree.
//!
//! Two output paths share one recursive writer (so they are
//! byte-compatible by construction): [`Json::to_string_pretty`] builds
//! the document in memory, and [`Json::write_pretty_to`] /
//! [`Json::write_compact_to`] stream it straight into an
//! [`std::io::Write`] — the path for multi-GB artifacts (trace JSONL
//! exports, campaign logs) where materializing the full `String`
//! alongside the tree would double peak RSS.

use std::fmt;
use std::io::{self, Write as _};

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used for NaN/infinite floats, which JSON cannot carry).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive up to 2⁵³ exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an object from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// [`Json::get`] with a path-context error: schema validators (the
    /// campaign scenario IR) thread the JSON path of `self` through
    /// `path`, so a missing key reports *where* in the document it was
    /// expected (``` `spec.cells[3]`: missing required key `n` ```) instead
    /// of a bare key name.
    pub fn get_or_err(&self, key: &str, path: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| format!("`{path}`: missing required key `{key}`")),
            other => Err(format!(
                "`{path}`: expected an object with key `{key}`, got {}",
                other.type_name()
            )),
        }
    }

    /// The JSON type name, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interpret as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a non-negative [`Json::Num`]
    /// with no fractional part, within the f64-exact range (≤ 2⁵³).
    /// Anything else — negative, fractional, too large to be exact, or a
    /// non-number — is `None`, so counts and indices never silently
    /// truncate.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && *x <= 9.007_199_254_740_992e15 && x.trunc() == *x => {
                Some(*x as u64)
            }
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

    /// Serialize with 2-space indentation and a trailing newline —
    /// byte-deterministic for equal trees.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, 0, true); // writing to String is infallible
        out.push('\n');
        out
    }

    /// Serialize to a single line with no trailing newline — the form
    /// JSON-lines consumers expect (one document per line).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        let _ = self.write(&mut out, 0, false);
        out
    }

    /// Stream the pretty form (identical bytes to
    /// [`Json::to_string_pretty`], trailing newline included) into `w`
    /// through an internal [`io::BufWriter`], flushing before return.
    /// Peak memory is the tree plus one 8 KiB buffer, not the tree plus
    /// the full rendered document.
    pub fn write_pretty_to<W: io::Write>(&self, w: W) -> io::Result<()> {
        let mut out = IoFmt::new(io::BufWriter::new(w));
        self.write(&mut out, 0, true).map_err(|_| out.take_err())?;
        let mut w = out.into_inner()?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Stream the compact single-line form (identical bytes to
    /// [`Json::to_string_compact`], no trailing newline) into `w` —
    /// **unbuffered and unflushed** by design: a JSONL exporter calls
    /// this once per line inside its own `BufWriter` loop, and a second
    /// buffer layer per line would only add copies.
    pub fn write_compact_to<W: io::Write>(&self, w: W) -> io::Result<()> {
        let mut out = IoFmt::new(w);
        self.write(&mut out, 0, false).map_err(|_| out.take_err())?;
        Ok(())
    }

    fn write<W: fmt::Write>(&self, out: &mut W, indent: usize, pretty: bool) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    return out.write_str("[]");
                }
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    if pretty {
                        out.write_char('\n')?;
                        push_indent(out, indent + 1)?;
                    }
                    item.write(out, indent + 1, pretty)?;
                }
                if pretty {
                    out.write_char('\n')?;
                    push_indent(out, indent)?;
                }
                out.write_char(']')
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    return out.write_str("{}");
                }
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    if pretty {
                        out.write_char('\n')?;
                        push_indent(out, indent + 1)?;
                    }
                    write_escaped(out, k)?;
                    out.write_str(if pretty { ": " } else { ":" })?;
                    v.write(out, indent + 1, pretty)?;
                }
                if pretty {
                    out.write_char('\n')?;
                    push_indent(out, indent)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Parse a JSON document (the subset this module writes, which is all
    /// of standard JSON except exotic escapes beyond `\uXXXX`).
    ///
    /// Errors are **line-anchored** — `line 3, col 14: expected ':'` —
    /// so a hand-edited scenario file points its author at the offending
    /// line, not a byte offset into the document. Arrays and objects may
    /// nest at most 128 levels deep; a deeper document is an error, not
    /// a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let result = (|| {
            let value = parse_value(bytes, &mut pos, 0)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(perr(pos, "trailing content"));
            }
            Ok(value)
        })();
        result.map_err(|e| {
            let (line, col) = line_col(bytes, e.pos);
            format!("line {line}, col {col}: {}", e.msg)
        })
    }
}

/// A parse failure at a byte offset; [`Json::parse`] renders it
/// line-anchored.
struct ParseErr {
    msg: String,
    pos: usize,
}

fn perr(pos: usize, msg: impl Into<String>) -> ParseErr {
    ParseErr {
        msg: msg.into(),
        pos,
    }
}

/// 1-based `(line, column)` of byte offset `pos` (clamped to the end of
/// input). Columns count bytes, which equals characters for the ASCII
/// documents this module writes.
fn line_col(bytes: &[u8], pos: usize) -> (usize, usize) {
    let pos = pos.min(bytes.len());
    let mut line = 1;
    let mut col = 1;
    for &b in &bytes[..pos] {
        if b == b'\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// Bridges [`fmt::Write`] (what the recursive writer speaks) onto an
/// [`io::Write`], parking the first I/O error so the caller can surface
/// it as an `io::Result` instead of the information-free [`fmt::Error`].
struct IoFmt<W: io::Write> {
    inner: W,
    err: Option<io::Error>,
}

impl<W: io::Write> IoFmt<W> {
    fn new(inner: W) -> Self {
        IoFmt { inner, err: None }
    }

    fn take_err(&mut self) -> io::Error {
        self.err
            .take()
            .unwrap_or_else(|| io::Error::other("formatter error"))
    }

    fn into_inner(self) -> io::Result<W> {
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.inner),
        }
    }
}

impl<W: io::Write> fmt::Write for IoFmt<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            if self.err.is_none() {
                self.err = Some(e);
            }
            fmt::Error
        })
    }
}

fn push_indent<W: fmt::Write>(out: &mut W, levels: usize) -> fmt::Result {
    for _ in 0..levels {
        out.write_str("  ")?;
    }
    Ok(())
}

fn write_num<W: fmt::Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        out.write_str("null")
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", x as i64)
    } else {
        write!(out, "{x}")
    }
}

fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound a document of a few
/// hundred kilobytes of `[` overflows the stack; the committed scenarios
/// and reports nest 5 levels.
const MAX_DEPTH: usize = 128;

/// Parse one value whose enclosing arrays/objects are `depth` deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseErr> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(perr(
            *pos,
            format!("arrays/objects nested deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(perr(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
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
                    other => return Err(perr(*pos, format!("expected ',' or ']', got {other:?}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(perr(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    other => {
                        return Err(perr(*pos, format!("expected ',' or '}}', got {other:?}")))
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, ParseErr> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(perr(*pos, "invalid literal"))
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, ParseErr> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| perr(at, "truncated \\u escape"))?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|e| perr(at, e.to_string()))?,
        16,
    )
    .map_err(|e| perr(at, e.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseErr> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(perr(*pos, "expected string"));
    }
    *pos += 1;
    let mut s = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(perr(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let scalar = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: standard JSON encodes astral
                            // characters as a \uXXXX\uXXXX pair.
                            if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err(perr(*pos, "high surrogate without \\u low surrogate"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(perr(
                                    *pos,
                                    format!("invalid low surrogate {low:#06x}"),
                                ));
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        s.push(
                            char::from_u32(scalar)
                                .ok_or_else(|| perr(*pos, "invalid \\u code point"))?,
                        );
                    }
                    other => return Err(perr(*pos, format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (bytes are valid UTF-8: the
                // input is a &str).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|e| perr(*pos, e.to_string()))?;
                let c = rest.chars().next().expect("non-empty");
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseErr> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| perr(start, e.to_string()))?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| perr(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("name", Json::str("sweep")),
            ("seed", Json::Num(42.0)),
            ("ratio", Json::Num(0.125)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "cells",
                Json::Arr(vec![
                    Json::obj(vec![("n", Json::Num(1024.0))]),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ])
    }

    #[test]
    fn round_trip_preserves_tree() {
        let j = sample();
        let text = j.to_string_pretty();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, j);
    }

    #[test]
    fn output_is_deterministic() {
        assert_eq!(sample().to_string_pretty(), sample().to_string_pretty());
    }

    #[test]
    fn integers_print_without_fraction() {
        let mut s = String::new();
        write_num(&mut s, 1024.0).unwrap();
        assert_eq!(s, "1024");
        s.clear();
        write_num(&mut s, 0.5).unwrap();
        assert_eq!(s, "0.5");
        s.clear();
        write_num(&mut s, f64::NAN).unwrap();
        assert_eq!(s, "null");
    }

    #[test]
    fn streamed_pretty_matches_in_memory_bytes() {
        // The contract `SweepReport::write_json` and the trace JSONL
        // exporter rely on: streaming produces the exact bytes of the
        // in-memory renderer, so swapping paths never perturbs committed
        // artifacts.
        let j = sample();
        let mut buf = Vec::new();
        j.write_pretty_to(&mut buf).unwrap();
        assert_eq!(buf, j.to_string_pretty().into_bytes());
    }

    #[test]
    fn streamed_compact_matches_and_round_trips() {
        let j = sample();
        let mut buf = Vec::new();
        j.write_compact_to(&mut buf).unwrap();
        assert_eq!(buf, j.to_string_compact().into_bytes());
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains('\n'), "compact form must be one line");
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn compact_scalars_have_no_padding() {
        let j = Json::obj(vec![("a", Json::Num(1.0)), ("b", Json::Arr(vec![]))]);
        assert_eq!(j.to_string_compact(), r#"{"a":1,"b":[]}"#);
    }

    #[test]
    fn streaming_surfaces_io_errors() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = sample().write_compact_to(Broken).unwrap_err();
        assert_eq!(err.to_string(), "disk on fire");
    }

    #[test]
    fn string_escapes_round_trip() {
        let j = Json::str("a\"b\\c\nd\te\u{1}f");
        let back = Json::parse(&j.to_string_pretty()).expect("parse");
        assert_eq!(back, j);
    }

    #[test]
    fn parses_plain_json() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null}}"#).expect("parse");
        assert_eq!(
            j.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let j = Json::parse("\"\\ud83d\\ude00 ok\"").expect("surrogate pair");
        assert_eq!(j.as_str(), Some("\u{1F600} ok"));
        // Lone or malformed surrogates are rejected, not mangled.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        assert!(Json::parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn getters() {
        let j = sample();
        assert_eq!(j.get("seed").and_then(Json::as_f64), Some(42.0));
        assert_eq!(j.get("name").and_then(Json::as_str), Some("sweep"));
        assert!(j.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
    }

    #[test]
    fn as_u64_accepts_exact_non_negative_integers() {
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(1024.0).as_u64(), Some(1024));
        assert_eq!(Json::Num(9.007_199_254_740_992e15).as_u64(), Some(1 << 53));
    }

    #[test]
    fn as_u64_rejects_every_inexact_shape() {
        assert_eq!(Json::Num(-1.0).as_u64(), None, "negative");
        assert_eq!(Json::Num(1.5).as_u64(), None, "fractional");
        assert_eq!(Json::Num(1e18).as_u64(), None, "beyond 2^53");
        assert_eq!(Json::Num(f64::NAN).as_u64(), None, "NaN");
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None, "infinity");
        assert_eq!(Json::str("7").as_u64(), None, "string");
        assert_eq!(Json::Null.as_u64(), None, "null");
    }

    #[test]
    fn get_or_err_reports_the_json_path() {
        let j = sample();
        assert_eq!(j.get_or_err("seed", "spec").unwrap().as_f64(), Some(42.0));
        let err = j.get_or_err("nope", "spec.cells[3]").unwrap_err();
        assert_eq!(err, "`spec.cells[3]`: missing required key `nope`");
    }

    #[test]
    fn get_or_err_on_non_object_names_the_actual_type() {
        let err = Json::Arr(vec![]).get_or_err("k", "spec.grid").unwrap_err();
        assert_eq!(
            err,
            "`spec.grid`: expected an object with key `k`, got an array"
        );
        let err = Json::Null.get_or_err("k", "root").unwrap_err();
        assert_eq!(err, "`root`: expected an object with key `k`, got null");
    }

    #[test]
    fn parse_errors_are_line_anchored() {
        // Missing ':' on line 3 (after the two header lines).
        let doc = "{\n  \"a\": 1,\n  \"b\" 2\n}\n";
        let err = Json::parse(doc).unwrap_err();
        assert!(err.starts_with("line 3, col "), "got: {err}");
        assert!(err.contains("expected ':'"), "got: {err}");

        // Trailing content after the document.
        let err = Json::parse("{}\n[]").unwrap_err();
        assert!(
            err.starts_with("line 2, col 1: trailing content"),
            "got: {err}"
        );

        // Bad literal, single-line: column points at the token.
        let err = Json::parse("[true, nul]").unwrap_err();
        assert!(err.starts_with("line 1, col 8:"), "got: {err}");

        // End-of-input anchors to the end, not past it.
        let err = Json::parse("{\"a\":").unwrap_err();
        assert!(err.starts_with("line 1, col 6:"), "got: {err}");
    }

    #[test]
    fn parse_bounds_the_nesting_depth() {
        let arrays = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        // The offending bracket is byte MAX_DEPTH of the line.
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.starts_with("line 1, col 129: arrays/objects nested deeper than 128 levels"),
            "got: {err}"
        );
        // Objects count the same, mixed in with arrays.
        let mixed = |d: usize| {
            let open = "{\"k\": [".repeat(d / 2);
            let close = "]}".repeat(d / 2);
            format!("{open}1{close}")
        };
        assert!(Json::parse(&mixed(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&mixed(MAX_DEPTH + 2)).is_err());
        // Far past the limit: an error in-process, not a stack overflow.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nested deeper than"), "got: {err}");
    }
}
