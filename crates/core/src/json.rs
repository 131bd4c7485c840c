//! The workspace's one JSON stack: a tree, a writer, a parser, and the
//! [`ToJson`]/[`FromJson`] pair that maps plain structs onto the tree.
//!
//! Every machine-readable artifact goes through it: `recode-trace/v3`
//! documents ([`crate::trace_json`]), `recode-tuned/v2`, the Chrome trace
//! exporter, `chaos::CampaignSummary::to_json`, the figure binaries' result
//! rows, the `BENCH_*.json` snapshots and `recode bench-compare`. It is
//! deliberately small: objects preserve insertion order (stable output
//! bytes), numbers are written with Rust's shortest-round-trip `Display`,
//! and the parser reads standard JSON from outside files with a bounded
//! nesting depth.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value. Objects keep insertion order so emitted bytes are
/// stable run-to-run.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer that fits `u64` (written without a decimal point).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other finite number. Non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object, builder-style (panics on
    /// non-objects — writer misuse, not data-dependent).
    #[must_use]
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; strings/bools don't coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, in insertion order.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Pretty serialization (2-space indent, one member per line).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, items.is_empty(), '[', ']', |out| {
                for (i, item) in items.iter().enumerate() {
                    seq_sep(out, indent, depth + 1, i == 0);
                    item.write(out, indent, depth + 1);
                }
            }),
            Json::Obj(fields) => {
                write_seq(out, indent, depth, fields.is_empty(), '{', '}', |out| {
                    for (i, (k, v)) in fields.iter().enumerate() {
                        seq_sep(out, indent, depth + 1, i == 0);
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, depth + 1);
                    }
                });
            }
        }
    }
}

/// Compact serialization (via `.to_string()`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String),
) {
    out.push(open);
    if empty {
        out.push(close);
        return;
    }
    body(out);
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
    out.push(close);
}

fn seq_sep(out: &mut String, indent: Option<usize>, depth: usize, first: bool) {
    if !first {
        out.push(',');
    }
    if let Some(step) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(step * depth));
    }
}

/// Floats print via Rust's shortest-round-trip `Display`, with a trailing
/// `.0` forced onto integral values so a float field never degrades into
/// an integer token between runs. Non-finite values become `null`.
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level and reads files from outside the program, so the bound is what
/// keeps a hostile `[[[[…` from overflowing the stack; the deepest schema
/// here (a trace's `exec.accel.lane_profiles[].opclass`) nests 5 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
/// A message with the byte offset of the first syntax error, or of the
/// bracket that nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 near byte {start}"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by `\uDC00..DFFF`
                            // is one scalar; a lone half is U+FFFD.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape {other:?} at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        self.bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", at - 1))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

/// A value with a JSON form. Structs get theirs from [`json_struct!`].
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> Json;
}

/// A value readable back from its [`ToJson`] form.
pub trait FromJson: Sized {
    /// Reads the value from a JSON tree.
    ///
    /// # Errors
    /// A message naming what was expected (and, through
    /// [`field`], which field held something else).
    fn from_json(j: &Json) -> Result<Self, String>;
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, String> {
                j.as_u64()
                    .and_then(|v| <$t>::try_from(v).ok())
                    .ok_or_else(|| format!("expected a {}, found {j}", stringify!($t)))
            }
        }
    )*};
}
json_uint!(u8, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    /// `null` is how the writer spells a non-finite value; it reads back as
    /// NaN so a trace that recorded one stays readable.
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(f64::NAN),
            _ => j.as_f64().ok_or_else(|| format!("expected a number, found {j}")),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_bool().ok_or_else(|| format!("expected a bool, found {j}"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_str().map(str::to_string).ok_or_else(|| format!("expected a string, found {j}"))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        let items = j.as_array().ok_or_else(|| format!("expected an array, found {j}"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// A pair is a two-element array (what a figure binary dumps when it has
/// two row tables).
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// An absent value is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            _ => T::from_json(j).map(Some),
        }
    }
}

/// Maps are objects; keys print through `Display` (a `u8` key becomes
/// `"7"`) and `BTreeMap` order keeps the bytes stable.
impl<K: std::fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
    }
}

impl<K: std::str::FromStr + Ord, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(j: &Json) -> Result<Self, String> {
        let fields = j.entries().ok_or_else(|| format!("expected an object, found {j}"))?;
        fields
            .iter()
            .map(|(k, v)| {
                let key = k.parse::<K>().map_err(|_| format!("bad map key `{k}`"))?;
                Ok((key, V::from_json(v).map_err(|e| format!("{k}: {e}"))?))
            })
            .collect()
    }
}

/// Reads field `key` of object `j`; `None` when the field is absent.
///
/// # Errors
/// `j` is not an object, or the field does not read as a `T` (the message
/// is prefixed with the field name, so nested errors spell out a path).
pub fn field<T: FromJson>(j: &Json, key: &str) -> Result<Option<T>, String> {
    if j.entries().is_none() {
        return Err(format!("expected an object, found {j}"));
    }
    j.get(key).map(|v| T::from_json(v).map_err(|e| format!("{key}: {e}"))).transpose()
}

/// Reads field `key` of object `j`, which must be present.
///
/// # Errors
/// As [`field`], plus ``missing field `key` ``.
pub fn required<T: FromJson>(j: &Json, key: &str) -> Result<T, String> {
    field(j, key)?.ok_or_else(|| format!("missing field `{key}`"))
}

/// Maps a struct onto a JSON object, one key per listed field, in the order
/// listed. `json_struct!(write T { a, b })` implements [`ToJson`] only;
/// `json_struct!(T { a, b })` implements [`FromJson`] as well, with every
/// listed field required. Keys the struct does not list are ignored on
/// reading.
#[macro_export]
macro_rules! json_struct {
    (write $ty:ty { $($f:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($f).to_string(), $crate::json::ToJson::to_json(&self.$f))),*
                ])
            }
        }
    };
    ($ty:ty { $($f:ident),* $(,)? }) => {
        $crate::json_struct!(write $ty { $($f),* });
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, String> {
                Ok(Self { $($f: $crate::json::required(j, stringify!($f))?,)* })
            }
        }
    };
}

/// Maps a field-less enum onto its variant names, as strings.
#[macro_export]
macro_rules! json_enum {
    ($ty:ty { $($v:ident),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(match self { $(Self::$v => stringify!($v),)* }.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(j: &$crate::json::Json) -> Result<Self, String> {
                match j.as_str() {
                    $(Some(stringify!($v)) => Ok(Self::$v),)*
                    _ => Err(format!("expected one of {:?}, found {j}", [$(stringify!($v)),*])),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_stable_ordered_objects() {
        let doc = Json::obj()
            .set("b", Json::U64(2))
            .set("a", Json::F64(1.5))
            .set("s", Json::Str("x\"y\n".to_string()))
            .set("arr", Json::Arr(vec![Json::Bool(true), Json::Null]));
        assert_eq!(doc.to_string(), r#"{"b":2,"a":1.5,"s":"x\"y\n","arr":[true,null]}"#);
    }

    #[test]
    fn integral_floats_keep_their_decimal_point() {
        assert_eq!(Json::F64(3.0).to_string(), "3.0");
        assert_eq!(Json::F64(0.25).to_string(), "0.25");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::U64(3).to_string(), "3");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let doc = Json::obj()
            .set("trials", Json::U64(500))
            .set("neg", Json::I64(-7))
            .set("ratio", Json::F64(12.75))
            .set("name", Json::Str("stencil 2d / 5pt".to_string()))
            .set("tags", Json::Arr(vec![Json::Str("a".into()), Json::U64(1)]))
            .set(
                "inner",
                Json::obj().set("empty_arr", Json::Arr(vec![])).set("empty_obj", Json::obj()),
            );
        for text in [doc.to_string(), doc.to_string_pretty()] {
            let back = parse(&text).expect("own output parses");
            assert_eq!(back, doc, "round trip through {text}");
        }
    }

    #[test]
    fn parse_accepts_standard_documents() {
        let text = r#"{
  "schema": "recode-bench/v1",
  "count": 3,
  "rate": 1.25e3,
  "flag": false,
  "items": [ {"name": "x", "v": 1}, {"name": "y", "v": -2} ]
}"#;
        let doc = parse(text).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("recode-bench/v1"));
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("rate").and_then(Json::as_f64), Some(1250.0));
        assert_eq!(doc.get("flag").and_then(Json::as_bool), Some(false));
        let items = doc.get("items").and_then(Json::as_array).expect("array");
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("v").and_then(Json::as_f64), Some(-2.0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} extra", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_bounds_nesting_and_names_the_offset() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok(), "{MAX_DEPTH} levels are within the bound");
        let err = parse(&"[".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // What used to overflow the stack and abort the process.
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128 levels at byte"), "{err}");
        }
        // Depth is nesting, not a count of containers.
        assert!(parse(&format!("[{}]", "[],".repeat(1000) + "[]")).is_ok());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(parse(r#""\ud83d\ude00""#), Ok(Json::Str("\u{1F600}".into())));
        assert_eq!(parse(r#""a\ud83d\ude00b\u00e9""#), Ok(Json::Str("a\u{1F600}b\u{e9}".into())));
        // Lone halves stay replacement characters; nothing is swallowed.
        assert_eq!(parse(r#""\ud83dx""#), Ok(Json::Str("\u{fffd}x".into())));
        assert_eq!(parse(r#""\ude00""#), Ok(Json::Str("\u{fffd}".into())));
        assert_eq!(parse(r#""\ud83d\u0041""#), Ok(Json::Str("\u{fffd}A".into())));
        assert!(parse(r#""\ud83d\u00""#).is_err());
    }

    #[derive(Debug, Default, PartialEq)]
    struct Probe {
        name: String,
        hits: u64,
        ratio: f64,
        tags: Vec<u8>,
        buckets: BTreeMap<u8, u64>,
        extra: usize,
    }
    json_struct!(Probe { name, hits, ratio, tags, buckets, extra });

    #[derive(Debug, PartialEq)]
    enum Mode {
        Fast,
        Exact,
    }
    json_enum!(Mode { Fast, Exact });

    #[test]
    fn json_struct_round_trips_and_ignores_unknown_keys() {
        let p = Probe {
            name: "p".into(),
            hits: 3,
            ratio: 0.5,
            tags: vec![1, 2],
            buckets: BTreeMap::from([(7, 9)]),
            extra: 4,
        };
        let j = p.to_json();
        assert_eq!(
            j.to_string(),
            r#"{"name":"p","hits":3,"ratio":0.5,"tags":[1,2],"buckets":{"7":9},"extra":4}"#
        );
        assert_eq!(Probe::from_json(&j), Ok(p));

        let extended = parse(
            r#"{"name":"q","hits":1,"ratio":null,"tags":[],"buckets":{},"extra":0,"new":[1]}"#,
        )
        .unwrap();
        let q = Probe::from_json(&extended).expect("`new` is ignored");
        assert!(q.ratio.is_nan() && q.extra == 0);

        let missing = Probe::from_json(&parse(r#"{"name":"q"}"#).unwrap()).unwrap_err();
        assert_eq!(missing, "missing field `hits`");
        let no_extra = parse(r#"{"name":"q","hits":1,"ratio":0,"tags":[],"buckets":{}}"#).unwrap();
        assert_eq!(Probe::from_json(&no_extra).unwrap_err(), "missing field `extra`");
        let wrong =
            parse(r#"{"name":"q","hits":1,"ratio":0,"tags":[1,300],"buckets":{}}"#).unwrap();
        assert_eq!(Probe::from_json(&wrong).unwrap_err(), "tags: [1]: expected a u8, found 300");
        assert!(Probe::from_json(&Json::U64(1)).is_err());

        assert_eq!(Mode::Exact.to_json(), Json::Str("Exact".into()));
        assert_eq!(Mode::from_json(&Json::Str("Fast".into())), Ok(Mode::Fast));
        assert!(Mode::from_json(&Json::Str("Slow".into())).is_err());
    }
}
