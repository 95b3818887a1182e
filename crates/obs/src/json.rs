//! A dependency-free JSON scanner, escaper and JSONL trace-schema
//! validator.
//!
//! The workspace is offline-buildable with zero external crates, so the
//! `fitstrace --json` export is hand-written — and hand-written emitters
//! rot silently. This module closes the loop: a small recursive-descent
//! parser ([`parse`]) plus a schema check ([`validate_trace_jsonl`]) that
//! the CLI runs over its *own* output before reporting success, and that
//! CI runs in the `fitstrace --smoke` step.
//!
//! ## Trace JSONL schema
//!
//! One JSON object per line; every object carries a string `"type"`:
//!
//! * `"meta"` — first line; `kernel`, `scale` (string), `icache` (string),
//!   `scenario` (string — the machine-description id the run simulated on);
//! * `"span"` — `path` (string), `ms` (number ≥ 0), `count` (number ≥ 1);
//! * `"block"` — `addr` (string, hex), `label` (string), `func` (string),
//!   and `arm` / `fits` objects each with numeric `retired`, `fetches`,
//!   `switching_j`, `internal_j`, `leakage_j`;
//! * `"summary"` — `isa` (string), numeric `cycles`, `retired`,
//!   `switching_j`, `internal_j`, `leakage_j`.

use std::fmt;

use crate::schema::{check, Field, Shape};

/// Deepest container nesting [`parse`] accepts. Far above any document
/// the workspace writes (a flight-recorder span tree is under 20 levels),
/// and low enough that neither the parser nor the [`crate::schema`]
/// walker, both recursive, can exhaust a thread stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects preserve key order (the emitter's order is
/// part of what the validator sees).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` for other variants or missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Parser<'a>) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return self.err("expected 4 hex digits"),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slicing at
                    // a char boundary is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| JsonError {
                        offset: self.pos,
                        message: "invalid utf-8".to_string(),
                    })?;
                    let ch = match s.chars().next() {
                        Some(c) => c,
                        None => return self.err("unterminated string"),
                    };
                    if (ch as u32) < 0x20 {
                        return self.err("unescaped control character");
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
            offset: start,
            message: "invalid utf-8 in number".to_string(),
        })?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(JsonError {
                offset: start,
                message: format!("invalid number '{text}'"),
            }),
        }
    }
}

/// Parses one complete JSON value, rejecting trailing garbage.
///
/// # Errors
///
/// A [`JsonError`] with the byte offset of the first problem, including
/// containers nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after value");
    }
    Ok(value)
}

/// A float in its shortest round-trip form (`parse` reads back the same
/// `f64`). Non-finite inputs, which JSON cannot represent, degrade to `0`
/// — the report degrades, never the document.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".to_string()
    }
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------- writer

/// What the writer is currently inside of, and whether a separator is due.
#[derive(Clone, Copy, Debug)]
enum Frame {
    Obj { first: bool },
    Arr { first: bool },
}

/// A streaming JSON builder that makes escaping and nesting bugs
/// impossible by construction.
///
/// Every string value and key goes through [`escape`]; commas and braces
/// are managed by a frame stack, so an emitter built on this writer can
/// produce malformed output only by asking for an ill-formed *shape*
/// (e.g. a key at array level) — and those misuses are repaired rather
/// than panicking: a stray key is dropped, unclosed frames are closed by
/// [`Writer::finish`]. Hand-`format!`ed JSON throughout the workspace is
/// being replaced with this builder; the `fitsd` metrics snapshot and the
/// access-log event lines are built with it.
///
/// ```
/// use fits_obs::json::{parse, Writer};
/// let mut w = Writer::new();
/// w.begin_obj();
/// w.field_str("name", "needs \"escaping\"\n");
/// w.key("items");
/// w.begin_arr();
/// w.u64(1);
/// w.u64(2);
/// w.end_arr();
/// w.end_obj();
/// let text = w.finish();
/// assert!(parse(&text).is_ok());
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
    stack: Vec<Frame>,
    /// A `key()` was written and awaits its value.
    pending_key: bool,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Emits the separator due before a new value in the current frame.
    fn separate(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return; // `key()` already wrote `"key":` — the value follows.
        }
        match self.stack.last_mut() {
            Some(Frame::Obj { first } | Frame::Arr { first }) => {
                if *first {
                    *first = false;
                } else {
                    self.buf.push(',');
                }
            }
            None => {}
        }
    }

    /// Writes an object key. Must be followed by exactly one value call;
    /// outside an object the key is dropped (the value still lands).
    pub fn key(&mut self, name: &str) {
        if !matches!(self.stack.last(), Some(Frame::Obj { .. })) || self.pending_key {
            return; // shape misuse: drop the key, keep the document valid
        }
        self.separate();
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\": ");
        self.pending_key = true;
    }

    /// Opens an object (as the current value).
    pub fn begin_obj(&mut self) {
        self.separate();
        self.buf.push('{');
        self.stack.push(Frame::Obj { first: true });
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        if matches!(self.stack.last(), Some(Frame::Obj { .. })) {
            self.stack.pop();
            self.buf.push('}');
        }
    }

    /// Opens an array (as the current value).
    pub fn begin_arr(&mut self) {
        self.separate();
        self.buf.push('[');
        self.stack.push(Frame::Arr { first: true });
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        if matches!(self.stack.last(), Some(Frame::Arr { .. })) {
            self.stack.pop();
            self.buf.push(']');
        }
    }

    /// Writes a string value (escaped).
    pub fn str(&mut self, v: &str) {
        self.separate();
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.separate();
        self.buf.push_str(&v.to_string());
    }

    /// Writes a float value in [`number`] form.
    pub fn f64(&mut self, v: f64) {
        self.separate();
        self.buf.push_str(&number(v));
    }

    /// Writes a float value with fixed decimal precision.
    pub fn f64_prec(&mut self, v: f64, decimals: usize) {
        self.separate();
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.decimals$}"));
        } else {
            self.buf.push('0');
        }
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.separate();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Embeds a pre-rendered JSON fragment verbatim (for composing with
    /// emitters that already validate their own output).
    pub fn raw(&mut self, json: &str) {
        self.separate();
        self.buf.push_str(json);
    }

    /// `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str(v);
    }

    /// `key` + unsigned integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// `key` + float value (shortest representation).
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64(v);
    }

    /// `key` + float value with fixed precision.
    pub fn field_f64_prec(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        self.f64_prec(v, decimals);
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool(v);
    }

    /// `key` + raw pre-rendered fragment.
    pub fn field_raw(&mut self, k: &str, json: &str) {
        self.key(k);
        self.raw(json);
    }

    /// Finishes the document, closing any frames left open, and returns
    /// the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        if self.pending_key {
            // A key with no value would be malformed; null it out.
            self.buf.push_str("null");
            self.pending_key = false;
        }
        while let Some(frame) = self.stack.pop() {
            self.buf.push(match frame {
                Frame::Obj { .. } => '}',
                Frame::Arr { .. } => ']',
            });
        }
        self.buf
    }
}

/// Line counts of a validated trace export, by event type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// `"meta"` lines (exactly 1).
    pub meta: usize,
    /// `"span"` lines.
    pub spans: usize,
    /// `"block"` lines.
    pub blocks: usize,
    /// `"summary"` lines (one per ISA).
    pub summaries: usize,
}

const STR: Shape = Shape::STR;
const NUM: Shape = Shape::NUM;
const NON_NEG: Shape = Shape::NON_NEG;

const TRACE_META: Shape = Shape::obj(&[Field::req("kernel scale icache scenario", STR)]);
const TRACE_SPAN: Shape = Shape::obj(&[Field::req("path", STR), Field::req("ms count", NON_NEG)]);
const TRACE_COSTS: Shape = Shape::obj(&[Field::req(
    "retired fetches switching_j internal_j leakage_j",
    NON_NEG,
)]);
const TRACE_BLOCK: Shape = Shape::obj(&[
    Field::req("addr label func", STR),
    Field::req("arm fits", TRACE_COSTS),
]);
const TRACE_SUMMARY: Shape = Shape::obj(&[
    Field::req("isa", STR),
    Field::req("cycles retired switching_j internal_j leakage_j", NON_NEG),
]);

/// Validates a `fitstrace --json` export against the trace JSONL schema.
///
/// # Errors
///
/// A description of the first offending line: a parse failure, an unknown
/// event type, a missing/ill-typed field, a `meta` line that is not first
/// or not unique, or a stream without a `summary`.
pub fn validate_trace_jsonl(text: &str) -> Result<TraceCounts, String> {
    let mut counts = TraceCounts::default();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let (shape, count) = match v.get("type").and_then(Value::as_str) {
            Some("meta") => {
                if counts != TraceCounts::default() {
                    return Err(format!(
                        "line {line}: \"meta\" must be the single first line"
                    ));
                }
                (&TRACE_META, &mut counts.meta)
            }
            Some("span") => (&TRACE_SPAN, &mut counts.spans),
            Some("block") => (&TRACE_BLOCK, &mut counts.blocks),
            Some("summary") => (&TRACE_SUMMARY, &mut counts.summaries),
            other => return Err(format!("line {line}: unknown event type {other:?}")),
        };
        *count += 1;
        check(&v, "", shape).map_err(|e| format!("line {line}: {e}"))?;
    }
    if counts.meta != 1 {
        return Err("stream must start with exactly one \"meta\" line".to_string());
    }
    if counts.summaries == 0 {
        return Err("stream has no \"summary\" line".to_string());
    }
    Ok(counts)
}

/// Parses `text` and checks it against `shape`.
fn parse_checked(text: &str, shape: &Shape) -> Result<Value, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    check(&doc, "", shape).map_err(|e| e.to_string())?;
    Ok(doc)
}

/// The array at `key` of a document already checked to hold one.
fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap_or_default()
}

/// The first id repeated among `records`' `"id"` strings.
fn duplicate_id(records: &[Value]) -> Option<(usize, &str)> {
    let ids: Vec<&str> = records
        .iter()
        .map(|r| r.get("id").and_then(Value::as_str).unwrap_or_default())
        .collect();
    (1..ids.len()).find_map(|i| ids[..i].contains(&ids[i]).then_some((i, ids[i])))
}

/// Shape summary of a validated `SWEEP.json` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Kernels listed in the archive.
    pub kernels: usize,
    /// I-cache sizes on the grid axis.
    pub icache_sizes: usize,
    /// Tech nodes on the grid axis.
    pub tech_nodes: usize,
    /// Scenario records (must equal the grid product).
    pub scenarios: usize,
}

/// The per-ISA aggregate record (`fits_bench::isa_json`) that `SWEEP.json`
/// scenarios and the `fitsd` simulate, sweep and multi bodies embed.
pub const ISA_TOTALS: Shape = Shape::obj(&[Field::req(
    "cycles icache_j icache_switching_j icache_internal_j icache_leakage_j chip_j peak_w",
    NON_NEG,
)]);
const SWEEP_SCENARIO: Shape = Shape::obj(&[
    Field::req("id", STR),
    Field::req("icache_bytes", NON_NEG),
    Field::req("tech", STR),
    Field::req("arm fits", ISA_TOTALS),
    // Savings may legitimately be negative (a configuration can lose).
    Field::req("icache_saving chip_saving", NUM),
]);
const SWEEP: Shape = Shape::obj(&[
    Field::req("schema", Shape::one_of(&["powerfits-sweep-v1"])),
    Field::req(
        "meta",
        Shape::obj(&[
            Field::req("commit host os arch", STR),
            Field::req("timestamp_unix", NON_NEG),
        ]),
    ),
    Field::req("scale_n executions_per_kernel", NON_NEG),
    Field::req("kernels", Shape::non_empty(&STR)),
    Field::req(
        "grid",
        Shape::obj(&[
            Field::req("icache_bytes", Shape::non_empty(&Shape::POSITIVE)),
            Field::req("tech", Shape::non_empty(&STR)),
        ]),
    ),
    Field::req("scenarios", Shape::non_empty(&SWEEP_SCENARIO)),
]);

/// Validates a `fitssweep` archive against the `powerfits-sweep-v1`
/// schema: provenance meta, non-empty kernel list and grid axes, and one
/// well-formed scenario record per grid point (unique ids, per-ISA
/// aggregates, savings) — the grid product must match the scenario count.
///
/// # Errors
///
/// A description of the first violation (parse failure, missing or
/// ill-typed field, duplicate or miscounted scenarios).
pub fn validate_sweep_json(text: &str) -> Result<SweepCounts, String> {
    let doc = parse_checked(text, &SWEEP)?;
    let grid = doc.get("grid").unwrap_or(&Value::Null);
    let (sizes, tech) = (arr(grid, "icache_bytes").len(), arr(grid, "tech").len());
    let scenarios = arr(&doc, "scenarios");
    if scenarios.len() != sizes * tech {
        return Err(format!(
            "scenario count {} must equal the grid product {sizes} x {tech}",
            scenarios.len()
        ));
    }
    if let Some((i, id)) = duplicate_id(scenarios) {
        return Err(format!("scenario {}: duplicate id \"{id}\"", i + 1));
    }
    Ok(SweepCounts {
        kernels: arr(&doc, "kernels").len(),
        icache_sizes: sizes,
        tech_nodes: tech,
        scenarios: scenarios.len(),
    })
}

/// Shape summary of a validated `powerfits-cache-bounds-v1` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheBoundsCounts {
    /// Kernel records in the report.
    pub kernels: usize,
    /// Stream records carrying a dynamic `bounds` join (≤ 2 per kernel).
    pub traced_streams: usize,
    /// Soundness violations across all streams.
    pub violations: usize,
}

const CACHE_STREAM: Shape = Shape::obj(&[
    Field::req(
        "words",
        Shape::obj(&[Field::req(
            "always_hit always_miss persistent unknown unreachable",
            NON_NEG,
        )]),
    ),
    Field::req("audit_findings blocks", NON_NEG),
    // Absent on a static-only stream.
    Field::opt(
        "bounds",
        Shape::obj(&[
            Field::req(
                "accesses misses miss_min miss_max energy_lo_j energy_hi_j",
                NON_NEG,
            ),
            Field::req("violations", Shape::arr(&STR)),
        ]),
    ),
]);
const CACHE_BOUNDS: Shape = Shape::obj(&[
    Field::req("schema", Shape::one_of(&["powerfits-cache-bounds-v1"])),
    Field::req("preset scale", STR),
    Field::req(
        "kernels",
        Shape::non_empty(&Shape::obj(&[
            Field::req("kernel", STR),
            Field::req("arm fits", CACHE_STREAM),
        ])),
    ),
    Field::req("sound", Shape::BOOL),
]);

/// Validates a `fitslint --cache` report against the
/// `powerfits-cache-bounds-v1` schema: provenance fields, one record per
/// kernel with `arm`/`fits` stream summaries (word-class counts, audit
/// finding count, block count, and — when the run was traced — the
/// dynamic `bounds` join with its violation list), plus a `sound` verdict
/// that must agree with the violation count.
///
/// # Errors
///
/// A description of the first violation (parse failure, missing or
/// ill-typed field, or a `sound` flag contradicting the violations).
pub fn validate_cache_bounds_json(text: &str) -> Result<CacheBoundsCounts, String> {
    let doc = parse_checked(text, &CACHE_BOUNDS)?;
    let kernels = arr(&doc, "kernels");
    let mut counts = CacheBoundsCounts {
        kernels: kernels.len(),
        ..CacheBoundsCounts::default()
    };
    for bounds in kernels
        .iter()
        .flat_map(|k| [k.get("arm"), k.get("fits")])
        .filter_map(|stream| stream?.get("bounds"))
    {
        counts.traced_streams += 1;
        counts.violations += arr(bounds, "violations").len();
    }
    let sound = doc.get("sound") == Some(&Value::Bool(true));
    if sound != (counts.violations == 0) {
        return Err(format!(
            "\"sound\": {sound} contradicts {} recorded violation(s)",
            counts.violations
        ));
    }
    Ok(counts)
}

/// Shape summary of a validated `PARETO.json` document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParetoCounts {
    /// Member kernels of the synthesis set.
    pub kernels: usize,
    /// Accepted candidate points.
    pub points: usize,
    /// Frontier size.
    pub frontier: usize,
    /// Rejected candidates.
    pub rejected: usize,
}

const PARETO_POINT: Shape = Shape::obj(&[
    Field::req("id", STR),
    Field::req(
        "space_budget max_dict_bits code_bytes icache_j decoder_slots config_bits iterations",
        NON_NEG,
    ),
    Field::req(
        "members",
        Shape::non_empty(&Shape::obj(&[
            Field::req("kernel", STR),
            Field::req(
                "solo_code_bytes shared_code_bytes solo_icache_j shared_icache_j \
                 solo_cycles shared_cycles",
                NON_NEG,
            ),
            // A shared ISA can beat a per-app one on a member.
            Field::req("regression", NUM),
        ])),
    ),
]);
const PARETO: Shape = Shape::obj(&[
    Field::req("schema", Shape::one_of(&["powerfits-pareto-v1"])),
    Field::req(
        "meta",
        Shape::obj(&[
            Field::req("commit host os arch isa merged_profile", STR),
            Field::req("timestamp_unix", NON_NEG),
        ]),
    ),
    Field::req("scale_n solo_code_bytes solo_icache_j", NON_NEG),
    Field::req("epsilon", NUM),
    Field::req("kernels", Shape::non_empty(&STR)),
    Field::req("points", Shape::non_empty(&PARETO_POINT)),
    Field::req(
        "frontier",
        Shape::non_empty(&Shape::int(0.0, f64::INFINITY)),
    ),
    Field::req(
        "rejected",
        Shape::arr(&Shape::obj(&[Field::req("id reason", STR)])),
    ),
]);

/// Validates a `fitspareto` archive against the `powerfits-pareto-v1`
/// schema: provenance meta carrying both the catalog and merged-profile
/// hashes, non-empty kernel list, accepted candidate points with
/// per-member power records (one per kernel), and a non-empty `frontier`
/// index list that is *exactly* the non-dominated set over (code bytes,
/// I-cache energy, decoder slots) — dominance is recomputed here, so a
/// frontier that drifted from its points cannot validate.
///
/// # Errors
///
/// A description of the first violation (parse failure, missing or
/// ill-typed field, empty or wrong frontier).
pub fn validate_pareto_json(text: &str) -> Result<ParetoCounts, String> {
    let doc = parse_checked(text, &PARETO)?;
    let kernels = arr(&doc, "kernels").len();
    let points = arr(&doc, "points");
    if let Some((i, id)) = duplicate_id(points) {
        return Err(format!("point {}: duplicate id \"{id}\"", i + 1));
    }
    let mut axes = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let members = arr(p, "members").len();
        if members != kernels {
            return Err(format!(
                "point {}: {members} member records for {kernels} kernels",
                i + 1
            ));
        }
        let axis = |key: &str| p.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        axes.push([axis("code_bytes"), axis("icache_j"), axis("decoder_slots")]);
    }

    let mut frontier = Vec::new();
    for f in arr(&doc, "frontier") {
        let idx = f.as_f64().unwrap_or(f64::INFINITY) as usize;
        if idx >= points.len() {
            return Err(format!("frontier entry {idx} is not a valid point index"));
        }
        if frontier.contains(&idx) {
            return Err(format!("frontier index {idx} listed twice"));
        }
        frontier.push(idx);
    }
    // Recompute the non-dominated set and demand exact agreement.
    let dominates =
        |a: &[f64; 3], b: &[f64; 3]| (0..3).all(|k| a[k] <= b[k]) && (0..3).any(|k| a[k] < b[k]);
    for (i, b) in axes.iter().enumerate() {
        let dominated = axes.iter().any(|a| dominates(a, b));
        if dominated && frontier.contains(&i) {
            return Err(format!("frontier point {i} is dominated"));
        }
        if !dominated && !frontier.contains(&i) {
            return Err(format!("non-dominated point {i} missing from the frontier"));
        }
    }

    Ok(ParetoCounts {
        kernels,
        points: points.len(),
        frontier: frontier.len(),
        rejected: arr(&doc, "rejected").len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Value::Num(-125.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Value::Str("a\nbA".to_string())
        );
        let v = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        match v.get("a") {
            Some(Value::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("\u{1F600}".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err(), "lone surrogate rejected");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "tru", "\"\x01\""] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\": ".repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // Far past the bound the parser still fails cleanly, not by
        // exhausting its stack.
        assert!(parse(&"[".repeat(50_000)).is_err());
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [1.000_000_2e-4, 1.0 / 3.0, 1e-300, 123_456_789.0, -0.5] {
            assert_eq!(parse(&number(v)).unwrap(), Value::Num(v));
        }
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "a\"b\\c\nd\te\u{1}f";
        let quoted = format!("\"{}\"", escape(original));
        assert_eq!(parse(&quoted).unwrap(), Value::Str(original.to_string()));
    }

    fn sample_lines() -> Vec<String> {
        vec![
            r#"{"type":"meta","kernel":"crc32","scale":"test","icache":"16k","scenario":"sa1100-i16k"}"#.to_string(),
            r#"{"type":"span","path":"flow/translate","ms":1.25,"count":1}"#.to_string(),
            format!(
                r#"{{"type":"block","addr":"0x8008","label":"main+0x8","func":"main","arm":{0},"fits":{0}}}"#,
                r#"{"retired":10,"fetches":4,"switching_j":1e-9,"internal_j":2e-9,"leakage_j":3e-12}"#
            ),
            r#"{"type":"summary","isa":"arm","cycles":100,"retired":80,"switching_j":1e-9,"internal_j":2e-9,"leakage_j":3e-12}"#.to_string(),
        ]
    }

    #[test]
    fn validates_a_wellformed_stream() {
        let text = sample_lines().join("\n");
        let counts = validate_trace_jsonl(&text).unwrap();
        assert_eq!(
            counts,
            TraceCounts {
                meta: 1,
                spans: 1,
                blocks: 1,
                summaries: 1
            }
        );
    }

    #[test]
    fn rejects_schema_violations() {
        let lines = sample_lines();
        // meta not first
        let swapped = format!("{}\n{}", lines[1], lines[0]);
        assert!(validate_trace_jsonl(&swapped).is_err());
        // missing summary
        assert!(validate_trace_jsonl(&lines[0]).is_err());
        // unknown type
        let unknown = format!("{}\n{{\"type\":\"bogus\"}}", lines[0]);
        assert!(validate_trace_jsonl(&unknown).is_err());
        // block without fits costs
        let bad_block = format!(
            "{}\n{}\n{}",
            lines[0],
            r#"{"type":"block","addr":"0x8000","label":"main","func":"main","arm":{"retired":1,"fetches":1,"switching_j":0,"internal_j":0,"leakage_j":0}}"#,
            lines[3]
        );
        let err = validate_trace_jsonl(&bad_block).unwrap_err();
        assert!(err.contains("fits"), "{err}");
    }

    fn cache_bounds_doc(sound: bool, violations: &str) -> String {
        let words =
            r#"{"always_hit":10,"always_miss":2,"persistent":1,"unknown":0,"unreachable":3}"#;
        let bounds = format!(
            r#"{{"accesses":100,"misses":4,"miss_min":2,"miss_max":8,"energy_lo_j":1e-9,"energy_hi_j":2e-9,"violations":{violations}}}"#
        );
        format!(
            r#"{{"schema":"powerfits-cache-bounds-v1","preset":"sa1100","scale":"test","kernels":[{{"kernel":"crc32","arm":{{"words":{words},"audit_findings":0,"blocks":7,"bounds":{bounds}}},"fits":{{"words":{words},"audit_findings":0,"blocks":9}}}}],"sound":{sound}}}"#
        )
    }

    #[test]
    fn validates_a_cache_bounds_report() {
        let counts = validate_cache_bounds_json(&cache_bounds_doc(true, "[]")).unwrap();
        assert_eq!(
            counts,
            CacheBoundsCounts {
                kernels: 1,
                traced_streams: 1,
                violations: 0
            }
        );
    }

    #[test]
    fn rejects_cache_bounds_violations() {
        // A report claiming soundness while recording a violation lies.
        let lying = cache_bounds_doc(true, r#"["set 0: out of bounds"]"#);
        let err = validate_cache_bounds_json(&lying).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");
        // The honest version of the same document validates.
        let honest = cache_bounds_doc(false, r#"["set 0: out of bounds"]"#);
        assert_eq!(validate_cache_bounds_json(&honest).unwrap().violations, 1);
        // Wrong schema string.
        let bad = cache_bounds_doc(true, "[]").replace("cache-bounds-v1", "cache-bounds-v0");
        assert!(validate_cache_bounds_json(&bad).is_err());
        // Missing word-class field.
        let chopped = cache_bounds_doc(true, "[]").replace(r#""unknown":0,"#, "");
        assert!(validate_cache_bounds_json(&chopped).is_err());
    }
}
