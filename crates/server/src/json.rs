//! Hand-rolled JSON for the wire protocol — same no-dependency policy as
//! `oodb-telemetry`'s metric export, but bidirectional: the server
//! parses request bodies and the client parses responses, so this
//! module carries one small recursive-descent reader next to the
//! encoders. The reader borrows from the text: [`parse`] builds a
//! [`Json`] whose unescaped strings are slices of the body, and the
//! client's answer decode walks the body without building one.
//!
//! Two conventions keep the format honest:
//!
//! * 64-bit identifiers (prepared-statement ids, config fingerprints)
//!   travel as **16-digit lowercase hex strings**, never as JSON
//!   numbers — an f64 silently corrupts integers above 2^53 and every
//!   fingerprint hash lives up there.
//! * Every error body is `{"error": {"kind": ..., "message": ...}}`
//!   with one `kind` per [`ServiceError`] variant plus the variant's
//!   fields, so a client can reconstruct the *typed* error
//!   ([`decode_error`]) instead of pattern-matching prose.

use oodb_service::{QueryOutput, ServiceError, ShedReason, StageBreakdown};
/// Appends a string JSON-escaped (with surrounding quotes) — the
/// workspace's one escaper.
pub use oodb_telemetry::metrics::push_escaped;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Arrays and objects nested deeper than this are refused: each level is
/// a stack frame of the reader, and a thread's stack is not a
/// wire-controlled resource. The protocol's deepest document nests 3.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the text it was read from: a
/// string without escapes is a slice of that text, and only one that
/// carries escapes is copied out. [`Json::into_owned`] detaches a value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as f64 (ids travel as hex strings instead).
    Num(f64),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object: its members in document order, a duplicated key kept
    /// as often as it appears. A lookup takes the last one, so the last
    /// duplicate wins; equality compares members in order.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Field lookup on an object (the last member of that name); `None`
    /// on any other variant.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(m) => m.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a u64 (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The same value, owning every string it holds.
    pub fn into_owned(self) -> Json<'static> {
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            Json::Null => Json::Null,
            Json::Bool(b) => Json::Bool(b),
            Json::Num(n) => Json::Num(n),
            Json::Str(s) => Json::Str(own(s)),
            Json::Arr(v) => Json::Arr(v.into_iter().map(Json::into_owned).collect()),
            Json::Obj(m) => Json::Obj(
                m.into_iter()
                    .map(|(k, v)| (own(k), v.into_owned()))
                    .collect(),
            ),
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json<'_>, String> {
    let mut r = Reader::new(src);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// A cursor over one JSON text — the one parser. [`parse`] builds a
/// [`Json`] with it; a decoder that knows the shape it expects walks the
/// text member by member instead ([`Reader::object`], [`Reader::array`])
/// and builds nothing it does not return.
pub(crate) struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    /// The next byte after whitespace, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        let b = self.src.as_bytes();
        while matches!(b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        b.get(self.pos).copied()
    }

    /// Ends the document: only whitespace may follow.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(_) => Err(format!("trailing bytes at offset {}", self.pos)),
            None => Ok(()),
        }
    }

    /// The value at the cursor, built.
    pub(crate) fn value(&mut self) -> Result<Json<'a>, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|r, key| {
                    members.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number().map(Json::Num),
        }
    }

    fn literal(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// A digit-only integer that fits a u64 skips the float parser: `as`
    /// rounds it to the nearest f64 exactly as `parse::<f64>` does.
    fn number(&mut self) -> Result<f64, String> {
        let b = self.src.as_bytes();
        let start = self.pos;
        if b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            b.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &b[start..self.pos];
        let integer = (!text.is_empty())
            .then(|| {
                text.iter().try_fold(0u64, |n, &d| {
                    d.is_ascii_digit()
                        .then(|| n.checked_mul(10)?.checked_add(u64::from(d - b'0')))
                        .flatten()
                })
            })
            .flatten();
        integer
            .map(|n| n as f64)
            .or_else(|| {
                std::str::from_utf8(text)
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|n| n.is_finite())
            })
            .ok_or_else(|| format!("invalid number at offset {start}"))
    }

    /// The string at the cursor (the caller peeked its quote): a slice of
    /// the text unless it carries escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, String> {
        debug_assert_eq!(self.src.as_bytes().get(self.pos), Some(&b'"'));
        self.pos += 1;
        let b = self.src.as_bytes();
        let mut unescaped: Option<String> = None;
        loop {
            // The run up to the next quote, escape or control byte: all
            // ASCII, so the run ends on a character boundary.
            let start = self.pos;
            while let Some(&c) = b.get(self.pos) {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = self.src.get(start..self.pos).ok_or("invalid utf-8")?;
            match b.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    self.escape(out)?;
                }
                Some(_) => return Err("raw control byte in string".into()),
            }
        }
    }

    /// One escape, the cursor just past its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let b = self.src.as_bytes();
        let esc = *b.get(self.pos).ok_or("unterminated escape")?;
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let cp = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: the low half must follow.
                    if b.get(self.pos) != Some(&b'\\') || b.get(self.pos + 1) != Some(&b'u') {
                        return Err("lone high surrogate".into());
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("invalid low surrogate".into());
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(cp).ok_or("invalid codepoint")?);
            }
            _ => return Err(format!("invalid escape \\{}", esc as char)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        self.pos += 4;
        hex_digits(chunk)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| "invalid \\u escape".into())
    }

    /// Walks the array at the cursor (the caller peeked its `[`); `item`
    /// consumes each element.
    pub(crate) fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        if self.peek() != Some(b']') {
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                }
            }
        }
        self.close();
        Ok(())
    }

    /// Walks the object at the cursor (the caller peeked its `{`);
    /// `member` gets each key and consumes its value. Duplicated keys are each handed over, in
    /// document order.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        if self.peek() != Some(b'}') {
            loop {
                if self.peek() != Some(b'"') {
                    return Err(format!("expected object key at offset {}", self.pos));
                }
                let key = self.string()?;
                if self.peek() != Some(b':') {
                    return Err(format!("expected ':' at offset {}", self.pos));
                }
                self.pos += 1;
                member(self, key)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                }
            }
        }
        self.close();
        Ok(())
    }

    fn open(&mut self, bracket: u8) -> Result<(), String> {
        debug_assert_eq!(self.src.as_bytes().get(self.pos), Some(&bracket));
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nested deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.pos += 1;
        Ok(())
    }

    /// Steps past the closing bracket `array` or `object` stopped at.
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
    }
}

/// A u64 identifier in wire form: 16 lowercase hex digits.
pub fn hex_id(id: u64) -> String {
    let mut out = String::with_capacity(16);
    push_hex_id(&mut out, id);
    out
}

/// Appends [`hex_id`]`(id)` to `out`.
pub(crate) fn push_hex_id(out: &mut String, id: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..16).rev() {
        out.push(char::from(DIGITS[(id >> (shift * 4)) as usize & 0xf]));
    }
}

/// Parses a wire-form identifier ([`hex_id`]).
pub fn parse_hex_id(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| hex_digits(s.as_bytes())).flatten()
}

/// The value of at most 16 hex digits; `None` if any byte is not one
/// (`from_str_radix` would also take a leading `+`).
fn hex_digits(digits: &[u8]) -> Option<u64> {
    debug_assert!(digits.len() <= 16);
    digits.iter().try_fold(0u64, |n, &d| {
        Some(n << 4 | u64::from(char::from(d).to_digit(16)?))
    })
}

/// The wire keys of a [`StageBreakdown`], in field order.
const STAGE_KEYS: [&str; 6] = [
    "parse_ns",
    "simplify_ns",
    "fingerprint_ns",
    "cache_probe_ns",
    "optimize_ns",
    "execute_ns",
];

/// Appends a [`StageBreakdown`] to `out` as a JSON object.
pub fn encode_stages(out: &mut String, s: &StageBreakdown) {
    let _ = write!(
        out,
        "{{\"parse_ns\":{},\"simplify_ns\":{},\"fingerprint_ns\":{},\
         \"cache_probe_ns\":{},\"optimize_ns\":{},\"execute_ns\":{}}}",
        s.parse_ns, s.simplify_ns, s.fingerprint_ns, s.cache_probe_ns, s.optimize_ns, s.execute_ns
    );
}

/// The [`StageBreakdown`] whose wire object is at the cursor, read in
/// place; `None` unless it is an object holding all six fields.
pub(crate) fn read_stages(r: &mut Reader<'_>) -> Result<Option<StageBreakdown>, String> {
    if r.peek() != Some(b'{') {
        return r.value().map(|_| None);
    }
    let mut fields = [None; 6];
    r.object(|r, key| {
        let value = r.value()?;
        if let Some(i) = STAGE_KEYS.iter().position(|k| *k == key) {
            fields[i] = value.as_u64();
        }
        Ok(())
    })?;
    let all_six = || {
        Some(StageBreakdown {
            parse_ns: fields[0]?,
            simplify_ns: fields[1]?,
            fingerprint_ns: fields[2]?,
            cache_probe_ns: fields[3]?,
            optimize_ns: fields[4]?,
            execute_ns: fields[5]?,
        })
    };
    Ok(all_six())
}

/// Encodes a successful [`QueryOutput`] as the `POST /query` /
/// `POST /execute/{id}` response body. The operator trace is omitted —
/// it is an interactive `EXPLAIN ANALYZE` artifact, not a serving one.
pub fn encode_output(o: &QueryOutput) -> String {
    let mut out = String::with_capacity(512 + o.rows.iter().map(|r| r.len() + 3).sum::<usize>());
    out.push_str("{\"rows\":[");
    for (i, row) in o.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, row);
    }
    let _ = write!(
        out,
        "],\"row_count\":{},\"cache_hit\":{},\"degraded\":{},\"retries\":{},\
         \"est_cost_s\":{},\"sim_io_s\":{},\"buffer_hits\":{},\"buffer_misses\":{},\
         \"mem_peak_bytes\":{},\"spill_pages\":{},\"stats_epoch\":{},",
        o.row_count,
        o.cache_hit,
        o.degraded,
        o.retries,
        o.est_cost_s,
        o.sim_io_s,
        o.buffer_hits,
        o.buffer_misses,
        o.mem_peak_bytes,
        o.spill_pages,
        o.stats_epoch,
    );
    // Hex digits need no escaping: the quotes go on as they are.
    out.push_str("\"config_fp\":\"");
    push_hex_id(&mut out, o.config_fp);
    out.push_str("\",\"indexes_used\":[");
    for (i, ix) in o.indexes_used.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, ix);
    }
    out.push_str("],\"stages\":");
    encode_stages(&mut out, &o.stages);
    out.push('}');
    out
}

/// Encodes a [`ServiceError`] as the inner `error` object:
/// `{"kind": ..., "message": ..., <variant fields>}`.
pub fn encode_error(e: &ServiceError) -> String {
    let mut out = String::from("{\"kind\":");
    let kind = error_kind(e);
    push_escaped(&mut out, kind);
    out.push_str(",\"message\":");
    push_escaped(&mut out, &e.to_string());
    match e {
        ServiceError::Zql(z) => {
            out.push_str(",\"zql_msg\":");
            push_escaped(&mut out, &z.msg);
            if let Some(p) = z.pos {
                let _ = write!(out, ",\"pos\":{p}");
            }
        }
        ServiceError::UnknownStatement { id } => {
            out.push_str(",\"id\":");
            push_escaped(&mut out, &hex_id(*id));
        }
        ServiceError::DeadlineExceeded { stage } => {
            out.push_str(",\"stage\":");
            push_escaped(&mut out, stage);
        }
        ServiceError::RowBudgetExceeded { budget } => {
            let _ = write!(out, ",\"budget\":{budget}");
        }
        ServiceError::Overloaded { reason } => {
            out.push_str(",\"reason\":");
            push_escaped(&mut out, shed_reason_kind(*reason));
        }
        ServiceError::MemoryExhausted { requested, budget } => {
            let _ = write!(out, ",\"requested\":{requested},\"budget\":{budget}");
        }
        ServiceError::StorageFault { transient, retries } => {
            let _ = write!(out, ",\"transient\":{transient},\"retries\":{retries}");
        }
        ServiceError::Exec(msg) | ServiceError::Panicked(msg) => {
            out.push_str(",\"detail\":");
            push_escaped(&mut out, msg);
        }
        ServiceError::NoPlan | ServiceError::Cancelled => {}
    }
    out.push('}');
    out
}

/// The wire `kind` discriminant for each error variant.
pub fn error_kind(e: &ServiceError) -> &'static str {
    match e {
        ServiceError::Zql(_) => "zql",
        ServiceError::NoPlan => "no_plan",
        ServiceError::UnknownStatement { .. } => "unknown_statement",
        ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
        ServiceError::Cancelled => "cancelled",
        ServiceError::RowBudgetExceeded { .. } => "row_budget_exceeded",
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::MemoryExhausted { .. } => "memory_exhausted",
        ServiceError::StorageFault { .. } => "storage_fault",
        ServiceError::Exec(_) => "exec",
        ServiceError::Panicked(_) => "panicked",
    }
}

fn shed_reason_kind(r: ShedReason) -> &'static str {
    match r {
        ShedReason::QueueFull => "queue_full",
        ShedReason::CircuitOpen => "circuit_open",
        ShedReason::MemoryPressure => "memory_pressure",
    }
}

/// Reconstructs the typed [`ServiceError`] from a parsed `error` object —
/// the client-side inverse of [`encode_error`]. Unknown kinds decode to
/// [`ServiceError::Exec`] carrying the raw message, so a newer server
/// never strands an older client without an error value.
pub fn decode_error(v: &Json<'_>) -> ServiceError {
    let msg = || {
        v.get("message")
            .and_then(Json::as_str)
            .unwrap_or("malformed error body")
            .to_string()
    };
    match v.get("kind").and_then(Json::as_str).unwrap_or("") {
        "zql" => ServiceError::Zql(zql::ZqlError {
            msg: v
                .get("zql_msg")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            pos: v.get("pos").and_then(Json::as_u64).map(|p| p as usize),
        }),
        "no_plan" => ServiceError::NoPlan,
        "unknown_statement" => ServiceError::UnknownStatement {
            id: v
                .get("id")
                .and_then(Json::as_str)
                .and_then(parse_hex_id)
                .unwrap_or(0),
        },
        "deadline_exceeded" => ServiceError::DeadlineExceeded {
            // Stage names are &'static str in the service; map the known
            // ones, defaulting to "execute" (the only stage that errors
            // today).
            stage: match v.get("stage").and_then(Json::as_str) {
                Some("optimize") => "optimize",
                _ => "execute",
            },
        },
        "cancelled" => ServiceError::Cancelled,
        "row_budget_exceeded" => ServiceError::RowBudgetExceeded {
            budget: v.get("budget").and_then(Json::as_u64).unwrap_or(0),
        },
        "overloaded" => ServiceError::Overloaded {
            reason: match v.get("reason").and_then(Json::as_str) {
                Some("circuit_open") => ShedReason::CircuitOpen,
                Some("memory_pressure") => ShedReason::MemoryPressure,
                _ => ShedReason::QueueFull,
            },
        },
        "memory_exhausted" => ServiceError::MemoryExhausted {
            requested: v.get("requested").and_then(Json::as_u64).unwrap_or(0),
            budget: v.get("budget").and_then(Json::as_u64).unwrap_or(0),
        },
        "storage_fault" => ServiceError::StorageFault {
            transient: v.get("transient").and_then(Json::as_bool).unwrap_or(false),
            retries: v.get("retries").and_then(Json::as_u64).unwrap_or(0) as u32,
        },
        "panicked" => ServiceError::Panicked(
            v.get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        ),
        _ => ServiceError::Exec(
            v.get("detail")
                .and_then(Json::as_str)
                .map(str::to_string)
                .unwrap_or_else(msg),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_survives_a_parse_round_trip() {
        let nasty = "he said \"hi\"\\\n\tcol\u{1}umn\r — €𝄞";
        let mut enc = String::new();
        push_escaped(&mut enc, nasty);
        assert_eq!(parse(&enc).unwrap(), Json::Str(nasty.to_string().into()));
        // The encoder must emit \u escapes for control bytes, never raw.
        assert!(enc.contains("\\u0001"), "{enc}");
        assert!(
            !enc.bytes().any(|b| b < 0x20 && b != b'\\'),
            "raw control byte leaked"
        );
    }

    #[test]
    fn parser_handles_structures_numbers_and_unicode_escapes() {
        let v =
            parse(r#"{"a":[1,-2.5,1e3,true,false,null],"b":{"k":"\u00e9\ud834\udd1e"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 6);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(v.get("b").unwrap().get("k").unwrap().as_str(), Some("é𝄞"));
    }

    #[test]
    fn nesting_is_refused_past_the_cap_without_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // A body under the server's 1 MiB cap that once overflowed a
        // connection thread's stack and aborted the process.
        assert!(parse(&"[{\"a\":".repeat(50_000)).is_err());
    }

    #[test]
    fn strings_without_escapes_borrow_from_the_text() {
        let v = parse(r#"{"plain":"abc","escaped":"a\nb"}"#).unwrap();
        assert!(matches!(
            v.get("plain"),
            Some(Json::Str(Cow::Borrowed("abc")))
        ));
        assert!(matches!(v.get("escaped"), Some(Json::Str(Cow::Owned(s))) if s == "a\nb"));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("00042").unwrap(), Json::Num(42.0));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1e999",
            "{\"a\":1}x",
            "\"\\u12\"",
            "\"\\ud834\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_sign_is_not_a_hex_digit() {
        assert!(parse("\"\\u+041\"").is_err());
        assert_eq!(parse_hex_id("+123456789abcdef"), None);
        assert_eq!(
            parse_hex_id("0123456789ABCDEF"),
            Some(0x0123_4567_89ab_cdef)
        );
    }

    #[test]
    fn hex_ids_round_trip() {
        for id in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(parse_hex_id(&hex_id(id)), Some(id));
        }
        assert_eq!(parse_hex_id("xyz"), None);
        assert_eq!(parse_hex_id("123"), None, "short ids are rejected");
    }

    #[test]
    fn every_error_variant_round_trips() {
        let variants = vec![
            ServiceError::Zql(zql::ZqlError {
                msg: "unexpected token \"}\"".into(),
                pos: Some(17),
            }),
            ServiceError::NoPlan,
            ServiceError::UnknownStatement {
                id: 0xabcdef0123456789,
            },
            ServiceError::DeadlineExceeded { stage: "execute" },
            ServiceError::Cancelled,
            ServiceError::RowBudgetExceeded { budget: 1000 },
            ServiceError::Overloaded {
                reason: ShedReason::QueueFull,
            },
            ServiceError::Overloaded {
                reason: ShedReason::CircuitOpen,
            },
            ServiceError::Overloaded {
                reason: ShedReason::MemoryPressure,
            },
            ServiceError::MemoryExhausted {
                requested: 4096,
                budget: 1024,
            },
            ServiceError::StorageFault {
                transient: true,
                retries: 3,
            },
            ServiceError::Exec("join side \"inner\"\nfailed".into()),
            ServiceError::Panicked("index out of bounds".into()),
        ];
        for e in variants {
            let wire = encode_error(&e);
            let parsed = parse(&wire).unwrap_or_else(|err| panic!("{wire}: {err}"));
            assert_eq!(decode_error(&parsed), e, "wire: {wire}");
            // Every encoding carries the human-readable message too.
            assert_eq!(
                parsed.get("message").and_then(Json::as_str),
                Some(e.to_string().as_str())
            );
        }
    }

    #[test]
    fn output_encoding_parses_and_preserves_fields() {
        let out = QueryOutput {
            rows: vec!["task \"a\"".into(), "row\t2".into()],
            row_count: 2,
            cache_hit: true,
            est_cost_s: 0.5,
            sim_io_s: 0.25,
            indexes_used: vec!["Tasks.time".into()],
            stages: StageBreakdown {
                parse_ns: 1,
                simplify_ns: 2,
                fingerprint_ns: 3,
                cache_probe_ns: 4,
                optimize_ns: 5,
                execute_ns: 6,
            },
            buffer_hits: 7,
            buffer_misses: 8,
            trace: None,
            degraded: false,
            retries: 1,
            mem_peak_bytes: 9,
            spill_pages: 11,
            stats_epoch: 12,
            config_fp: u64::MAX - 1,
            drift: Some((40.0, 2)),
        };
        let wire = encode_output(&out);
        let v = parse(&wire).unwrap();
        let rows: Vec<&str> = v
            .get("rows")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.as_str().unwrap())
            .collect();
        assert_eq!(rows, ["task \"a\"", "row\t2"]);
        assert_eq!(v.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("config_fp")
                .and_then(Json::as_str)
                .and_then(parse_hex_id),
            Some(u64::MAX - 1),
            "config_fp must survive as a hex string, not an f64"
        );
        let answer = crate::http::RawResponse {
            status: 200,
            retry_after_s: None,
            body: wire.clone().into_bytes(),
        };
        assert_eq!(
            crate::Client::decode_output(&answer).unwrap().stages,
            out.stages
        );
        assert!(v.get("drift").is_none(), "drift is in-process only");
    }
}
