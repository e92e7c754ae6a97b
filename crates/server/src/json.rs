//! Hand-rolled JSON for the wire protocol — same no-dependency policy as
//! `oodb-telemetry`'s metric export, but bidirectional: the server
//! parses request bodies and the client parses responses, so this
//! module carries a small recursive-descent parser next to the
//! encoders.
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
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep insertion order irrelevant — they
/// are stored sorted by key, which is fine for a protocol whose readers
/// only ever look fields up by name.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as f64 (ids travel as hex strings instead).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on an object; `None` on any other variant.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
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
                        let hi = parse_hex4(b, pos)?;
                        let cp = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                                return Err("lone high surrogate".into());
                            }
                            *pos += 2;
                            let lo = parse_hex4(b, pos)?;
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
            }
            Some(&c) if c < 0x20 => return Err("raw control byte in string".into()),
            Some(_) => {
                // Copy the whole run up to the next quote, escape, or
                // control byte in one shot, validating only that span
                // (validating from `pos` to the end per character turns
                // large-row bodies O(n^2)).
                let start = *pos;
                while let Some(&c) = b.get(*pos) {
                    if c == b'"' || c == b'\\' || c < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid utf-8")?;
                out.push_str(run);
            }
        }
    }
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let chunk = b
        .get(*pos..*pos + 4)
        .and_then(|c| std::str::from_utf8(c).ok())
        .ok_or("truncated \\u escape")?;
    *pos += 4;
    u32::from_str_radix(chunk, 16).map_err(|_| "invalid \\u escape".into())
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {}", *pos));
        }
        *pos += 1;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

/// A u64 identifier in wire form: 16 lowercase hex digits.
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a wire-form identifier ([`hex_id`]).
pub fn parse_hex_id(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// Encodes a [`StageBreakdown`] as a JSON object.
pub fn encode_stages(s: &StageBreakdown) -> String {
    format!(
        "{{\"parse_ns\":{},\"simplify_ns\":{},\"fingerprint_ns\":{},\
         \"cache_probe_ns\":{},\"optimize_ns\":{},\"execute_ns\":{}}}",
        s.parse_ns, s.simplify_ns, s.fingerprint_ns, s.cache_probe_ns, s.optimize_ns, s.execute_ns
    )
}

/// Decodes a [`StageBreakdown`] from its wire object.
pub fn decode_stages(v: &Json) -> Option<StageBreakdown> {
    let field = |k: &str| v.get(k).and_then(Json::as_u64);
    Some(StageBreakdown {
        parse_ns: field("parse_ns")?,
        simplify_ns: field("simplify_ns")?,
        fingerprint_ns: field("fingerprint_ns")?,
        cache_probe_ns: field("cache_probe_ns")?,
        optimize_ns: field("optimize_ns")?,
        execute_ns: field("execute_ns")?,
    })
}

/// Encodes a successful [`QueryOutput`] as the `POST /query` /
/// `POST /execute/{id}` response body. The operator trace is omitted —
/// it is an interactive `EXPLAIN ANALYZE` artifact, not a serving one.
pub fn encode_output(o: &QueryOutput) -> String {
    let mut out = String::with_capacity(256 + o.rows.iter().map(|r| r.len() + 3).sum::<usize>());
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
    out.push_str("\"config_fp\":");
    push_escaped(&mut out, &hex_id(o.config_fp));
    out.push_str(",\"indexes_used\":[");
    for (i, ix) in o.indexes_used.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(&mut out, ix);
    }
    out.push_str("],\"stages\":");
    out.push_str(&encode_stages(&o.stages));
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
pub fn decode_error(v: &Json) -> ServiceError {
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
        assert_eq!(parse(&enc).unwrap(), Json::Str(nasty.to_string()));
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
        let v = parse(&encode_output(&out)).unwrap();
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
        assert_eq!(decode_stages(v.get("stages").unwrap()).unwrap(), out.stages);
        assert!(v.get("drift").is_none(), "drift is in-process only");
    }
}
