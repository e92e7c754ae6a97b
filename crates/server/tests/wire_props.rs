//! Property tests of the wire codec as a whole: what the server encodes,
//! the client decodes to the same answer whatever the row text holds, a
//! message head reads as a plain header reader would read it, and no
//! byte a peer can send panics a reader on either end.

use oodb_server::http::{
    read_request, read_response, RawResponse, ReadError, Response, MAX_HEADERS,
};
use oodb_server::json::{self, encode_output, Json};
use oodb_server::Client;
use oodb_service::{QueryOutput, StageBreakdown};
use proptest::prelude::*;
use std::io::BufReader;

/// Row text built from the hazards of a JSON string: quotes,
/// backslashes, text that looks like an escape, control bytes, non-BMP
/// characters, and any scalar value at all.
fn row_text() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just(String::from("\"")),
        Just(String::from("\\")),
        Just(String::from("\\u0022\\n")),
        Just(String::from("\u{0}\u{1}\n\t\r\u{1f}\u{7f}")),
        Just(String::from("𝄞😀\u{10ffff}")),
        Just(String::from("é — €")),
        "[ -~]{0,16}".prop_map(|s: String| s),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}').to_string()),
    ];
    proptest::collection::vec(fragment, 0..6).prop_map(|v| v.concat())
}

fn output() -> impl Strategy<Value = QueryOutput> {
    (
        proptest::collection::vec(row_text(), 0..5),
        proptest::collection::vec(row_text(), 0..3),
        (any::<bool>(), any::<bool>(), 0u64..(1 << 53), any::<u64>()),
        (0u64..(1 << 53), 0u64..(1 << 53), 0u64..(1 << 53)),
    )
        .prop_map(
            |(rows, indexes_used, (cache_hit, degraded, epoch, config_fp), (a, b, c))| {
                QueryOutput {
                    row_count: rows.len(),
                    rows,
                    cache_hit,
                    est_cost_s: 0.125,
                    sim_io_s: 0.5,
                    indexes_used,
                    stages: StageBreakdown {
                        parse_ns: a,
                        simplify_ns: b,
                        fingerprint_ns: c,
                        cache_probe_ns: a ^ b,
                        optimize_ns: b ^ c,
                        execute_ns: a ^ c,
                    },
                    buffer_hits: a,
                    buffer_misses: b,
                    trace: None,
                    degraded,
                    retries: (c % 7) as u32,
                    mem_peak_bytes: c,
                    spill_pages: 0,
                    stats_epoch: epoch,
                    config_fp,
                    drift: None,
                }
            },
        )
}

fn answer(status: u16, body: &[u8]) -> RawResponse {
    RawResponse {
        status,
        retry_after_s: None,
        body: body.to_vec(),
    }
}

/// `wire` with each `(at, byte)` written over position `at % len`, then
/// cut to `keep % (len + 1)` bytes when `cut` is set.
fn mutate(wire: &[u8], edits: &[(usize, u8)], cut: Option<usize>) -> Vec<u8> {
    let mut out = wire.to_vec();
    for &(at, byte) in edits {
        let len = out.len();
        out[at % len] = byte;
    }
    if let Some(keep) = cut {
        out.truncate(keep % (wire.len() + 1));
    }
    out
}

fn edits() -> impl Strategy<Value = (Vec<(usize, u8)>, Option<usize>)> {
    (
        proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        prop_oneof![Just(None), any::<usize>().prop_map(Some)],
    )
}

/// Header names: the three the readers act on, a near miss, two they
/// skip; the last slot draws a random name instead.
const NAMES: [&str; 6] = [
    "content-length",
    "connection",
    "retry-after",
    "content-length-x",
    "host",
    "content-type",
];
/// Header values, each of which parses for some name and not for others.
const VALUES: [&str; 14] = [
    "0",
    "4",
    "8",
    "9",
    "+3",
    "12abc",
    "",
    "close",
    "Keep-Alive",
    "CLOSE",
    "upgrade",
    "soon",
    "2",
    "18446744073709551616",
];
/// The body after every generated head: eight bytes, so a declared
/// length of 9 runs off the end.
const BODY: &[u8] = b"abcdefgh";

/// One syntactically valid header line: a name in random letter case and
/// a value, with optional blanks around each.
fn header_line() -> impl Strategy<Value = String> {
    (
        (0..NAMES.len() + 1, "[a-z-]{1,14}", any::<u64>()),
        0..VALUES.len(),
        ("[ \t]{0,2}", "[ \t]{0,2}", "[ \t]{0,2}", "[ \t]{0,2}"),
    )
        .prop_map(|((n, random, case), v, (a, b, c, d))| {
            let name: String = NAMES
                .get(n)
                .map_or(random.as_str(), |n| n)
                .chars()
                .enumerate()
                .map(|(i, ch)| match case >> (i % 64) & 1 {
                    1 => ch.to_ascii_uppercase(),
                    _ => ch,
                })
                .collect();
            format!("{a}{name}{b}:{c}{}{d}", VALUES[v])
        })
}

/// How a read ended, as far as the tests below tell reads apart.
fn class(e: ReadError) -> &'static str {
    match e {
        ReadError::Malformed(_) => "malformed",
        ReadError::Io(_) => "io",
        ReadError::Eof | ReadError::TooLarge { .. } => "other",
    }
}

/// `lines` as a request head and as a response head, each followed by
/// [`BODY`].
fn messages(lines: &[String], version: &str) -> (Vec<u8>, Vec<u8>) {
    let block: String = lines.iter().map(|l| format!("{l}\r\n")).collect();
    let request = format!("POST /q {version}\r\n{block}\r\n");
    let response = format!("HTTP/1.1 200 OK\r\n{block}\r\n");
    (
        [request.as_bytes(), BODY].concat(),
        [response.as_bytes(), BODY].concat(),
    )
}

/// Two `content-length` headers that disagree are refused on both ends
/// (RFC 7230 §3.3.2): a proxy that takes the other one would frame
/// another body. Repeats of one length are read as that length.
#[test]
fn differing_content_lengths_are_refused() {
    let (request, response) = messages(
        &["content-length: 2".into(), "Content-Length: 4".into()],
        "HTTP/1.1",
    );
    assert!(matches!(
        read_request(&mut BufReader::new(&request[..]), 1024),
        Err(ReadError::Malformed(_))
    ));
    assert!(matches!(
        read_response(&mut BufReader::new(&response[..])),
        Err(ReadError::Malformed(_))
    ));
    let (request, response) = messages(
        &["content-length: 2".into(), "Content-Length: 02".into()],
        "HTTP/1.1",
    );
    let req = read_request(&mut BufReader::new(&request[..]), 1024).unwrap();
    assert_eq!(req.body, b"ab");
    assert_eq!(
        read_response(&mut BufReader::new(&response[..]))
            .unwrap()
            .body,
        b"ab"
    );
}

#[test]
fn a_retry_after_that_does_not_parse_is_none() {
    for (value, seconds) in [("soon", None), ("7", Some(7)), ("7, 8", None)] {
        let (_, response) = messages(&[format!("Retry-After: {value}")], "HTTP/1.1");
        let resp = read_response(&mut BufReader::new(&response[..])).unwrap();
        assert_eq!(resp.retry_after_s, seconds, "{value}");
    }
}

#[test]
fn a_head_holds_at_most_max_headers_lines() {
    let lines = vec![String::from("x: y"); MAX_HEADERS + 1];
    let (request, response) = messages(&lines[..MAX_HEADERS], "HTTP/1.1");
    assert!(read_request(&mut BufReader::new(&request[..]), 0).is_ok());
    assert!(read_response(&mut BufReader::new(&response[..])).is_ok());
    let (request, response) = messages(&lines, "HTTP/1.1");
    for refused in [
        read_request(&mut BufReader::new(&request[..]), 0).map(drop),
        read_response(&mut BufReader::new(&response[..])).map(drop),
    ] {
        assert!(matches!(refused, Err(ReadError::Malformed(m)) if m == "too many headers"));
    }
}

const QUERY_BODY: &str = "{\"query\":\"SELECT c FROM City c IN Cities \
                          WHERE c.mayor().name() == \\\"Joe\\\"\",\"deadline_ms\":50}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (i) The answer the client decodes is the answer the server encoded.
    #[test]
    fn an_encoded_answer_decodes_to_the_same_answer(o in output()) {
        let wire = encode_output(&o);
        let decoded = Client::decode_output(&answer(200, wire.as_bytes()))
            .unwrap_or_else(|e| panic!("{e}\n{wire}"));
        prop_assert_eq!(&decoded.rows, &o.rows);
        prop_assert_eq!(&decoded.indexes_used, &o.indexes_used);
        prop_assert_eq!(decoded.row_count, o.row_count as u64);
        prop_assert_eq!(decoded.stages, o.stages);
        prop_assert_eq!(
            (decoded.cache_hit, decoded.degraded, decoded.retries),
            (o.cache_hit, o.degraded, u64::from(o.retries))
        );
        prop_assert_eq!(
            (decoded.stats_epoch, decoded.config_fp),
            (o.stats_epoch, o.config_fp)
        );
        // The tree reader agrees with the one-pass decode.
        let tree = json::parse(&wire).unwrap();
        let rows: Vec<&str> = tree
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.as_str().unwrap())
            .collect();
        prop_assert_eq!(rows, o.rows.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(json::hex_id(o.config_fp), format!("{:016x}", o.config_fp));
    }

    /// A message head reads as a plain reader of its header block reads
    /// it: split the lines, lowercase the names, take each name's first
    /// line; the value trimmed. The plain reader refuses a blank before a
    /// colon, and a `content-length` that is not all digits or differs
    /// from another.
    #[test]
    fn a_typed_head_reads_what_a_plain_reader_reads(
        lines in proptest::collection::vec(header_line(), 0..MAX_HEADERS + 1),
        http10 in any::<bool>(),
        capacity in 1usize..96,
    ) {
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let (request, response) = messages(&lines, version);
        let pairs: Vec<(String, &str)> = lines
            .iter()
            .map(|l| {
                let (name, value) = l.split_once(':').unwrap();
                (name.trim().to_ascii_lowercase(), value.trim())
            })
            .collect();
        let first = |name: &str| pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let blank_before_colon = lines
            .iter()
            .any(|l| l.split_once(':').unwrap().0.ends_with([' ', '\t']));
        let lengths: Vec<Option<usize>> = pairs
            .iter()
            .filter(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse().ok().filter(|_| v.bytes().all(|b| b.is_ascii_digit())))
            .collect();
        let body = match lengths.first() {
            _ if blank_before_colon => Err("malformed"),
            None => Ok(Vec::new()),
            Some(&first) => match first.filter(|_| lengths.iter().all(|&l| l == first)) {
                None => Err("malformed"),
                Some(n) if n > BODY.len() => Err("io"),
                Some(n) => Ok(BODY[..n].to_vec()),
            },
        };
        let close = match first("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => http10,
        };
        let retry_after_s = first("retry-after").and_then(|v| v.parse::<u64>().ok());

        let req = read_request(&mut BufReader::with_capacity(capacity, &request[..]), 1 << 20);
        prop_assert_eq!(
            req.map(|r| (r.body, r.close)).map_err(class),
            body.clone().map(|b| (b, close))
        );
        let resp = read_response(&mut BufReader::with_capacity(capacity, &response[..]));
        prop_assert_eq!(
            resp.map(|r| (r.body, r.retry_after_s)).map_err(class),
            body.map(|b| (b, retry_after_s))
        );
    }

    /// A digit-only integer reads as the float parser would read it.
    #[test]
    fn an_integer_reads_as_the_float_parser_reads_it(n in any::<u64>(), zeros in 0usize..3) {
        let text = format!("{}{n}", "0".repeat(zeros));
        let float = text.parse::<f64>().unwrap();
        prop_assert_eq!(json::parse(&text).unwrap(), Json::Num(float));
    }

    /// (ii) A mutated request never panics the server's readers.
    #[test]
    fn a_mutated_request_never_panics_the_readers(
        mutation in edits(),
        capacity in 1usize..96,
    ) {
        let (edits, cut) = mutation;
        let framed = format!(
            "POST /query HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: {}\r\n\r\n{QUERY_BODY}",
            QUERY_BODY.len()
        );
        let wire = mutate(framed.as_bytes(), &edits, cut);
        let mut r = BufReader::with_capacity(capacity, &wire[..]);
        if let Ok(req) = read_request(&mut r, 1 << 20) {
            if let Ok(text) = std::str::from_utf8(&req.body) {
                let _ = json::parse(text);
            }
        }
        let body = mutate(QUERY_BODY.as_bytes(), &edits, cut);
        let _ = json::parse(&String::from_utf8_lossy(&body));
    }

    /// (ii) A mutated response head or body never panics the client.
    #[test]
    fn a_mutated_response_never_panics_the_client(
        o in output(),
        mutation in edits(),
        capacity in 1usize..96,
        status in prop_oneof![Just(200u16), Just(429u16), Just(500u16)],
    ) {
        let (edits, cut) = mutation;
        let mut resp = Response::json(status, encode_output(&o));
        resp.retry_after_s = Some(1);
        let mut framed = Vec::new();
        resp.write_to(&mut framed).unwrap();
        let head = framed.len() - resp.body.len();
        // Mutate the head alone, then the body alone.
        let mut in_head = mutate(&framed[..head], &edits, cut);
        in_head.extend_from_slice(&resp.body);
        let mut r = BufReader::with_capacity(capacity, &in_head[..]);
        if let Ok(raw) = read_response(&mut r) {
            let _ = Client::decode_output(&raw);
        }
        let body = mutate(&resp.body, &edits, cut);
        let _ = Client::decode_output(&answer(status, &body));
        let _ = json::parse(&String::from_utf8_lossy(&body));
    }

    /// (iii) A duplicated key resolves to its last occurrence, in the
    /// tree and in the one-pass decode alike.
    #[test]
    fn a_duplicated_key_resolves_to_the_last(first in row_text(), last in row_text()) {
        let mut body = String::from("{\"k\":");
        json::push_escaped(&mut body, &first);
        body.push_str(",\"k\":");
        json::push_escaped(&mut body, &last);
        body.push('}');
        let tree = json::parse(&body).unwrap();
        prop_assert_eq!(tree.get("k").and_then(Json::as_str), Some(last.as_str()));
        let mut rows = String::from("{\"rows\":[");
        json::push_escaped(&mut rows, &first);
        rows.push_str("],\"rows\":[");
        json::push_escaped(&mut rows, &last);
        rows.push_str("]}");
        let decoded = Client::decode_output(&answer(200, rows.as_bytes())).unwrap();
        prop_assert_eq!(decoded.rows, vec![last]);
    }
}
