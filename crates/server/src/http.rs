//! A deliberately small HTTP/1.1 subset — exactly what the protocol
//! needs and nothing more: request-line + headers + `Content-Length`
//! bodies, keep-alive by default, pipelining for free (requests are
//! read sequentially off one `BufRead`, responses written in order).
//! No chunked encoding, no TLS, no multipart — those belong to a real
//! proxy in front, not to a reproduction's serving layer.
//!
//! Every message is framed whole into one buffer and leaves in one
//! write: both ends set `TCP_NODELAY`, so each write is its own segment
//! and a wakeup of the peer's reader.

use std::io::{self, BufRead, IoSlice, Write};

/// Hard ceilings on framing, in both directions and independent of the
/// server's configurable body cap: one header line and the total header
/// block. Oversized framing is a malformed message, not a negotiation.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// The most header lines a message head may carry, in both directions.
pub const MAX_HEADERS: usize = 64;
/// The largest response body, on both ends: the server answers a larger
/// one with a typed error instead, and a client refuses a head declaring
/// more before anything is allocated for it.
pub(crate) const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// True when the client asked to drop the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

/// Why reading a request failed — each class maps to a different
/// connection outcome.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before any request byte: the peer is done; close quietly.
    Eof,
    /// Socket-level failure (including read-timeout expiry).
    Io(io::Error),
    /// Syntactically invalid framing → `400`, then close (the stream
    /// position is unrecoverable).
    Malformed(String),
    /// `Content-Length` above the reader's cap → `413`, then close
    /// (the body was never read).
    TooLarge {
        /// The declared length that broke the cap.
        declared: usize,
    },
}

/// Hands one line, without its `\n` (and `\r`), to `take`: straight out
/// of the reader's buffer when the line sits whole in it, else gathered
/// into `spill` across fills. At most `MAX_LINE_BYTES` before the `\n`.
fn with_line<T>(
    r: &mut impl BufRead,
    spill: &mut Vec<u8>,
    take: impl FnOnce(&str) -> Result<T, ReadError>,
) -> Result<T, ReadError> {
    spill.clear();
    loop {
        let chunk = r.fill_buf().map_err(ReadError::Io)?;
        if chunk.is_empty() {
            return Err(if spill.is_empty() {
                ReadError::Eof
            } else {
                ReadError::Malformed("eof mid-line".into())
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let used = newline.unwrap_or(chunk.len());
        if spill.len() + used > MAX_LINE_BYTES {
            return Err(ReadError::Malformed("header line too long".into()));
        }
        let Some(end) = newline else {
            spill.extend_from_slice(chunk);
            r.consume(used);
            continue;
        };
        let line = if spill.is_empty() {
            &chunk[..end]
        } else {
            spill.extend_from_slice(&chunk[..end]);
            &spill[..]
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let taken = std::str::from_utf8(line)
            .map_err(|_| ReadError::Malformed("non-utf8 header line".into()))
            .and_then(take);
        r.consume(end + 1);
        return taken;
    }
}

/// What a message head says, read from the three headers the protocol
/// acts on. `connection` and `retry-after` hold their first occurrence's
/// trimmed value as parsed; later occurrences are ignored.
#[derive(Default)]
struct Head {
    /// `content-length`: all digits, one value however often it repeats.
    content_length: Option<usize>,
    /// `connection`: `close` is `Some(true)`, `keep-alive` `Some(false)`,
    /// any other value `None`.
    close: Option<Option<bool>>,
    /// `retry-after` in seconds; `None` where it does not parse.
    retry_after_s: Option<Option<u64>>,
}

/// The header block up to its blank line, at most `MAX_HEADERS` lines.
/// Every line is checked for syntax; only the three headers [`Head`]
/// holds are kept, matched by name while the line is still in the
/// reader's buffer. A head a proxy could frame differently is malformed
/// (RFC 7230 §3.2.4, §3.3.2): a blank between a name and its colon, and
/// a `content-length` that is not all digits or disagrees with another.
fn read_head(r: &mut impl BufRead, spill: &mut Vec<u8>) -> Result<Head, ReadError> {
    let (mut head, mut lines) = (Head::default(), 0);
    loop {
        let more = with_line(r, spill, |line| {
            if line.is_empty() {
                return Ok(false);
            }
            let malformed = |what| ReadError::Malformed(format!("{what} {line:?}"));
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| malformed("bad header line"))?;
            if name.ends_with([' ', '\t']) {
                return Err(malformed("blank before the colon of"));
            }
            let (name, value) = (name.trim_start(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                let digits = value.bytes().all(|b| b.is_ascii_digit());
                let len = value.parse().ok().filter(|_| digits);
                match (len, head.content_length) {
                    (Some(len), None) => head.content_length = Some(len),
                    (Some(len), Some(first)) if len == first => {}
                    _ => return Err(malformed("bad content-length in")),
                }
            } else if name.eq_ignore_ascii_case("connection") {
                let is = |token: &str| value.eq_ignore_ascii_case(token);
                head.close
                    .get_or_insert_with(|| (is("close") || is("keep-alive")).then(|| is("close")));
            } else if name.eq_ignore_ascii_case("retry-after") {
                head.retry_after_s.get_or_insert_with(|| value.parse().ok());
            }
            Ok(true)
        });
        match more {
            Ok(true) => {}
            Ok(false) => return Ok(head),
            Err(ReadError::Eof) => return Err(ReadError::Malformed("eof in headers".into())),
            Err(e) => return Err(e),
        }
        lines += 1;
        if lines > MAX_HEADERS {
            return Err(ReadError::Malformed("too many headers".into()));
        }
    }
}

/// The body `content_length` declares (none: empty); one over `max_body`
/// is refused unread.
fn read_body(
    r: &mut impl BufRead,
    content_length: Option<usize>,
    max_body: usize,
) -> Result<Vec<u8>, ReadError> {
    let len = content_length.unwrap_or(0);
    if len > max_body {
        return Err(ReadError::TooLarge { declared: len });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(ReadError::Io)?;
    Ok(body)
}

/// Appends one request, framed the way [`crate::Client`] sends it, to
/// `out`: request line, `host`, `content-length`, blank line, body.
pub(crate) fn frame_request(out: &mut Vec<u8>, method: &str, path: &str, host: &str, body: &str) {
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
}

/// Reads one request off the stream. `max_body` caps the declared
/// `Content-Length`; an over-cap body is rejected *without* reading it.
pub fn read_request(r: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let mut spill = Vec::new();
    let (method, path, http10) = with_line(r, &mut spill, |line| {
        let mut parts = line.split_whitespace();
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
            _ => return Err(ReadError::Malformed(format!("bad request line {line:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(ReadError::Malformed(format!(
                "unsupported version {version:?}"
            )));
        }
        let path = target.split('?').next().unwrap_or(target);
        if !path.starts_with('/') {
            return Err(ReadError::Malformed(format!(
                "bad request target {target:?}"
            )));
        }
        Ok((method.to_string(), path.to_string(), version == "HTTP/1.0"))
    })?;

    let head = read_head(r, &mut spill)?;
    Ok(Request {
        method,
        path,
        body: read_body(r, head.content_length, max_body)?,
        close: head.close.flatten().unwrap_or(http10),
    })
}

/// One response, built by the handler and serialized by the connection
/// loop.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// When set, emitted as a `Retry-After: <seconds>` header — the
    /// back-pressure contract for 429/503.
    pub retry_after_s: Option<u64>,
    /// Ask the peer to drop the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after_s: None,
            close: false,
        }
    }

    /// A plain-text response (metrics exposition, health probes).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            retry_after_s: None,
            close: false,
        }
    }

    /// Serializes onto the wire: the head is framed into a buffer on the
    /// stack and leaves with the body in one vectored write, so the body
    /// is never copied and nothing is allocated.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        // The longest head this server frames is under 200 bytes; one
        // that does not fit fails the write instead of being cut.
        const FRAME: usize = 256;
        let mut frame = [0u8; FRAME];
        let mut head = &mut frame[..];
        write!(
            head,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        if let Some(s) = self.retry_after_s {
            write!(head, "retry-after: {s}\r\n")?;
        }
        if self.close {
            head.write_all(b"connection: close\r\n")?;
        }
        head.write_all(b"\r\n")?;
        let len = FRAME - head.len();
        let mut slices = [IoSlice::new(&frame[..len]), IoSlice::new(&self.body)];
        let mut unsent = &mut slices[..];
        while !unsent.is_empty() {
            match w.write_vectored(unsent) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut unsent, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// The reason phrase for every status this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A client-side parsed response. Reuses the same framing reader as the
/// server side.
#[derive(Debug)]
pub struct RawResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` seconds, when the head carried one that parses.
    pub retry_after_s: Option<u64>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl RawResponse {
    /// Body as UTF-8 (lossy — diagnostics only on the failure path).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response off a stream (client side), under the same
/// framing caps as a request and a body cap of `MAX_RESPONSE_BYTES`.
pub fn read_response(r: &mut impl BufRead) -> Result<RawResponse, ReadError> {
    let mut spill = Vec::new();
    let status = with_line(r, &mut spill, |line| {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next()) {
            (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code.parse::<u16>().ok(),
            _ => None,
        }
        .ok_or_else(|| ReadError::Malformed(format!("bad status line {line:?}")))
    })?;
    let head = read_head(r, &mut spill)?;
    Ok(RawResponse {
        status,
        retry_after_s: head.retry_after_s.flatten(),
        body: read_body(r, head.content_length, MAX_RESPONSE_BYTES)?,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{BufReader, Read};
    use std::sync::{Arc, Mutex};

    /// A `Write` that records every call it gets, as the segments a
    /// `TCP_NODELAY` socket would send. Clones share one record.
    #[derive(Clone, Default)]
    pub(crate) struct Writes(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Writes {
        pub(crate) fn take(&self) -> Vec<Vec<u8>> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        /// One `writev`: every slice lands in one segment.
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let segment = joined(bufs);
            let n = segment.len();
            self.0.lock().unwrap().push(segment);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn joined(bufs: &[IoSlice<'_>]) -> Vec<u8> {
        bufs.iter().flat_map(|b| b.iter().copied()).collect()
    }

    /// A `Write` that takes at most `step` bytes per call, as a socket
    /// with a full send buffer does.
    struct Trickle {
        wire: Vec<u8>,
        step: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let take = joined(bufs).into_iter().take(self.step);
            let before = self.wire.len();
            self.wire.extend(take);
            Ok(self.wire.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `Read` that hands out one recorded segment per call, as a
    /// socket does when each segment lands after the reader drained the
    /// last; counts the calls.
    struct Segments {
        segments: VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(seg) = self.segments.front_mut() else {
                return Ok(0);
            };
            let n = buf.len().min(seg.len());
            buf[..n].copy_from_slice(&seg[..n]);
            seg.drain(..n);
            if seg.is_empty() {
                self.segments.pop_front();
            }
            Ok(n)
        }
    }

    const QUERY_BODY: &str = "{\"query\":\"SELECT c FROM City c IN Cities;\"}";

    #[test]
    fn a_framed_request_is_the_bytes_the_client_always_sent() {
        let mut out = Vec::new();
        frame_request(&mut out, "POST", "/query", "127.0.0.1:7070", QUERY_BODY);
        let expected = "POST /query HTTP/1.1\r\nhost: 127.0.0.1:7070\r\ncontent-length: 43\r\n\r\n\
                        {\"query\":\"SELECT c FROM City c IN Cities;\"}";
        assert_eq!(String::from_utf8(out).unwrap(), expected);
    }

    #[test]
    fn a_response_is_the_bytes_the_server_always_sent() {
        let mut resp = Response::json(429, "{\"error\":{}}".into());
        resp.retry_after_s = Some(2);
        resp.close = true;
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let expected = "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                        content-length: 12\r\nretry-after: 2\r\nconnection: close\r\n\r\n\
                        {\"error\":{}}";
        assert_eq!(String::from_utf8(wire).unwrap(), expected);
    }

    #[test]
    fn a_response_is_one_write_at_any_body_size() {
        for len in [400, 9 * 1024, 40 * 1024] {
            let resp = Response::json(200, "x".repeat(len));
            let writes = Writes::default();
            resp.write_to(&mut writes.clone()).unwrap();
            let segments = writes.take();
            assert_eq!(segments.len(), 1, "{len}-byte body");
            let parsed = read_response(&mut BufReader::new(&segments[0][..])).unwrap();
            assert_eq!(parsed.body.len(), len);
        }
    }

    #[test]
    fn a_partial_write_resumes_where_it_stopped() {
        let resp = Response::json(200, "x".repeat(1000));
        let mut whole = Vec::new();
        resp.write_to(&mut whole).unwrap();
        for step in [1, 7, 100, whole.len() - 1000] {
            let mut wire = Trickle {
                wire: Vec::new(),
                step,
                calls: 0,
            };
            resp.write_to(&mut wire).unwrap();
            assert_eq!(wire.wire, whole, "{step}-byte steps");
            assert_eq!(wire.calls, whole.len().div_ceil(step));
        }
    }

    #[test]
    fn a_framed_request_costs_the_server_one_read() {
        let mut writes = Writes::default();
        let mut out = Vec::new();
        frame_request(&mut out, "POST", "/query", "127.0.0.1:7070", QUERY_BODY);
        writes.write_all(&out).unwrap();
        let mut wire = Segments {
            segments: writes.take().into(),
            reads: 0,
        };
        let req = read_request(&mut BufReader::new(&mut wire), 1024).unwrap();
        assert_eq!(req.body, QUERY_BODY.as_bytes());
        assert_eq!(wire.reads, 1);
    }

    #[test]
    fn lines_split_across_fills_parse_the_same() {
        let wire = b"POST /query?x=1 HTTP/1.1\r\nHost: a\r\nContent-Length: 4\r\n\r\nabcdGET / HTTP/1.0\r\n\r\n";
        let mut whole = BufReader::new(&wire[..]);
        let mut bytewise = BufReader::with_capacity(1, &wire[..]);
        for _ in 0..2 {
            let a = read_request(&mut whole, 1024).unwrap();
            let b = read_request(&mut bytewise, 1024).unwrap();
            assert_eq!(
                (a.method, a.path, a.body, a.close),
                (b.method, b.path, b.body, b.close)
            );
        }
        assert!(matches!(
            read_request(&mut bytewise, 1024),
            Err(ReadError::Eof)
        ));
    }

    #[test]
    fn line_ends_and_lengths_keep_their_errors() {
        let at_cap = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES - 15));
        assert_eq!(at_cap.find('\r'), Some(MAX_LINE_BYTES - 1));
        assert!(read_request(&mut BufReader::new(at_cap.as_bytes()), 0).is_ok());
        let over = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES - 14));
        for cap in [1, 8 * 1024] {
            let mut r = BufReader::with_capacity(cap, over.as_bytes());
            assert!(matches!(
                read_request(&mut r, 0),
                Err(ReadError::Malformed(m)) if m == "header line too long"
            ));
        }
        for (wire, eof) in [(&b""[..], true), (b"GET / HT", false)] {
            let mut r = BufReader::new(wire);
            match read_request(&mut r, 0) {
                Err(ReadError::Eof) => assert!(eof),
                Err(ReadError::Malformed(m)) => assert!(!eof && m == "eof mid-line"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_client_refuses_a_response_head_it_cannot_trust() {
        let many_headers = format!(
            "HTTP/1.1 200 OK\r\n{}\r\n",
            "x: y\r\n".repeat(MAX_HEADERS + 1)
        );
        let cases: [(&[u8], &str); 4] = [
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999\r\n\r\n",
                "too large",
            ),
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: 67108865\r\n\r\n",
                "too large",
            ),
            (
                b"HTTP/1.1 200 OK\r\ncontent-length: 12abc\r\n\r\n{}",
                "bad content-length",
            ),
            (many_headers.as_bytes(), "too many headers"),
        ];
        for (wire, why) in cases {
            match read_response(&mut BufReader::new(wire)) {
                Err(ReadError::TooLarge { .. }) => assert_eq!(why, "too large"),
                Err(ReadError::Malformed(m)) => assert!(m.contains(why), "{m}"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_pipelined_requests_off_one_stream() {
        let wire = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /healthz?x=1 HTTP/1.1\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        let a = read_request(&mut r, 1024).unwrap();
        assert_eq!((a.method.as_str(), a.path.as_str()), ("POST", "/query"));
        assert_eq!(a.body, b"abcd");
        assert!(!a.close);
        let b = read_request(&mut r, 1024).unwrap();
        assert_eq!(b.path, "/healthz", "query string must be stripped");
        assert!(matches!(read_request(&mut r, 1024), Err(ReadError::Eof)));
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let wire = b"POST /query HTTP/1.1\r\ncontent-length: 999999\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        match read_request(&mut r, 1024) {
            Err(ReadError::TooLarge { declared }) => assert_eq!(declared, 999999),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_framing() {
        for wire in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x SPDY/3\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
            b"POST /x HTTP/1.1\r\ncontent-length: many\r\n\r\n",
        ] {
            let mut r = BufReader::new(wire);
            assert!(
                matches!(read_request(&mut r, 1024), Err(ReadError::Malformed(_))),
                "accepted {:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let cases: [(&[u8], bool); 3] = [
            (b"GET / HTTP/1.1\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", true),
        ];
        for (wire, close) in cases {
            let mut r = BufReader::new(wire);
            assert_eq!(read_request(&mut r, 0).unwrap().close, close);
        }
    }

    #[test]
    fn response_round_trips_through_client_reader() {
        let mut resp = Response::json(429, "{\"error\":{}}".into());
        resp.retry_after_s = Some(2);
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let parsed = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, 429);
        assert_eq!(parsed.retry_after_s, Some(2));
        assert_eq!(parsed.body, b"{\"error\":{}}");
    }
}
