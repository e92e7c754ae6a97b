//! A minimal blocking client for the wire protocol — enough for the
//! CLI's `\connect`, the load-generating bench, and the integration
//! tests. One [`Client`] owns one keep-alive connection; the
//! `pipeline_*` methods write a batch of requests back-to-back before
//! reading any response, exercising the server's pipelining path.
//! Requests are framed into one reused buffer and leave in one write.

use crate::http::{frame_request, read_response, RawResponse, ReadError};
use crate::json::{self, Json};
use oodb_service::{ServiceError, StageBreakdown};
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What a remote submission can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Io(io::Error),
    /// The peer broke HTTP framing or the JSON contract.
    Protocol(String),
    /// The server answered with a typed service error.
    Service {
        /// HTTP status the error travelled under.
        status: u16,
        /// The reconstructed typed error.
        error: ServiceError,
        /// `Retry-After` seconds, when the server sent one (429/503).
        retry_after_s: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Service { status, error, .. } => {
                write!(f, "server error (HTTP {status}): {error}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ReadError> for ClientError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => ClientError::Io(e),
            ReadError::Eof => ClientError::Io(io::ErrorKind::UnexpectedEof.into()),
            ReadError::Malformed(m) => ClientError::Protocol(m),
            ReadError::TooLarge { declared } => {
                ClientError::Protocol(format!("response body of {declared} bytes is over the cap"))
            }
        }
    }
}

/// The slice of [`oodb_service::QueryOutput`] that crosses the wire.
#[derive(Clone, Debug)]
pub struct RemoteOutput {
    /// Rendered result rows.
    pub rows: Vec<String>,
    /// Row count.
    pub row_count: u64,
    /// Whether the plan came from the server's cache.
    pub cache_hit: bool,
    /// Whether the answer came from the greedy fallback plan.
    pub degraded: bool,
    /// Transient-fault retries spent server-side.
    pub retries: u64,
    /// Per-stage server-side latency breakdown.
    pub stages: StageBreakdown,
    /// Stats epoch of the snapshot the query ran against.
    pub stats_epoch: u64,
    /// Optimizer-config fingerprint of that snapshot.
    pub config_fp: u64,
    /// Index names the executed plan read.
    pub indexes_used: Vec<String>,
}

/// Options a client attaches to a submission (the request-body knobs).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestOptions<'a> {
    /// Tenant namespace (`None` = the server's default tenant).
    pub tenant: Option<&'a str>,
    /// Execution deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Row budget.
    pub row_budget: Option<u64>,
    /// Transient-fault retry budget.
    pub retries: Option<u64>,
}

impl RequestOptions<'_> {
    /// The JSON body of a request: `query` first when there is one, then
    /// every option that is set.
    fn body(&self, query: Option<&str>) -> String {
        use std::fmt::Write as _;
        // Room for the query and every option but a long tenant name.
        let mut out = String::with_capacity(96 + query.map_or(0, str::len));
        out.push('{');
        let mut sep = "";
        for (k, v) in [("query", query), ("tenant", self.tenant)] {
            if let Some(v) = v {
                let _ = write!(out, "{sep}\"{k}\":");
                json::push_escaped(&mut out, v);
                sep = ",";
            }
        }
        for (k, v) in [
            ("deadline_ms", self.deadline_ms),
            ("row_budget", self.row_budget),
            ("retries", self.retries),
        ] {
            if let Some(v) = v {
                let _ = write!(out, "{sep}\"{k}\":{v}");
                sep = ",";
            }
        }
        out.push('}');
        out
    }
}

/// One keep-alive connection to an `oodb-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// The socket's write half, boxed so a test can count the writes.
    writer: Box<dyn Write + Send>,
    /// Framed requests not yet written; empty between sends.
    out: Vec<u8>,
    /// A write or a response read failed, so the stream position is
    /// lost: the next write dials a new connection first.
    desynced: bool,
    host: String,
}

impl Client {
    /// Connects, with a 30 s timeout on every read and write.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> io::Result<Client> {
        let host = addr.to_string();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: Box::new(stream),
            out: Vec::with_capacity(256),
            desynced: false,
            host,
        })
    }

    /// The address this client dialed.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Writes one request; does not read the response (pipelining
    /// building block).
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<()> {
        frame_request(&mut self.out, method, path, &self.host, body.unwrap_or(""));
        self.write_out()
    }

    /// Writes every framed request in one write and empties the buffer.
    /// After a failed write the next one goes out on a new connection.
    fn write_out(&mut self) -> io::Result<()> {
        let written = self
            .redial_if_desynced()
            .and_then(|()| self.writer.write_all(&self.out));
        self.out.clear();
        self.desynced |= written.is_err();
        written
    }

    fn redial_if_desynced(&mut self) -> io::Result<()> {
        if self.desynced {
            let fresh = Client::connect(self.host.clone())?;
            (self.reader, self.writer, self.desynced) = (fresh.reader, fresh.writer, false);
        }
        Ok(())
    }

    /// Reads one response (pairs with [`Client::send`]). After a failed
    /// read the next request goes out on a new connection.
    pub fn recv(&mut self) -> Result<RawResponse, ClientError> {
        read_response(&mut self.reader).map_err(|e| {
            self.desynced = true;
            e.into()
        })
    }

    /// One full request/response exchange.
    ///
    /// A keep-alive connection the server has idle-closed (after its
    /// `io_timeout`) surfaces as a broken-pipe write or an EOF before
    /// the status line. Every endpoint is read-only or idempotent, so
    /// the exchange replays once, on the new connection the failure
    /// left it to dial, instead of bubbling the stale-connection race to
    /// the caller.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<RawResponse, ClientError> {
        match self.try_request(method, path, body) {
            Err(e) if stale_connection(&e) => self.try_request(method, path, body),
            r => r,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<RawResponse, ClientError> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Decodes the answer to a submission (pairs with [`Client::recv`]):
    /// the typed service error of a non-200 answer, else the body, read
    /// in one pass straight into the output — only the row and index
    /// strings are allocated. As with any JSON object here, a duplicated
    /// member's last occurrence wins.
    pub fn decode_output(resp: &RawResponse) -> Result<RemoteOutput, ClientError> {
        if resp.status != 200 {
            return Err(service_error(resp));
        }
        let mut o = RemoteOutput {
            rows: Vec::new(),
            row_count: 0,
            cache_hit: false,
            degraded: false,
            retries: 0,
            stages: StageBreakdown::default(),
            stats_epoch: 0,
            config_fp: 0,
            indexes_used: Vec::new(),
        };
        let (mut rows, mut row_count) = (None, None);
        let mut r = json::Reader::new(body_text(resp)?);
        let read = if r.peek() == Some(b'{') {
            r.object(|r, key| {
                match &*key {
                    "rows" => rows = strings(r)?,
                    "indexes_used" => {
                        o.indexes_used = strings(r)?.map(|(s, _)| s).unwrap_or_default()
                    }
                    "row_count" => row_count = r.value()?.as_u64(),
                    "cache_hit" => o.cache_hit = r.value()?.as_bool().unwrap_or(false),
                    "degraded" => o.degraded = r.value()?.as_bool().unwrap_or(false),
                    "retries" => o.retries = r.value()?.as_u64().unwrap_or(0),
                    "stats_epoch" => o.stats_epoch = r.value()?.as_u64().unwrap_or(0),
                    "config_fp" => {
                        let v = r.value()?;
                        o.config_fp = v.as_str().and_then(json::parse_hex_id).unwrap_or(0)
                    }
                    "stages" => o.stages = json::read_stages(r)?.unwrap_or_default(),
                    _ => drop(r.value()?),
                }
                Ok(())
            })
        } else {
            r.value().map(drop)
        };
        read.and_then(|()| r.finish())
            .map_err(|e| ClientError::Protocol(format!("bad response body: {e}")))?;
        match rows {
            None => Err(ClientError::Protocol("response missing rows".into())),
            Some((_, false)) => Err(ClientError::Protocol(
                "response rows holds a value that is not a string".into(),
            )),
            Some((rows, true)) => Ok(RemoteOutput {
                row_count: row_count.unwrap_or(rows.len() as u64),
                rows,
                ..o
            }),
        }
    }

    /// Submits ad-hoc ZQL (`POST /query`).
    pub fn query(
        &mut self,
        zql: &str,
        opts: RequestOptions<'_>,
    ) -> Result<RemoteOutput, ClientError> {
        let body = opts.body(Some(zql));
        let resp = self.request("POST", "/query", Some(&body))?;
        Self::decode_output(&resp)
    }

    /// Registers a prepared statement (`POST /prepare`); returns
    /// `(id, created)`.
    pub fn prepare(&mut self, zql: &str) -> Result<(u64, bool), ClientError> {
        let body = RequestOptions::default().body(Some(zql));
        let resp = self.request("POST", "/prepare", Some(&body))?;
        if resp.status != 200 {
            return Err(service_error(&resp));
        }
        let v = body_json(&resp)?;
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .and_then(json::parse_hex_id)
            .ok_or_else(|| ClientError::Protocol("prepare response missing id".into()))?;
        Ok((
            id,
            v.get("created").and_then(Json::as_bool).unwrap_or(false),
        ))
    }

    /// Executes a prepared statement (`POST /execute/{id}`).
    pub fn execute(
        &mut self,
        id: u64,
        opts: RequestOptions<'_>,
    ) -> Result<RemoteOutput, ClientError> {
        let (path, body) = execute_request(id, opts);
        let resp = self.request("POST", &path, Some(&body))?;
        Self::decode_output(&resp)
    }

    /// Pipelines a batch of prepared executions: writes every request
    /// in one write, then reads every response in order.
    pub fn pipeline_execute(
        &mut self,
        ids: &[u64],
        opts: RequestOptions<'_>,
    ) -> Result<Vec<Result<RemoteOutput, ClientError>>, ClientError> {
        for &id in ids {
            let (path, body) = execute_request(id, opts);
            frame_request(&mut self.out, "POST", &path, &self.host, &body);
        }
        self.write_out()?;
        let mut out = Vec::with_capacity(ids.len());
        for _ in ids {
            let resp = self.recv()?;
            out.push(Self::decode_output(&resp));
        }
        Ok(out)
    }

    /// Fetches the Prometheus metrics text.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.request("GET", "/metrics", None)?;
        if resp.status != 200 {
            return Err(service_error(&resp));
        }
        Ok(body_text(&resp)?.to_string())
    }

    /// Fetches the `/stats` JSON document, parsed.
    pub fn stats(&mut self) -> Result<Json<'static>, ClientError> {
        let resp = self.request("GET", "/stats", None)?;
        if resp.status != 200 {
            return Err(service_error(&resp));
        }
        body_json(&resp).map(Json::into_owned)
    }

    /// Liveness probe; `Ok(())` iff the server answered 200.
    pub fn healthz(&mut self) -> Result<(), ClientError> {
        let resp = self.request("GET", "/healthz", None)?;
        if resp.status != 200 {
            return Err(service_error(&resp));
        }
        Ok(())
    }
}

/// Builds the path and body for an `/execute/{id}` request.
fn execute_request(id: u64, opts: RequestOptions<'_>) -> (String, String) {
    let mut path = String::from("/execute/");
    json::push_hex_id(&mut path, id);
    (path, opts.body(None))
}

/// Whether an error looks like the keep-alive race — the server
/// idle-closed the connection and we only noticed on the next use —
/// rather than a failure of the request itself. A close before the
/// status line arrives as `UnexpectedEof`.
fn stale_connection(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(e) if matches!(
            e.kind(),
            io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::UnexpectedEof
        )
    )
}

/// The body as UTF-8. An invalid byte is a broken contract, never a
/// replacement character in an answer.
fn body_text(resp: &RawResponse) -> Result<&str, ClientError> {
    std::str::from_utf8(&resp.body)
        .map_err(|e| ClientError::Protocol(format!("response body is not utf-8: {e}")))
}

/// The string items of the array at the cursor, and whether every item
/// was one; `None` for a value that is not an array.
fn strings(r: &mut json::Reader<'_>) -> Result<Option<(Vec<String>, bool)>, String> {
    if r.peek() != Some(b'[') {
        return r.value().map(|_| None);
    }
    let (mut items, mut all) = (Vec::new(), true);
    r.array(|r| {
        if r.peek() == Some(b'"') {
            items.push(r.string()?.into_owned());
        } else {
            r.value()?;
            all = false;
        }
        Ok(())
    })?;
    Ok(Some((items, all)))
}

/// The body as JSON.
fn body_json(resp: &RawResponse) -> Result<Json<'_>, ClientError> {
    json::parse(body_text(resp)?)
        .map_err(|e| ClientError::Protocol(format!("bad response body: {e}")))
}

/// Builds the typed error for a non-200 response: the service error its
/// body carries, `Exec("HTTP <status>")` when it carries none, and a
/// protocol error when the body is not UTF-8.
fn service_error(resp: &RawResponse) -> ClientError {
    let text = match body_text(resp) {
        Ok(t) => t,
        Err(e) => return e,
    };
    let body = json::parse(text).ok();
    let error = body
        .as_ref()
        .and_then(|v| v.get("error"))
        .map(json::decode_error)
        .unwrap_or_else(|| ServiceError::Exec(format!("HTTP {}", resp.status)));
    ClientError::Service {
        status: resp.status,
        error,
        retry_after_s: resp.retry_after_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::Writes;
    use crate::http::{read_request, Response};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A client whose writes land in the returned record; the returned
    /// thread, on the other end of its socket, answers with `answers`.
    fn recorded_client(answers: Vec<Response>) -> (Client, Writes, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            for resp in answers {
                resp.write_to(&mut peer).unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let writes = Writes::default();
        client.writer = Box::new(writes.clone());
        (client, writes, peer)
    }

    #[test]
    fn a_request_is_one_write() {
        let (mut client, writes, peer) = recorded_client(Vec::new());
        peer.join().unwrap();
        client
            .send("POST", "/query", Some("{\"query\":\"x\"}"))
            .unwrap();
        client.send("GET", "/healthz", None).unwrap();
        let segments = writes.take();
        assert_eq!(segments.len(), 2);
        let host = client.host().to_string();
        for (seg, expected) in segments.iter().zip([
            format!("POST /query HTTP/1.1\r\nhost: {host}\r\ncontent-length: 13\r\n\r\n{{\"query\":\"x\"}}"),
            format!("GET /healthz HTTP/1.1\r\nhost: {host}\r\ncontent-length: 0\r\n\r\n"),
        ]) {
            assert_eq!(std::str::from_utf8(seg).unwrap(), expected);
        }
    }

    #[test]
    fn a_pipeline_is_one_write() {
        let ids = [1, 2, 3, 4];
        let answers = ids
            .iter()
            .map(|_| Response::json(200, "{\"rows\":[\"r\"],\"row_count\":1}".into()))
            .collect();
        let (mut client, writes, peer) = recorded_client(answers);
        let out = client
            .pipeline_execute(&ids, RequestOptions::default())
            .unwrap();
        peer.join().unwrap();
        assert!(out.iter().all(|r| matches!(r, Ok(o) if o.rows == ["r"])));
        let segments = writes.take();
        assert_eq!(segments.len(), 1, "one write for the whole batch");
        let wire = segments.concat();
        let mut r = BufReader::new(&wire[..]);
        for &id in &ids {
            let req = read_request(&mut r, 1024).unwrap();
            assert_eq!(req.path, format!("/execute/{}", json::hex_id(id)));
            assert_eq!(req.body, b"{}");
        }
    }

    #[test]
    fn request_bodies_are_the_bytes_the_client_always_sent() {
        // Every combination of the four options; bit i sets the i-th of
        // tenant, deadline_ms, row_budget, retries.
        let opts = |bits: usize| RequestOptions {
            tenant: (bits & 1 != 0).then_some("t\"1"),
            deadline_ms: (bits & 2 != 0).then_some(50),
            row_budget: (bits & 4 != 0).then_some(1000),
            retries: (bits & 8 != 0).then_some(3),
        };
        let mut answers: Vec<Response> = (0..32)
            .map(|_| Response::json(200, "{\"rows\":[],\"row_count\":0}".into()))
            .collect();
        answers.push(Response::json(
            200,
            "{\"id\":\"0000000000000abc\",\"created\":true}".into(),
        ));
        let (mut client, writes, peer) = recorded_client(answers);
        let zql = "q\"1";
        for bits in 0..16 {
            client.query(zql, opts(bits)).unwrap();
        }
        for bits in 0..16 {
            client.execute(0xabc, opts(bits)).unwrap();
        }
        assert_eq!(client.prepare(zql).unwrap(), (0xabc, true));
        peer.join().unwrap();
        let bodies: Vec<String> = writes
            .take()
            .iter()
            .map(|segment| {
                let req = read_request(&mut BufReader::new(&segment[..]), 1024).unwrap();
                String::from_utf8(req.body).unwrap()
            })
            .collect();
        // The bytes the client has always sent; a change to one is a
        // change of protocol.
        let expected = [
            r#"{"query":"q\"1"}"#,
            r#"{"query":"q\"1","tenant":"t\"1"}"#,
            r#"{"query":"q\"1","deadline_ms":50}"#,
            r#"{"query":"q\"1","tenant":"t\"1","deadline_ms":50}"#,
            r#"{"query":"q\"1","row_budget":1000}"#,
            r#"{"query":"q\"1","tenant":"t\"1","row_budget":1000}"#,
            r#"{"query":"q\"1","deadline_ms":50,"row_budget":1000}"#,
            r#"{"query":"q\"1","tenant":"t\"1","deadline_ms":50,"row_budget":1000}"#,
            r#"{"query":"q\"1","retries":3}"#,
            r#"{"query":"q\"1","tenant":"t\"1","retries":3}"#,
            r#"{"query":"q\"1","deadline_ms":50,"retries":3}"#,
            r#"{"query":"q\"1","tenant":"t\"1","deadline_ms":50,"retries":3}"#,
            r#"{"query":"q\"1","row_budget":1000,"retries":3}"#,
            r#"{"query":"q\"1","tenant":"t\"1","row_budget":1000,"retries":3}"#,
            r#"{"query":"q\"1","deadline_ms":50,"row_budget":1000,"retries":3}"#,
            r#"{"query":"q\"1","tenant":"t\"1","deadline_ms":50,"row_budget":1000,"retries":3}"#,
            r#"{}"#,
            r#"{"tenant":"t\"1"}"#,
            r#"{"deadline_ms":50}"#,
            r#"{"tenant":"t\"1","deadline_ms":50}"#,
            r#"{"row_budget":1000}"#,
            r#"{"tenant":"t\"1","row_budget":1000}"#,
            r#"{"deadline_ms":50,"row_budget":1000}"#,
            r#"{"tenant":"t\"1","deadline_ms":50,"row_budget":1000}"#,
            r#"{"retries":3}"#,
            r#"{"tenant":"t\"1","retries":3}"#,
            r#"{"deadline_ms":50,"retries":3}"#,
            r#"{"tenant":"t\"1","deadline_ms":50,"retries":3}"#,
            r#"{"row_budget":1000,"retries":3}"#,
            r#"{"tenant":"t\"1","row_budget":1000,"retries":3}"#,
            r#"{"deadline_ms":50,"row_budget":1000,"retries":3}"#,
            r#"{"tenant":"t\"1","deadline_ms":50,"row_budget":1000,"retries":3}"#,
            r#"{"query":"q\"1"}"#,
        ];
        assert_eq!(bodies, expected);
    }

    #[test]
    fn a_row_that_is_not_a_string_is_a_protocol_error() {
        let answer = |body: &str| RawResponse {
            status: 200,
            retry_after_s: None,
            body: body.as_bytes().to_vec(),
        };
        let mixed = answer("{\"rows\":[1,\"a\"],\"row_count\":2}");
        assert!(matches!(
            Client::decode_output(&mixed),
            Err(ClientError::Protocol(m)) if m.contains("not a string")
        ));
        // The last `rows` member is the one that counts.
        let repeated = answer("{\"rows\":[1],\"rows\":[\"a\"]}");
        let out = Client::decode_output(&repeated).unwrap();
        assert_eq!((out.rows, out.row_count), (vec!["a".to_string()], 1));
        for missing in ["{\"rows\":\"a\"}", "[\"a\"]", "{}"] {
            assert!(matches!(
                Client::decode_output(&answer(missing)),
                Err(ClientError::Protocol(m)) if m == "response missing rows"
            ));
        }
    }

    #[test]
    fn a_row_that_is_not_utf8_is_a_protocol_error() {
        let resp = RawResponse {
            status: 200,
            retry_after_s: None,
            body: b"{\"rows\":[\"Jo\xffe\"],\"row_count\":1}".to_vec(),
        };
        assert!(matches!(
            Client::decode_output(&resp),
            Err(ClientError::Protocol(m)) if m.contains("utf-8")
        ));
        let refused = RawResponse {
            status: 500,
            ..resp
        };
        assert!(matches!(service_error(&refused), ClientError::Protocol(_)));
    }

    #[test]
    fn an_untrusted_response_head_is_a_protocol_error() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999\r\n\r\n";
        let err = ClientError::from(read_response(&mut BufReader::new(&wire[..])).unwrap_err());
        assert!(matches!(err, ClientError::Protocol(_)), "{err}");
    }

    #[test]
    fn a_failed_pipeline_write_redials_on_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (_first, _) = listener.accept().unwrap();
            let (mut second, _) = listener.accept().unwrap();
            let req = read_request(&mut BufReader::new(&second), 1024).unwrap();
            Response::json(200, "{\"status\":\"ok\"}".into())
                .write_to(&mut second)
                .unwrap();
            req.path
        });
        let mut client = Client::connect(addr).unwrap();
        client
            .reader
            .get_ref()
            .shutdown(std::net::Shutdown::Write)
            .unwrap();
        assert!(matches!(
            client.pipeline_execute(&[1, 2], RequestOptions::default()),
            Err(ClientError::Io(_))
        ));
        client.healthz().unwrap();
        assert_eq!(peer.join().unwrap(), "/healthz");
    }

    #[test]
    fn a_refused_answer_does_not_break_the_next_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            // The refused head is followed by bytes a desynced client
            // would read as its next status line.
            let (mut first, _) = listener.accept().unwrap();
            read_request(&mut BufReader::new(&first), 1024).unwrap();
            first
                .write_all(
                    b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999999\r\n\r\nHTTP/1.1 200 OK\r\n",
                )
                .unwrap();
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            read_request(&mut BufReader::new(&second), 1024).unwrap();
            Response::json(200, "{\"status\":\"ok\"}".into())
                .write_to(&mut second)
                .unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(matches!(client.healthz(), Err(ClientError::Protocol(_))));
        client.healthz().unwrap();
        peer.join().unwrap();
    }
}
