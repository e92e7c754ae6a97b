//! A minimal blocking client for the wire protocol — enough for the
//! CLI's `\connect`, the load-generating bench, and the integration
//! tests. One [`Client`] owns one keep-alive connection; the
//! `pipeline_*` methods write a batch of requests back-to-back before
//! reading any response, exercising the server's pipelining path.

use crate::http::{read_response, RawResponse, ReadError};
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
            ReadError::Eof => ClientError::Protocol("connection closed before response".into()),
            ReadError::Malformed(m) => ClientError::Protocol(m),
            ReadError::TooLarge { declared } => {
                ClientError::Protocol(format!("response body of {declared} bytes"))
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
    fn encode_into(&self, out: &mut String) {
        if let Some(t) = self.tenant {
            out.push_str(",\"tenant\":");
            json::push_escaped(out, t);
        }
        for (k, v) in [
            ("deadline_ms", self.deadline_ms),
            ("row_budget", self.row_budget),
            ("retries", self.retries),
        ] {
            if let Some(v) = v {
                use std::fmt::Write as _;
                let _ = write!(out, ",\"{k}\":{v}");
            }
        }
    }
}

/// One keep-alive connection to an `oodb-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
}

impl Client {
    /// Connects (with the given I/O timeout applied to reads and writes).
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> io::Result<Client> {
        let host = addr.to_string();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
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
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        )?;
        self.writer.flush()
    }

    /// Reads one response (pairs with [`Client::send`]).
    pub fn recv(&mut self) -> Result<RawResponse, ClientError> {
        Ok(read_response(&mut self.reader)?)
    }

    /// One full request/response exchange.
    ///
    /// A keep-alive connection the server has idle-closed (after its
    /// `io_timeout`) surfaces as a broken-pipe write or an EOF before
    /// the status line. Every endpoint is read-only or idempotent, so
    /// the exchange transparently reconnects and replays once instead
    /// of bubbling the stale-connection race to the caller.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<RawResponse, ClientError> {
        match self.try_request(method, path, body) {
            Err(e) if stale_connection(&e) => {
                *self = Client::connect(self.host.clone())?;
                self.try_request(method, path, body)
            }
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

    fn decode_output(resp: &RawResponse) -> Result<RemoteOutput, ClientError> {
        if resp.status != 200 {
            return Err(service_error(resp));
        }
        let v = json::parse(&resp.body_str())
            .map_err(|e| ClientError::Protocol(format!("bad response body: {e}")))?;
        let rows = v
            .get("rows")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .ok_or_else(|| ClientError::Protocol("response missing rows".into()))?;
        let indexes_used = v
            .get("indexes_used")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        Ok(RemoteOutput {
            row_count: v
                .get("row_count")
                .and_then(Json::as_u64)
                .unwrap_or(rows.len() as u64),
            rows,
            cache_hit: v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
            degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
            retries: v.get("retries").and_then(Json::as_u64).unwrap_or(0),
            stages: v
                .get("stages")
                .and_then(json::decode_stages)
                .unwrap_or_default(),
            stats_epoch: v.get("stats_epoch").and_then(Json::as_u64).unwrap_or(0),
            config_fp: v
                .get("config_fp")
                .and_then(Json::as_str)
                .and_then(json::parse_hex_id)
                .unwrap_or(0),
            indexes_used,
        })
    }

    /// Submits ad-hoc ZQL (`POST /query`).
    pub fn query(
        &mut self,
        zql: &str,
        opts: RequestOptions<'_>,
    ) -> Result<RemoteOutput, ClientError> {
        let mut body = String::from("{\"query\":");
        json::push_escaped(&mut body, zql);
        opts.encode_into(&mut body);
        body.push('}');
        let resp = self.request("POST", "/query", Some(&body))?;
        Self::decode_output(&resp)
    }

    /// Registers a prepared statement (`POST /prepare`); returns
    /// `(id, created)`.
    pub fn prepare(&mut self, zql: &str) -> Result<(u64, bool), ClientError> {
        let mut body = String::from("{\"query\":");
        json::push_escaped(&mut body, zql);
        body.push('}');
        let resp = self.request("POST", "/prepare", Some(&body))?;
        if resp.status != 200 {
            return Err(service_error(&resp));
        }
        let v = json::parse(&resp.body_str())
            .map_err(|e| ClientError::Protocol(format!("bad prepare body: {e}")))?;
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

    /// Writes one `/execute/{id}` request without reading the response.
    pub fn send_execute(&mut self, id: u64, opts: RequestOptions<'_>) -> io::Result<()> {
        let (path, body) = execute_request(id, opts);
        self.send("POST", &path, Some(&body))
    }

    /// Pipelines a batch of prepared executions: writes every request,
    /// then reads every response in order.
    pub fn pipeline_execute(
        &mut self,
        ids: &[u64],
        opts: RequestOptions<'_>,
    ) -> Result<Vec<Result<RemoteOutput, ClientError>>, ClientError> {
        for &id in ids {
            self.send_execute(id, opts)?;
        }
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
        Ok(resp.body_str())
    }

    /// Fetches the `/stats` JSON document, parsed.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let resp = self.request("GET", "/stats", None)?;
        if resp.status != 200 {
            return Err(service_error(&resp));
        }
        json::parse(&resp.body_str()).map_err(ClientError::Protocol)
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
    // encode_into emits ",k:v" fragments meant to follow a first
    // field; strip the leading comma when options stand alone.
    let mut fields = String::new();
    opts.encode_into(&mut fields);
    let body = if fields.is_empty() {
        "{}".to_string()
    } else {
        format!("{{{}}}", &fields[1..])
    };
    (format!("/execute/{}", json::hex_id(id)), body)
}

/// Whether an error looks like the keep-alive race — the server
/// idle-closed the connection and we only noticed on the next use —
/// rather than a failure of the request itself.
fn stale_connection(e: &ClientError) -> bool {
    match e {
        ClientError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::UnexpectedEof
        ),
        // `ReadError::Eof` (close between our write landing and the
        // status line) converts to exactly this message above.
        ClientError::Protocol(m) => m == "connection closed before response",
        ClientError::Service { .. } => false,
    }
}

/// Builds the typed error for a non-200 response.
fn service_error(resp: &RawResponse) -> ClientError {
    let retry_after_s = resp.header("retry-after").and_then(|v| v.parse().ok());
    let error = json::parse(&resp.body_str())
        .ok()
        .and_then(|v| v.get("error").cloned())
        .map(|e| json::decode_error(&e))
        .unwrap_or_else(|| ServiceError::Exec(format!("HTTP {}", resp.status)));
    ClientError::Service {
        status: resp.status,
        error,
        retry_after_s,
    }
}
