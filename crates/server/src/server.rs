//! The serving loop: a `std::net` listener, a bounded acceptor, one
//! thread per connection, and graceful shutdown that joins them.
//!
//! Life of a request, all on the connection thread that read it: accept
//! → read + parse → route → tenant gate ([`crate::tenant`]) →
//! [`QueryService`] submit (the process gate, then the pipeline) →
//! settle the tenant permit with the outcome → encode → write. Keep-alive
//! and pipelining fall out of the sequential read loop; read/write
//! socket deadlines bound a stalled peer, and the shutdown signal is an
//! `oodb-fault` [`CancelToken`] checked between requests — the same
//! cooperative-cancellation primitive executions use, applied to
//! connections. Stopping shuts each connection's read half, so an idle
//! one ends at once; dropping a [`Server`] shuts the write half too.

use crate::http::{read_request, ReadError, Request, Response, MAX_RESPONSE_BYTES};
use crate::json::{self, Json};
use crate::tenant::TenantRegistry;
use oodb_fault::CancelToken;
use oodb_service::{AdmissionConfig, QueryService, ServiceError, ShedReason, SubmitOptions};
use oodb_sync::lock;
use oodb_telemetry::metrics::{Counter, Gauge};
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults are test-friendly; a real
/// deployment would raise the connection and body caps. Concurrency is
/// bounded twice and only twice: `max_connections` at the socket, and
/// the service's [`AdmissionConfig::max_inflight`] at the gate.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent connections the acceptor admits — each is one thread,
    /// and a request runs on the thread that read it; the excess is
    /// answered `503` + `Retry-After` and closed without a thread.
    pub max_connections: usize,
    /// Request-body ceiling; larger declared bodies get `413`.
    pub max_body_bytes: usize,
    /// Socket read/write deadline: bounds a stalled peer.
    pub io_timeout: Duration,
    /// Per-tenant admission policy, the same for every tenant.
    pub tenant_admission: AdmissionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_body_bytes: 1 << 20,
            io_timeout: Duration::from_secs(5),
            tenant_admission: AdmissionConfig::default(),
        }
    }
}

struct ServerMetrics {
    requests_query: Counter,
    requests_prepare: Counter,
    requests_execute: Counter,
    requests_other: Counter,
    responses_2xx: Counter,
    responses_4xx: Counter,
    responses_5xx: Counter,
    executed_ok: Counter,
    executed_err: Counter,
    protocol_errors: Counter,
    accept_rejects: Counter,
    connections_total: Counter,
    connections: Gauge,
}

struct Shared {
    service: QueryService,
    tenants: TenantRegistry,
    config: ServerConfig,
    m: ServerMetrics,
    shutdown: CancelToken,
    started: Instant,
}

/// A connection thread, and a handle on its socket to abort it with.
struct Conn {
    thread: thread::JoinHandle<()>,
    socket: TcpStream,
}

type Conns = Arc<Mutex<Vec<Conn>>>;

/// A running server. Dropping it without [`Server::shutdown`] stops it
/// too: the port is released and every connection is closed, a request
/// being run still finishing before its thread is joined. Call
/// `shutdown` for the drain, which answers requests already read.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
    conns: Conns,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `service`. Registers `oodb_build_info` and the server's
    /// own counters on the service's metrics registry so one `/metrics`
    /// scrape covers both layers.
    pub fn start(service: QueryService, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        crate::register_build_info(service.telemetry());
        let reg = service.telemetry();
        let m = ServerMetrics {
            requests_query: reg.counter("oodb_server_requests_total", &[("endpoint", "query")]),
            requests_prepare: reg.counter("oodb_server_requests_total", &[("endpoint", "prepare")]),
            requests_execute: reg.counter("oodb_server_requests_total", &[("endpoint", "execute")]),
            requests_other: reg.counter("oodb_server_requests_total", &[("endpoint", "other")]),
            responses_2xx: reg.counter("oodb_server_responses_total", &[("class", "2xx")]),
            responses_4xx: reg.counter("oodb_server_responses_total", &[("class", "4xx")]),
            responses_5xx: reg.counter("oodb_server_responses_total", &[("class", "5xx")]),
            executed_ok: reg.counter("oodb_server_executed_total", &[("outcome", "ok")]),
            executed_err: reg.counter("oodb_server_executed_total", &[("outcome", "error")]),
            protocol_errors: reg.counter("oodb_server_protocol_errors_total", &[]),
            accept_rejects: reg.counter("oodb_server_accept_rejects_total", &[]),
            connections_total: reg.counter("oodb_server_connections_total", &[]),
            connections: reg.gauge("oodb_server_connections", &[]),
        };
        let tenants = TenantRegistry::new(config.tenant_admission, Arc::clone(reg));
        let shared = Arc::new(Shared {
            service,
            tenants,
            config,
            m,
            shutdown: CancelToken::new(),
            started: Instant::now(),
        });
        let conns: Conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("oodb-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))?
        };
        Ok(Server {
            shared,
            addr: local,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service being served (for tests and the CLI).
    pub fn service(&self) -> &QueryService {
        &self.shared.service
    }

    /// Graceful shutdown: stop accepting, close every connection's read
    /// half, let each finish the request it is running (its response is
    /// written before close) and join its thread. An idle keep-alive
    /// connection ends at once; a request still being received is cut off.
    pub fn shutdown(mut self) {
        self.stop(Shutdown::Read);
    }

    /// The one stop path: stop accepting and release the port (the
    /// acceptor owns the listener), shut `how` of every connection's
    /// socket and join the connection threads. Shutting the write half
    /// too means no thread waits on a client that stopped reading.
    fn stop(&mut self, how: Shutdown) {
        self.shared.shutdown.cancel();
        if let Some(h) = self.acceptor.take() {
            // Unblock the acceptor's blocking accept() with a throwaway
            // connection; it checks the token first thing afterwards.
            let _ = TcpStream::connect(self.addr);
            let _ = h.join();
        }
        let conns: Vec<_> = lock(&self.conns).drain(..).collect();
        for c in &conns {
            let _ = c.socket.shutdown(how);
        }
        for c in conns {
            let _ = c.thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop(Shutdown::Both);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Conns) {
    for stream in listener.incoming() {
        if shared.shutdown.is_cancelled() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        // Bounded acceptor: over the connection cap we answer with the
        // back-pressure contract (503 + Retry-After) inline on the
        // acceptor thread — cheap, and no thread is spawned.
        let active = shared.m.connections.get();
        if active >= shared.config.max_connections as i64 {
            shared.m.accept_rejects.inc();
            let mut resp = Response::json(
                503,
                "{\"error\":{\"kind\":\"overloaded\",\"reason\":\"connections\",\
                 \"message\":\"connection limit reached\"}}"
                    .into(),
            );
            resp.retry_after_s = Some(1);
            resp.close = true;
            let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
            let _ = resp.write_to(&mut &stream);
            continue;
        }
        // The handle `stop` aborts the connection through. Without a
        // descriptor for it, the connection is dropped like a failed accept.
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        shared.m.connections_total.inc();
        shared.m.connections.add(1);
        let shared_conn = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("oodb-conn".into())
            .spawn(move || {
                connection_loop(&stream, &shared_conn);
                // The acceptor's handle keeps the descriptor open, so
                // dropping the stream would not close the connection.
                let _ = stream.shutdown(Shutdown::Both);
                shared_conn.m.connections.sub(1);
            });
        match handle {
            Ok(thread) => lock(&conns).push(Conn { thread, socket }),
            Err(_) => shared.m.connections.sub(1),
        }
        // Opportunistically reap finished connection threads so the
        // handle list does not grow with connection churn.
        let mut guard = lock(&conns);
        let (done, keep): (Vec<_>, Vec<_>) = guard.drain(..).partition(|c| c.thread.is_finished());
        *guard = keep;
        drop(guard);
        for c in done {
            let _ = c.thread.join();
        }
    }
}

fn connection_loop(mut stream: &TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    loop {
        // Between requests is the graceful-shutdown point: a request
        // already being read or executed always gets its response.
        if shared.shutdown.is_cancelled() {
            return;
        }
        let req = match read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(r) => r,
            Err(ReadError::Eof) => return,
            Err(ReadError::Io(_)) => return, // timeout or peer death
            Err(ReadError::Malformed(msg)) => {
                shared.m.protocol_errors.inc();
                let mut resp = protocol_error_response(400, "bad_request", &msg);
                resp.close = true;
                count_response(shared, resp.status);
                let _ = resp.write_to(&mut stream);
                return;
            }
            Err(ReadError::TooLarge { declared }) => {
                shared.m.protocol_errors.inc();
                let mut resp = protocol_error_response(
                    413,
                    "payload_too_large",
                    &format!(
                        "declared body of {declared} bytes exceeds the {}-byte cap",
                        shared.config.max_body_bytes
                    ),
                );
                resp.close = true; // the body was never consumed
                count_response(shared, resp.status);
                let _ = resp.write_to(&mut stream);
                return;
            }
        };
        let client_close = req.close;
        let mut resp = handle_request(shared, &req);
        if resp.body.len() > MAX_RESPONSE_BYTES {
            resp = too_large_response(resp.body.len());
        }
        // Once shutdown begins, finish this exchange and tell the peer.
        if shared.shutdown.is_cancelled() || client_close {
            resp.close = true;
        }
        count_response(shared, resp.status);
        if resp.write_to(&mut stream).is_err() {
            return;
        }
        if resp.close {
            return;
        }
    }
}

fn count_response(shared: &Shared, status: u16) {
    match status {
        200..=299 => shared.m.responses_2xx.inc(),
        400..=499 => shared.m.responses_4xx.inc(),
        _ => shared.m.responses_5xx.inc(),
    }
}

fn protocol_error_response(status: u16, kind: &str, msg: &str) -> Response {
    let mut body = String::from("{\"error\":{\"kind\":");
    json::push_escaped(&mut body, kind);
    body.push_str(",\"message\":");
    json::push_escaped(&mut body, msg);
    body.push_str("}}");
    Response::json(status, body)
}

/// The answer in place of one no client would accept: over the shared
/// response cap.
fn too_large_response(len: usize) -> Response {
    protocol_error_response(
        500,
        "response_too_large",
        &format!(
            "answer of {len} bytes exceeds the {MAX_RESPONSE_BYTES}-byte response cap; \
             narrow the query or set row_budget"
        ),
    )
}

/// Maps a typed [`ServiceError`] to its HTTP status.
pub fn status_for(e: &ServiceError) -> u16 {
    match e {
        ServiceError::Zql(_) | ServiceError::NoPlan => 400,
        ServiceError::UnknownStatement { .. } => 404,
        ServiceError::DeadlineExceeded { .. } => 408,
        ServiceError::RowBudgetExceeded { .. } => 422,
        ServiceError::Overloaded { reason } => match reason {
            ShedReason::QueueFull => 429,
            ShedReason::CircuitOpen | ShedReason::MemoryPressure => 503,
        },
        ServiceError::Cancelled => 499,
        ServiceError::MemoryExhausted { .. }
        | ServiceError::StorageFault { .. }
        | ServiceError::Exec(_)
        | ServiceError::Panicked(_) => 500,
    }
}

/// `retry_after` is the refusing gate's hint; it only matters for a shed.
fn error_response(e: &ServiceError, retry_after: Duration) -> Response {
    let status = status_for(e);
    let mut resp = Response::json(status, format!("{{\"error\":{}}}", json::encode_error(e)));
    if matches!(status, 429 | 503) {
        // Back-pressure contract: every shed carries Retry-After, in
        // whole seconds rounded *up* — a client told "1" for a 1.9 s
        // cooldown would retry into a breaker that is still open.
        let whole = retry_after.as_secs() + u64::from(retry_after.subsec_nanos() > 0);
        resp.retry_after_s = Some(whole.max(1));
    }
    resp
}

/// Extracts [`SubmitOptions`] from a request body object.
fn submit_options(body: &Json<'_>) -> SubmitOptions {
    let u = |k: &str| body.get(k).and_then(Json::as_u64);
    SubmitOptions {
        trace: false,
        deadline: u("deadline_ms").map(Duration::from_millis),
        row_budget: u("row_budget"),
        retries: u("retries").unwrap_or(0) as u32,
        mem_budget: u("mem_budget"),
    }
}

fn parse_body(req: &Request) -> Result<Json<'_>, Response> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| protocol_error_response(400, "bad_request", "body is not utf-8"))?;
    json::parse(text)
        .map_err(|e| protocol_error_response(400, "bad_request", &format!("invalid json: {e}")))
}

fn handle_request(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => {
            shared.m.requests_query.inc();
            handle_submission(shared, req, None)
        }
        ("POST", "/prepare") => {
            shared.m.requests_prepare.inc();
            handle_prepare(shared, req)
        }
        ("POST", path) if path.starts_with("/execute/") => {
            shared.m.requests_execute.inc();
            match json::parse_hex_id(&path["/execute/".len()..]) {
                Some(id) => handle_submission(shared, req, Some(id)),
                None => protocol_error_response(
                    400,
                    "bad_request",
                    "statement id must be 16 hex digits",
                ),
            }
        }
        ("GET", "/metrics") => {
            shared.m.requests_other.inc();
            Response::text(200, shared.service.metrics_prometheus())
        }
        ("GET", "/healthz") => {
            shared.m.requests_other.inc();
            Response::json(200, "{\"status\":\"ok\"}".into())
        }
        ("GET", "/stats") => {
            shared.m.requests_other.inc();
            Response::json(200, stats_json(shared))
        }
        (_, "/query" | "/prepare" | "/metrics" | "/healthz" | "/stats") => {
            shared.m.requests_other.inc();
            protocol_error_response(405, "method_not_allowed", "wrong method for this path")
        }
        _ => {
            shared.m.requests_other.inc();
            protocol_error_response(404, "not_found", "unknown path")
        }
    }
}

/// `/query` (ad-hoc text) and `/execute/{id}` (prepared) share one
/// path: validate → tenant gate → submit on this thread → settle →
/// encode. A request that cannot run never reaches the gate: a malformed
/// body must neither take a slot nor feed the tenant's breaker.
fn handle_submission(shared: &Shared, req: &Request, prepared: Option<u64>) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let zql = match body.get("query").and_then(Json::as_str) {
        Some(zql) => zql,
        None if prepared.is_some() => "",
        None => {
            return protocol_error_response(400, "bad_request", "missing required field \"query\"")
        }
    };
    let opts = submit_options(&body);
    let Some(tenant) = shared
        .tenants
        .tenant(body.get("tenant").and_then(Json::as_str))
    else {
        let e = ServiceError::Overloaded {
            reason: ShedReason::QueueFull,
        };
        return error_response(&e, shared.service.retry_after());
    };
    let permit = match tenant.admit() {
        Ok(p) => p,
        Err(shed) => {
            let e = ServiceError::Overloaded {
                reason: shed.reason,
            };
            return error_response(&e, shed.retry_after);
        }
    };
    let result = match prepared {
        Some(id) => shared.service.submit_prepared_with(id, opts),
        None => shared.service.submit_with(zql, opts),
    };
    permit.settle(result.as_ref().map(|_| ()));
    match result {
        Ok(out) => {
            shared.m.executed_ok.inc();
            Response::json(200, json::encode_output(&out))
        }
        Err(e) => {
            shared.m.executed_err.inc();
            error_response(&e, shared.service.retry_after())
        }
    }
}

fn handle_prepare(shared: &Shared, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let zql = match body.get("query").and_then(Json::as_str) {
        Some(q) => q,
        None => {
            return protocol_error_response(400, "bad_request", "missing required field \"query\"")
        }
    };
    match shared.service.prepare(zql) {
        Ok((stmt, created)) => {
            let mut out = String::from("{\"id\":\"");
            json::push_hex_id(&mut out, stmt.id);
            let _ = write!(out, "\",\"created\":{created},\"key\":");
            json::push_escaped(&mut out, stmt.structural_key());
            out.push('}');
            Response::json(200, out)
        }
        Err(e) => error_response(&e, shared.service.retry_after()),
    }
}

fn stats_json(shared: &Shared) -> String {
    let m = &shared.m;
    let cache = shared.service.cache().stats();
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"uptime_ms\":{},\"connections\":{},\"connections_total\":{},\
         \"accept_rejects\":{},\"protocol_errors\":{},\
         \"requests\":{{\"query\":{},\"prepare\":{},\"execute\":{},\"other\":{}}},\
         \"responses\":{{\"2xx\":{},\"4xx\":{},\"5xx\":{}}},\
         \"executed\":{{\"ok\":{},\"error\":{}}},\
         \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}},\
         \"soft_parses\":{},\"memoized_texts\":{},\
         \"prepared_statements\":{},\"tenants\":[",
        shared.started.elapsed().as_millis(),
        m.connections.get(),
        m.connections_total.get(),
        m.accept_rejects.get(),
        m.protocol_errors.get(),
        m.requests_query.get(),
        m.requests_prepare.get(),
        m.requests_execute.get(),
        m.requests_other.get(),
        m.responses_2xx.get(),
        m.responses_4xx.get(),
        m.responses_5xx.get(),
        m.executed_ok.get(),
        m.executed_err.get(),
        cache.hits,
        cache.misses,
        cache.evictions,
        shared.service.soft_parses(),
        shared.service.memoized_texts(),
        shared.service.prepared_statements().len(),
    );
    for (i, t) in shared.tenants.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (admitted, shed_q, shed_b, failures) = t.counts();
        out.push_str("{\"name\":");
        json::push_escaped(&mut out, &t.name);
        let _ = write!(
            out,
            ",\"inflight\":{},\"admitted\":{admitted},\"shed_queue_full\":{shed_q},\
             \"shed_circuit_open\":{shed_b},\"resource_failures\":{failures}}}",
            t.inflight(),
        );
    }
    let fb = shared.service.feedback_stats();
    let _ = write!(
        out,
        "],\"feedback\":{{\"tracked\":{},\"suspect\":{},\"overridden\":{},\
         \"overrides\":{},\"worst_drift\":{:.3}}}",
        fb.tracked, fb.suspect, fb.overridden, fb.overrides, fb.worst_drift,
    );
    match shared.service.durability_stats() {
        Some(d) => {
            out.push_str(",\"durability\":{\"enabled\":true,\"dir\":");
            json::push_escaped(&mut out, &d.dir);
            out.push_str(",\"policy\":");
            json::push_escaped(&mut out, &d.policy);
            let _ = write!(
                out,
                ",\"records\":{},\"bytes\":{},\"flushes\":{},\"syncs\":{},\
                 \"faults\":{},\"buffered_records\":{},\"next_seq\":{},\
                 \"checkpoint_records\":{},\"checkpoint_bytes\":{},\
                 \"compacted_records\":{},\"poisoned\":{}}}",
                d.records,
                d.bytes,
                d.flushes,
                d.syncs,
                d.faults,
                d.buffered_records,
                d.next_seq,
                d.checkpoint_records,
                d.checkpoint_bytes,
                d.compacted_records,
                d.poisoned,
            );
        }
        None => out.push_str(",\"durability\":{\"enabled\":false}"),
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_answer_over_the_cap_is_a_typed_error_a_client_decodes() {
        let resp = too_large_response(MAX_RESPONSE_BYTES + 1);
        assert_eq!(resp.status, 500);
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let error = body.get("error").unwrap();
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("response_too_large")
        );
        match json::decode_error(error) {
            ServiceError::Exec(m) => assert!(m.contains("row_budget"), "{m}"),
            other => panic!("{other:?}"),
        }
    }
}
