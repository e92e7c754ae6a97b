//! End-to-end proofs for the `oodb-server` serving front end: a real
//! listener on loopback, real sockets, concurrent clients.
//!
//! The load-bearing assertions:
//! * **Counter reconciliation** — after a concurrent pipelined
//!   prepared-statement storm, the server's own request counters, the
//!   executed-outcome counters, the plan cache's hits+misses, and the
//!   per-tenant admission counts all describe the same story.
//! * **Protocol hygiene** — malformed framing, invalid JSON, and
//!   oversized bodies are rejected with the right statuses and never
//!   wedge the connection.
//! * **Graceful shutdown** — a request in flight when shutdown begins
//!   still gets its response, and an idle connection does not hold the
//!   drain up.
//! * **Back-pressure contract** — `Overloaded` surfaces as 429/503
//!   with a `Retry-After` header and a typed, decodable error body.
//! * **Drop stops** — a server dropped without `shutdown` refuses new
//!   connections, closes idle ones and frees the service's store.

use open_oodb::prelude::*;
use open_oodb::server::{json, Client, ClientError, Server, ServerConfig};
use open_oodb::service::{AdmissionConfig, QueryService, ServiceError, ShedReason};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

fn service() -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        256,
        8,
    )
}

fn start(config: ServerConfig) -> Server {
    Server::start(service(), "127.0.0.1:0", config).expect("bind loopback")
}

const QUERIES: [&str; 4] = [
    "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
     FROM Employee e IN Employees \
     WHERE e.dept().plant().location() == \"Dallas\"",
    "SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"",
    "SELECT Newobject(c.mayor().age(), c.name()) \
     FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"",
    "SELECT t FROM Task t IN Tasks WHERE t.time() == 100 \
     && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")",
];

#[test]
fn smoke_every_endpoint() {
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let expect = server.service().submit(QUERIES[1]).unwrap();

    let mut c = Client::connect(addr).unwrap();
    c.healthz().unwrap();

    // Ad-hoc query returns the same rows as an in-process submit.
    let remote = c.query(QUERIES[1], Default::default()).unwrap();
    assert_eq!(remote.rows, expect.rows);
    assert!(remote.cache_hit, "in-process warmed the cache");
    assert_eq!(remote.stages.parse_ns, 0, "a repeated text is a soft parse");

    // Prepare is idempotent; execute skips the front end entirely.
    let (id, created) = c.prepare(QUERIES[1]).unwrap();
    assert!(created);
    let (id2, created2) = c.prepare(QUERIES[1]).unwrap();
    assert_eq!((id, false), (id2, created2));
    let out = c.execute(id, Default::default()).unwrap();
    assert_eq!(out.rows, expect.rows);
    assert!(out.cache_hit);
    assert_eq!(out.stages.parse_ns, 0, "prepared executions never parse");

    // Metrics exposition carries build info and the server counters.
    let metrics = c.metrics().unwrap();
    assert!(metrics.contains("oodb_build_info{"), "{metrics}");
    assert!(metrics.contains("oodb_server_requests_total"), "{metrics}");
    assert!(metrics.contains("oodb_prepared_statements 1"), "{metrics}");

    // Stats document is well-formed JSON with the expected shape.
    let stats = c.stats().unwrap();
    assert_eq!(
        stats
            .get("requests")
            .unwrap()
            .get("query")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    assert_eq!(stats.get("prepared_statements").unwrap().as_u64(), Some(1));
    // The one remote ad-hoc query repeated the in-process text.
    assert_eq!(stats.get("soft_parses").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("memoized_texts").unwrap().as_u64(), Some(1));

    // The feedback section reflects the drift detector: these queries run
    // against honest statistics, so they are tracked but never suspect.
    let fb = stats.get("feedback").unwrap();
    assert!(
        fb.get("tracked").unwrap().as_u64().unwrap() >= 1,
        "{stats:?}"
    );
    assert_eq!(fb.get("suspect").unwrap().as_u64(), Some(0));

    // Durability is off by default, and /stats says so explicitly.
    let dur = stats.get("durability").unwrap();
    assert_eq!(dur.get("enabled").unwrap().as_bool(), Some(false));

    // Unknown path and wrong method.
    assert_eq!(c.request("GET", "/nope", None).unwrap().status, 404);
    assert_eq!(c.request("PUT", "/query", None).unwrap().status, 405);

    drop(c);
    server.shutdown();
}

/// A served process reports where its requests' time went: the stage
/// histograms record with nobody having switched anything on.
#[test]
fn one_query_shows_in_the_stage_histograms() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.query(QUERIES[1], Default::default()).unwrap();
    let metrics = c.metrics().unwrap();
    assert!(
        metrics.contains("oodb_stage_latency_ns_count{stage=\"execute\"} 1\n"),
        "{metrics}"
    );
    drop(c);
    server.shutdown();
}

/// `POST /prepare` of a new statement into a full registry is a shed like
/// any other: 429 with `Retry-After`; a registered one still answers.
#[test]
fn prepare_into_a_full_registry_maps_to_429_with_retry_after() {
    let server = start(ServerConfig::default());
    let text = |i: i64| format!("SELECT t FROM Task t IN Tasks WHERE t.time() == {i}");
    let mut filled = 0;
    while server.service().prepare(&text(filled)).is_ok() {
        filled += 1;
    }
    assert_eq!(filled, 4096, "the registry's bound");
    let mut c = Client::connect(server.local_addr()).unwrap();
    match c.prepare(&text(-1)) {
        Err(ClientError::Service {
            status: 429,
            error,
            retry_after_s,
        }) => {
            let reason = ShedReason::QueueFull;
            assert_eq!(error, ServiceError::Overloaded { reason });
            assert!(retry_after_s.unwrap_or(0) >= 1, "429 carries Retry-After");
        }
        other => panic!("a full registry sheds: {other:?}"),
    }
    assert!(!c.prepare(&text(7)).expect("registered").1);
    drop(c);
    server.shutdown();
}

#[test]
fn concurrent_pipelined_replay_reconciles_every_counter() {
    const CLIENTS: usize = 4;
    const BATCHES: usize = 4;
    const BATCH: usize = 16;
    let server = start(ServerConfig::default());
    let addr = server.local_addr();

    // Register and warm each statement once, so the storm below runs
    // against a deterministic cache state (exactly one miss per shape).
    let mut warm = Client::connect(addr).unwrap();
    let ids: Vec<u64> = QUERIES
        .iter()
        .map(|q| {
            let (id, created) = warm.prepare(q).unwrap();
            assert!(created);
            warm.execute(id, Default::default()).unwrap();
            id
        })
        .collect();
    drop(warm);

    let workers: Vec<_> = (0..CLIENTS)
        .map(|n| {
            let ids = ids.clone();
            thread::spawn(move || {
                let tenant = format!("tenant-{n}");
                let mut c = Client::connect(addr).unwrap();
                let opts = open_oodb::server::RequestOptions {
                    tenant: Some(&tenant),
                    ..Default::default()
                };
                let mut ok = 0usize;
                for batch in 0..BATCHES {
                    // Skewed replay: every batch leads with the hot
                    // statement, like the benchmark's Zipf replay.
                    let batch_ids: Vec<u64> =
                        (0..BATCH).map(|i| ids[(i + batch) % ids.len()]).collect();
                    for r in c.pipeline_execute(&batch_ids, opts).unwrap() {
                        let out = r.expect("pipelined execute");
                        assert!(out.cache_hit, "warm replay must hit");
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    let executed: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(executed, CLIENTS * BATCHES * BATCH);

    // Reconcile: server counters vs cache vs tenant admission.
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    let field = |path: &[&str]| {
        let mut v = &stats;
        for p in path {
            v = v
                .get(p)
                .unwrap_or_else(|| panic!("missing {p} in {stats:?}"));
        }
        v.as_u64().unwrap()
    };
    let total_execs = (executed + QUERIES.len()) as u64; // storm + warmup
    assert_eq!(field(&["requests", "execute"]), total_execs);
    assert_eq!(field(&["requests", "prepare"]), QUERIES.len() as u64);
    assert_eq!(field(&["executed", "ok"]), total_execs);
    assert_eq!(field(&["executed", "error"]), 0);
    // Every execution probed the cache exactly once; only the warmup
    // runs missed.
    assert_eq!(
        field(&["cache", "hits"]) + field(&["cache", "misses"]),
        total_execs
    );
    assert_eq!(field(&["cache", "misses"]), QUERIES.len() as u64);
    // Per-tenant admission accounts for exactly the storm requests,
    // with nothing shed.
    let tenants = stats.get("tenants").unwrap().as_arr().unwrap();
    let mut admitted = 0;
    for t in tenants {
        admitted += t.get("admitted").unwrap().as_u64().unwrap();
        assert_eq!(t.get("shed_queue_full").unwrap().as_u64(), Some(0));
        assert_eq!(t.get("shed_circuit_open").unwrap().as_u64(), Some(0));
        assert_eq!(t.get("inflight").unwrap().as_u64(), Some(0));
    }
    assert_eq!(admitted, total_execs);
    drop(c);
    server.shutdown();
}

/// A body that names a key twice is read by its last occurrence, as a
/// JSON object with duplicates has always been read here.
#[test]
fn a_duplicated_body_key_resolves_to_the_last() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let body = |first: &str, last: &str| format!("{{\"query\":{first:?},\"query\":{last:?}}}");
    let resp = c
        .request("POST", "/query", Some(&body("SELECT nonsense", QUERIES[1])))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let out = Client::decode_output(&resp).unwrap();
    assert_eq!(
        out.rows,
        c.query(QUERIES[1], Default::default()).unwrap().rows
    );
    let resp = c
        .request("POST", "/query", Some(&body(QUERIES[1], "SELECT nonsense")))
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    drop(c);
    server.shutdown();
}

/// The retired worker-count key asked for that many executor threads per
/// request (clamped to the machine's cores only since PR 17). It is now
/// an unknown key like any other: `/query` and `/execute` answer a
/// body that carries it exactly as they answer one without it.
#[test]
fn retired_exec_workers_key_changes_nothing_on_query_or_execute() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let (id, _) = c.prepare(QUERIES[0]).unwrap();
    let execute = format!("/execute/{}", json::hex_id(id));
    let mut answer_to = |path: &str, body: String| {
        let resp = c.request("POST", path, Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let text = resp.body_str();
        let reply = json::parse(&text).unwrap();
        let field = |k| {
            let v = reply.get(k).cloned().map(json::Json::into_owned);
            v.unwrap_or_else(|| panic!("no {k}"))
        };
        (field("rows"), field("row_count"), field("cache_hit"))
    };
    const WORKERS: &str = "\"exec_workers\":1099511627776";
    let query = |extra: &str| format!("{{\"query\":{:?}{extra}}}", QUERIES[0]);
    answer_to("/query", query("")); // plans; every answer below is warm
    let plain = answer_to("/query", query(""));
    assert_eq!(answer_to("/query", query(&format!(",{WORKERS}"))), plain);
    assert_eq!(answer_to(&execute, "{}".into()), plain);
    assert_eq!(answer_to(&execute, format!("{{{WORKERS}}}")), plain);
}

#[test]
fn malformed_and_oversized_requests_are_rejected() {
    let server = start(ServerConfig {
        max_body_bytes: 512,
        ..Default::default()
    });
    let addr = server.local_addr();

    // Raw garbage instead of a request line → 400, connection closed.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap(); // EOF proves the close
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    assert!(buf.contains("bad_request"), "{buf}");

    // Declared body over the cap → 413 without reading the body.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /query HTTP/1.1\r\ncontent-length: 99999\r\n\r\n")
        .unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");

    let mut c = Client::connect(addr).unwrap();
    // Invalid JSON body → 400, and the connection stays usable.
    let resp = c.request("POST", "/query", Some("{not json")).unwrap();
    assert_eq!(resp.status, 400);
    // Missing required field → 400.
    let resp = c
        .request("POST", "/query", Some("{\"q\":\"oops\"}"))
        .unwrap();
    assert_eq!(resp.status, 400);
    // Unknown body keys are ignored, never interpreted: the retired
    // `realize_io_scale` reached `Duration::from_secs_f64` unvalidated, so
    // this request was a 500 `Panicked` that counted toward the breaker.
    let mut answer_to = |extra: &str| {
        let body = format!("{{\"query\":{:?}{extra}}}", QUERIES[1]);
        let resp = c.request("POST", "/query", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        let text = resp.body_str();
        let reply = json::parse(&text).unwrap();
        let hit = reply.get("cache_hit").and_then(json::Json::as_bool);
        let rows = reply.get("rows").cloned().map(json::Json::into_owned);
        let rows = rows.expect("a rows array");
        (rows, hit.expect("a cache_hit flag"))
    };
    let (rows, _) = answer_to(",\"realize_io_scale\":1e300");
    assert_eq!(answer_to(""), (rows.clone(), true));
    // The retired `dynamic` selected a plan family with a cache entry of
    // its own, compiled by 2^indexes searches no deadline bounded: the
    // key now changes nothing, so the request hits the entry above.
    assert_eq!(answer_to(",\"dynamic\":true"), (rows, true));
    let metrics = c.metrics().unwrap();
    assert!(
        metrics.contains("\noodb_submission_panics_total 0\n"),
        "{metrics}"
    );
    // Bad statement-id syntax → 400; unknown id → typed 404.
    let resp = c.request("POST", "/execute/xyz", Some("{}")).unwrap();
    assert_eq!(resp.status, 400);
    match c.execute(0xdeadbeefdeadbeef, Default::default()) {
        Err(ClientError::Service {
            status: 404, error, ..
        }) => {
            assert_eq!(
                error,
                ServiceError::UnknownStatement {
                    id: 0xdeadbeefdeadbeef
                }
            );
        }
        other => panic!("expected typed 404, got {other:?}"),
    }
    // A ZQL error is a typed 400 the client can decode.
    match c.query("SELECT FROM WHERE", Default::default()) {
        Err(ClientError::Service {
            status: 400,
            error: ServiceError::Zql(_),
            ..
        }) => {}
        other => panic!("expected typed zql 400, got {other:?}"),
    }
    // ...and the connection still works afterwards.
    c.healthz().unwrap();
    drop(c);
    server.shutdown();
}

#[test]
fn a_statement_id_with_a_sign_is_a_bad_request() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    // Sixteen characters, but `+` is not a hex digit.
    let resp = c
        .request("POST", "/execute/+123456789abcdef", Some("{}"))
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body_str());
    drop(c);
    server.shutdown();
}

/// Two `content-length` headers that disagree: a proxy in front that
/// took the other one would read another request out of the body, so the
/// server refuses the head and closes the connection.
#[test]
fn differing_content_lengths_are_a_bad_request_and_a_close() {
    let server = start(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Read by its first length this is a health probe with a two-byte
    // body, then two bytes of a next request.
    raw.write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd")
        .unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = String::new();
    raw.read_to_string(&mut buf).unwrap(); // EOF proves the close
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    assert_eq!(buf.matches("HTTP/1.1").count(), 1, "{buf}");
    server.shutdown();
}

#[test]
fn idle_closed_keepalive_is_replayed_transparently() {
    // Aggressive idle timeout: the server closes the connection long
    // before the client's second statement.
    let server = start(ServerConfig {
        io_timeout: Duration::from_millis(150),
        ..Default::default()
    });
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    let first = c.query(QUERIES[1], Default::default()).unwrap();
    // Outlive the server's idle timeout, then reuse the same Client:
    // the stale keep-alive connection must be replayed on a fresh one
    // without surfacing a transport error (an interactive shell pauses
    // between statements far longer than any sane io_timeout).
    thread::sleep(Duration::from_millis(400));
    let second = c.query(QUERIES[1], Default::default()).unwrap();
    assert_eq!(second.rows, first.rows);
    assert!(second.cache_hit, "replayed statement still hits the cache");
    // Prepared executions ride the same replay path.
    let (id, _) = c.prepare(QUERIES[1]).unwrap();
    thread::sleep(Duration::from_millis(400));
    let out = c.execute(id, Default::default()).unwrap();
    assert_eq!(out.rows, first.rows);
    drop(c);
    server.shutdown();
}

/// Runs `query` once and attaches a fault injector that stretches its
/// next executions to roughly `target` of wall-clock: every page access
/// the first run counted sleeps an equal share. Returns the first run's
/// rows.
fn slow_down(svc: &QueryService, query: &str, target: Duration) -> Vec<String> {
    let out = svc.submit(query).unwrap();
    let accesses = (out.buffer_hits + out.buffer_misses).max(1);
    svc.attach_fault_injector(FaultInjector::new(FaultConfig {
        latency_ns: target.as_nanos() as u64 / accesses,
        ..Default::default()
    }));
    out.rows
}

#[test]
fn graceful_shutdown_answers_inflight_requests() {
    let server = start(ServerConfig {
        io_timeout: Duration::from_millis(500),
        ..Default::default()
    });
    let addr = server.local_addr();
    let expect_rows = slow_down(server.service(), QUERIES[0], Duration::from_millis(400));

    let worker = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query(QUERIES[0], Default::default())
    });
    // Let the slow request get admitted, then begin shutdown while it
    // is still executing.
    thread::sleep(Duration::from_millis(120));
    server.shutdown();
    // Shutdown has fully returned — yet the in-flight request got its
    // answer, proving the drain.
    let out = worker
        .join()
        .unwrap()
        .expect("in-flight request must be answered");
    assert_eq!(out.rows, expect_rows);
    // And the listener is really gone: a fresh exchange fails.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.healthz().is_err(),
    };
    assert!(refused, "server still serving after shutdown");
}

/// A drain does not wait out an idle keep-alive connection's read
/// deadline: shutting its read half ends it at once.
#[test]
fn shutdown_with_an_idle_keepalive_client_returns_well_under_io_timeout() {
    let config = ServerConfig::default();
    let idle_timeout = config.io_timeout;
    let server = start(config);
    let mut idle = Client::connect(server.local_addr()).unwrap();
    idle.query(QUERIES[1], Default::default()).unwrap();

    let begun = Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < idle_timeout / 10,
        "shutdown waited {:?} for the idle connection",
        begun.elapsed()
    );
    assert!(idle.healthz().is_err(), "the idle connection still answers");
}

#[test]
fn per_tenant_inflight_cap_maps_to_429_with_retry_after() {
    let server = start(ServerConfig {
        io_timeout: Duration::from_secs(5),
        tenant_admission: AdmissionConfig {
            max_inflight: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr();
    slow_down(server.service(), QUERIES[0], Duration::from_millis(600));

    let slow = thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.query(
            QUERIES[0],
            open_oodb::server::RequestOptions {
                tenant: Some("acme"),
                ..Default::default()
            },
        )
    });
    thread::sleep(Duration::from_millis(150));
    // The request in flight keeps the slow store snapshot it started on;
    // everything after it runs at full speed.
    server.service().detach_fault_injector();
    // Same tenant: the cap sheds with the full back-pressure contract.
    let mut c = Client::connect(addr).unwrap();
    match c.query(
        QUERIES[1],
        open_oodb::server::RequestOptions {
            tenant: Some("acme"),
            ..Default::default()
        },
    ) {
        Err(ClientError::Service {
            status,
            error,
            retry_after_s,
        }) => {
            assert_eq!(status, 429);
            assert_eq!(
                error,
                ServiceError::Overloaded {
                    reason: ShedReason::QueueFull
                }
            );
            assert!(retry_after_s.is_some(), "429 must carry Retry-After");
        }
        other => panic!("expected 429, got {other:?}"),
    }
    // A different tenant sails through while acme is saturated.
    let out = c
        .query(
            QUERIES[1],
            open_oodb::server::RequestOptions {
                tenant: Some("globex"),
                ..Default::default()
            },
        )
        .unwrap();
    assert!(!out.rows.is_empty() || out.row_count == 0);
    slow.join().unwrap().expect("slow request succeeds");
    drop(c);
    server.shutdown();
}

#[test]
fn tenant_breaker_maps_resource_failures_to_503() {
    let server = start(ServerConfig {
        tenant_admission: AdmissionConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(30),
            ..Default::default()
        },
        ..Default::default()
    });
    let addr = server.local_addr();
    // Every storage read faults permanently: the first query fails with
    // a typed 500, which trips the tenant's breaker.
    server
        .service()
        .attach_fault_injector(FaultInjector::new(FaultConfig {
            read_fault_rate: 1.0,
            permanent_ratio: 1.0,
            seed: 7,
            ..Default::default()
        }));

    let mut c = Client::connect(addr).unwrap();
    let opts = open_oodb::server::RequestOptions {
        tenant: Some("flaky"),
        ..Default::default()
    };
    match c.query(QUERIES[1], opts) {
        Err(ClientError::Service {
            status: 500,
            error: ServiceError::StorageFault { .. },
            ..
        }) => {}
        other => panic!("expected typed 500, got {other:?}"),
    }
    // Breaker open: shed before execution, 503 + Retry-After.
    match c.query(QUERIES[1], opts) {
        Err(ClientError::Service {
            status,
            error,
            retry_after_s,
        }) => {
            assert_eq!(status, 503);
            assert_eq!(
                error,
                ServiceError::Overloaded {
                    reason: ShedReason::CircuitOpen
                }
            );
            // Some 29.9 s of the 30 s cooldown remain: the header rounds
            // *up*, or the client retries into a still-open breaker.
            assert_eq!(retry_after_s, Some(30), "503 must carry Retry-After");
        }
        other => panic!("expected 503, got {other:?}"),
    }
    // Other tenants are not behind flaky's breaker (they still reach
    // the — failing — storage, which is the point: admission is per
    // tenant, faults are global).
    match c.query(
        QUERIES[1],
        open_oodb::server::RequestOptions {
            tenant: Some("healthy"),
            ..Default::default()
        },
    ) {
        Err(ClientError::Service { status: 500, .. }) => {}
        other => panic!("expected healthy tenant to reach storage, got {other:?}"),
    }
    drop(c);
    server.shutdown();
}

/// A request that cannot run never reaches the tenant's gate: it takes no
/// slot, is not counted as admitted, and — settled as a success, as it
/// once was — must not hold a failing tenant's breaker closed.
#[test]
fn malformed_requests_neither_count_as_admitted_nor_reset_the_breaker() {
    let server = start(ServerConfig {
        tenant_admission: AdmissionConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(30),
            ..Default::default()
        },
        ..Default::default()
    });
    server
        .service()
        .attach_fault_injector(FaultInjector::new(FaultConfig {
            read_fault_rate: 1.0,
            permanent_ratio: 1.0,
            seed: 7,
            ..Default::default()
        }));
    let mut c = Client::connect(server.local_addr()).unwrap();
    let opts = open_oodb::server::RequestOptions {
        tenant: Some("flaky"),
        ..Default::default()
    };
    for _ in 0..2 {
        match c.query(QUERIES[1], opts) {
            Err(ClientError::Service { status: 500, .. }) => {}
            other => panic!("expected a storage fault, got {other:?}"),
        }
        let malformed = c
            .request("POST", "/query", Some("{\"tenant\":\"flaky\"}"))
            .unwrap();
        assert_eq!(malformed.status, 400);
    }
    // Two faults, each followed by a malformed request: still tripped.
    match c.query(QUERIES[1], opts) {
        Err(ClientError::Service { status: 503, .. }) => {}
        other => panic!("breaker must have tripped, got {other:?}"),
    }
    let stats = c.stats().unwrap();
    let tenants = stats.get("tenants").unwrap().as_arr().unwrap();
    assert_eq!(tenants.len(), 1, "{stats:?}");
    assert_eq!(tenants[0].get("admitted").unwrap().as_u64(), Some(2));
    assert_eq!(
        tenants[0].get("resource_failures").unwrap().as_u64(),
        Some(2)
    );
    assert_eq!(
        tenants[0].get("shed_circuit_open").unwrap().as_u64(),
        Some(1)
    );
    drop(c);
    server.shutdown();
}

/// The process gate is the server's only bound on running queries: with
/// `max_inflight: 2` and eight connections of slow queries, the excess is
/// shed `429` + `Retry-After`, every admitted request is answered, and
/// nothing is left in flight.
#[test]
fn service_inflight_cap_sheds_across_connections() {
    const CLIENTS: usize = 8;
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let expect_rows = slow_down(server.service(), QUERIES[0], Duration::from_millis(400));
    server.service().set_admission(AdmissionConfig {
        max_inflight: 2,
        ..Default::default()
    });

    let start_line = Barrier::new(CLIENTS);
    let replies: Vec<_> = thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Client::connect(addr).unwrap();
                    start_line.wait();
                    c.query(QUERIES[0], Default::default())
                })
            })
            .collect();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let (mut served, mut shed) = (0, 0);
    for reply in replies {
        match reply {
            Ok(out) => {
                assert_eq!(out.rows, expect_rows);
                served += 1;
            }
            Err(ClientError::Service {
                status: 429,
                error,
                retry_after_s,
            }) => {
                assert_eq!(
                    error,
                    ServiceError::Overloaded {
                        reason: ShedReason::QueueFull
                    }
                );
                assert!(retry_after_s.unwrap_or(0) >= 1, "429 carries Retry-After");
                shed += 1;
            }
            other => panic!("served or shed, nothing else: {other:?}"),
        }
    }
    assert!(served >= 2, "two slots were free: {served} served");
    assert!(shed >= 1, "eight at once cannot fit two slots");
    let mut c = Client::connect(addr).unwrap();
    let metrics = c.metrics().unwrap();
    assert!(metrics.contains("\noodb_inflight 0\n"), "{metrics}");
    assert!(
        metrics.contains(&format!(
            "oodb_shed_total{{reason=\"queue_full\"}} {shed}\n"
        )),
        "{metrics}"
    );
    drop(c);
    server.shutdown();
}

/// Tenant names come off the wire, so the registry is bounded: past
/// `MAX_TENANTS` a request naming a new tenant is shed like a `/prepare`
/// into a full registry — 429 with `Retry-After` — and adds no series,
/// while known tenants and the default one are still served.
#[test]
fn a_new_tenant_past_the_bound_maps_to_429_with_retry_after() {
    use open_oodb::server::tenant::MAX_TENANTS;
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr()).unwrap();
    let mut query = |tenant: Option<&str>| {
        let opts = open_oodb::server::RequestOptions {
            tenant,
            ..Default::default()
        };
        c.query(QUERIES[1], opts)
    };
    for i in 0..MAX_TENANTS {
        query(Some(&format!("tenant-{i}"))).expect("a tenant under the bound");
    }
    match query(Some("one-too-many")) {
        Err(ClientError::Service {
            status: 429,
            error,
            retry_after_s,
        }) => {
            let reason = ShedReason::QueueFull;
            assert_eq!(error, ServiceError::Overloaded { reason });
            assert!(retry_after_s.unwrap_or(0) >= 1, "429 carries Retry-After");
        }
        other => panic!("a full tenant registry sheds: {other:?}"),
    }
    query(Some("tenant-0")).expect("a known tenant is served");
    query(None).expect("the default tenant is served");
    assert!(!c.metrics().unwrap().contains("one-too-many"));
    let stats = c.stats().unwrap();
    let tenants = stats.get("tenants").unwrap().as_arr().unwrap();
    assert_eq!(tenants.len(), MAX_TENANTS + 1, "the bound plus the default");
    drop(c);
    server.shutdown();
}

#[test]
fn dropping_the_server_stops_it_and_frees_the_store() {
    let svc = service();
    let store = Arc::downgrade(&svc.store());
    let config = ServerConfig::default();
    let idle_timeout = config.io_timeout;
    let server = Server::start(svc, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    // A keep-alive connection left idle on its connection thread.
    let mut idle = Client::connect(addr).unwrap();
    idle.query(QUERIES[1], Default::default()).unwrap();

    let begun = Instant::now();
    drop(server);
    assert!(
        begun.elapsed() < idle_timeout,
        "drop waited {:?} for the idle connection",
        begun.elapsed()
    );
    assert!(TcpStream::connect(addr).is_err(), "the port still accepts");
    assert!(idle.healthz().is_err(), "the idle connection still answers");
    assert!(
        store.upgrade().is_none(),
        "the dropped server's store is alive"
    );
}
