//! Serving-layer benchmark: what does putting `oodb-server` between a
//! client and the `QueryService` cost, and how does the wire behave
//! under load?
//!
//! Four sections, all over loopback against the Table 1 database:
//!
//! 1. **Overhead** — warm-cache Q1–Q4 submitted in-process
//!    (`QueryService::submit_with`) vs through `POST /query` on a
//!    loopback connection, under the same calibrated realized-I/O
//!    stall. The gate: loopback mean latency ≤ 25% over in-process.
//!    A cpu-only (no stall) pair is reported alongside for reference.
//! 2. **Prepared replay** — the full distinct pool registered via
//!    `POST /prepare`, warmed once, then a Zipf-skewed pipelined storm
//!    of `POST /execute/{id}`. The gate: plan-cache hit rate ≥ 99%
//!    measured from the server-side cache-stats delta.
//! 3. **Closed loop** — 1/2/4/8 client connections, each issuing one
//!    request at a time; qps and p50/p99 per client count.
//! 4. **Open loop** — 1/2/4/8 split-connection senders on a fixed
//!    schedule against a deliberately small gate (service
//!    `max_inflight: 2`), receivers draining pipelined responses. Latency is
//!    measured from the *scheduled* send instant (no coordinated
//!    omission); 429/503 answers count as sheds, and at 8 clients the
//!    offered load exceeds capacity so sheds must appear.
//!
//! Writes `BENCH_server.json` at the repo root. Set
//! `OODB_SERVER_BENCH_QUICK=1` for a CI-sized run (same sections and
//! gates, fewer samples).

use oodb_bench::workload::{canonical_queries, paper_query_pool, percentile, Zipf};
use oodb_core::{CostParams, OptimizerConfig};
use oodb_server::{Client, RequestOptions, Server, ServerConfig};
use oodb_service::{AdmissionConfig, QueryService, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig, Store};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SCALE_DIV: u64 = 10;
const ZIPF_EXPONENT: f64 = 1.0;
const TARGET_STALL_S: f64 = 0.003;
const CLIENTS: &[usize] = &[1, 2, 4, 8];
/// Per-connection send interval for the open-loop section: close
/// enough to the realized stall that eight senders overrun a
/// two-slot gate, far enough that one sender alone never sheds.
const OPEN_INTERVAL: Duration = Duration::from_millis(4);

struct Sizes {
    overhead_rounds: usize,
    replay_samples: usize,
    closed_per_client: usize,
    open_per_client: usize,
}

fn quick() -> bool {
    std::env::var("OODB_SERVER_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn service(store: &Store) -> QueryService {
    QueryService::new(
        store.clone(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        256,
        8,
    )
}

fn mean(ns: &[u64]) -> u64 {
    ns.iter().sum::<u64>() / ns.len().max(1) as u64
}

/// Mean wall-clock per in-process warm submit over the canonical set.
fn inprocess_mean_ns(svc: &QueryService, rounds: usize, io_scale: f64) -> u64 {
    let queries = canonical_queries();
    let opts = SubmitOptions {
        realize_io_scale: io_scale,
        ..Default::default()
    };
    let mut ns = Vec::with_capacity(rounds * queries.len());
    for _ in 0..rounds {
        for q in &queries {
            let t = Instant::now();
            let out = svc.submit_with(q, opts).expect("in-process submit failed");
            ns.push(t.elapsed().as_nanos() as u64);
            assert!(out.cache_hit, "overhead section must run warm");
        }
    }
    mean(&ns)
}

/// Mean wall-clock per loopback `POST /query` over the canonical set.
fn loopback_mean_ns(client: &mut Client, rounds: usize, io_scale: f64) -> u64 {
    let queries = canonical_queries();
    let opts = RequestOptions {
        realize_io_scale: Some(io_scale),
        ..Default::default()
    };
    let mut ns = Vec::with_capacity(rounds * queries.len());
    for _ in 0..rounds {
        for q in &queries {
            let t = Instant::now();
            let out = client.query(q, opts).expect("loopback query failed");
            ns.push(t.elapsed().as_nanos() as u64);
            assert!(out.cache_hit, "overhead section must run warm");
        }
    }
    mean(&ns)
}

fn overhead_pct(inproc_ns: u64, loopback_ns: u64) -> f64 {
    (loopback_ns as f64 / inproc_ns.max(1) as f64 - 1.0) * 100.0
}

#[derive(Clone, Copy, Debug, Default)]
struct LoopStats {
    requests: usize,
    sheds: usize,
    qps: f64,
    p50_latency_ns: u64,
    p99_latency_ns: u64,
}

impl LoopStats {
    fn shed_rate(&self) -> f64 {
        self.sheds as f64 / self.requests.max(1) as f64
    }
}

fn json_loop_run(out: &mut String, clients: usize, r: &LoopStats) {
    let _ = write!(
        out,
        "{{\"clients\": {clients}, \"requests\": {}, \"qps\": {:.1}, \
         \"p50_latency_ns\": {}, \"p99_latency_ns\": {}, \"sheds\": {}, \
         \"shed_rate\": {:.4}}}",
        r.requests,
        r.qps,
        r.p50_latency_ns,
        r.p99_latency_ns,
        r.sheds,
        r.shed_rate()
    );
}

/// Closed loop: `clients` connections, each replaying its share of the
/// Zipf stream one request at a time.
fn closed_loop(
    addr: &str,
    ids: &[u64],
    clients: usize,
    per_client: usize,
    io_scale: f64,
) -> LoopStats {
    let opts = RequestOptions {
        realize_io_scale: Some(io_scale),
        ..Default::default()
    };
    let zipf = Zipf::new(ids.len(), ZIPF_EXPONENT);
    let wall = Instant::now();
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect failed");
                    let mut rng = SmallRng::seed_from_u64(0xc105_ed00 + c as u64);
                    let mut ns = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let id = ids[zipf.sample(&mut rng)];
                        let t = Instant::now();
                        let out = client.execute(id, opts).expect("closed-loop execute");
                        ns.push(t.elapsed().as_nanos() as u64);
                        assert!(out.cache_hit, "closed loop must replay warm plans");
                    }
                    ns
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = per_thread.into_iter().flatten().collect();
    latencies.sort_unstable();
    LoopStats {
        requests: latencies.len(),
        sheds: 0,
        qps: latencies.len() as f64 / wall_s,
        p50_latency_ns: percentile(&latencies, 0.50),
        p99_latency_ns: percentile(&latencies, 0.99),
    }
}

/// Open loop: each connection splits into a sender on a fixed schedule
/// and a receiver draining pipelined responses. Latency runs from the
/// *scheduled* send instant to response receipt, so queueing delay the
/// server causes is charged to the server, not silently omitted.
fn open_loop(
    addr: &str,
    ids: &[u64],
    clients: usize,
    per_client: usize,
    io_scale: f64,
) -> LoopStats {
    let opts = RequestOptions {
        realize_io_scale: Some(io_scale),
        ..Default::default()
    };
    let zipf = Zipf::new(ids.len(), ZIPF_EXPONENT);
    let wall = Instant::now();
    let per_conn: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let zipf = &zipf;
                s.spawn(move || {
                    let client = Client::connect(addr).expect("connect failed");
                    let (mut tx, mut rx) = client.split();
                    let (sched_tx, sched_rx) = mpsc::channel::<Instant>();
                    let sender = s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(0x09e7_1009 + c as u64);
                        let start = Instant::now();
                        for i in 0..per_client {
                            let target = start + OPEN_INTERVAL * i as u32;
                            if let Some(gap) = target.checked_duration_since(Instant::now()) {
                                std::thread::sleep(gap);
                            }
                            sched_tx.send(target).unwrap();
                            tx.send_execute(ids[zipf.sample(&mut rng)], opts)
                                .expect("open-loop send");
                        }
                    });
                    let mut ns = Vec::new();
                    let mut sheds = 0usize;
                    for _ in 0..per_client {
                        let scheduled = sched_rx.recv().unwrap();
                        let resp = rx.recv().expect("open-loop recv");
                        match resp.status {
                            200 => ns.push(scheduled.elapsed().as_nanos() as u64),
                            429 | 503 => {
                                assert!(
                                    resp.header("retry-after").is_some(),
                                    "shed responses must carry Retry-After"
                                );
                                sheds += 1;
                            }
                            other => panic!("open loop saw HTTP {other}"),
                        }
                    }
                    sender.join().unwrap();
                    (ns, sheds)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut sheds = 0;
    for (ns, s) in per_conn {
        latencies.extend(ns);
        sheds += s;
    }
    latencies.sort_unstable();
    LoopStats {
        requests: latencies.len() + sheds,
        sheds,
        qps: latencies.len() as f64 / wall_s,
        p50_latency_ns: percentile(&latencies, 0.50),
        p99_latency_ns: percentile(&latencies, 0.99),
    }
}

fn main() {
    let quick = quick();
    let sizes = if quick {
        Sizes {
            overhead_rounds: 10,
            replay_samples: 120,
            closed_per_client: 40,
            open_per_client: 60,
        }
    } else {
        Sizes {
            overhead_rounds: 50,
            replay_samples: 600,
            closed_per_client: 150,
            open_per_client: 250,
        }
    };

    eprintln!("generating the Table 1 database at scale 1/{SCALE_DIV}...");
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: SCALE_DIV,
        ..Default::default()
    });
    let pool_queries = paper_query_pool(10, 16, 16);

    // Calibrate the realized-I/O scale so the mean stall lands on
    // TARGET_STALL_S, same as the plancache bench.
    let calib = service(&store);
    let mut mean_io_s = 0.0;
    for q in canonical_queries().iter() {
        mean_io_s += calib.submit(q).expect("calibration query failed").sim_io_s;
    }
    mean_io_s /= 4.0;
    let io_scale = (TARGET_STALL_S / mean_io_s.max(1e-9)).clamp(1e-4, 10.0);
    eprintln!("mean simulated I/O {mean_io_s:.3} s -> realize scale {io_scale:.4}");

    // --- 1. Overhead: in-process submit vs loopback /query. -------------
    let svc = service(&store);
    for q in canonical_queries().iter() {
        svc.submit(q).expect("warm query failed");
    }
    let server = Server::start(svc.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("server start failed");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect failed");

    let inproc_ns = inprocess_mean_ns(&svc, sizes.overhead_rounds, io_scale);
    let loop_ns = loopback_mean_ns(&mut client, sizes.overhead_rounds, io_scale);
    let realized_overhead = overhead_pct(inproc_ns, loop_ns);
    let inproc_cpu_ns = inprocess_mean_ns(&svc, sizes.overhead_rounds, 0.0);
    let loop_cpu_ns = loopback_mean_ns(&mut client, sizes.overhead_rounds, 0.0);
    let cpu_overhead = overhead_pct(inproc_cpu_ns, loop_cpu_ns);
    eprintln!(
        "overhead: realized {:.3} ms in-process vs {:.3} ms loopback ({realized_overhead:+.1}%); \
         cpu-only {:.1} us vs {:.1} us ({cpu_overhead:+.1}%)",
        inproc_ns as f64 / 1e6,
        loop_ns as f64 / 1e6,
        inproc_cpu_ns as f64 / 1e3,
        loop_cpu_ns as f64 / 1e3,
    );
    assert!(
        realized_overhead <= 25.0,
        "loopback serving overhead {realized_overhead:.1}% exceeds the 25% budget"
    );

    // --- 2. Prepared replay through the plan cache. ----------------------
    let mut ids = Vec::with_capacity(pool_queries.len());
    for q in &pool_queries {
        let (id, _) = client.prepare(q).expect("prepare failed");
        ids.push(id);
    }
    // Warm every statement once so the storm measures steady state.
    for &id in &ids {
        client
            .execute(id, RequestOptions::default())
            .expect("warm execute failed");
    }
    let before = server.service().cache().stats();
    let zipf = Zipf::new(ids.len(), ZIPF_EXPONENT);
    let mut rng = SmallRng::seed_from_u64(0x0b5e_55ed);
    let stream: Vec<u64> = (0..sizes.replay_samples)
        .map(|_| ids[zipf.sample(&mut rng)])
        .collect();
    for batch in stream.chunks(16) {
        for r in client
            .pipeline_execute(batch, RequestOptions::default())
            .expect("replay batch failed")
        {
            r.expect("replay execute failed");
        }
    }
    let after = server.service().cache().stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    eprintln!(
        "prepared replay: {} statements, {} samples, hit rate {:.2}%",
        ids.len(),
        sizes.replay_samples,
        hit_rate * 100.0
    );
    assert!(
        hit_rate >= 0.99,
        "prepared replay hit rate {hit_rate:.4} below the 99% gate"
    );
    drop(client);
    server.shutdown();

    // --- 3. Closed loop at 1/2/4/8 clients. ------------------------------
    let closed_server = Server::start(service(&store), "127.0.0.1:0", ServerConfig::default())
        .expect("closed-loop server start failed");
    let closed_addr = closed_server.local_addr().to_string();
    let mut warm = Client::connect(&closed_addr).expect("connect failed");
    let mut closed_ids = Vec::with_capacity(pool_queries.len());
    for q in &pool_queries {
        let (id, _) = warm.prepare(q).expect("prepare failed");
        warm.execute(id, RequestOptions::default())
            .expect("warm execute failed");
        closed_ids.push(id);
    }
    drop(warm);
    let mut closed_rows = Vec::new();
    for &clients in CLIENTS {
        let r = closed_loop(
            &closed_addr,
            &closed_ids,
            clients,
            sizes.closed_per_client,
            io_scale,
        );
        eprintln!(
            "closed loop {clients} client(s): {:.0} q/s, p50 {:.2} ms, p99 {:.2} ms",
            r.qps,
            r.p50_latency_ns as f64 / 1e6,
            r.p99_latency_ns as f64 / 1e6
        );
        closed_rows.push((clients, r));
    }
    closed_server.shutdown();

    // --- 4. Open loop against a deliberately small gate. ------------------
    let open_service = service(&store);
    open_service.set_admission(AdmissionConfig {
        max_inflight: 2,
        ..Default::default()
    });
    let open_server = Server::start(open_service, "127.0.0.1:0", ServerConfig::default())
        .expect("open-loop server start failed");
    let open_addr = open_server.local_addr().to_string();
    let mut warm = Client::connect(&open_addr).expect("connect failed");
    let mut open_ids = Vec::with_capacity(pool_queries.len());
    for q in &pool_queries {
        let (id, _) = warm.prepare(q).expect("prepare failed");
        warm.execute(id, RequestOptions::default())
            .expect("warm execute failed");
        open_ids.push(id);
    }
    drop(warm);
    let per_conn_qps = 1.0 / OPEN_INTERVAL.as_secs_f64();
    let mut open_rows = Vec::new();
    for &clients in CLIENTS {
        let r = open_loop(
            &open_addr,
            &open_ids,
            clients,
            sizes.open_per_client,
            io_scale,
        );
        eprintln!(
            "open loop {clients} client(s) @ {:.0} q/s offered: {:.0} q/s completed, \
             p50 {:.2} ms, p99 {:.2} ms, shed {:.1}%",
            per_conn_qps * clients as f64,
            r.qps,
            r.p50_latency_ns as f64 / 1e6,
            r.p99_latency_ns as f64 / 1e6,
            r.shed_rate() * 100.0
        );
        open_rows.push((clients, r));
    }
    let overloaded = &open_rows.last().unwrap().1;
    assert!(
        overloaded.sheds > 0,
        "8 clients over a 2-slot gate must shed"
    );
    open_server.shutdown();

    // --- JSON report. -----------------------------------------------------
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"server\",\n  \"scale_div\": {SCALE_DIV},\n  \
         \"quick\": {quick},\n  \"zipf_exponent\": {ZIPF_EXPONENT},\n  \
         \"realize_io_scale\": {io_scale:.6},\n"
    );
    let _ = writeln!(
        json,
        "  \"overhead\": {{\"rounds\": {}, \
         \"realized\": {{\"inprocess_mean_ns\": {inproc_ns}, \
         \"loopback_mean_ns\": {loop_ns}, \"overhead_pct\": {realized_overhead:.2}}}, \
         \"cpu_only\": {{\"inprocess_mean_ns\": {inproc_cpu_ns}, \
         \"loopback_mean_ns\": {loop_cpu_ns}, \"overhead_pct\": {cpu_overhead:.2}}}}},",
        sizes.overhead_rounds
    );
    let _ = writeln!(
        json,
        "  \"prepared_replay\": {{\"statements\": {}, \"samples\": {}, \
         \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.4}}},",
        ids.len(),
        sizes.replay_samples
    );
    json.push_str("  \"closed_loop\": [\n");
    for (i, (clients, r)) in closed_rows.iter().enumerate() {
        json.push_str("    ");
        json_loop_run(&mut json, *clients, r);
        json.push_str(if i + 1 < closed_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"open_loop\": {{\"max_inflight\": 2, \
         \"per_client_offered_qps\": {per_conn_qps:.1}, \"runs\": ["
    );
    for (i, (clients, r)) in open_rows.iter().enumerate() {
        json.push_str("    ");
        json_loop_run(&mut json, *clients, r);
        json.push_str(if i + 1 < open_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]}\n}\n");

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(out_path, &json).expect("write BENCH_server.json");
    eprintln!("wrote {out_path}");
    println!("{json}");
}
