//! `memlimit` — memory-governance benchmark.
//!
//! Replays a Zipf-skewed stream of the paper's memory-hungry query shapes
//! (hash joins, assembly windows, set ops — pointer/merge join disabled so
//! equi-joins must build hash tables) through the
//! [`oodb_service::QueryService`] from 1/2/4/8 submitter threads, with each
//! query's memory grant capped at 100% / 50% / 25% of its *measured*
//! working set, and reports per cell:
//!
//! * aggregate throughput and p50/p99 service latency,
//! * spill pages written/read and grant denials (the price of pressure),
//! * the peak bytes any query actually held (must respect the grant),
//!
//! plus two scalar gates:
//!
//! * **governor overhead** — warm 1-thread replay with no governor vs. an
//!   unlimited governor attached; bounds what byte accounting costs a
//!   deployment that never constrains memory (acceptance: < 1%),
//! * **shed rate** — a burst from 8 submitters against a service capped
//!   at `max_inflight: 2`; how much of it is refused with `Overloaded`
//!   while the admitted remainder completes.
//!
//! Output is JSON in `BENCH_memlimit.json`.

use oodb_bench::workload::{percentile, submit_concurrently, Zipf};
use oodb_core::config::rule_names;
use oodb_core::{CostParams, OptimizerConfig};
use oodb_service::{AdmissionConfig, QueryService, ServiceError, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig, MemoryGovernor};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SCALE_DIV: u64 = 10;
const SAMPLES: usize = 240;
const THREADS: &[usize] = &[1, 2, 4, 8];
const GRANT_PCTS: &[u64] = &[100, 50, 25];
const ZIPF_EXPONENT: f64 = 1.0;
const TARGET_STALL_S: f64 = 0.003;
/// Grant floor in bytes: the smallest budget the service tests prove every
/// operator can make progress under (spilling or shrinking, not erroring).
const BUDGET_FLOOR: u64 = 512;

/// The distinct query pool: only shapes that *reserve* memory. Q2's
/// index scan holds nothing and would dilute the replay.
fn query_pool() -> Vec<String> {
    let mut pool = Vec::new();
    // Explicit two-extent equi-join: with pointer/merge join disabled this
    // is a hybrid hash join, the operator that spills under pressure.
    pool.push(
        "SELECT Newobject(e.name(), d.name()) \
         FROM Employee e IN Employees, Department d IN Department \
         WHERE e.dept() == d"
            .to_string(),
    );
    // Q1 variants: path-expression join chains.
    let mut locations = vec!["Dallas".to_string()];
    locations.extend((1..4).map(|i| format!("loc{i:05}")));
    for loc in &locations {
        pool.push(format!(
            "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
             FROM Employee e IN Employees \
             WHERE e.dept().plant().location() == \"{loc}\""
        ));
    }
    // Q3 variants: assembly windows (grant-bounded).
    let mut mayors = vec!["Joe".to_string()];
    mayors.extend((1..4).map(|i| format!("p{i:05}")));
    for name in &mayors {
        pool.push(format!(
            "SELECT Newobject(c.mayor().age(), c.name()) \
             FROM City c IN Cities WHERE c.mayor().name() == \"{name}\""
        ));
    }
    // Q4 variants: set-valued path with EXISTS (staged set ops).
    for t in (1..=4).map(|i| i * 10) {
        pool.push(format!(
            "SELECT t FROM Task t IN Tasks WHERE t.time() == {t} \
             && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")"
        ));
    }
    pool
}

/// A service whose equi-joins must be hybrid hash joins (memory-bound).
fn hash_join_service(store: &oodb_storage::Store) -> QueryService {
    QueryService::new(
        store.clone(),
        CostParams::default(),
        OptimizerConfig::without(&[rule_names::POINTER_JOIN, rule_names::MERGE_JOIN]),
        256,
        8,
    )
}

#[derive(Clone, Copy, Debug, Default)]
struct CellStats {
    throughput_qps: f64,
    p50_latency_ns: u64,
    p99_latency_ns: u64,
    spill_pages: u64,
    spill_bytes_written: u64,
    grant_denials: u64,
    max_peak_bytes: u64,
}

/// One measured replay: `stream` Zipf draws from `threads` submitters,
/// each query under its entry in `budgets` (`None` = ungoverned).
fn run_stream(
    service: &QueryService,
    stream: &[usize],
    pool_queries: &[String],
    budgets: Option<&[u64]>,
    threads: usize,
) -> CellStats {
    let wall = Instant::now();
    let outputs: Vec<_> = submit_concurrently(service, threads, stream.len(), |n| {
        let i = stream[n];
        let opts = SubmitOptions {
            mem_budget: budgets.map(|b| b[i]),
            ..Default::default()
        };
        (pool_queries[i].as_str(), opts)
    })
    .into_iter()
    .map(|r| r.expect("query failed under grant"))
    .collect();
    let wall_s = wall.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = outputs
        .iter()
        .map(|o| o.compile_ns + o.optimize_ns + o.execute_ns)
        .collect();
    latencies.sort_unstable();
    let governor = service.memory_governor();
    let mem = governor.as_ref().map(|g| g.stats()).unwrap_or_default();
    CellStats {
        throughput_qps: stream.len() as f64 / wall_s,
        p50_latency_ns: percentile(&latencies, 0.50),
        p99_latency_ns: percentile(&latencies, 0.99),
        spill_pages: outputs.iter().map(|o| o.spill_pages).sum(),
        spill_bytes_written: mem.spill_bytes_written,
        grant_denials: mem.grant_denials,
        max_peak_bytes: outputs.iter().map(|o| o.mem_peak_bytes).max().unwrap_or(0),
    }
}

fn json_cell(out: &mut String, label: &str, c: &CellStats) {
    let _ = write!(
        out,
        "\"{label}\": {{\"throughput_qps\": {:.1}, \"p50_latency_ns\": {}, \
         \"p99_latency_ns\": {}, \"spill_pages\": {}, \
         \"spill_bytes_written\": {}, \"grant_denials\": {}, \
         \"max_peak_bytes\": {}}}",
        c.throughput_qps,
        c.p50_latency_ns,
        c.p99_latency_ns,
        c.spill_pages,
        c.spill_bytes_written,
        c.grant_denials,
        c.max_peak_bytes
    );
}

fn main() {
    eprintln!("generating the Table 1 database at scale 1/{SCALE_DIV}...");
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: SCALE_DIV,
        ..Default::default()
    });
    let queries = query_pool();
    let zipf = Zipf::new(queries.len(), ZIPF_EXPONENT);
    let mut rng = SmallRng::seed_from_u64(0x000d_b3e3);
    let stream: Vec<usize> = (0..SAMPLES).map(|_| zipf.sample(&mut rng)).collect();
    eprintln!(
        "{} distinct queries, {SAMPLES} Zipf(s={ZIPF_EXPONENT}) samples per cell",
        queries.len()
    );

    // --- Working-set measurement: each query once, unlimited governor. --
    let probe = hash_join_service(&store);
    probe.attach_memory_governor(MemoryGovernor::unlimited());
    let mut peaks = Vec::new();
    let mut mean_io_s = 0.0;
    for q in &queries {
        let out = probe.submit(q).expect("measurement query failed");
        peaks.push(out.mem_peak_bytes);
        mean_io_s += out.sim_io_s;
    }
    mean_io_s /= queries.len() as f64;
    let max_peak = peaks.iter().copied().max().unwrap_or(0);
    assert!(max_peak > 0, "pool must contain memory-reserving plans");
    eprintln!(
        "working sets: max {max_peak} B, sum {} B",
        peaks.iter().sum::<u64>()
    );

    // --- Grid: threads x grant percentage. ------------------------------
    // The grant (per-query budget) is the binding constraint under study;
    // the governor is sized so `threads` concurrent grants always fit
    // (capacity contention is exercised by the resilience suite instead).
    let mut cells = Vec::new();
    let mut qps_100_1t = 0.0;
    let mut qps_25_1t = 0.0;
    for &threads in THREADS {
        let service = hash_join_service(&store);
        for q in &queries {
            service.submit(q).expect("prime query failed");
        }
        for &pct in GRANT_PCTS {
            let budgets: Vec<u64> = peaks
                .iter()
                .map(|p| (p * pct / 100).max(BUDGET_FLOOR))
                .collect();
            let max_budget = budgets.iter().copied().max().unwrap();
            let capacity = (threads as u64 * max_budget).max(16 * 1024);
            service.attach_memory_governor(MemoryGovernor::new(capacity));
            let cell = run_stream(&service, &stream, &queries, Some(&budgets), threads);
            assert!(
                cell.max_peak_bytes <= max_budget,
                "grant must cap the peak: {} > {max_budget}",
                cell.max_peak_bytes
            );
            if threads == 1 && pct == 100 {
                qps_100_1t = cell.throughput_qps;
            }
            if threads == 1 && pct == 25 {
                qps_25_1t = cell.throughput_qps;
            }
            eprintln!(
                "{threads} thread(s) @ {pct:>3}% grant: {:>6.0} q/s, p50 {:.2} ms, \
                 {} spill pages, {} denials",
                cell.throughput_qps,
                cell.p50_latency_ns as f64 / 1e6,
                cell.spill_pages,
                cell.grant_denials
            );
            cells.push((threads, pct, cell));
        }
        service.detach_memory_governor();
    }
    let spill_slowdown_1t = qps_100_1t / qps_25_1t.max(1e-9);

    // --- Governor overhead: warm 1-thread replay, detached vs. attached
    // (unlimited). Median of 5 alternated pairs tames noise.
    let overhead_service = hash_join_service(&store);
    for q in &queries {
        overhead_service.submit(q).expect("prime query failed");
    }
    let mut qps_off_runs = Vec::new();
    let mut qps_on_runs = Vec::new();
    for _ in 0..5 {
        overhead_service.detach_memory_governor();
        qps_off_runs.push(run_stream(&overhead_service, &stream, &queries, None, 1).throughput_qps);
        overhead_service.attach_memory_governor(MemoryGovernor::unlimited());
        qps_on_runs.push(run_stream(&overhead_service, &stream, &queries, None, 1).throughput_qps);
    }
    overhead_service.detach_memory_governor();
    qps_off_runs.sort_by(|a, b| a.total_cmp(b));
    qps_on_runs.sort_by(|a, b| a.total_cmp(b));
    let qps_governor_off = qps_off_runs[qps_off_runs.len() / 2];
    let qps_governor_on = qps_on_runs[qps_on_runs.len() / 2];
    let governor_overhead_pct = (1.0 - qps_governor_on / qps_governor_off) * 100.0;
    eprintln!(
        "governor overhead: {qps_governor_off:.0} q/s detached vs \
         {qps_governor_on:.0} q/s attached ({governor_overhead_pct:.2}%)"
    );

    // --- Shed rate: an oversized burst against a capped gate. ----------
    let shed_service = hash_join_service(&store);
    for q in &queries {
        shed_service.submit(q).expect("prime query failed");
    }
    let realize_scale = (TARGET_STALL_S / mean_io_s.max(1e-9)).clamp(1e-4, 10.0);
    let burst = 64usize;
    shed_service.set_admission(AdmissionConfig {
        max_inflight: 2,
        ..Default::default()
    });
    let opts = SubmitOptions {
        realize_io_scale: realize_scale,
        ..Default::default()
    };
    let (mut served, mut shed) = (0u64, 0u64);
    for reply in submit_concurrently(&shed_service, 8, burst, |i| {
        (queries[i % queries.len()].as_str(), opts)
    }) {
        match reply {
            Ok(_) => served += 1,
            Err(ServiceError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("burst reply must be served or shed: {e}"),
        }
    }
    let shed_rate = shed as f64 / burst as f64;
    eprintln!(
        "saturation burst: {served}/{burst} served, {shed} shed \
         ({:.0}% shed rate, 8 submitters, max_inflight 2)",
        shed_rate * 100.0
    );

    // --- JSON report. ---------------------------------------------------
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"memlimit\",\n  \"scale_div\": {SCALE_DIV},\n  \
         \"distinct_queries\": {},\n  \"samples_per_cell\": {SAMPLES},\n  \
         \"zipf_exponent\": {ZIPF_EXPONENT},\n  \
         \"budget_floor_bytes\": {BUDGET_FLOOR},\n  \
         \"max_working_set_bytes\": {max_peak},\n  \
         \"spill_slowdown_100_to_25_pct_1t\": {spill_slowdown_1t:.2},\n  \
         \"cells\": [\n",
        queries.len()
    );
    for (i, (threads, pct, cell)) in cells.iter().enumerate() {
        let _ = write!(json, "    {{\"threads\": {threads}, \"grant_pct\": {pct}, ");
        json_cell(&mut json, "run", cell);
        json.push('}');
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"governor_overhead\": {{\"qps_detached\": {qps_governor_off:.1}, \
         \"qps_attached_unlimited\": {qps_governor_on:.1}, \
         \"overhead_pct\": {governor_overhead_pct:.2}}},"
    );
    let _ = writeln!(
        json,
        "  \"saturation\": {{\"burst\": {burst}, \"submitters\": 8, \
         \"max_inflight\": 2, \"served\": {served}, \"shed\": {shed}, \
         \"shed_rate\": {shed_rate:.3}}}"
    );
    json.push_str("}\n");

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_memlimit.json");
    std::fs::write(out_path, &json).expect("write BENCH_memlimit.json");
    eprintln!("wrote {out_path}");
    println!("{json}");
}
