//! `plancache` — plan-cache + query-service benchmark.
//!
//! Replays a Zipf-skewed stream of Q1–Q4 variants (different constants,
//! same shapes — the OLTP pattern plan caches exist for) through the
//! [`oodb_service::QueryService`] from 1/2/4/8 submitter threads, and reports:
//!
//! * cold vs. warm mean *optimize* latency (the amortization win),
//! * aggregate throughput per thread count,
//! * p50/p99 per-query service latency,
//! * cache hit rate,
//!
//! as JSON in `BENCH_plancache.json`.
//!
//! Two modes per thread count:
//!
//! * **cpu_only** — queries run back-to-back; on a single-core host the
//!   threads serialize and throughput cannot scale.
//! * **realized_io** — each query additionally sleeps
//!   `simulated_io_seconds × scale`, turning the storage simulator's I/O
//!   estimate into a real stall. Threads overlap stalls exactly the way a
//!   real server overlaps disk waits, so throughput scales with threads
//!   even on one core. The scale is calibrated so the mean stall is a few
//!   milliseconds and is recorded in the JSON.

use oodb_bench::workload::{paper_query_pool, percentile, submit_concurrently, Zipf};
use oodb_core::{CostParams, OptimizerConfig};
use oodb_service::{QueryService, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig};
use oodb_telemetry::HistogramSnapshot;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SCALE_DIV: u64 = 10;
const SAMPLES: usize = 600;
const THREADS: &[usize] = &[1, 2, 4, 8];
const ZIPF_EXPONENT: f64 = 1.0;
const TARGET_STALL_S: f64 = 0.003;

/// The distinct query pool: the paper's four query shapes, each with a
/// spread of constants drawn from the generator's value pools.
fn query_pool() -> Vec<String> {
    paper_query_pool(10, 16, 16)
}

#[derive(Clone, Copy, Debug, Default)]
struct RunStats {
    throughput_qps: f64,
    p50_latency_ns: u64,
    p99_latency_ns: u64,
    mean_optimize_ns: u64,
    hit_rate: f64,
}

/// One measured replay: `samples` Zipf draws from `threads` concurrent
/// submitters. Latency = service time per query (plan + execute + any
/// realized stall); throughput = samples / wall.
fn run_stream(
    service: &QueryService,
    stream: &[usize],
    pool_queries: &[String],
    threads: usize,
    realize_io_scale: f64,
) -> RunStats {
    let before = service.cache().stats();
    let opts = SubmitOptions {
        realize_io_scale,
        ..Default::default()
    };
    let wall = Instant::now();
    let outputs: Vec<_> = submit_concurrently(service, threads, stream.len(), |i| {
        (pool_queries[stream[i]].as_str(), opts)
    })
    .into_iter()
    .map(|r| r.expect("query failed"))
    .collect();
    let wall_s = wall.elapsed().as_secs_f64();
    let after = service.cache().stats();

    let mut latencies: Vec<u64> = outputs
        .iter()
        .map(|o| {
            let stall_ns = (o.sim_io_s * realize_io_scale * 1e9) as u64;
            o.compile_ns + o.optimize_ns + o.execute_ns + stall_ns
        })
        .collect();
    latencies.sort_unstable();
    let mean_optimize_ns =
        outputs.iter().map(|o| o.optimize_ns).sum::<u64>() / outputs.len().max(1) as u64;
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        (after.hits - before.hits) as f64 / lookups as f64
    };
    RunStats {
        throughput_qps: stream.len() as f64 / wall_s,
        p50_latency_ns: percentile(&latencies, 0.50),
        p99_latency_ns: percentile(&latencies, 0.99),
        mean_optimize_ns,
        hit_rate,
    }
}

/// The submission pipeline stages whose latency histograms the service
/// records (label values of `oodb_stage_latency_ns`).
const STAGES: &[&str] = &[
    "parse",
    "simplify",
    "fingerprint",
    "cache_probe",
    "optimize",
    "execute",
];

/// Per-stage histogram snapshots from a service's registry.
fn stage_snapshots(service: &QueryService) -> Vec<HistogramSnapshot> {
    STAGES
        .iter()
        .map(|s| {
            service
                .telemetry()
                .histogram("oodb_stage_latency_ns", &[("stage", s)])
                .snapshot()
        })
        .collect()
}

/// JSON object mapping each stage to its p50/p95/p99 over one interval.
fn json_stage_breakdown(before: &[HistogramSnapshot], after: &[HistogramSnapshot]) -> String {
    let mut out = String::from("{");
    for (i, stage) in STAGES.iter().enumerate() {
        let d = after[i].delta(&before[i]);
        let _ = write!(
            out,
            "{}\"{stage}\": {{\"count\": {}, \"p50_ns\": {:.0}, \"p95_ns\": {:.0}, \
             \"p99_ns\": {:.0}}}",
            if i == 0 { "" } else { ", " },
            d.count,
            d.quantile(0.50),
            d.quantile(0.95),
            d.quantile(0.99)
        );
    }
    out.push('}');
    out
}

fn json_run(out: &mut String, label: &str, r: &RunStats) {
    let _ = write!(
        out,
        "\"{label}\": {{\"throughput_qps\": {:.1}, \"p50_latency_ns\": {}, \
         \"p99_latency_ns\": {}, \"mean_optimize_ns\": {}, \"hit_rate\": {:.4}}}",
        r.throughput_qps, r.p50_latency_ns, r.p99_latency_ns, r.mean_optimize_ns, r.hit_rate
    );
}

fn main() {
    eprintln!("generating the Table 1 database at scale 1/{SCALE_DIV}...");
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: SCALE_DIV,
        ..Default::default()
    });
    let queries = query_pool();
    eprintln!(
        "{} distinct queries, {} Zipf(s={ZIPF_EXPONENT}) samples per run",
        queries.len(),
        SAMPLES
    );

    // One shared Zipf stream so every thread count replays the same work.
    let zipf = Zipf::new(queries.len(), ZIPF_EXPONENT);
    let mut rng = SmallRng::seed_from_u64(0x00db_cafe);
    let stream: Vec<usize> = (0..SAMPLES).map(|_| zipf.sample(&mut rng)).collect();

    // --- Cold pass: every distinct query once, empty cache. -------------
    let cold_service = QueryService::new(
        store.clone(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        256,
        8,
    );
    let mut cold_optimize_ns: Vec<u64> = Vec::new();
    let mut mean_io_s = 0.0;
    for q in &queries {
        let out = cold_service.submit(q).expect("cold query failed");
        assert!(!out.cache_hit, "cold pass must miss");
        cold_optimize_ns.push(out.optimize_ns);
        mean_io_s += out.sim_io_s;
    }
    mean_io_s /= queries.len() as f64;
    let cold_mean_ns = cold_optimize_ns.iter().sum::<u64>() / cold_optimize_ns.len() as u64;
    let realize_scale = (TARGET_STALL_S / mean_io_s.max(1e-9)).clamp(1e-4, 10.0);
    eprintln!(
        "cold mean optimize: {:.2} ms; mean simulated I/O {:.3} s -> realize scale {realize_scale:.4}",
        cold_mean_ns as f64 / 1e6,
        mean_io_s
    );

    // --- Warm runs per thread count, cpu-only and realized-I/O. ---------
    let mut rows = Vec::new();
    let mut warm_mean_1t = 0u64;
    let mut qps_realized = std::collections::HashMap::new();
    for &threads in THREADS {
        // Fresh service per thread count; prime with one pass over the
        // distinct set so the measured stream is the warm steady state.
        let service = QueryService::new(
            store.clone(),
            CostParams::default(),
            OptimizerConfig::all_rules(),
            256,
            8,
        );
        for q in &queries {
            service.submit(q).expect("prime query failed");
        }
        // Stage-latency histograms for the measured streams only (the
        // prime pass ran with profiling off and is invisible here).
        service.set_profiling(true);
        let stages_before = stage_snapshots(&service);
        let cpu = run_stream(&service, &stream, &queries, threads, 0.0);
        let realized = run_stream(&service, &stream, &queries, threads, realize_scale);
        let stages_after = stage_snapshots(&service);
        let stage_json = json_stage_breakdown(&stages_before, &stages_after);
        if threads == 1 {
            warm_mean_1t = cpu.mean_optimize_ns;
        }
        qps_realized.insert(threads, realized.throughput_qps);
        eprintln!(
            "{threads} thread(s): cpu {:.0} q/s (p50 {:.2} ms, hit {:.1}%), \
             realized {:.0} q/s (p50 {:.2} ms)",
            cpu.throughput_qps,
            cpu.p50_latency_ns as f64 / 1e6,
            cpu.hit_rate * 100.0,
            realized.throughput_qps,
            realized.p50_latency_ns as f64 / 1e6,
        );
        rows.push((threads, cpu, realized, stage_json));
    }

    // --- Profiling overhead: the same warm 1-thread replay with the
    // histogram gate off vs. on. Off-mode is the deployment default; the
    // difference bounds what instrumentation costs a server that never
    // asks for latency data. Median of 5 alternated pairs tames noise.
    let overhead_service = QueryService::new(
        store.clone(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        256,
        8,
    );
    for q in &queries {
        overhead_service.submit(q).expect("prime query failed");
    }
    let mut qps_off_runs = Vec::new();
    let mut qps_on_runs = Vec::new();
    for _ in 0..5 {
        overhead_service.set_profiling(false);
        qps_off_runs.push(run_stream(&overhead_service, &stream, &queries, 1, 0.0).throughput_qps);
        overhead_service.set_profiling(true);
        qps_on_runs.push(run_stream(&overhead_service, &stream, &queries, 1, 0.0).throughput_qps);
    }
    qps_off_runs.sort_by(|a, b| a.total_cmp(b));
    qps_on_runs.sort_by(|a, b| a.total_cmp(b));
    let qps_profiling_off = qps_off_runs[qps_off_runs.len() / 2];
    let qps_profiling_on = qps_on_runs[qps_on_runs.len() / 2];
    let profiling_overhead_pct = (1.0 - qps_profiling_on / qps_profiling_off) * 100.0;
    eprintln!(
        "profiling overhead: {qps_profiling_off:.0} q/s off vs {qps_profiling_on:.0} q/s on \
         ({profiling_overhead_pct:.2}%)"
    );
    let metrics_snapshot = overhead_service.metrics_json();

    let warm_speedup = cold_mean_ns as f64 / warm_mean_1t.max(1) as f64;
    let scaling_1_to_4 = qps_realized[&4] / qps_realized[&1];
    eprintln!(
        "warm-vs-cold mean optimize speedup: {warm_speedup:.1}x; \
         realized throughput 1->4 threads: {scaling_1_to_4:.2}x"
    );

    // --- JSON report. ---------------------------------------------------
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"plancache\",\n  \"scale_div\": {SCALE_DIV},\n  \
         \"distinct_queries\": {},\n  \"samples_per_run\": {SAMPLES},\n  \
         \"zipf_exponent\": {ZIPF_EXPONENT},\n  \
         \"realize_io_scale\": {realize_scale:.6},\n  \
         \"cold_mean_optimize_ns\": {cold_mean_ns},\n  \
         \"warm_mean_optimize_ns_1t\": {warm_mean_1t},\n  \
         \"warm_vs_cold_optimize_speedup\": {warm_speedup:.1},\n  \
         \"realized_throughput_scaling_1_to_4\": {scaling_1_to_4:.2},\n  \
         \"runs\": [\n",
        queries.len()
    );
    for (i, (threads, cpu, realized, stage_json)) in rows.iter().enumerate() {
        let _ = write!(json, "    {{\"threads\": {threads}, ");
        json_run(&mut json, "cpu_only", cpu);
        json.push_str(", ");
        json_run(&mut json, "realized_io", realized);
        let _ = write!(json, ", \"stage_latency\": {stage_json}");
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Per-thread warm optimize means as a first-class series, so scaling
    // regressions in *optimize* latency (as opposed to throughput) are
    // one jq expression away for dashboards and the scaling gate.
    json.push_str("  \"warm_mean_optimize_ns_series\": [");
    for (i, (threads, cpu, realized, _)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"threads\": {threads}, \"cpu_only_ns\": {}, \"realized_io_ns\": {}}}",
            if i == 0 { "" } else { ", " },
            cpu.mean_optimize_ns,
            realized.mean_optimize_ns
        );
    }
    json.push_str("],\n");
    let _ = writeln!(
        json,
        "  \"telemetry_overhead\": {{\"qps_profiling_off\": {qps_profiling_off:.1}, \
         \"qps_profiling_on\": {qps_profiling_on:.1}, \
         \"profiling_overhead_pct\": {profiling_overhead_pct:.2}}},"
    );
    let _ = writeln!(json, "  \"metrics_snapshot\": {metrics_snapshot}");
    json.push_str("}\n");

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plancache.json");
    std::fs::write(out_path, &json).expect("write BENCH_plancache.json");
    eprintln!("wrote {out_path}");
    println!("{json}");
}
