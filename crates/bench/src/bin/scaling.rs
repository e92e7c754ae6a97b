//! `scaling` — multicore scaling benchmark and regression gate.
//!
//! Two experiments, one JSON report (`BENCH_scaling.json`):
//!
//! 1. **Inter-query scaling**: replays the plancache bench's Zipf-skewed
//!    warm query stream through the [`oodb_service::QueryService`] at
//!    1/2/4/8 submitter threads in cpu-only mode (no realized I/O stalls).
//!    Before the epoch-snapshot refactor this curve *fell* with thread
//!    count (0.61× at 8 threads) because every submission serialized on
//!    service-wide `RwLock`s; with lock-free snapshot reads it must not.
//! 2. **Intra-query scaling**: one big CPU-bound query (filter + hash
//!    join probe + projection over the employee extent) executed by a
//!    single [`oodb_exec::Executor`] at morsel worker counts 1/2/4/8,
//!    asserting byte-identical results at every width.
//!
//! Gates — a failed *enforced* gate exits nonzero, so CI can run this
//! binary directly:
//!
//! * `cliff_8t_vs_1t` (always enforced): 8-thread cpu-only throughput
//!   must be at least 0.95× the 1-thread throughput. This catches the
//!   scaling *cliff* (shared-state contention) even on a single-core
//!   host, where the best possible outcome is parity.
//! * `throughput_3x_at_8t`, `optimize_within_3x_at_8t`,
//!   `morsel_2x_at_4w`: the multiplicative targets. They need real
//!   cores, so they are enforced only when `available_parallelism`
//!   covers the thread count and reported as `"skipped"` otherwise.
//!
//! `SCALING_SAMPLES` overrides the per-run sample count (CI uses a
//! reduced stream); `SCALING_MORSEL_DIV` overrides the scale divisor of
//! the big-query database.

use oodb_algebra::{CmpOp, Operand, PhysicalOp, PhysicalPlan, PlanEst, QueryBuilder, QueryEnv};
use oodb_bench::workload::{paper_query_pool, percentile, submit_concurrently, Zipf};
use oodb_core::{CostParams, OptimizerConfig};
use oodb_exec::{ExecResult, Executor};
use oodb_object::paper::PaperModel;
use oodb_object::Value;
use oodb_service::{QueryService, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig, Store};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

const SCALE_DIV: u64 = 10;
const DEFAULT_SAMPLES: usize = 600;
const THREADS: &[usize] = &[1, 2, 4, 8];
const MORSEL_WORKERS: &[usize] = &[1, 2, 4, 8];
const ZIPF_EXPONENT: f64 = 1.0;
/// Default scale divisor for the big-query database: 1/4 scale keeps
/// 12,500 employees on the probe side — minutes of morsel work per
/// point, seconds of generation.
const DEFAULT_MORSEL_DIV: u64 = 4;
/// Timed repetitions per morsel worker count (min-of wins).
const MORSEL_REPS: usize = 9;
/// Noise allowance on the always-enforced cliff gate.
const CLIFF_TOLERANCE: f64 = 0.95;

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The same distinct query pool the plancache bench replays (the
/// paper's four shapes with a spread of constants).
fn query_pool() -> Vec<String> {
    paper_query_pool(10, 16, 16)
}

struct ReplayRow {
    threads: usize,
    qps: f64,
    mean_optimize_ns: u64,
    p50_latency_ns: u64,
    p99_latency_ns: u64,
    hit_rate: f64,
}

/// One warm cpu-only replay of `stream` from `threads` concurrent submitters.
fn replay(
    service: &QueryService,
    stream: &[usize],
    queries: &[String],
    threads: usize,
) -> ReplayRow {
    let before = service.cache().stats();
    let wall = Instant::now();
    let outputs: Vec<_> = submit_concurrently(service, threads, stream.len(), |i| {
        (queries[stream[i]].as_str(), SubmitOptions::default())
    })
    .into_iter()
    .map(|r| r.expect("query failed"))
    .collect();
    let wall_s = wall.elapsed().as_secs_f64();
    let after = service.cache().stats();

    let mut latencies: Vec<u64> = outputs
        .iter()
        .map(|o| o.compile_ns + o.optimize_ns + o.execute_ns)
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
    ReplayRow {
        threads,
        qps: stream.len() as f64 / wall_s,
        mean_optimize_ns,
        p50_latency_ns: percentile(&latencies, 0.50),
        p99_latency_ns: percentile(&latencies, 0.99),
        hit_rate,
    }
}

/// Builds the big CPU-bound plan: project employee names out of a
/// hash join between the department extent (build) and a filtered
/// employee scan (probe) — every row passes the filter, so the probe
/// side stays at full extent size and all three morsel-parallel
/// segments (filter, probe, projection) see the whole input.
fn big_query(m: &PaperModel) -> (PhysicalPlan, QueryEnv) {
    let plan = |op, children| PhysicalPlan {
        op,
        children,
        est: PlanEst::default(),
    };
    let mut qb = QueryBuilder::new(m.schema.clone(), m.catalog.clone());
    let (_, e) = qb.get(m.ids.employees, "e");
    let (_, d) = qb.get(m.ids.department_extent, "d");
    let join = qb.ref_eq(e, m.ids.emp_dept, d);
    let sel = qb.cmp_const(e, m.ids.emp_salary, CmpOp::Ge, Value::Int(0));
    let name = Operand::Attr {
        var: e,
        field: m.ids.person_name,
    };
    let p = plan(
        PhysicalOp::AlgProject { items: vec![name] },
        vec![plan(
            PhysicalOp::HybridHashJoin { pred: join },
            vec![
                plan(
                    PhysicalOp::FileScan {
                        coll: m.ids.department_extent,
                        var: d,
                    },
                    vec![],
                ),
                plan(
                    PhysicalOp::Filter { pred: sel },
                    vec![plan(
                        PhysicalOp::FileScan {
                            coll: m.ids.employees,
                            var: e,
                        },
                        vec![],
                    )],
                ),
            ],
        )],
    );
    (p, qb.into_env())
}

struct MorselPoint {
    workers: usize,
    min_wall_ns: u64,
    speedup: f64,
}

/// Times the big query at each worker count (min of [`MORSEL_REPS`]
/// runs, warm buffer pool) and checks byte-identical output.
fn morsel_curve(store: &Store, env: &QueryEnv, p: &PhysicalPlan) -> (Vec<MorselPoint>, bool, u64) {
    let mut baseline: Option<ExecResult> = None;
    let mut identical = true;
    let mut points = Vec::new();
    let mut t1 = 0u64;
    for &workers in MORSEL_WORKERS {
        let mut ex = Executor::new(store, env);
        ex.set_parallelism(workers);
        ex.run(p); // warm the buffer pool out of the timing
        let mut best = u64::MAX;
        for _ in 0..MORSEL_REPS {
            let wall = Instant::now();
            let res = ex.run(p);
            best = best.min(wall.elapsed().as_nanos() as u64);
            match &baseline {
                None => baseline = Some(res),
                Some(b) => identical &= res == *b,
            }
        }
        if workers == 1 {
            t1 = best;
        }
        points.push(MorselPoint {
            workers,
            min_wall_ns: best,
            speedup: t1 as f64 / best.max(1) as f64,
        });
        eprintln!(
            "morsel {workers}w: {:.2} ms (x{:.2})",
            best as f64 / 1e6,
            t1 as f64 / best.max(1) as f64
        );
    }
    let rows = baseline.as_ref().map_or(0, ExecResult::len) as u64;
    (points, identical, rows)
}

struct Gate {
    name: &'static str,
    ratio: f64,
    target: f64,
    enforced: bool,
    pass: bool,
}

impl Gate {
    fn status(&self) -> &'static str {
        if !self.enforced {
            "skipped"
        } else if self.pass {
            "pass"
        } else {
            "FAIL"
        }
    }
}

fn main() {
    let samples = env_or("SCALING_SAMPLES", DEFAULT_SAMPLES as u64) as usize;
    let morsel_div = env_or("SCALING_MORSEL_DIV", DEFAULT_MORSEL_DIV);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("scaling bench: {cores} cores, {samples} samples/run");

    // --- Inter-query: warm Zipf replay at each thread count. ------------
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: SCALE_DIV,
        ..Default::default()
    });
    let queries = query_pool();
    let zipf = Zipf::new(queries.len(), ZIPF_EXPONENT);
    let mut rng = SmallRng::seed_from_u64(0x5ca1_ab1e);
    let stream: Vec<usize> = (0..samples).map(|_| zipf.sample(&mut rng)).collect();

    let mut rows: Vec<ReplayRow> = Vec::new();
    for &threads in THREADS {
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
        let row = replay(&service, &stream, &queries, threads);
        eprintln!(
            "{threads} thread(s): {:.0} q/s cpu-only, mean optimize {:.1} µs, hit {:.1}%",
            row.qps,
            row.mean_optimize_ns as f64 / 1e3,
            row.hit_rate * 100.0
        );
        rows.push(row);
    }
    let qps_1t = rows[0].qps;
    let qps_8t = rows.last().unwrap().qps;
    let opt_1t = rows[0].mean_optimize_ns;
    let opt_8t = rows.last().unwrap().mean_optimize_ns;

    // --- Intra-query: morsel speedup curve on the big query. ------------
    eprintln!("generating the big-query database at scale 1/{morsel_div}...");
    let (big_store, big_model) = generate_paper_db(GenConfig {
        scale_div: morsel_div,
        ..Default::default()
    });
    let (big_plan, big_env) = big_query(&big_model);
    let (curve, byte_identical, big_rows) = morsel_curve(&big_store, &big_env, &big_plan);
    let speedup_4w = curve
        .iter()
        .find(|p| p.workers == 4)
        .map_or(0.0, |p| p.speedup);

    // --- Gates. ---------------------------------------------------------
    let gates = vec![
        Gate {
            name: "cliff_8t_vs_1t",
            ratio: qps_8t / qps_1t,
            target: CLIFF_TOLERANCE,
            enforced: true,
            pass: qps_8t >= qps_1t * CLIFF_TOLERANCE,
        },
        Gate {
            name: "throughput_3x_at_8t",
            ratio: qps_8t / qps_1t,
            target: 3.0,
            enforced: cores >= 8,
            pass: qps_8t >= qps_1t * 3.0,
        },
        Gate {
            name: "optimize_within_3x_at_8t",
            ratio: opt_8t as f64 / opt_1t.max(1) as f64,
            target: 3.0,
            enforced: cores >= 8,
            pass: opt_8t <= opt_1t.saturating_mul(3),
        },
        Gate {
            name: "morsel_2x_at_4w",
            ratio: speedup_4w,
            target: 2.0,
            enforced: cores >= 4,
            pass: speedup_4w >= 2.0,
        },
    ];
    let mut failed = false;
    for g in &gates {
        eprintln!(
            "gate {:<26} {:>7.2} vs {:>4.2} -> {}",
            g.name,
            g.ratio,
            g.target,
            g.status()
        );
        failed |= g.enforced && !g.pass;
    }
    assert!(
        byte_identical,
        "morsel-parallel results diverged from serial"
    );

    // --- JSON report. ---------------------------------------------------
    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"bench\": \"scaling\",\n  \"scale_div\": {SCALE_DIV},\n  \
         \"samples_per_run\": {samples},\n  \"zipf_exponent\": {ZIPF_EXPONENT},\n  \
         \"available_parallelism\": {cores},\n  \"replay_cpu_only\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"throughput_qps\": {:.1}, \"mean_optimize_ns\": {}, \
             \"p50_latency_ns\": {}, \"p99_latency_ns\": {}, \"hit_rate\": {:.4}}}{}",
            r.threads,
            r.qps,
            r.mean_optimize_ns,
            r.p50_latency_ns,
            r.p99_latency_ns,
            r.hit_rate,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"morsel\": {{\"scale_div\": {morsel_div}, \"result_rows\": {big_rows}, \
         \"reps_per_point\": {MORSEL_REPS}, \"byte_identical\": {byte_identical}, \
         \"curve\": ["
    );
    for (i, p) in curve.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"workers\": {}, \"min_wall_ns\": {}, \"speedup\": {:.3}}}",
            if i == 0 { "" } else { ", " },
            p.workers,
            p.min_wall_ns,
            p.speedup
        );
    }
    json.push_str("]},\n  \"gates\": {");
    for (i, g) in gates.iter().enumerate() {
        let _ = write!(
            json,
            "{}\"{}\": {{\"ratio\": {:.3}, \"target\": {:.2}, \"enforced\": {}, \
             \"status\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            g.name,
            g.ratio,
            g.target,
            g.enforced,
            g.status()
        );
    }
    json.push_str("}\n}\n");

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scaling.json");
    std::fs::write(out_path, &json).expect("write BENCH_scaling.json");
    eprintln!("wrote {out_path}");
    println!("{json}");
    if failed {
        eprintln!("scaling gate FAILED");
        std::process::exit(1);
    }
}
