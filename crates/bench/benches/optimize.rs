//! Optimization-time microbenchmarks — the paper's performance goal:
//! "moderately complex queries should be optimized on today's
//! workstations in less than 1 sec" (0.05–0.21 s on the 25 MHz
//! DECstation; microseconds here).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oodb_bench::queries;
use oodb_core::{OpenOodb, OptimizerConfig};
use oodb_object::paper::paper_model;
use std::hint::black_box;

fn bench_optimize(c: &mut Criterion) {
    let m = paper_model();
    let mut group = c.benchmark_group("optimize");
    group.sample_size(40);
    group.measurement_time(std::time::Duration::from_secs(2));

    type MakeQuery = fn(&oodb_object::paper::PaperModel) -> queries::PaperQuery;
    let cases: [(&str, MakeQuery); 5] = [
        ("query1", queries::query1),
        ("query2", queries::query2),
        ("query3", queries::query3),
        ("query4", queries::query4),
        ("fig2", queries::fig2_query),
    ];
    for (name, make) in cases {
        let q = make(&m);
        // One search's counters and explore/solve split beside the timing.
        let once = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules())
            .optimize(&q.plan, q.result_vars)
            .expect("feasible plan");
        println!("optimize/all-rules/{name}: {}", once.stats);
        group.bench_with_input(BenchmarkId::new("all-rules", name), &q, |b, q| {
            b.iter(|| {
                let opt = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
                black_box(opt.optimize(&q.plan, q.result_vars))
            })
        });
    }

    // Table 2's configurations on Query 1.
    let q1 = queries::query1(&m);
    for (label, config) in [
        (
            "wo-commutativity",
            OptimizerConfig::without_join_commutativity(),
        ),
        ("wo-window", OptimizerConfig::without_window()),
        (
            "pruned",
            OptimizerConfig {
                prune: true,
                ..OptimizerConfig::all_rules()
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(label, "query1"), &q1, |b, q| {
            b.iter(|| {
                let opt = OpenOodb::with_config(&q.env, config.clone());
                black_box(opt.optimize(&q.plan, q.result_vars))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_optimize);
criterion_main!(benches);
