//! Executor microbenchmarks over a 1/50-scale Table 1 database: the
//! competing Query 2 plans (index vs naive) and the full Query 1 pipeline
//! — and Query 1 at scale 1/10 through the service with a warm plan cache,
//! where the result path (rows rendered at the root) is most of the work.

use criterion::{criterion_group, criterion_main, Criterion};
use oodb_bench::{queries, workload};
use oodb_core::config::rule_names as rn;
use oodb_core::{CostParams, OpenOodb, OptimizerConfig};
use oodb_exec::execute;
use oodb_object::paper::paper_model_scaled;
use oodb_service::QueryService;
use oodb_storage::{generate_paper_db, GenConfig};
use std::hint::black_box;

fn bench_executor(c: &mut Criterion) {
    let (store, _) = generate_paper_db(GenConfig {
        scale_div: 50,
        ..Default::default()
    });
    let model = paper_model_scaled(50);

    let mut group = c.benchmark_group("executor");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(2));

    let plan_for = |config: OptimizerConfig, make: fn(&_) -> queries::PaperQuery| {
        let q = make(&model);
        let out = OpenOodb::with_config(&q.env, config)
            .optimize(&q.plan, q.result_vars)
            .expect("plan");
        (q, out.plan)
    };

    let (q2, idx_plan) = plan_for(OptimizerConfig::all_rules(), queries::query2);
    group.bench_function("query2-index-scan", |b| {
        b.iter(|| black_box(execute(&store, &q2.env, &idx_plan)))
    });

    let (q2n, naive_plan) = plan_for(
        OptimizerConfig::without(&[rn::COLLAPSE_TO_INDEX_SCAN, rn::MAT_TO_JOIN]),
        queries::query2,
    );
    group.bench_function("query2-naive-assembly", |b| {
        b.iter(|| black_box(execute(&store, &q2n.env, &naive_plan)))
    });

    let (q1, q1_plan) = plan_for(OptimizerConfig::all_rules(), queries::query1);
    group.bench_function("query1-optimal", |b| {
        b.iter(|| black_box(execute(&store, &q1.env, &q1_plan)))
    });

    let (q4, q4_plan) = plan_for(OptimizerConfig::all_rules(), queries::query4);
    group.bench_function("query4-optimal", |b| {
        b.iter(|| black_box(execute(&store, &q4.env, &q4_plan)))
    });

    let (tenth, _) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    let (params, config) = (CostParams::default(), OptimizerConfig::all_rules());
    let svc = QueryService::new(tenth, params, config, 64, 4);
    let [q1_text, ..] = workload::canonical_queries();
    assert!(!svc.submit(&q1_text).expect("primes the cache").cache_hit);
    group.bench_function("query1-service-rows", |b| {
        b.iter(|| black_box(svc.submit(&q1_text).expect("runs")))
    });
    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
