//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! exhaustive search vs branch-and-bound pruning (search effort), the
//! exploration fixpoint itself, and the Lesson 7 warm-start assembly
//! extension.

use criterion::{criterion_group, criterion_main, Criterion};
use oodb_bench::queries;
use oodb_core::config::rule_names;
use oodb_core::{OpenOodb, OptimizerConfig};
use oodb_object::paper::paper_model;
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let m = paper_model();
    let mut group = c.benchmark_group("ablations");
    group.sample_size(40);
    group.measurement_time(std::time::Duration::from_secs(2));

    // Exhaustive vs pruned search on the join-heaviest query.
    let q1 = queries::query1(&m);
    group.bench_function("q1-exhaustive", |b| {
        b.iter(|| {
            let opt = OpenOodb::with_config(&q1.env, OptimizerConfig::all_rules());
            black_box(opt.optimize(&q1.plan, q1.result_vars))
        })
    });
    group.bench_function("q1-branch-and-bound", |b| {
        b.iter(|| {
            let opt = OpenOodb::with_config(
                &q1.env,
                OptimizerConfig {
                    prune: true,
                    ..OptimizerConfig::all_rules()
                },
            );
            black_box(opt.optimize(&q1.plan, q1.result_vars))
        })
    });

    // Transformation fixpoint alone (no costing) on the Mat-chain query.
    let fig2 = queries::fig2_query(&m);
    group.bench_function("fig2-explore-only", |b| {
        b.iter(|| {
            let opt = OpenOodb::with_config(&fig2.env, OptimizerConfig::all_rules());
            black_box(opt.explore_alternatives(&fig2.plan))
        })
    });

    // Warm-start assembly enabled: a larger implementation-rule space.
    let mut warm = OptimizerConfig::all_rules();
    warm.disabled_rules.remove(rule_names::WARM_ASSEMBLY);
    group.bench_function("fig2-with-warm-assembly", |b| {
        b.iter(|| {
            let opt = OpenOodb::with_config(&fig2.env, warm.clone());
            black_box(opt.optimize(&fig2.plan, fig2.result_vars))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
