//! End-to-end telemetry invariants: operator traces must reconcile with
//! the executor's statistics, histograms must account for every
//! observation, and the service's counters must balance under concurrency.

use oodb_core::{CostParams, OptimizerConfig};
use oodb_service::{QueryService, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig};
use oodb_telemetry::BUCKET_BOUNDS_NS;

fn service() -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        128,
        8,
    )
}

/// The paper's four query shapes (Q1–Q4).
const QUERIES: &[&str] = &[
    // Q1: the Dallas report — path-expression join chain.
    "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
     FROM Employee e IN Employees \
     WHERE e.dept().plant().location() == \"Dallas\"",
    // Q2: mayor-name selection (collapses to one path-index scan).
    r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    // Q3: projection needing the mayor in memory (assembly enforcer).
    r#"SELECT Newobject(c.mayor().age(), c.name()) FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    // Q4: set-valued path with EXISTS (unnest + mat).
    "SELECT t FROM Task t IN Tasks WHERE t.time() == 100 \
     && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")",
];

#[test]
fn root_trace_rows_equal_result_cardinality() {
    let svc = service();
    let opts = SubmitOptions {
        trace: true,
        ..Default::default()
    };
    for q in QUERIES {
        let out = svc.submit_with(q, opts).unwrap();
        let trace = out.trace.as_ref().expect("trace requested");
        assert_eq!(
            trace.actual_rows, out.row_count as u64,
            "root operator rows must equal result cardinality for {q}"
        );
        // The root is cumulative, so its I/O must match the whole run's.
        assert_eq!(
            (trace.buffer_hits, trace.buffer_misses),
            (out.buffer_hits, out.buffer_misses),
            "trace root buffer I/O must reconcile with ExecStats for {q}"
        );
        // Children never account for more than their parent.
        for node in trace.flatten() {
            let child_ns: u64 = node.children.iter().map(|c| c.elapsed_ns).sum();
            assert!(node.elapsed_ns >= child_ns, "cumulative time in {q}");
        }
    }
}

#[test]
fn histogram_counts_sum_to_observation_count() {
    let svc = service();
    let n = 17;
    for i in 0..n {
        let q = format!("SELECT t FROM Task t IN Tasks WHERE t.time() == {}", i * 10);
        svc.submit(&q).unwrap();
    }
    for stage in [
        "parse",
        "simplify",
        "fingerprint",
        "cache_probe",
        "optimize",
        "execute",
    ] {
        let snap = svc
            .telemetry()
            .histogram("oodb_stage_latency_ns", &[("stage", stage)])
            .snapshot();
        assert_eq!(snap.count, n, "one observation per submission ({stage})");
        assert_eq!(
            snap.counts.iter().sum::<u64>(),
            snap.count,
            "bucket counts must sum to the observation count ({stage})"
        );
        assert_eq!(snap.counts.len(), BUCKET_BOUNDS_NS.len() + 1);
    }
}

#[test]
fn cache_counters_balance_across_concurrent_replay() {
    let svc = service();
    // Warm each shape once, sequentially: the service has no singleflight,
    // so two threads missing the same cold shape concurrently would both
    // (correctly) count a miss and make the per-shape assertion flaky.
    for q in QUERIES {
        svc.submit(q).unwrap();
    }
    let replays = 56;
    let submissions = replays + QUERIES.len();
    std::thread::scope(|s| {
        for t in 0..4 {
            let svc = &svc;
            s.spawn(move || {
                for i in (t..replays).step_by(4) {
                    svc.submit(QUERIES[i % QUERIES.len()]).unwrap();
                }
            });
        }
    });

    let stats = svc.cache().stats();
    assert_eq!(
        stats.hits + stats.misses,
        submissions as u64,
        "every submission probes the cache exactly once"
    );
    assert_eq!(stats.misses, QUERIES.len() as u64, "one miss per shape");

    let text = svc.metrics_prometheus();
    assert!(
        text.contains(&format!("oodb_submissions_total {submissions}")),
        "{text}"
    );
    assert!(
        text.contains(&format!("oodb_plancache_hits_total {}", stats.hits)),
        "{text}"
    );
    // Nothing is left in flight.
    assert!(text.contains("oodb_inflight 0"), "{text}");
}

/// The interval-audit counters export, and stay at zero on the seed
/// corpus: the catalog describes the generated store correctly, so
/// neither the estimate-side nor the actual-rows-side check may fire.
#[test]
fn interval_audit_counters_are_zero_on_seed_corpus() {
    let svc = service();
    let opts = SubmitOptions {
        trace: true,
        ..Default::default()
    };
    for q in QUERIES {
        svc.submit_with(q, opts).unwrap();
    }
    let text = svc.metrics_prometheus();
    assert!(
        text.contains("oodb_interval_violations_total 0"),
        "estimate escaped its sound interval:\n{text}"
    );
    assert!(
        text.contains("oodb_actual_card_violations_total 0"),
        "actual rows escaped the catalog-derived interval:\n{text}"
    );
    assert!(text.contains("oodb_verify_violations_total 0"), "{text}");
}

#[test]
fn traced_and_untraced_runs_agree() {
    let svc = service();
    let traced = svc
        .submit_with(
            QUERIES[0],
            SubmitOptions {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
    let plain = svc.submit(QUERIES[0]).unwrap();
    assert_eq!(traced.rows, plain.rows, "tracing must not change answers");
    assert_eq!(
        (traced.buffer_hits + traced.buffer_misses > 0),
        (plain.buffer_hits + plain.buffer_misses > 0)
    );
}
