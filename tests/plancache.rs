//! End-to-end plan-cache correctness: the invalidation guarantees the
//! query service must uphold — a cached plan is served only when the
//! query, rule configuration, statistics epoch, and index set all match,
//! and concurrent submission is observationally identical to serial.

mod common;

use common::submit_concurrently;
use oodb_core::config::rule_names;
use oodb_core::{CostParams, OptimizerConfig};
use oodb_service::{QueryOutput, QueryService};
use oodb_storage::{generate_paper_db, GenConfig};

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

const Q_MAYOR: &str = r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#;
const Q_TIME: &str = "SELECT t FROM Task t IN Tasks WHERE t.time() == 100";

#[test]
fn identical_query_reparse_hits() {
    let svc = service();
    let a = svc.submit(Q_MAYOR).unwrap();
    let b = svc.submit(Q_MAYOR).unwrap();
    assert!(!a.cache_hit);
    assert!(b.cache_hit, "re-parsing the same text must hit the cache");
    assert_eq!(a.rows, b.rows);
    // And a *textual variant* of the same query shares the entry.
    let c = svc
        .submit(r#"SELECT town FROM City town IN Cities WHERE "Joe" == town.mayor().name()"#)
        .unwrap();
    assert!(
        c.cache_hit,
        "canonical fingerprint must erase naming/operand order"
    );
    assert_eq!(a.rows, c.rows);
}

#[test]
fn stats_epoch_bump_forces_reoptimization() {
    let svc = service();
    let before = svc.store().catalog().stats_epoch();
    let a = svc.submit(Q_TIME).unwrap();
    assert!(!a.cache_hit);
    assert!(svc.submit(Q_TIME).unwrap().cache_hit);

    svc.refresh_statistics(16);
    assert!(
        svc.store().catalog().stats_epoch() > before,
        "collect_statistics must bump the epoch"
    );
    let c = svc.submit(Q_TIME).unwrap();
    assert!(
        !c.cache_hit,
        "a statistics refresh must force re-optimization"
    );
    assert_eq!(a.rows, c.rows, "same data, same answer");
    // The re-optimized plan is itself cached again.
    assert!(svc.submit(Q_TIME).unwrap().cache_hit);
}

/// Submits every query once and reports which were cache hits.
fn hits(svc: &QueryService, queries: &[&str]) -> Vec<bool> {
    queries
        .iter()
        .map(|q| svc.submit(q).expect("query runs").cache_hit)
        .collect()
}

/// A refresh over unchanged data collects the histograms the catalog
/// already holds: the epoch stays, cached plans are served, and the
/// feedback ledger keeps what it recorded.
#[test]
fn unchanged_refresh_keeps_every_cached_plan() {
    let svc = service();
    let queries = [Q_MAYOR, Q_TIME];
    assert!(
        svc.refresh_statistics(16),
        "the first collection adds histograms"
    );
    let epoch = svc.store().catalog().stats_epoch();
    assert_eq!(hits(&svc, &queries), [false, false]);
    let tracked = svc.feedback_stats().tracked;
    assert!(tracked >= 1, "submissions feed the ledger");

    assert!(!svc.refresh_statistics(16), "same data, same histograms");
    assert_eq!(svc.store().catalog().stats_epoch(), epoch);
    assert_eq!(hits(&svc, &queries), [true, true]);
    assert_eq!(svc.feedback_stats().tracked, tracked, "ledger retired");
}

/// A refresh that changes a histogram (here: a new bucket count) moves the
/// epoch by exactly one, makes every cached plan miss, and retires the
/// feedback ledger. Red if the epoch rule over-reaches.
#[test]
fn changing_refresh_misses_every_cached_plan() {
    let svc = service();
    let queries = [Q_MAYOR, Q_TIME];
    svc.refresh_statistics(16);
    let epoch = svc.store().catalog().stats_epoch();
    assert_eq!(hits(&svc, &queries), [false, false]);
    assert_eq!(hits(&svc, &queries), [true, true]);
    assert!(svc.feedback_stats().tracked >= 1);

    assert!(svc.refresh_statistics(24), "a new bucket count");
    assert_eq!(svc.store().catalog().stats_epoch(), epoch + 1);
    assert_eq!(
        svc.feedback_stats().tracked,
        0,
        "feedback outlived its epoch"
    );
    assert_eq!(hits(&svc, &queries), [false, false]);
}

#[test]
fn rule_config_toggle_never_serves_foreign_plan() {
    let svc = service();
    let all = svc.submit(Q_MAYOR).unwrap();
    assert!(!all.cache_hit);
    assert!(
        !all.indexes_used.is_empty(),
        "all-rules plan uses the path index"
    );

    // Disable the collapse-to-index-scan rule: the cached all-rules plan
    // (which scans the index) must not be served.
    svc.set_config(OptimizerConfig::all_rules().and_without(rule_names::COLLAPSE_TO_INDEX_SCAN));
    let restricted = svc.submit(Q_MAYOR).unwrap();
    assert!(
        !restricted.cache_hit,
        "a rule toggle must never serve a plan cached under other rules"
    );
    assert_eq!(all.rows, restricted.rows, "plans differ, answers must not");

    // Switching back serves the original entry — it never left the cache.
    svc.set_config(OptimizerConfig::all_rules());
    assert!(svc.submit(Q_MAYOR).unwrap().cache_hit);
}

#[test]
fn dropped_index_is_never_served() {
    let svc = service();
    let with_index = svc.submit(Q_MAYOR).unwrap();
    assert!(with_index
        .indexes_used
        .contains(&"Cities_mayor_name".to_string()));

    // Physical-design change: drop every index.
    svc.restrict_indexes(&[]);
    let without = svc.submit(Q_MAYOR).unwrap();
    assert!(!without.cache_hit, "index drop must invalidate");
    assert!(
        without.indexes_used.is_empty(),
        "no plan may touch a dropped index: {:?}",
        without.indexes_used
    );
    assert_eq!(with_index.rows, without.rows);
    // One re-plan per index change is the whole cost: the plan found
    // for the new index set is cached like any other.
    let again = svc.submit(Q_MAYOR).unwrap();
    assert!(again.cache_hit, "the post-drop plan must be cached");
    assert!(again.indexes_used.is_empty(), "{:?}", again.indexes_used);
    assert_eq!(again.rows, without.rows);

    // Dropping a *subset* also invalidates: a service restricted to the
    // unrelated Tasks index must not plan over the dropped mayor index.
    let svc2 = service();
    svc2.restrict_indexes(&["Tasks_time"]);
    let partial = svc2.submit(Q_MAYOR).unwrap();
    assert!(!partial
        .indexes_used
        .contains(&"Cities_mayor_name".to_string()));
    assert_eq!(with_index.rows, partial.rows);
}

/// A repeated text whose plan is cached skips the front end — a soft
/// parse — and answers exactly as the first submission did.
#[test]
fn repeated_text_is_a_soft_parse() {
    let svc = service();
    let first = svc.submit(Q_MAYOR).unwrap();
    assert!(first.stages.parse_ns > 0 && first.stages.simplify_ns > 0);
    assert_eq!(svc.soft_parses(), 0);
    let again = svc.submit(Q_MAYOR).unwrap();
    assert!(again.cache_hit);
    assert_eq!((again.stages.parse_ns, again.stages.simplify_ns), (0, 0));
    assert_eq!(again.rows, first.rows);
    assert_eq!(again.est_cost_s, first.est_cost_s);
    assert_eq!(svc.soft_parses(), 1);
    assert!(svc
        .metrics_prometheus()
        .contains("oodb_soft_parses_total 1"));
}

/// The memo keys on the exact text: a whitespace variant compiles, and
/// its fingerprint finds the plan the original cached.
#[test]
fn whitespace_variant_compiles_and_shares_the_plan() {
    let svc = service();
    let first = svc.submit(Q_MAYOR).unwrap();
    let spaced = svc.submit(&format!("  {Q_MAYOR} ")).unwrap();
    assert!(spaced.stages.parse_ns > 0, "a new text parses");
    assert!(spaced.cache_hit, "one fingerprint, one plan");
    assert_eq!(spaced.rows, first.rows);
    assert_eq!(svc.soft_parses(), 0);
}

/// A memoized text stamped under another catalog recompiles: after a
/// histogram-changing refresh and after an index drop, the repeat parses
/// again, and a dropped index is never planned over.
#[test]
fn catalog_change_forces_a_recompile() {
    let svc = service();
    svc.refresh_statistics(16);
    let first = svc.submit(Q_MAYOR).unwrap();
    assert!(first
        .indexes_used
        .contains(&"Cities_mayor_name".to_string()));
    assert!(svc.submit(Q_MAYOR).unwrap().stages.parse_ns == 0);

    assert!(svc.refresh_statistics(24), "a new bucket count");
    let refreshed = svc.submit(Q_MAYOR).unwrap();
    assert!(!refreshed.cache_hit && refreshed.stages.parse_ns > 0);
    assert_eq!(refreshed.rows, first.rows);

    svc.restrict_indexes(&[]);
    let dropped = svc.submit(Q_MAYOR).unwrap();
    assert!(!dropped.cache_hit && dropped.stages.parse_ns > 0);
    let again = svc.submit(Q_MAYOR).unwrap();
    assert!(again.cache_hit && again.stages.parse_ns == 0);
    for out in [&dropped, &again] {
        assert!(out.indexes_used.is_empty(), "{:?}", out.indexes_used);
        assert_eq!(out.rows, first.rows);
    }
}

/// The memo holds no more texts than the plan cache holds plans.
#[test]
fn memo_is_bounded_by_the_cache_capacity() {
    let svc = service();
    let capacity = 128;
    for pad in 0..2 * capacity {
        let text = format!("{Q_TIME}{}", " ".repeat(pad));
        assert!(svc.submit(&text).is_ok());
    }
    let held = svc.memoized_texts();
    assert!(held > 0 && held <= capacity, "{held} texts memoized");
}

/// A text that fails to compile is never memoized: every submission of it
/// fails, and is counted, again.
#[test]
fn failing_text_is_an_error_every_time() {
    let svc = service();
    for _ in 0..3 {
        assert!(svc.submit("SELECT FROM WHERE").is_err());
    }
    assert_eq!(svc.memoized_texts(), 0);
    assert_eq!(svc.soft_parses(), 0);
    assert!(svc
        .metrics_prometheus()
        .contains("oodb_submission_errors_total 3"));
}

#[test]
fn concurrent_submit_is_byte_identical_to_serial() {
    // One Zipf-ish workload, three queries, interleaved; serial reference
    // first, then the same stream from 8 threads on a fresh service.
    let queries = [
        Q_MAYOR,
        Q_TIME,
        r#"SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred""#,
    ];
    let stream: Vec<&str> = (0..48).map(|i| queries[i % 3]).collect();

    let serial_svc = service();
    let serial: Vec<QueryOutput> = stream
        .iter()
        .map(|q| serial_svc.submit(q).unwrap())
        .collect();

    let par_svc = service();
    let parallel: Vec<QueryOutput> = submit_concurrently(&par_svc, 8, stream.len(), |i| {
        (stream[i], Default::default())
    })
    .into_iter()
    .map(Result::unwrap)
    .collect();

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.rows, p.rows, "concurrent results must be byte-identical");
        assert_eq!(s.row_count, p.row_count);
    }
    // The cache actually worked under concurrency: only 3 distinct plans.
    let stats = par_svc.cache().stats();
    assert!(stats.hits >= stream.len() as u64 - 2 * queries.len() as u64);
}

/// The paper's Figure 1 query.
const Q_FIGURE_1: &str = r#"SELECT Newobject(e.name(), d.name())
FROM Employee e IN Employees, Department d IN Department
WHERE d.floor() == 3 && e.age() >= 32 && e.last_raise() >= Date(1992,1,1)
  && e.dept() == d"#;

/// A plan re-optimized under feedback overrides is one the cache admits.
/// Query 1's overlay, recorded from its winner's traced run, carries the
/// selectivity of the department-to-plant reference join as observed over
/// the hash join's filtered inputs. The corrected search prices that join
/// as a pointer join over unfiltered employees, where the selectivity
/// alone would estimate more rows than the input holds: the verifier's
/// `card/bound` check would refuse the plan and every submission would
/// re-optimize.
#[test]
fn overlay_corrected_plan_passes_the_cache_verifier() {
    use oodb_core::{verify::walk_actual, CacheKey, CachedBody, CachedPlan, FeedbackStore};
    use oodb_core::{Observation, OpenOodb, PlanCache};
    use std::sync::Arc;

    let (store, model) = generate_paper_db(GenConfig {
        scale_div: 10,
        ..Default::default()
    });
    let q = zql::compile(Q_FIGURE_1, &model.schema, &model.catalog).unwrap();
    let config = OptimizerConfig::all_rules();
    let winner = OpenOodb::new(&q.env, CostParams::default(), config.clone())
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    let (_, _, trace) = oodb_exec::execute_traced(&store, &q.env, &winner.plan);

    // Query 1's root drift stays under the threshold, so an observation
    // past it marks the fingerprint suspect and makes the trace a probe.
    let (fp, epoch) = (1, model.catalog.stats_epoch());
    let feedback = FeedbackStore::default();
    let observation = feedback.observe_root(fp, epoch, 1.0, 1_000_000, false);
    assert_eq!(observation, Observation::NewlySuspect);
    let nodes = walk_actual(&q.env, &winner.plan, &trace);
    assert!(feedback.observe_trace(fp, epoch, &q.env, &nodes) > 0);
    let overlay = feedback.overlay_for(fp, epoch).unwrap();

    let corrected = OpenOodb::new(&q.env, CostParams::default(), config)
        .with_overlay(Arc::clone(&overlay))
        .optimize(&q.plan, q.result_vars)
        .unwrap();
    assert!(
        corrected.diagnostics.is_empty(),
        "{:?}",
        corrected.diagnostics
    );
    let key = CacheKey {
        fingerprint: fp,
        config: 0,
        stats_epoch: epoch,
        index_set: model.catalog.index_set_hash(),
        overlay: overlay.fingerprint(),
    };
    let entry = CachedPlan {
        structural: Q_FIGURE_1.to_string(),
        env: q.env.clone(),
        result_vars: q.result_vars,
        body: CachedBody::Static {
            plan: corrected.plan,
            cost: corrected.cost,
        },
    };
    let cache = PlanCache::new(8, 1);
    assert!(cache.insert(key, Arc::new(entry)), "{:?}", cache.stats());
}
