//! Integration proof of the feedback loop: persisted actual-vs-estimated
//! cardinalities, the suspect → probe → re-optimize ladder, and its
//! concurrency and edge-case contracts.
//!
//! The skewed fixture generates the `Employees` set with half its members
//! sharing one name while the catalog's distinct-key statistics still
//! claim a uniform ~1% — the estimate is ~5 rows, the data holds ~250, a
//! ~50× drift that must trip the default 10× threshold. The honest
//! fixture (same scale, no skew) must never trip it.

use oodb_bench::queries::canonical_queries;
use oodb_core::{drift_ratio, CostParams, OptimizerConfig, MAX_DRIFT};
use oodb_service::{QueryService, SubmitOptions};
use oodb_storage::{generate_paper_db, GenConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

const Q_FRED: &str = r#"SELECT e FROM Employee e IN Employees WHERE e.name() == "Fred""#;

const HONEST_QUERIES: &[&str] = &[
    r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    "SELECT t FROM Task t IN Tasks WHERE t.time() == 100",
    "SELECT t FROM Task t IN Tasks WHERE t.time() <= 40",
];

fn service_with(hot_fraction: f64) -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        hot_employee_name_fraction: hot_fraction,
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

/// The headline bugfix at the integration level: a plain untraced
/// submission (profiling off, no `EXPLAIN ANALYZE`) must still feed the
/// drift detector and move `oodb_actual_card_violations_total`.
#[test]
fn untraced_production_path_detects_estimate_drift() {
    let svc = service_with(0.5);
    let out = svc.submit(Q_FRED).expect("query failed");
    assert!(out.trace.is_none(), "plain submissions carry no trace");
    assert!(
        out.row_count > 100,
        "the skew fixture must produce a hot key"
    );
    let text = svc.metrics_prometheus();
    assert!(
        text.contains("oodb_actual_card_violations_total 1"),
        "untraced drift must move the violation counter: {text}"
    );
    let fb = svc.feedback_stats();
    assert_eq!(fb.suspect, 1, "the drifting fingerprint is suspect");
    assert!(fb.worst_drift >= 10.0, "drift {:.1}", fb.worst_drift);
}

/// The full ladder converges to a stable corrected cached plan within
/// five executions: detect → evict → probe → re-optimize under the
/// overlay → cache hit, with identical results throughout — and never
/// starts on data whose statistics are honest.
#[test]
fn ladder_converges_to_a_corrected_cached_plan_within_five_executions() {
    let svc = service_with(0.5);
    let reopt = || svc.telemetry().counter("oodb_reopt_total", &[]).get();
    let mut rows = Vec::new();
    let mut sim_io_s = Vec::new();
    let mut converged_at = None;
    for i in 1..=5u32 {
        let out = svc.submit(Q_FRED).expect("query failed");
        rows.push(out.rows.clone());
        sim_io_s.push(out.sim_io_s);
        if converged_at.is_none() && out.cache_hit && reopt() >= 1 {
            converged_at = Some(i);
        }
    }
    // Nothing on the ladder depends on timing, so the step is exact:
    // detect, probe, re-optimize, then the first hit on the corrected plan.
    assert_eq!(converged_at, Some(4), "ladder never converged in 5");
    assert!(
        sim_io_s[3] < sim_io_s[0],
        "the corrected plan must do less simulated I/O: {sim_io_s:?}"
    );
    assert!(
        rows.windows(2).all(|w| w[0] == w[1]),
        "re-optimization must never change results"
    );
    assert_eq!(reopt(), 1, "exactly one re-optimization");
    let fb = svc.feedback_stats();
    assert_eq!(fb.overridden, 1, "one fingerprint carries overrides");
    // The corrected plan stays stable: further executions are hits and
    // never re-trip the ladder into another re-optimization.
    for _ in 0..3 {
        assert!(svc.submit(Q_FRED).expect("query failed").cache_hit);
    }
    assert_eq!(reopt(), 1);

    // The same loop over honest statistics stays quiet: replaying Q1–Q4
    // (every constant exists in the data) marks nothing suspect and never
    // re-optimizes.
    let honest = service_with(0.0);
    for _ in 0..5 {
        for q in &canonical_queries() {
            honest.submit(q).expect("query failed");
        }
    }
    assert_eq!(honest.feedback_stats().suspect, 0, "honest data suspect");
    let honest_reopts = honest.telemetry().counter("oodb_reopt_total", &[]);
    assert_eq!(honest_reopts.get(), 0, "honest data re-optimized");
}

/// Satellite: plan-cache entries produced under a [`StatsOverlay`] must
/// key on the overlay fingerprint. Clearing the feedback store removes
/// the overlay, so the next submission must NOT be served the
/// overlay-corrected plan as a cache hit — a collision here would pin
/// corrected plans past their feedback's lifetime.
#[test]
fn overlay_keyed_cache_entries_never_collide_with_catalog_plans() {
    let svc = service_with(0.5);
    for _ in 0..5 {
        svc.submit(Q_FRED).expect("query failed");
    }
    assert!(
        svc.submit(Q_FRED).expect("query failed").cache_hit,
        "converged plan is cached under the overlay fingerprint"
    );
    svc.feedback().clear();
    let out = svc.submit(Q_FRED).expect("query failed");
    assert!(
        !out.cache_hit,
        "without the overlay, the overlay-keyed entry must not be served"
    );
}

/// Satellite: a statistics refresh retires suspect markers and overrides
/// wholesale — observations of the old data distribution say nothing
/// about the new one.
#[test]
fn stats_refresh_retires_feedback_state() {
    let svc = service_with(0.5);
    for _ in 0..3 {
        svc.submit(Q_FRED).expect("query failed");
    }
    assert!(svc.feedback_stats().tracked >= 1);
    svc.refresh_statistics(8);
    let fb = svc.feedback_stats();
    assert_eq!((fb.tracked, fb.suspect, fb.overridden), (0, 0, 0));
}

proptest! {
    /// Satellite: the drift ratio is total over the full `u64` actual
    /// range and arbitrary `f64` estimates (every bit pattern, including
    /// NaN, infinities, and subnormals) — always finite, always in
    /// `[1, MAX_DRIFT]`, and maximal (not NaN/inf) for the zero-estimate
    /// / observed-rows case that used to divide by zero.
    #[test]
    fn drift_ratio_is_total_and_bounded(est_bits in any::<u64>(), actual in any::<u64>()) {
        let est = f64::from_bits(est_bits);
        let r = drift_ratio(est, actual);
        prop_assert!(r.is_finite(), "drift_ratio({est}, {actual}) = {r}");
        prop_assert!((1.0..=MAX_DRIFT).contains(&r));
        if est <= 0.0 && actual > 0 {
            prop_assert_eq!(r, MAX_DRIFT, "zero estimate vs rows is maximal drift");
        }
        if !est.is_finite() {
            prop_assert_eq!(r, MAX_DRIFT);
        }
    }
}

/// Satellite: feedback recording racing epoch bumps and cache clears.
/// Submitters hammer the skewed query (tripping the ladder over and
/// over) and honest queries; a mutator interleaves statistics refreshes
/// (each at a bucket count of its own, so each changes a histogram and
/// bumps the epoch) and cache clears. Afterward: no stale suspect markers
/// survive the final, changing refresh; a repeat of it, over unchanged
/// data, keeps what the ladder learned since; and cache accounting
/// reconciles exactly.
#[test]
fn feedback_survives_racing_epoch_bumps_and_cache_clears() {
    const SUBMITTERS: usize = 4;
    const SUBMISSIONS_EACH: usize = 30;
    const MUTATIONS: usize = 10;

    let svc = service_with(0.5);
    let cache_before = svc.cache().stats();
    let done = AtomicBool::new(false);
    let outputs: Mutex<Vec<bool>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let svc_ref = &svc;
        let done_ref = &done;
        let outputs_ref = &outputs;
        let mutator = s.spawn(move || {
            for i in 0..MUTATIONS {
                if i % 2 == 0 {
                    assert!(svc_ref.refresh_statistics(8 + i), "a new bucket count");
                } else {
                    svc_ref.cache().clear();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            done_ref.store(true, Ordering::Release);
        });
        for w in 0..SUBMITTERS {
            s.spawn(move || {
                let mut local = Vec::with_capacity(SUBMISSIONS_EACH);
                let mut i = 0;
                while i < SUBMISSIONS_EACH || !done_ref.load(Ordering::Acquire) {
                    let q = if (w + i) % 2 == 0 {
                        Q_FRED
                    } else {
                        HONEST_QUERIES[(w + i) % HONEST_QUERIES.len()]
                    };
                    let out = svc_ref
                        .submit_with(q, SubmitOptions::default())
                        .expect("submission failed");
                    local.push(out.cache_hit);
                    i += 1;
                }
                outputs_ref.lock().unwrap().extend(local);
            });
        }
        mutator.join().unwrap();
    });

    // One cache probe per submission; claimed hits reconcile with the
    // cache's own counters even across clears and feedback evictions.
    let outputs = outputs.lock().unwrap();
    let cache_after = svc.cache().stats();
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    assert_eq!(
        (hits + misses) as usize,
        outputs.len(),
        "every submission probes the cache exactly once"
    );
    assert_eq!(
        hits as usize,
        outputs.iter().filter(|&&h| h).count(),
        "hit counter must reconcile"
    );

    // A final refresh at a bucket count the race never used changes a
    // histogram and retires everything the race left behind: no stale
    // suspect markers or overrides may survive an epoch bump.
    const FINAL_BUCKETS: usize = 8 + MUTATIONS;
    assert!(svc.refresh_statistics(FINAL_BUCKETS), "the epoch must move");
    let fb = svc.feedback_stats();
    assert_eq!(
        (fb.tracked, fb.suspect, fb.overridden),
        (0, 0, 0),
        "stale feedback survived the epoch bump: {fb:?}"
    );
    // And the loop still works after the storm: the skewed query trips
    // the ladder again under the new epoch.
    for _ in 0..5 {
        svc.submit(Q_FRED).expect("query failed");
    }
    let learned = svc.feedback_stats();
    assert!(learned.tracked >= 1 && learned.suspect >= 1, "{learned:?}");
    // The same refresh again finds every histogram equal: the epoch stays,
    // so the ledger keeps what it learned under it.
    assert!(!svc.refresh_statistics(FINAL_BUCKETS), "nothing changed");
    let kept = svc.feedback_stats();
    assert_eq!(
        (kept.tracked, kept.suspect, kept.overridden),
        (learned.tracked, learned.suspect, learned.overridden),
        "an unchanged refresh retired feedback"
    );
}
