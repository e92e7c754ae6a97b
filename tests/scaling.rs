//! Concurrency proof for the epoch-snapshot service state.
//!
//! N submitter threads optimize + execute a mix of queries while a
//! mutator thread repeatedly swaps statistics *and* configuration in a
//! single combined snapshot ([`QueryService::refresh_statistics_with_config`]).
//! The invariants:
//!
//! * **No torn reads.** Every [`QueryOutput`] reports the
//!   `(stats_epoch, config_fingerprint)` pair its submission planned
//!   under; that pair must be one the mutator actually *published* —
//!   never a cross of one swap's epoch with another swap's config.
//! * **Cache accounting reconciles.** Each submission performs exactly
//!   one plan-cache probe, so hits + misses across the race must equal
//!   the number of submissions, and the hit counter must equal the
//!   number of outputs that claim `cache_hit`.
//! * **Superseded stores are freed.** Every swap publishes a new store;
//!   once the submitters join, only the current one is alive — no
//!   thread that read an older snapshot keeps it.
//!
//! This file also runs under the thread-sanitizer CI job, where the
//! snapshot cell's unsynchronized fast path would light up if the
//! version/Arc pairing were ever inconsistent.

use oodb_core::config::rule_names;
use oodb_core::{CostParams, OptimizerConfig};
use oodb_service::QueryService;
use oodb_storage::{generate_paper_db, GenConfig, Store};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

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

const QUERIES: &[&str] = &[
    r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    "SELECT t FROM Task t IN Tasks WHERE t.time() == 100",
    r#"SELECT Newobject(c.mayor().age(), c.name()) FROM City c IN Cities
       WHERE c.mayor().name() == "Joe""#,
    "SELECT t FROM Task t IN Tasks WHERE t.time() <= 40",
];

/// The two configurations the mutator alternates between. Their
/// fingerprints differ, so a torn read (new epoch, old config) would
/// produce a pair the mutator never published.
fn configs() -> [OptimizerConfig; 2] {
    [
        OptimizerConfig::all_rules(),
        OptimizerConfig::all_rules().and_without(rule_names::COLLAPSE_TO_INDEX_SCAN),
    ]
}

#[test]
fn concurrent_submissions_never_observe_torn_snapshots() {
    const SUBMITTERS: usize = 4;
    const SUBMISSIONS_EACH: usize = 40;
    const SWAPS: usize = 12;

    let svc = service();
    let cache_before = svc.cache().stats();

    // Every snapshot identity that ever existed: the initial one plus
    // one per combined swap. Only the mutator thread mutates, so the
    // identity it reads right after each swap is exactly what it
    // published.
    let published: Mutex<HashSet<(u64, u64)>> = Mutex::new(HashSet::new());
    published.lock().unwrap().insert(svc.snapshot_identity());
    let stores: Mutex<Vec<Weak<Store>>> = Mutex::new(vec![Arc::downgrade(&svc.store())]);

    let done = AtomicBool::new(false);
    let outputs: Mutex<Vec<(u64, u64, bool)>> = Mutex::new(Vec::new());

    std::thread::scope(|s| {
        let svc_ref = &svc;
        let published_ref = &published;
        let outputs_ref = &outputs;
        let done_ref = &done;
        let stores_ref = &stores;
        let mutator = s.spawn(move || {
            let cfgs = configs();
            for i in 0..SWAPS {
                // A bucket count of its own per swap: every swap changes a
                // histogram, so every swap moves the epoch (a refresh that
                // collects what the catalog holds would not).
                svc_ref.refresh_statistics_with_config(8 + i, cfgs[i % cfgs.len()].clone());
                published_ref
                    .lock()
                    .unwrap()
                    .insert(svc_ref.snapshot_identity());
                stores_ref
                    .lock()
                    .unwrap()
                    .push(Arc::downgrade(&svc_ref.store()));
                std::thread::sleep(Duration::from_millis(2));
            }
            done_ref.store(true, Ordering::Release);
        });
        for w in 0..SUBMITTERS {
            s.spawn(move || {
                let mut local = Vec::with_capacity(SUBMISSIONS_EACH);
                let mut i = 0;
                // Keep submitting at least SUBMISSIONS_EACH times and
                // until the mutator finishes, so swaps always race live
                // submissions.
                while i < SUBMISSIONS_EACH || !done_ref.load(Ordering::Acquire) {
                    let q = QUERIES[(w + i) % QUERIES.len()];
                    let out = svc_ref.submit(q).expect("submission failed");
                    local.push((out.stats_epoch, out.config_fp, out.cache_hit));
                    i += 1;
                }
                outputs_ref.lock().unwrap().extend(local);
            });
        }
        mutator.join().unwrap();
    });

    let published = published.lock().unwrap();
    assert_eq!(
        published.len(),
        SWAPS + 1,
        "every swap must install a distinct (epoch, config) identity"
    );
    let outputs = outputs.lock().unwrap();
    assert!(outputs.len() >= SUBMITTERS * SUBMISSIONS_EACH);
    for &(epoch, fp, _) in outputs.iter() {
        assert!(
            published.contains(&(epoch, fp)),
            "torn snapshot: observed ({epoch}, {fp:#x}), published {published:?}"
        );
    }

    // Cache accounting: one probe per submission, hits consistent with
    // what the outputs themselves claim.
    let cache_after = svc.cache().stats();
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    assert_eq!(
        (hits + misses) as usize,
        outputs.len(),
        "every submission probes the cache exactly once"
    );
    let claimed_hits = outputs.iter().filter(|(_, _, hit)| *hit).count();
    assert_eq!(hits as usize, claimed_hits, "hit counter must reconcile");

    // Retention: the submitters have joined, so of the SWAPS + 1 stores
    // only the one the service publishes now may be alive.
    let stores = stores.lock().unwrap();
    let (current, superseded) = stores.split_last().unwrap();
    assert!(current.upgrade().is_some());
    let alive = superseded.iter().filter(|w| w.upgrade().is_some()).count();
    assert_eq!(alive, 0, "{alive} superseded stores still alive");
}
