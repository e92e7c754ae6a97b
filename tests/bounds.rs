//! Every process-lifetime registry filled from wire input stays at or
//! under its cap when the public surface drives it past that cap: the
//! plan cache, the text memo and the feedback ledger by distinct texts,
//! the prepared registry by distinct statements, and tenants by distinct
//! names over HTTP. A registry that grows without bound fails here.

use open_oodb::core::feedback::MAX_TRACKED;
use open_oodb::prelude::*;
use open_oodb::server::tenant::MAX_TENANTS;
use open_oodb::server::{Client, ClientError, RequestOptions, Server, ServerConfig};
use open_oodb::service::{ServiceError, ShedReason, MAX_PREPARED};

/// A small cache, so ten times its capacity stays cheap.
const CAPACITY: usize = 16;

fn service() -> QueryService {
    let (store, _model) = generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    });
    let rules = OptimizerConfig::all_rules();
    QueryService::new(store, CostParams::default(), rules, CAPACITY, 4)
}

/// Distinct queries: the constant is part of the canonical fingerprint.
fn text(i: usize) -> String {
    format!("SELECT t FROM Task t IN Tasks WHERE t.time() == {i}")
}

/// Submits `n` distinct texts, then checks the three registries they fill.
fn texts_stay_bounded(svc: &QueryService, n: usize) {
    for i in 0..n {
        svc.submit(&text(i)).expect("a distinct text runs");
    }
    let cache = svc.cache().stats();
    assert!(cache.entries <= CAPACITY, "{} cached plans", cache.entries);
    assert!(cache.evictions > 0, "the cache was driven past its cap");
    let memo = svc.memoized_texts();
    assert!(memo <= CAPACITY, "{memo} memoized texts");
    let tracked = svc.feedback_stats().tracked;
    assert!(
        tracked <= MAX_TRACKED as u64,
        "{tracked} tracked fingerprints"
    );
    assert_eq!(tracked, n.min(MAX_TRACKED) as u64, "every fingerprint seen");
}

/// Prepares `n` distinct statements past the cap: each new one past it is
/// refused as a full queue, and the registry holds exactly the cap.
fn statements_stay_bounded(svc: &QueryService, n: usize) {
    let full = ServiceError::Overloaded {
        reason: ShedReason::QueueFull,
    };
    for i in 0..n {
        match svc.prepare(&text(i)) {
            Ok((_, created)) => assert!(created && i < MAX_PREPARED, "{i}"),
            Err(e) => assert!(e == full && i >= MAX_PREPARED, "{i}: {e:?}"),
        }
    }
    assert_eq!(svc.prepared_statements().len(), MAX_PREPARED);
}

/// Sends `n` distinct tenant names over HTTP: past the cap a new name is
/// shed with 429, and `/stats` lists at most the cap plus the default.
fn tenants_stay_bounded(n: usize) {
    let server = Server::start(service(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..n {
        let tenant = format!("tenant-{i}");
        let opts = RequestOptions {
            tenant: Some(&tenant),
            ..Default::default()
        };
        match c.query(&text(0), opts) {
            Ok(_) => assert!(i < MAX_TENANTS, "{i}"),
            Err(ClientError::Service { status: 429, .. }) => assert!(i >= MAX_TENANTS, "{i}"),
            Err(e) => panic!("{i}: {e:?}"),
        }
    }
    c.query(&text(0), RequestOptions::default())
        .expect("the default tenant is served");
    let stats = c.stats().unwrap();
    let tenants = stats.get("tenants").unwrap().as_arr().unwrap().len();
    assert_eq!(tenants, MAX_TENANTS + 1, "the cap plus the default");
    drop(c);
    server.shutdown();
}

#[test]
fn distinct_texts_at_ten_times_the_cache_capacity() {
    texts_stay_bounded(&service(), 10 * CAPACITY);
}

#[test]
fn distinct_statements_past_the_prepared_cap() {
    statements_stay_bounded(&service(), MAX_PREPARED + 16);
}

#[test]
fn distinct_tenant_names_past_the_tenant_cap() {
    tenants_stay_bounded(MAX_TENANTS + 16);
}

/// Ten times every cap, the ledger's `MAX_TRACKED` included. Slow in a
/// debug build: `cargo test --release --test bounds -- --ignored`.
#[test]
#[ignore]
fn ten_times_every_cap() {
    texts_stay_bounded(&service(), 10 * MAX_TRACKED);
    statements_stay_bounded(&service(), 10 * MAX_PREPARED);
    tenants_stay_bounded(10 * MAX_TENANTS);
}
