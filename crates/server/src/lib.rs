//! # oodb-server — the network serving front end
//!
//! Everything below this crate (the optimizer, the plan cache, the
//! resilience and memory-governance ladders, the executor) is
//! reachable only in-process; this crate puts a wire on
//! it. It is a dependency-free HTTP/1.1 + JSON layer over
//! [`oodb_service::QueryService`]:
//!
//! | Endpoint              | Meaning                                        |
//! |-----------------------|------------------------------------------------|
//! | `POST /query`         | Ad-hoc ZQL submission                          |
//! | `POST /prepare`       | Register a prepared statement (id = canonical  |
//! |                       | fingerprint hash)                              |
//! | `POST /execute/{id}`  | Execute a prepared statement — no re-parse,    |
//! |                       | straight to the plan-cache probe               |
//! | `GET /metrics`        | Prometheus text exposition                     |
//! | `GET /healthz`        | Liveness probe                                 |
//! | `GET /stats`          | Server + cache + per-tenant counters, JSON     |
//!
//! Connections are keep-alive and pipelined; requests may carry a
//! `tenant` namespace, and each tenant gets its own admission gate
//! (inflight cap → `429`, circuit breaker → `503` + `Retry-After`) —
//! see [`tenant`]. A request runs on the connection thread that read
//! it. Typed [`oodb_service::ServiceError`]s map onto HTTP statuses
//! ([`server::status_for`]); graceful shutdown stops accepting and
//! answers every accepted in-flight request.

#![forbid(unsafe_code)]

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod tenant;

pub use client::{Client, ClientError, RemoteOutput, RequestOptions};
pub use server::{status_for, Server, ServerConfig};

use oodb_telemetry::metrics::MetricsRegistry;

/// The crate version baked into `oodb_build_info`.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
/// The git commit hash baked in at build time (`"unknown"` outside a
/// checkout).
pub const GIT_HASH: &str = env!("OODB_GIT_HASH");

/// Registers the `oodb_build_info` gauge: constant `1`, with the
/// version and git hash carried as labels — the standard Prometheus
/// idiom for identifying the binary behind a scrape target.
pub fn register_build_info(reg: &MetricsRegistry) {
    reg.gauge(
        "oodb_build_info",
        &[("version", VERSION), ("git_hash", GIT_HASH)],
    )
    .set(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_gauge_carries_version_and_hash_labels() {
        let reg = MetricsRegistry::new();
        register_build_info(&reg);
        let text = reg.render_prometheus();
        assert!(
            text.contains(&format!(
                "oodb_build_info{{git_hash=\"{GIT_HASH}\",version=\"{VERSION}\"}} 1"
            )) || text.contains(&format!(
                "oodb_build_info{{version=\"{VERSION}\",git_hash=\"{GIT_HASH}\"}} 1"
            )),
            "{text}"
        );
        assert!(!GIT_HASH.is_empty());
    }
}
