//! # `oodb-telemetry` — unified observability for the Open OODB stack
//!
//! The paper's whole evaluation (Tables 2–3, the search-effort and
//! plan-quality figures) is instrumentation; this crate makes that
//! instrumentation a first-class, always-on subsystem instead of
//! per-experiment scaffolding. Two primitives, no dependencies:
//!
//! * [`MetricsRegistry`] — a lock-light registry of named, labelled
//!   metrics. Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`'d
//!   atomics: registration takes a lock once, the hot path is a relaxed
//!   atomic op. Histograms use *fixed* power-of-two nanosecond buckets
//!   (256 ns … ~17 s), so recording is branch-light, merging is trivial,
//!   and two runs of the same binary always bucket identically —
//!   comparable across reports without bucket negotiation.
//! * [`OpTrace`] — a per-operator execution trace (actual rows, wall
//!   clock, buffer hits/misses, simulated I/O) mirroring a physical plan
//!   tree; the substance behind `EXPLAIN ANALYZE`.
//!
//! One export: [`MetricsRegistry::render_prometheus`] (Prometheus text
//! format, for `\metrics`, `GET /metrics` and scrapers).

#![forbid(unsafe_code)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, StageTimer, BUCKET_BOUNDS_NS,
};
pub use trace::{fmt_ns, render_tree, OpTrace};
