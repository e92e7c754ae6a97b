//! # `oodb-core` — the Open OODB query optimizer
//!
//! This crate is the paper's primary contribution: a complete,
//! cost-based, extensible object query optimizer "generated" by filling in
//! the [`volcano`] framework with:
//!
//! * an **optimizer model** ([`model::OodbModel`]): logical property
//!   derivation (scope + cardinality + tuple width), selectivity
//!   estimation (naïve 10% default, index-statistics otherwise), and the
//!   *presence-in-memory* physical property;
//! * **transformation rules** ([`rules::transform`]): relational rules
//!   (select splitting and pushing, join commutativity/associativity) plus
//!   the new Mat rules — Mat↔Mat commutativity, Mat-past-join, and the
//!   pivotal **Mat→Join** rewrite that turns reference traversal into a
//!   joinable expression;
//! * **implementation rules** ([`rules::implement`]): file scan, the
//!   **collapse-to-index-scan** rule (select–materialize–get over a path
//!   index), filter, directional **hybrid hash join** (hash table on the
//!   referenced/left side — which is exactly why disabling join
//!   commutativity forces naive pointer chasing), **pointer join**, and
//!   **assembly** as the implementation of Mat;
//! * the **assembly enforcer** ([`rules::enforce`]): assembly in its
//!   second role, enforcing presence-in-memory — the mechanism that finds
//!   the paper's Query 3 plan, which no purely logical optimizer can reach;
//! * a **cost model** ([`cost`]): CPU + I/O in seconds, sequential cheaper
//!   than random, elevator discount for windowed assembly, hash-table
//!   spill beyond the 32 MB DECstation memory;
//! * the top-level driver ([`optimizer::OpenOodb`]) and an
//!   ObjectStore-style **greedy baseline** ([`greedy`]) for the paper's
//!   heuristic-vs-cost-based comparison (Table 3).
//!
//! Rule names are stable strings so experiment configurations can disable
//! rules exactly as the paper does ("simulated by disabling various rules
//! in our optimizer").

#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod cost;
pub mod feedback;
pub mod greedy;
pub mod model;
pub mod optimizer;
pub mod plancache;
pub mod rules;

pub use audit::{
    check_confluence, AuditReport, ConfluenceReport, ConfluenceRun, CycleWitness, EnumLimits,
    TerminationProof,
};
pub use config::OptimizerConfig;
pub use cost::{Cost, CostParams};
pub use feedback::{
    FeedbackEntry, FeedbackStats, FeedbackStore, Observation, DEFAULT_DRIFT_THRESHOLD,
};
pub use greedy::greedy_plan;
pub use model::OodbModel;
/// The static plan verifier, re-exported so downstream crates reach the
/// linter and property checker without a separate dependency.
pub use oodb_verify as verify;
pub use oodb_verify::{drift_ratio, MAX_DRIFT};
pub use optimizer::{greedy_fallback, BoundedOutcome, OpenOodb, OptimizeOutcome};
pub use plancache::{CacheKey, CacheStats, CachedBody, CachedPlan, PlanCache};
