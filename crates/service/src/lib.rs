//! # `oodb-service` — a concurrent query service over the optimizer
//!
//! The ROADMAP's north star is a system serving heavy query traffic, yet
//! everything below this crate is per-query and single-threaded: each ZQL
//! string pays full parse → simplify → Volcano search → execute. This
//! crate adds the serving layer:
//!
//! * [`QueryService`] owns a shared [`Store`] snapshot, the current
//!   [`OptimizerConfig`], and a sharded [`PlanCache`]; [`QueryService::submit`]
//!   compiles, fingerprints, and either reuses a cached plan or optimizes
//!   and caches the winner.
//! * The service is `Clone + Send + Sync`: a submission runs on the
//!   thread that calls it, so N concurrent callers are N clones — the
//!   optimizer is `&self` and the executor borrows `&Store`. One
//!   [`admission::Gate`] bounds and breaks the whole process.
//! * Statistics and physical-design changes go through the service
//!   ([`QueryService::refresh_statistics`], [`QueryService::restrict_indexes`]),
//!   which swap in a new store snapshot. When the statistics or the
//!   physical design actually changed, its catalog carries a bumped
//!   `stats_epoch` — cached plans go stale *by key*, never by cache walk.
//!   A refresh over unchanged data keeps the epoch, and with it every plan.
//!
//! In-flight queries keep executing against the snapshot they started
//! with (the `Arc<Store>` they cloned); new submissions see the new
//! snapshot and, under a new epoch, miss the cache. Cached entries carry
//! the `QueryEnv` they were optimized under, so interned `PredId`/`VarId`
//! values never leak across parses.

#![forbid(unsafe_code)]

pub mod admission;
mod answer;
mod durability;
mod error;
mod memo;
mod metrics;
mod pipeline;
mod prepared;

pub use admission::{AdmissionConfig, Gate, GateMetrics, Permit, Shed, ShedReason};
pub use error::ServiceError;
use memo::{Stamp, TextMemo};
use metrics::ServiceMetrics;
use oodb_algebra::fingerprint::QueryFingerprint;
use oodb_algebra::{LogicalPlan, QueryEnv, SortSpec, VarSet};
use oodb_core::plancache::PlanCache;
use oodb_core::{CostParams, FeedbackEntry, FeedbackStats, FeedbackStore, OptimizerConfig};
use oodb_exec::MemoryGovernor;
use oodb_fault::FaultInjector;
use oodb_storage::Store;
use oodb_sync::{BoundedMap, Snap};
use oodb_telemetry::{Counter, MetricsRegistry, OpTrace};
use oodb_wal::WalSession;
pub use oodb_wal::{
    CheckpointStats, DurabilityStats, FlushPolicy, RecoveryReport, WalError, WalRecord,
};
pub use prepared::MAX_PREPARED;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-submission options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Record a per-operator [`OpTrace`] during execution (`EXPLAIN
    /// ANALYZE`); the trace lands in [`QueryOutput::trace`].
    pub trace: bool,
    /// Per-submission wall-clock deadline. Bounds the Volcano search
    /// (expiry degrades to the greedy plan, flagged in
    /// [`QueryOutput::degraded`], or is [`ServiceError::DeadlineExceeded`]
    /// where greedy has none) and non-degraded execution (expiry is
    /// [`ServiceError::DeadlineExceeded`]). A degraded plan executes
    /// *without* the deadline: a late best-effort answer beats an error.
    pub deadline: Option<Duration>,
    /// Abort execution once it materializes more than this many tuples
    /// (across all operators of the run).
    pub row_budget: Option<u64>,
    /// How many times a transient storage fault may be retried (with
    /// exponential backoff) before surfacing as
    /// [`ServiceError::StorageFault`].
    pub retries: u32,
    /// Per-query memory budget in bytes for the execution's grant. When
    /// unset and a [`MemoryGovernor`] is attached, the service defaults
    /// to a quarter of the governor's capacity so four queries can always
    /// make progress concurrently; operators under the budget spill
    /// rather than error.
    pub mem_budget: Option<u64>,
}

/// Wall-clock nanoseconds each pipeline stage of one submission took.
/// A first submission of a text pays parse → simplify → fingerprint →
/// cache probe; a repeat that hits the plan cache under the same catalog
/// (a soft parse) and a prepared execution pay no parse or simplify, and
/// `fingerprint` is the memo lookup and key build. `optimize` is the
/// Volcano search plus cache insert (≈0 on a hit); `execute` is the plan
/// run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// ZQL parse.
    pub parse_ns: u64,
    /// Simplification into the optimizer's algebra.
    pub simplify_ns: u64,
    /// Canonical fingerprint computation.
    pub fingerprint_ns: u64,
    /// Plan-cache probe.
    pub cache_probe_ns: u64,
    /// Volcano search + cache insert (misses only; ~0 on hits).
    pub optimize_ns: u64,
    /// Plan execution.
    pub execute_ns: u64,
}

/// A query past the front end, minus the environment it was compiled in:
/// what [`PreparedQuery`] registers and what a text submission compiles
/// per request. The environment travels beside it because a cache miss
/// *moves* a text submission's into the cache entry and *clones* a
/// prepared statement's.
#[derive(Clone, Debug)]
struct Compiled {
    fp: QueryFingerprint,
    plan: LogicalPlan,
    result_vars: VarSet,
    order: Option<SortSpec>,
}

/// A registered prepared statement: the compiled query held server-side
/// so executions by id skip parse + simplify + fingerprint entirely and
/// go straight to the plan-cache probe. The id IS the canonical
/// fingerprint hash, so textual variants of one query share a statement
/// (and its cached plan) automatically.
#[derive(Debug)]
pub struct PreparedQuery {
    /// Statement id: the canonical fingerprint hash of the query.
    pub id: u64,
    /// The source text the statement was prepared from (diagnostics).
    pub zql: String,
    env: QueryEnv,
    query: Compiled,
    /// The catalog `env` was compiled against: an execution under another
    /// one recompiles `zql` before it searches.
    stamp: Stamp,
}

impl PreparedQuery {
    /// The canonical structural key the id hashes (cache-collision guard).
    pub fn structural_key(&self) -> &str {
        &self.query.fp.key
    }
}

/// The answer to one submission.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// Rendered result rows, sorted — byte-comparable across runs and
    /// plan choices.
    pub rows: Vec<String>,
    /// Number of result rows.
    pub row_count: usize,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// The plan's estimated cost in seconds.
    pub est_cost_s: f64,
    /// Simulated I/O seconds the execution charged.
    pub sim_io_s: f64,
    /// Index names the executed plan read — evidence for invalidation
    /// tests that a dropped index is never served.
    pub indexes_used: Vec<String>,
    /// Per-stage wall-clock breakdown of this submission.
    pub stages: StageBreakdown,
    /// Buffer hits charged to this execution (per-run attribution).
    pub buffer_hits: u64,
    /// Buffer misses charged to this execution.
    pub buffer_misses: u64,
    /// The per-operator execution trace, when [`SubmitOptions::trace`]
    /// was set.
    pub trace: Option<OpTrace>,
    /// True when the optimizer deadline expired and this answer came from
    /// the greedy fallback plan rather than the full cost-based search.
    pub degraded: bool,
    /// Transient-fault retries this submission spent before succeeding.
    pub retries: u32,
    /// High-water mark of bytes the execution's memory grant held.
    pub mem_peak_bytes: u64,
    /// Spill pages the execution moved (written + read back); nonzero
    /// only when the memory grant forced operators to overflow.
    pub spill_pages: u64,
    /// `stats_epoch` of the store snapshot this submission ran against.
    /// Paired with [`QueryOutput::config_fp`], it identifies the ONE
    /// service snapshot the whole pipeline observed — concurrency tests
    /// assert the pair always matches a published snapshot (no tearing).
    pub stats_epoch: u64,
    /// Fingerprint of the optimizer configuration the submission used.
    pub config_fp: u64,
    /// `(estimated, observed)` root rows when the feedback loop judged
    /// this execution's estimate out of bounds. In-process only — the
    /// shell's drift note reads it; it never crosses the wire.
    pub drift: Option<(f64, u64)>,
}

/// Everything a submission reads from the service, published as ONE
/// epoch snapshot. A submission loads the snapshot once and works from
/// it for its whole pipeline, so it can never observe a store from one
/// reconfiguration and a config (or admission policy) from another —
/// torn reads are impossible by construction, not by locking. Mutators
/// build a complete replacement and swap it in ([`Snap`]); the read
/// side takes no lock, and a superseded snapshot is freed once its last
/// reader drops it.
#[derive(Clone, Debug)]
struct ServiceState {
    store: Arc<Store>,
    /// The configuration plus its precomputed fingerprint — recomputing
    /// the fingerprint (sorting rule names) on every submit would cost
    /// more than the cache probe it keys.
    config: Arc<OptimizerConfig>,
    config_fp: u64,
    /// The catalog's index-set hash, computed once per publish
    /// ([`QueryService::mutate`]) rather than per request.
    index_set: u64,
    admission: AdmissionConfig,
    /// The fault injector every execution's page reads consult, when
    /// attached. Clones share counters and healing state.
    injector: Option<FaultInjector>,
    /// The process-wide ledger every execution draws its memory grant
    /// from, when attached.
    governor: Option<MemoryGovernor>,
}

impl ServiceState {
    fn epoch(&self) -> u64 {
        self.store.catalog().stats_epoch()
    }

    /// The catalog this snapshot compiles against.
    fn stamp(&self) -> Stamp {
        Stamp {
            epoch: self.epoch(),
            index_set: self.index_set,
        }
    }

    /// The store of a snapshot under construction ([`QueryService::mutate`]).
    /// The published snapshot still holds the old one, so this copies it
    /// (sharing every column) on first use.
    fn store_mut(&mut self) -> &mut Store {
        Arc::make_mut(&mut self.store)
    }

    fn set_config(&mut self, config: OptimizerConfig) {
        self.config_fp = config.fingerprint();
        self.config = Arc::new(config);
    }
}

struct Inner {
    state: Snap<ServiceState>,
    params: CostParams,
    cache: Arc<PlanCache>,
    /// Exact text → fingerprint, stamped; as many entries as the plan
    /// cache holds.
    memo: TextMemo,
    /// Prepared-statement registry, keyed by canonical fingerprint hash;
    /// refuses a new statement past `MAX_PREPARED`.
    prepared: BoundedMap<u64, Arc<PreparedQuery>>,
    telemetry: Arc<MetricsRegistry>,
    metrics: ServiceMetrics,
    /// The process-wide admission gate.
    gate: Gate,
    /// Actual-vs-estimated cardinality feedback, keyed by canonical
    /// fingerprint hash. Fed by every static submission (traced or not);
    /// read back as corrective [`oodb_algebra::StatsOverlay`]s at the
    /// cache probe.
    feedback: Arc<FeedbackStore>,
    /// Active write-ahead-log session, if durability is on. Logging
    /// mutators hold this lock across append *and* snapshot swap so the
    /// log order always matches the apply order.
    durability: Mutex<Option<WalSession>>,
}

/// The query service. Cheap to clone — all clones share state.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<Inner>,
}

impl QueryService {
    /// Wraps a store. `cache_capacity`/`cache_shards` size the plan cache.
    pub fn new(
        store: Store,
        params: CostParams,
        config: OptimizerConfig,
        cache_capacity: usize,
        cache_shards: usize,
    ) -> Self {
        let telemetry = Arc::new(MetricsRegistry::new());
        let metrics = ServiceMetrics::register(&telemetry);
        let gate = Gate::new(GateMetrics {
            inflight: telemetry.gauge("oodb_inflight", &[]),
            trips: telemetry.counter("oodb_breaker_trips_total", &[]),
            open: telemetry.gauge("oodb_breaker_open", &[]),
            // Resource failures already show as typed errors per request.
            failures: Counter::new(),
        });
        QueryService {
            inner: Arc::new(Inner {
                state: Snap::new(ServiceState {
                    index_set: store.catalog().index_set_hash(),
                    store: Arc::new(store),
                    config_fp: config.fingerprint(),
                    config: Arc::new(config),
                    admission: AdmissionConfig::default(),
                    injector: None,
                    governor: None,
                }),
                params,
                cache: Arc::new(PlanCache::new(cache_capacity, cache_shards)),
                memo: TextMemo::new(cache_capacity, cache_shards),
                prepared: BoundedMap::refuse_new(prepared::MAX_PREPARED, cache_shards, |&id| id),
                telemetry,
                metrics,
                gate,
                feedback: Arc::new(FeedbackStore::default()),
                durability: Mutex::new(None),
            }),
        }
    }

    /// The service's metrics registry (shared with all clones).
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.telemetry
    }

    /// The current store snapshot.
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.inner.state.load().store)
    }

    /// The plan cache (shared).
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// Text submissions that skipped parse, simplify and fingerprint: the
    /// exact text was memoized under the request's catalog and its plan
    /// was cached (`oodb_soft_parses_total`).
    pub fn soft_parses(&self) -> u64 {
        self.inner.metrics.soft_parses.get()
    }

    /// Texts the compiled-query memo holds (at most the plan cache's
    /// capacity).
    pub fn memoized_texts(&self) -> usize {
        self.inner.memo.len()
    }

    /// The feedback store accumulating actual-vs-estimated root
    /// cardinalities per query fingerprint (shared with all clones).
    pub fn feedback(&self) -> &Arc<FeedbackStore> {
        &self.inner.feedback
    }

    /// Aggregate feedback counters, for the server's `/stats` endpoint
    /// and the CLI's `\feedback stats`.
    pub fn feedback_stats(&self) -> FeedbackStats {
        self.inner.feedback.stats()
    }

    /// Per-fingerprint feedback entries, worst drift first.
    pub fn feedback_snapshot(&self) -> Vec<FeedbackEntry> {
        self.inner.feedback.snapshot()
    }

    /// The current optimizer configuration.
    pub fn config(&self) -> OptimizerConfig {
        (*self.inner.state.load().config).clone()
    }

    /// The identity of the current snapshot as a consistent
    /// `(stats_epoch, config_fingerprint)` pair — both fields come from
    /// ONE atomic snapshot load, never from two reconfigurations.
    pub fn snapshot_identity(&self) -> (u64, u64) {
        let s = self.inner.state.load();
        (s.epoch(), s.config_fp)
    }

    /// Replaces the optimizer configuration. Plans cached under the old
    /// configuration stay resident but can no longer be served — the
    /// config fingerprint is part of every cache key.
    pub fn set_config(&self, config: OptimizerConfig) {
        self.mutate(|s| s.set_config(config));
    }

    /// Routes subsequent executions through a fault injector: each run
    /// carries it in its [`oodb_fault::RunLimits`]. The store is not
    /// copied, and the epoch does not move: injected faults do not
    /// invalidate cached plans, only their executions.
    pub fn attach_fault_injector(&self, injector: FaultInjector) {
        self.mutate(|s| s.injector = Some(injector));
    }

    /// Removes the fault injector (later executions run fault-free).
    pub fn detach_fault_injector(&self) {
        self.mutate(|s| s.injector = None);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<FaultInjector> {
        self.inner.state.load().injector.clone()
    }

    /// Routes subsequent executions through a process-wide
    /// [`MemoryGovernor`], carried by each run like the fault injector.
    /// Executions draw byte grants from the governor; operators whose
    /// grant runs out spill to simulated disk instead of growing. No
    /// epoch bump: governance changes execution, not plans.
    pub fn attach_memory_governor(&self, governor: MemoryGovernor) {
        self.mutate(|s| s.governor = Some(governor));
    }

    /// Removes the memory governor (later executions run ungoverned).
    pub fn detach_memory_governor(&self) {
        self.mutate(|s| s.governor = None);
    }

    /// The attached memory governor, if any.
    pub fn memory_governor(&self) -> Option<MemoryGovernor> {
        self.inner.state.load().governor.clone()
    }

    /// Replaces the admission-control policy (applies to the next
    /// submission; in-flight work is never revoked).
    pub fn set_admission(&self, config: AdmissionConfig) {
        self.mutate(|s| s.admission = config);
    }

    /// The current admission-control policy.
    pub fn admission(&self) -> AdmissionConfig {
        self.inner.state.load().admission
    }

    /// What to tell a client this service just refused: the process
    /// breaker's remaining cooldown while it is open, one second
    /// otherwise.
    pub fn retry_after(&self) -> Duration {
        self.inner.gate.retry_after()
    }
}

#[cfg(test)]
mod tests;
