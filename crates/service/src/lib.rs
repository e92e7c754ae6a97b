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
//!   which swap in a new store snapshot whose catalog carries a bumped
//!   `stats_epoch` — cached plans go stale *by key*, never by cache walk.
//!
//! In-flight queries keep executing against the snapshot they started
//! with (the `Arc<Store>` they cloned); new submissions see the new
//! snapshot and miss the cache. Cached entries carry the `QueryEnv` they
//! were optimized under, so interned `PredId`/`VarId` values never leak
//! across parses.

#![forbid(unsafe_code)]

pub mod admission;

pub use admission::{AdmissionConfig, Gate, GateMetrics, Permit, Shed, ShedReason};
use oodb_algebra::fingerprint::{fingerprint, QueryFingerprint};
use oodb_algebra::{LogicalPlan, PhysicalOp, PhysicalPlan, QueryEnv, SortSpec, VarSet};
use oodb_core::plancache::{CacheKey, CachedBody, CachedPlan, PlanCache};
use oodb_core::{
    BoundedOutcome, CostParams, FeedbackEntry, FeedbackStats, FeedbackStore, Observation, OpenOodb,
    OptimizerConfig,
};
use oodb_exec::{ExecError, ExecStats, Executor, RootRow};
use oodb_fault::{CancelToken, FaultClass, FaultInjector, RunLimits};
use oodb_storage::{MemoryGovernor, PressureLevel, Store};
use oodb_sync::Snap;
use oodb_telemetry::{Counter, Gauge, Histogram, MetricsRegistry, OpTrace, StageTimer};
use oodb_wal::WalSession;
pub use oodb_wal::{
    CheckpointStats, FlushPolicy, RecoverError, RecoveryReport, SessionError, WalRecord,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Errors a submission can produce.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The front end rejected the query.
    Zql(zql::ZqlError),
    /// No feasible plan under the current rule configuration.
    NoPlan,
    /// A prepared-statement execution named an id that is not registered.
    UnknownStatement {
        /// The id the caller presented (a canonical fingerprint hash).
        id: u64,
    },
    /// The submission's deadline expired in the named pipeline stage.
    DeadlineExceeded {
        /// Which stage ran out of time (`"execute"` today; optimizer
        /// expiry degrades to the greedy plan instead of erroring).
        stage: &'static str,
    },
    /// The submission's [`CancelToken`] was cancelled.
    Cancelled,
    /// Execution materialized more tuples than
    /// [`SubmitOptions::row_budget`] allows.
    RowBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The service refused the submission *before* running it — load
    /// shedding. Retry later; nothing was executed.
    Overloaded {
        /// What tripped the refusal.
        reason: ShedReason,
    },
    /// The execution's memory grant could not cover even its smallest
    /// working unit: spilling and staging were tried and still did not
    /// fit. Not retryable under the same budget.
    MemoryExhausted {
        /// Bytes the failing reservation asked for.
        requested: u64,
        /// The per-query budget in force.
        budget: u64,
    },
    /// A storage fault survived the retry budget (or was permanent).
    StorageFault {
        /// Whether the final fault was transient (retryable in principle).
        transient: bool,
        /// How many retries were spent before giving up.
        retries: u32,
    },
    /// Execution failed in a non-retryable way (malformed plan or trace).
    Exec(String),
    /// The submission panicked; the service caught it and stayed up.
    Panicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Zql(e) => write!(f, "{e}"),
            ServiceError::NoPlan => {
                write!(f, "no feasible plan under the current rule configuration")
            }
            ServiceError::UnknownStatement { id } => {
                write!(f, "unknown prepared statement {id:016x}")
            }
            ServiceError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded during {stage}")
            }
            ServiceError::Cancelled => write!(f, "query cancelled"),
            ServiceError::RowBudgetExceeded { budget } => {
                write!(f, "row budget of {budget} tuples exceeded")
            }
            ServiceError::Overloaded { reason } => {
                write!(f, "service overloaded: {reason}")
            }
            ServiceError::MemoryExhausted { requested, budget } => write!(
                f,
                "memory grant exhausted: {requested} bytes requested, budget {budget}"
            ),
            ServiceError::StorageFault { transient, retries } => write!(
                f,
                "{} storage fault after {retries} retries",
                if *transient { "transient" } else { "permanent" }
            ),
            ServiceError::Exec(msg) => write!(f, "execution failed: {msg}"),
            ServiceError::Panicked(msg) => write!(f, "submission panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// Whether this error says the system is out of a resource — memory,
    /// storage, or a pipeline that panicked — rather than that the query
    /// was bad, late, or refused. The only failure classifier: it is what
    /// every [`Gate`]'s breaker counts.
    pub fn is_resource_failure(&self) -> bool {
        matches!(
            self,
            ServiceError::MemoryExhausted { .. }
                | ServiceError::StorageFault { .. }
                | ServiceError::Panicked(_)
        )
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Per-submission options.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Record a per-operator [`OpTrace`] during execution (`EXPLAIN
    /// ANALYZE`); the trace lands in [`QueryOutput::trace`].
    pub trace: bool,
    /// Per-submission wall-clock deadline. Bounds the Volcano search
    /// (expiry degrades to the greedy plan, flagged in
    /// [`QueryOutput::degraded`]) and non-degraded execution (expiry is
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
/// Every submission pays parse → simplify → fingerprint → cache probe;
/// `optimize` is the Volcano search plus cache insert (≈0 on a hit);
/// `execute` is the plan run.
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
    fp: QueryFingerprint,
    env: QueryEnv,
    plan: LogicalPlan,
    result_vars: VarSet,
    order: Option<SortSpec>,
}

impl PreparedQuery {
    /// The canonical structural key the id hashes (cache-collision guard).
    pub fn structural_key(&self) -> &str {
        &self.fp.key
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
    /// Time spent in the front end (parse + simplify) — paid on every
    /// submission, hit or miss.
    pub compile_ns: u64,
    /// Time spent obtaining a plan: fingerprint + cache probe, plus the
    /// full Volcano search on a miss. This is the stage the cache
    /// amortizes.
    pub optimize_ns: u64,
    /// Time spent executing the plan.
    pub execute_ns: u64,
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

/// Counters of the active WAL session, for the server's `/stats`
/// `durability` object and the CLI's `\wal stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityStats {
    /// Durability directory (checkpoint + log).
    pub dir: String,
    /// Flush policy, rendered (`EveryRecord`, `Batch(8)`, `Manual`).
    pub policy: String,
    /// Records accepted by the log this session.
    pub records: u64,
    /// Frame bytes accepted this session.
    pub bytes: u64,
    /// Flushes that reached the file.
    pub flushes: u64,
    /// Syncs that completed.
    pub syncs: u64,
    /// Injected write faults.
    pub faults: u64,
    /// Records appended but not yet flushed (the crash window).
    pub buffered_records: u64,
    /// Sequence number the next record will carry.
    pub next_seq: u64,
    /// Records in the most recent checkpoint.
    pub checkpoint_records: u64,
    /// Bytes in the most recent checkpoint.
    pub checkpoint_bytes: u64,
    /// Log records folded into checkpoints over this session.
    pub compacted_records: u64,
    /// Whether a write fault poisoned the session (mutations continue
    /// in memory but are no longer acknowledged durable).
    pub poisoned: bool,
}

/// Handles to every metric the service records, registered once at
/// construction so the per-submission path never takes the registry lock.
struct ServiceMetrics {
    stage_parse: Histogram,
    stage_simplify: Histogram,
    stage_fingerprint: Histogram,
    stage_cache_probe: Histogram,
    stage_optimize: Histogram,
    stage_execute: Histogram,
    submissions: Counter,
    errors: Counter,
    /// Prepared-statement registrations (`prepare` calls that created a
    /// new entry; re-preparing an existing statement is not counted).
    prepares: Counter,
    /// Executions submitted by prepared-statement id.
    prepared_executes: Counter,
    /// Currently registered prepared statements.
    prepared_statements: Gauge,
    optimizer_runs: Counter,
    transform_firings: Counter,
    plans_costed: Counter,
    exec_buffer_hits: Counter,
    exec_buffer_misses: Counter,
    exec_pages_read: Counter,
    exec_tuples: Counter,
    exec_sim_io_us: Counter,
    /// Static-verifier findings on winning plans (0 on a sound optimizer).
    verify_violations: Counter,
    /// Subset of `verify_violations`: cost-model estimates that escaped
    /// their sound `[lo, hi]` cardinality intervals (a cost-model bug).
    interval_violations: Counter,
    /// Executions whose measured row counts escaped their estimates — the
    /// stale-statistics detector. Traced runs check every operator against
    /// its catalog-derived interval; untraced runs check the root row
    /// count against the drift threshold, so the counter is live in
    /// production mode too.
    actual_card_violations: Counter,
    /// Feedback-driven re-optimizations: cache misses whose search ran
    /// under corrective selectivity overrides after drift marked the
    /// fingerprint suspect.
    reopt: Counter,
    /// Selectivity overrides currently active across all feedback entries
    /// (refreshed at export time, like the cache mirrors).
    feedback_overrides: Gauge,
    /// Submissions that ran out of deadline during execution.
    timeouts: Counter,
    /// Transient-storage-fault retries across all submissions.
    retries: Counter,
    /// Optimizer-deadline expiries served by the greedy fallback plan.
    fallback_plans: Counter,
    /// Submissions that panicked and were converted to typed errors.
    submission_panics: Counter,
    /// Submissions refused at admission, by reason.
    shed_queue_full: Counter,
    shed_circuit_open: Counter,
    shed_memory_pressure: Counter,
    /// Submissions served degraded because of memory pressure (greedy
    /// plan, halved grant).
    pressure_degrades: Counter,
    /// Spill pages executions wrote / read back (cumulative).
    exec_spill_written: Counter,
    exec_spill_read: Counter,
    /// Memory-grant reservations refused across executions.
    grant_denials: Counter,
    /// Mirrors of the memory governor's ledger, refreshed at export time.
    mem_reserved_bytes: Gauge,
    mem_capacity_bytes: Gauge,
    /// Mirror of the fault injector's total injected faults (refreshed at
    /// export time, like the cache mirrors).
    injected_faults: Counter,
    // Mirrors of the plan cache's own counters, refreshed at export time.
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_stale_rejects: Counter,
    cache_verify_rejects: Counter,
    cache_entries: Gauge,
    cache_bytes: Gauge,
    // Durability mirrors (refreshed at export time from the WAL session)
    // and recovery counters (bumped once by [`QueryService::recover`]).
    wal_records: Counter,
    wal_bytes: Counter,
    recovery_replayed: Counter,
    wal_torn_tails: Counter,
}

impl ServiceMetrics {
    fn register(reg: &MetricsRegistry) -> Self {
        let stage = |name: &str| reg.histogram("oodb_stage_latency_ns", &[("stage", name)]);
        ServiceMetrics {
            stage_parse: stage("parse"),
            stage_simplify: stage("simplify"),
            stage_fingerprint: stage("fingerprint"),
            stage_cache_probe: stage("cache_probe"),
            stage_optimize: stage("optimize"),
            stage_execute: stage("execute"),
            submissions: reg.counter("oodb_submissions_total", &[]),
            errors: reg.counter("oodb_submission_errors_total", &[]),
            prepares: reg.counter("oodb_prepares_total", &[]),
            prepared_executes: reg.counter("oodb_prepared_executes_total", &[]),
            prepared_statements: reg.gauge("oodb_prepared_statements", &[]),
            optimizer_runs: reg.counter("oodb_optimizer_runs_total", &[]),
            transform_firings: reg.counter("oodb_optimizer_transform_firings_total", &[]),
            plans_costed: reg.counter("oodb_optimizer_plans_costed_total", &[]),
            exec_buffer_hits: reg.counter("oodb_exec_buffer_hits_total", &[]),
            exec_buffer_misses: reg.counter("oodb_exec_buffer_misses_total", &[]),
            exec_pages_read: reg.counter("oodb_exec_pages_read_total", &[]),
            exec_tuples: reg.counter("oodb_exec_tuples_total", &[]),
            exec_sim_io_us: reg.counter("oodb_exec_sim_io_microseconds_total", &[]),
            verify_violations: reg.counter("oodb_verify_violations_total", &[]),
            interval_violations: reg.counter("oodb_interval_violations_total", &[]),
            actual_card_violations: reg.counter("oodb_actual_card_violations_total", &[]),
            reopt: reg.counter("oodb_reopt_total", &[]),
            feedback_overrides: reg.gauge("oodb_feedback_overrides_active", &[]),
            timeouts: reg.counter("oodb_timeouts_total", &[]),
            retries: reg.counter("oodb_retries_total", &[]),
            fallback_plans: reg.counter("oodb_fallback_plans_total", &[]),
            submission_panics: reg.counter("oodb_submission_panics_total", &[]),
            shed_queue_full: reg.counter("oodb_shed_total", &[("reason", "queue_full")]),
            shed_circuit_open: reg.counter("oodb_shed_total", &[("reason", "circuit_open")]),
            shed_memory_pressure: reg.counter("oodb_shed_total", &[("reason", "memory_pressure")]),
            pressure_degrades: reg.counter("oodb_pressure_degrades_total", &[]),
            exec_spill_written: reg.counter("oodb_exec_spill_pages_written_total", &[]),
            exec_spill_read: reg.counter("oodb_exec_spill_pages_read_total", &[]),
            grant_denials: reg.counter("oodb_grant_denials_total", &[]),
            mem_reserved_bytes: reg.gauge("oodb_mem_reserved_bytes", &[]),
            mem_capacity_bytes: reg.gauge("oodb_mem_capacity_bytes", &[]),
            injected_faults: reg.counter("oodb_injected_faults_total", &[]),
            cache_hits: reg.counter("oodb_plancache_hits_total", &[]),
            cache_misses: reg.counter("oodb_plancache_misses_total", &[]),
            cache_evictions: reg.counter("oodb_plancache_evictions_total", &[]),
            cache_stale_rejects: reg.counter("oodb_plancache_stale_rejects_total", &[]),
            cache_verify_rejects: reg.counter("oodb_plancache_verify_rejects_total", &[]),
            cache_entries: reg.gauge("oodb_plancache_entries", &[]),
            cache_bytes: reg.gauge("oodb_plancache_bytes", &[]),
            wal_records: reg.counter("oodb_wal_records_total", &[]),
            wal_bytes: reg.counter("oodb_wal_bytes_total", &[]),
            recovery_replayed: reg.counter("oodb_recovery_replayed_total", &[]),
            wal_torn_tails: reg.counter("oodb_wal_torn_tails_total", &[]),
        }
    }

    fn record_exec(&self, stats: &ExecStats) {
        self.exec_buffer_hits.add(stats.buffer_hits);
        self.exec_buffer_misses.add(stats.buffer_misses);
        self.exec_pages_read.add(stats.disk.pages());
        self.exec_tuples.add(stats.counts.tuples);
        self.exec_sim_io_us.add((stats.disk.total_s * 1e6) as u64);
        self.exec_spill_written.add(stats.mem.spill_pages_written);
        self.exec_spill_read.add(stats.mem.spill_pages_read);
        self.grant_denials.add(stats.mem.grant_denials);
    }

    fn record_shed(&self, reason: ShedReason) {
        match reason {
            ShedReason::QueueFull => self.shed_queue_full.inc(),
            ShedReason::CircuitOpen => self.shed_circuit_open.inc(),
            ShedReason::MemoryPressure => self.shed_memory_pressure.inc(),
        }
    }
}

/// What a submission executes: raw ZQL text (parsed per submission) or a
/// registered prepared statement (parsed once at [`QueryService::prepare`]).
#[derive(Clone, Copy)]
enum QueryInput<'a> {
    Text(&'a str),
    Prepared(&'a PreparedQuery),
}

/// Everything a submission reads from the service, published as ONE
/// epoch snapshot. A submission loads the snapshot once and works from
/// it for its whole pipeline, so it can never observe a store from one
/// reconfiguration and a config (or admission policy) from another —
/// torn reads are impossible by construction, not by locking. Mutators
/// build a complete replacement and swap it in ([`Snap`]); the read
/// side is a single atomic load with no shared-cache-line writes.
#[derive(Clone, Debug)]
struct ServiceState {
    store: Arc<Store>,
    /// The configuration plus its precomputed fingerprint — recomputing
    /// the fingerprint (sorting rule names) on every submit would cost
    /// more than the cache probe it keys.
    config: Arc<OptimizerConfig>,
    config_fp: u64,
    admission: AdmissionConfig,
}

struct Inner {
    state: Snap<ServiceState>,
    params: CostParams,
    cache: Arc<PlanCache>,
    /// Prepared-statement registry, keyed by canonical fingerprint hash.
    /// Reads (the execute hot path) are lock-free snapshot loads; only
    /// `prepare` of a *new* statement pays the copy-on-write clone.
    prepared: Snap<BTreeMap<u64, Arc<PreparedQuery>>>,
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
        let config_fp = config.fingerprint();
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
                    store: Arc::new(store),
                    config: Arc::new(config),
                    config_fp,
                    admission: AdmissionConfig::default(),
                }),
                params,
                cache: Arc::new(PlanCache::new(cache_capacity, cache_shards)),
                prepared: Snap::new(BTreeMap::new()),
                telemetry,
                metrics,
                gate,
                feedback: Arc::new(FeedbackStore::default()),
                durability: Mutex::new(None),
            }),
        }
    }

    /// Rebuilds a service from a durability directory — checkpoint, then
    /// the longest valid log prefix — and resumes logging into it (the
    /// recovered state is folded into a fresh checkpoint, so the log
    /// restarts empty). Returns the service plus what recovery found.
    pub fn recover(
        dir: &Path,
        params: CostParams,
        config: OptimizerConfig,
        cache_capacity: usize,
        cache_shards: usize,
        policy: FlushPolicy,
    ) -> Result<(QueryService, RecoveryReport), RecoverError> {
        let (store, report) = oodb_wal::recover(dir)?;
        let svc = QueryService::new(store, params, config, cache_capacity, cache_shards);
        svc.inner
            .metrics
            .recovery_replayed
            .add(report.replayed_records);
        if report.torn_tail_bytes > 0 {
            svc.inner.metrics.wal_torn_tails.inc();
        }
        svc.enable_durability(dir, policy)
            .map_err(|e| RecoverError::Io(std::io::Error::other(e.to_string())))?;
        Ok((svc, report))
    }

    /// Publishes a new store snapshot derived from the current one,
    /// leaving config and admission policy untouched. Serialized with
    /// every other mutator by the snapshot cell's writer lock, so
    /// concurrent reconfigurations never lose each other's changes.
    fn swap_store(&self, f: impl FnOnce(&mut Store)) {
        self.inner.state.update(|s| {
            let mut store = (*s.store).clone();
            f(&mut store);
            (
                ServiceState {
                    store: Arc::new(store),
                    ..s.clone()
                },
                (),
            )
        });
        // Feedback recorded under an older stats epoch described a
        // distribution that no longer exists; retire it (and its suspect
        // markers) the moment the epoch moves. A no-op for swaps that do
        // not bump the epoch (fault injectors, governors).
        self.inner
            .feedback
            .retire_older_than(self.inner.state.load().store.catalog().stats_epoch());
    }

    /// The service's metrics registry (shared with all clones).
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.inner.telemetry
    }

    /// Turns per-stage latency histograms on or off. Counters and gauges
    /// stay live either way; with profiling off the histogram observation
    /// path reduces to one relaxed load.
    pub fn set_profiling(&self, on: bool) {
        self.inner.telemetry.set_profiling(on);
    }

    /// Refreshes the plan-cache mirror metrics from the cache's own
    /// counters. Called automatically by the render methods.
    fn sync_cache_metrics(&self) {
        let s = self.inner.cache.stats();
        let m = &self.inner.metrics;
        m.cache_hits.store(s.hits);
        m.cache_misses.store(s.misses);
        m.cache_evictions.store(s.evictions);
        m.cache_stale_rejects.store(s.stale_rejects);
        m.cache_verify_rejects.store(s.verify_rejects);
        m.cache_entries.set(s.entries as i64);
        m.cache_bytes.set(s.bytes as i64);
        m.feedback_overrides
            .set(self.inner.feedback.stats().overrides.min(i64::MAX as u64) as i64);
        let store = self.store();
        if let Some(inj) = store.fault_injector() {
            m.injected_faults.store(inj.stats().injected);
        }
        if let Some(gov) = store.memory_governor() {
            let gs = gov.stats();
            m.mem_reserved_bytes
                .set(gs.reserved.min(i64::MAX as u64) as i64);
            m.mem_capacity_bytes
                .set(gs.capacity.min(i64::MAX as u64) as i64);
        }
        if let Some(session) = self.durability_lock().as_ref() {
            let ws = session.wal_stats();
            m.wal_records.store(ws.records);
            m.wal_bytes.store(ws.bytes);
        }
    }

    /// Every metric in the Prometheus text exposition format (`\metrics`).
    pub fn metrics_prometheus(&self) -> String {
        self.sync_cache_metrics();
        self.inner.telemetry.render_prometheus()
    }

    /// The current store snapshot.
    pub fn store(&self) -> Arc<Store> {
        Arc::clone(&self.inner.state.load().store)
    }

    /// The plan cache (shared).
    pub fn cache(&self) -> &PlanCache {
        &self.inner.cache
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
        (s.store.catalog().stats_epoch(), s.config_fp)
    }

    /// Replaces the optimizer configuration. Plans cached under the old
    /// configuration stay resident but can no longer be served — the
    /// config fingerprint is part of every cache key.
    pub fn set_config(&self, config: OptimizerConfig) {
        let fp = config.fingerprint();
        let config = Arc::new(config);
        self.inner.state.update(|s| {
            (
                ServiceState {
                    config: Arc::clone(&config),
                    config_fp: fp,
                    ..s.clone()
                },
                (),
            )
        });
    }

    /// Collects histograms and swaps in a store whose catalog carries the
    /// refined statistics and a bumped `stats_epoch`. With durability on,
    /// the refresh is logged before it is applied (log-then-apply); WAL
    /// replay re-runs the identical collect + set-catalog + rebuild
    /// composite, so the recovered catalog matches bucket for bucket.
    pub fn refresh_statistics(&self, buckets: usize) {
        let mut dur = self.durability_lock();
        self.log_mutation(
            &mut dur,
            &WalRecord::StatsRefresh {
                buckets: buckets as u32,
            },
        );
        self.swap_store(|store| {
            let catalog = store.collect_statistics(&[], buckets);
            store.set_catalog(catalog);
            store.build_indexes();
        });
    }

    /// Replaces statistics *and* configuration in one snapshot swap: a
    /// reader either sees both changes or neither. This is the mutation
    /// the concurrency proof drives while submissions race it.
    pub fn refresh_statistics_with_config(&self, buckets: usize, config: OptimizerConfig) {
        let mut dur = self.durability_lock();
        self.log_mutation(
            &mut dur,
            &WalRecord::StatsRefresh {
                buckets: buckets as u32,
            },
        );
        let fp = config.fingerprint();
        let config = Arc::new(config);
        self.inner.state.update(|s| {
            let mut store = (*s.store).clone();
            let catalog = store.collect_statistics(&[], buckets);
            store.set_catalog(catalog);
            store.build_indexes();
            (
                ServiceState {
                    store: Arc::new(store),
                    config: Arc::clone(&config),
                    config_fp: fp,
                    admission: s.admission,
                },
                (),
            )
        });
        self.inner
            .feedback
            .retire_older_than(self.inner.state.load().store.catalog().stats_epoch());
    }

    /// Drops every index not named in `keep` (physical-design change) and
    /// swaps in the rebuilt store. The epoch bump makes every cached plan
    /// unservable, so a plan relying on a dropped index can never run.
    pub fn restrict_indexes(&self, keep: &[&str]) {
        let mut dur = self.durability_lock();
        // The logged copy can come from the current snapshot — catalog-
        // changing mutators are serialized by the durability lock, so it
        // matches what the swap below produces. The swap itself must not
        // reuse it: mutators that skip this lock (fault injectors,
        // memory governors) may publish a newer snapshot in between, and
        // writing a catalog derived from the stale store would clobber
        // theirs. Derive it from the store actually being mutated.
        self.log_mutation(
            &mut dur,
            &WalRecord::SetCatalog {
                catalog: self.store().catalog().with_only_indexes(keep),
            },
        );
        self.log_mutation(&mut dur, &WalRecord::BuildIndexes { bump_epoch: true });
        let keep: Vec<String> = keep.iter().map(|s| s.to_string()).collect();
        self.swap_store(move |store| {
            let keep: Vec<&str> = keep.iter().map(String::as_str).collect();
            let catalog = store.catalog().with_only_indexes(&keep);
            store.set_catalog(catalog);
            store.build_indexes();
        });
    }

    fn durability_lock(&self) -> std::sync::MutexGuard<'_, Option<WalSession>> {
        self.inner
            .durability
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one record to the WAL session, if durability is on. An
    /// append failure (injected write fault, full disk) poisons the
    /// session rather than blocking the mutation: the in-memory state
    /// moves on, the mutation is simply not acknowledged durable, and
    /// [`DurabilityStats::poisoned`] reports the degradation.
    fn log_mutation(&self, dur: &mut Option<WalSession>, rec: &WalRecord) {
        if let Some(session) = dur.as_mut() {
            let _ = session.append(rec);
        }
    }

    /// Switches durability on: checkpoints the current store into `dir`
    /// and opens a fresh log there. Subsequent statistics and
    /// physical-design mutations are logged before they are applied.
    /// Idempotent per directory — re-enabling replaces the session (the
    /// old one flushes on drop via its final checkpoint already on disk).
    pub fn enable_durability(&self, dir: &Path, policy: FlushPolicy) -> Result<(), SessionError> {
        let mut dur = self.durability_lock();
        let session = WalSession::create(dir, &self.store(), policy, None)?;
        *dur = Some(session);
        Ok(())
    }

    /// Switches durability off, flushing buffered records first. Returns
    /// whether a session was active.
    pub fn disable_durability(&self) -> bool {
        let mut dur = self.durability_lock();
        match dur.take() {
            Some(mut session) => {
                let _ = session.flush();
                true
            }
            None => false,
        }
    }

    /// Whether a WAL session is active.
    pub fn durability_enabled(&self) -> bool {
        self.durability_lock().is_some()
    }

    /// Forces buffered WAL records to disk (`FlushPolicy::Batch`/`Manual`
    /// sessions; a no-op under `EveryRecord`).
    pub fn flush_wal(&self) -> Option<Result<(), String>> {
        let mut dur = self.durability_lock();
        dur.as_mut().map(|s| s.flush().map_err(|e| e.to_string()))
    }

    /// Compacts the log into a fresh checkpoint of the current store.
    /// Mutators are blocked for the duration, so the checkpoint can never
    /// miss a logged-but-unapplied record.
    pub fn checkpoint_wal(&self) -> Option<Result<CheckpointStats, String>> {
        let mut dur = self.durability_lock();
        let store = self.store();
        dur.as_mut()
            .map(|s| s.checkpoint(&store).map_err(|e| e.to_string()))
    }

    /// A snapshot of the WAL session's counters, or `None` with
    /// durability off.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        let dur = self.durability_lock();
        dur.as_ref().map(|s| {
            let ws = s.wal_stats();
            let ck = s.last_checkpoint();
            DurabilityStats {
                dir: s.dir().display().to_string(),
                policy: format!("{:?}", s.policy()),
                records: ws.records,
                bytes: ws.bytes,
                flushes: ws.flushes,
                syncs: ws.syncs,
                faults: ws.faults,
                buffered_records: s.buffered_records() as u64,
                next_seq: s.next_seq(),
                checkpoint_records: ck.records,
                checkpoint_bytes: ck.bytes,
                compacted_records: s.compacted_records(),
                poisoned: s.poisoned(),
            }
        })
    }

    /// Routes subsequent executions through a fault injector by swapping
    /// in a store snapshot that carries it. No epoch bump: injected faults
    /// do not invalidate cached plans, only their executions.
    pub fn attach_fault_injector(&self, injector: FaultInjector) {
        self.swap_store(|store| store.attach_fault_injector(injector));
    }

    /// Removes the fault injector (fresh snapshots execute fault-free).
    pub fn detach_fault_injector(&self) {
        self.swap_store(Store::detach_fault_injector);
    }

    /// The fault injector on the current store snapshot, if any.
    pub fn fault_injector(&self) -> Option<FaultInjector> {
        self.store().fault_injector().cloned()
    }

    /// Routes subsequent executions through a process-wide
    /// [`MemoryGovernor`] by swapping in a store snapshot that carries
    /// it. Executions draw byte grants from the governor; operators
    /// whose grant runs out spill to simulated disk instead of growing.
    /// No epoch bump: governance changes execution, not plans.
    pub fn attach_memory_governor(&self, governor: MemoryGovernor) {
        self.swap_store(|store| store.attach_memory_governor(governor));
    }

    /// Removes the memory governor (fresh snapshots execute ungoverned).
    pub fn detach_memory_governor(&self) {
        self.swap_store(Store::detach_memory_governor);
    }

    /// The memory governor on the current store snapshot, if any.
    pub fn memory_governor(&self) -> Option<MemoryGovernor> {
        self.store().memory_governor().cloned()
    }

    /// Replaces the admission-control policy (applies to the next
    /// submission; in-flight work is never revoked).
    pub fn set_admission(&self, config: AdmissionConfig) {
        self.inner.state.update(|s| {
            (
                ServiceState {
                    admission: config,
                    ..s.clone()
                },
                (),
            )
        });
    }

    /// The current admission-control policy.
    pub fn admission(&self) -> AdmissionConfig {
        self.inner.state.load().admission
    }

    /// Registers a prepared statement: parses, simplifies, and
    /// fingerprints `zql_src`, storing the compiled query under its
    /// canonical fingerprint hash. Returns the statement and whether this
    /// call created it (`false` = an equivalent statement — possibly a
    /// textual variant — was already registered; both callers share it).
    /// Nothing is optimized or executed yet: the first
    /// [`QueryService::submit_prepared_with`] fills the plan cache, and
    /// every execution after that hits it by id.
    pub fn prepare(&self, zql_src: &str) -> Result<(Arc<PreparedQuery>, bool), ServiceError> {
        let m = &self.inner.metrics;
        let state = self.inner.state.load();
        let ast = zql::parser::parse(zql_src).map_err(|e| {
            m.errors.inc();
            ServiceError::Zql(e)
        })?;
        let q = zql::simplify(&ast, state.store.schema(), state.store.catalog()).map_err(|e| {
            m.errors.inc();
            ServiceError::Zql(e)
        })?;
        let fp = fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
        let id = fp.hash;
        if let Some(existing) = self.inner.prepared.load().get(&id) {
            return Ok((Arc::clone(existing), false));
        }
        let stmt = Arc::new(PreparedQuery {
            id,
            zql: zql_src.to_string(),
            fp,
            env: q.env,
            plan: q.plan,
            result_vars: q.result_vars,
            order: q.order,
        });
        let (entry, created) = self.inner.prepared.update(|map| {
            if let Some(existing) = map.get(&id) {
                // Two racing prepares of one query agree on a statement.
                return (map.clone(), (Arc::clone(existing), false));
            }
            let mut next = map.clone();
            next.insert(id, Arc::clone(&stmt));
            (next, (Arc::clone(&stmt), true))
        });
        if created {
            m.prepares.inc();
            m.prepared_statements
                .set(self.inner.prepared.load().len() as i64);
        }
        Ok((entry, created))
    }

    /// Looks up a registered prepared statement by id.
    pub fn prepared(&self, id: u64) -> Option<Arc<PreparedQuery>> {
        self.inner.prepared.load().get(&id).cloned()
    }

    /// Every registered prepared statement, in id order.
    pub fn prepared_statements(&self) -> Vec<Arc<PreparedQuery>> {
        self.inner.prepared.load().values().cloned().collect()
    }

    /// Drops a prepared statement. Cached plans stay resident (they are
    /// keyed by fingerprint, not by registration) but can no longer be
    /// reached by id. Returns whether the id was registered.
    pub fn deallocate(&self, id: u64) -> bool {
        let removed = self.inner.prepared.update(|map| {
            if !map.contains_key(&id) {
                return (map.clone(), false);
            }
            let mut next = map.clone();
            next.remove(&id);
            (next, true)
        });
        if removed {
            self.inner
                .metrics
                .prepared_statements
                .set(self.inner.prepared.load().len() as i64);
        }
        removed
    }

    /// Executes a prepared statement by id: no parse, no simplify, no
    /// fingerprint — straight to the plan-cache probe. Equivalent to
    /// [`QueryService::submit_with`] for the statement's query otherwise
    /// (same admission control, same error surface).
    pub fn submit_prepared_with(
        &self,
        id: u64,
        opts: SubmitOptions,
    ) -> Result<QueryOutput, ServiceError> {
        let m = &self.inner.metrics;
        m.prepared_executes.inc();
        let Some(stmt) = self.prepared(id) else {
            m.errors.inc();
            return Err(ServiceError::UnknownStatement { id });
        };
        self.submit_guarded(QueryInput::Prepared(&stmt), opts, None)
    }

    /// Compiles, plans (via cache), executes. Equivalent to
    /// [`QueryService::submit_with`] with default options.
    pub fn submit(&self, zql_src: &str) -> Result<QueryOutput, ServiceError> {
        self.submit_with(zql_src, SubmitOptions::default())
    }

    /// Compiles, plans (via cache), executes, with options, on the calling
    /// thread. Panics inside the pipeline are caught and surfaced as
    /// [`ServiceError::Panicked`] — a submission can fail, but it cannot
    /// take the service down.
    pub fn submit_with(
        &self,
        zql_src: &str,
        opts: SubmitOptions,
    ) -> Result<QueryOutput, ServiceError> {
        self.submit_guarded(QueryInput::Text(zql_src), opts, None)
    }

    /// [`QueryService::submit_with`] plus a cooperative [`CancelToken`]:
    /// cancel it from any thread and the execution stops at its next
    /// operator batch boundary with [`ServiceError::Cancelled`].
    pub fn submit_cancellable(
        &self,
        zql_src: &str,
        opts: SubmitOptions,
        cancel: &CancelToken,
    ) -> Result<QueryOutput, ServiceError> {
        self.submit_guarded(QueryInput::Text(zql_src), opts, Some(cancel))
    }

    /// The one panic boundary around the submission pipeline. The gate's
    /// permit lives inside it, so a panic drops the permit unsettled and
    /// the breaker counts it.
    fn submit_guarded(
        &self,
        input: QueryInput<'_>,
        opts: SubmitOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutput, ServiceError> {
        catch_unwind(AssertUnwindSafe(|| self.submit_inner(input, opts, cancel))).unwrap_or_else(
            |payload| {
                let m = &self.inner.metrics;
                m.errors.inc();
                m.submission_panics.inc();
                Err(ServiceError::Panicked(panic_message(payload.as_ref())))
            },
        )
    }

    /// Counts and builds a refusal.
    fn shed(&self, reason: ShedReason) -> ServiceError {
        let m = &self.inner.metrics;
        m.errors.inc();
        m.record_shed(reason);
        ServiceError::Overloaded { reason }
    }

    /// What to tell a client this service just refused: the process
    /// breaker's remaining cooldown while it is open, one second
    /// otherwise.
    pub fn retry_after(&self) -> Duration {
        self.inner.gate.retry_after()
    }

    /// Admission around the pipeline: the process [`Gate`] (breaker and
    /// in-flight cap), then the pressure rung beside it (degrade at High,
    /// shed at Critical) — all disabled by default ([`AdmissionConfig`]).
    fn submit_inner(
        &self,
        input: QueryInput<'_>,
        opts: SubmitOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutput, ServiceError> {
        let m = &self.inner.metrics;
        m.submissions.inc();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            m.errors.inc();
            return Err(ServiceError::Cancelled);
        }
        // ONE snapshot load serves this whole submission: admission
        // policy, store, and config all come from the same epoch.
        let state = self.inner.state.load();
        let adm = state.admission;
        let permit = self
            .inner
            .gate
            .admit(&adm)
            .map_err(|shed| self.shed(shed.reason))?;
        // Pressure ladder: degrade before shedding, shed before failing.
        let pressure = adm
            .degrade_under_pressure
            .then(|| state.store.memory_governor().map(MemoryGovernor::pressure))
            .flatten();
        let result = match pressure {
            Some(PressureLevel::Critical) => Err(self.shed(ShedReason::MemoryPressure)),
            level => self.submit_pipeline(
                &state,
                input,
                opts,
                cancel,
                level == Some(PressureLevel::High),
            ),
        };
        permit.settle(result.as_ref().map(|_| ()));
        result
    }

    /// Parse → plan (via cache) → execute. `pressure_degraded` selects
    /// the cheap path: greedy plan, no cache traffic, halved grant.
    /// `state` is the snapshot its caller loaded — the pipeline never
    /// re-reads shared state mid-flight, so the (store, config,
    /// stats_epoch) triple it works from is consistent end to end.
    fn submit_pipeline(
        &self,
        state: &ServiceState,
        input: QueryInput<'_>,
        opts: SubmitOptions,
        cancel: Option<&CancelToken>,
        pressure_degraded: bool,
    ) -> Result<QueryOutput, ServiceError> {
        let m = &self.inner.metrics;
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        let store = Arc::clone(&state.store);
        let config_fp = state.config_fp;
        let mut stages = StageBreakdown::default();
        let mut timer = StageTimer::start();
        // Front end: a textual submission pays parse + simplify +
        // fingerprint here; a prepared execution borrows all three from
        // its registration and goes straight to the cache probe.
        let mut compiled: Option<zql::SimplifiedQuery> = None;
        let text_fp: QueryFingerprint;
        let (env, plan, result_vars, order, fp): (
            &QueryEnv,
            &LogicalPlan,
            VarSet,
            Option<SortSpec>,
            &QueryFingerprint,
        ) = match input {
            QueryInput::Text(zql_src) => {
                let ast = zql::parser::parse(zql_src).map_err(|e| {
                    m.errors.inc();
                    ServiceError::Zql(e)
                })?;
                stages.parse_ns = timer.lap_into(&m.stage_parse);
                let q = zql::simplify(&ast, store.schema(), store.catalog()).map_err(|e| {
                    m.errors.inc();
                    ServiceError::Zql(e)
                })?;
                stages.simplify_ns = timer.lap_into(&m.stage_simplify);
                text_fp = fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
                let q = &*compiled.insert(q);
                (&q.env, &q.plan, q.result_vars, q.order, &text_fp)
            }
            QueryInput::Prepared(stmt) => (
                &stmt.env,
                &stmt.plan,
                stmt.result_vars,
                stmt.order,
                &stmt.fp,
            ),
        };
        let epoch = store.catalog().stats_epoch();
        // Corrective selectivity overrides recorded for this fingerprint
        // under the current epoch, if drift feedback produced any. The
        // overlay fingerprint is part of the cache key, so the corrected
        // and catalog-only worlds can never serve each other's plans.
        let overlay = self.inner.feedback.overlay_for(fp.hash, epoch);
        let overlay_fp = overlay.as_ref().map_or(0, |o| o.fingerprint());
        let key = CacheKey::static_plan(
            fp,
            config_fp,
            epoch,
            store.catalog().index_set_hash(),
            overlay_fp,
        );
        stages.fingerprint_ns = timer.lap_into(&m.stage_fingerprint);

        // A pressure-degraded submission bypasses the cache entirely: its
        // greedy plan is not worth caching, and a hit would be wasted on
        // a query about to run with half a grant anyway.
        let probed = if pressure_degraded {
            None
        } else {
            self.inner.cache.get(&key, &fp.key)
        };
        stages.cache_probe_ns = timer.lap_into(&m.stage_cache_probe);
        let (entry, cache_hit, degraded) = match probed {
            Some(entry) => (entry, true, false),
            None => {
                m.optimizer_runs.inc();
                let mut degraded = false;
                // The greedy rung both degradation ladders (memory
                // pressure, optimizer deadline) step down to.
                let greedy_body = || {
                    let (greedy, cost, diagnostics) =
                        oodb_core::greedy_fallback(env, self.inner.params, plan, result_vars)
                            .ok_or_else(|| {
                                m.errors.inc();
                                ServiceError::NoPlan
                            })?;
                    m.verify_violations.add(diagnostics.len() as u64);
                    m.interval_violations
                        .add(count_interval_diags(&diagnostics));
                    Ok(CachedBody::Static { plan: greedy, cost })
                };
                let body = if pressure_degraded {
                    // Degrade rung of the ladder: skip the Volcano search,
                    // take the estimator-annotated greedy plan.
                    m.pressure_degrades.inc();
                    degraded = true;
                    greedy_body()?
                } else {
                    let mut optimizer =
                        OpenOodb::new(env, self.inner.params, (*state.config).clone());
                    if let Some(ov) = overlay.as_ref() {
                        // Feedback-driven re-optimization: the search runs
                        // under corrected selectivities layered over the
                        // epoch snapshot — the catalog itself is never
                        // mutated.
                        m.reopt.inc();
                        optimizer = optimizer.with_overlay(Arc::clone(ov));
                    }
                    match optimizer.optimize_within(plan, result_vars, order, deadline) {
                        BoundedOutcome::Complete(out) => {
                            m.transform_firings.add(out.stats.transform_firings);
                            m.plans_costed.add(out.stats.plans_costed);
                            m.verify_violations.add(out.diagnostics.len() as u64);
                            m.interval_violations
                                .add(count_interval_diags(&out.diagnostics));
                            CachedBody::Static {
                                plan: out.plan,
                                cost: out.cost,
                            }
                        }
                        BoundedOutcome::DeadlineExpired => {
                            // Degradation ladder: full search → greedy.
                            // The greedy plan is still estimator-annotated
                            // and verifier-linted; it is just not optimal.
                            m.fallback_plans.inc();
                            degraded = true;
                            greedy_body()?
                        }
                        BoundedOutcome::Infeasible => {
                            m.errors.inc();
                            return Err(ServiceError::NoPlan);
                        }
                    }
                };
                // The cache entry owns an environment: a textual
                // submission has no further use for the one it compiled;
                // a prepared statement keeps its own registered.
                let env = match input {
                    QueryInput::Text(_) => compiled.expect("text input was compiled above").env,
                    QueryInput::Prepared(stmt) => stmt.env.clone(),
                };
                let entry = Arc::new(CachedPlan {
                    structural: fp.key.clone(),
                    env,
                    result_vars,
                    body,
                });
                // Re-read the *current* epoch before inserting: if
                // statistics were recollected while we optimized, the
                // cache refuses the now-stale entry instead of pinning it.
                // Degraded plans are never cached — the next submission
                // deserves the full search.
                if !degraded {
                    self.inner
                        .cache
                        .note_epoch(self.store().catalog().stats_epoch());
                    self.inner.cache.insert(key, Arc::clone(&entry));
                }
                (entry, false, degraded)
            }
        };
        stages.optimize_ns = timer.lap_into(&m.stage_optimize);

        let CachedBody::Static { plan, cost } = &entry.body;
        let indexes_used = indexes_used(&entry.env, plan);
        // A degraded plan executes without the deadline: once the search
        // has already timed out, a late best-effort answer beats an error.
        let exec_deadline = if degraded { None } else { deadline };
        // Memory grant: the caller's budget, else a quarter of governor
        // capacity so four queries can always progress concurrently. A
        // pressure-degraded run gets half of either — smaller footprint
        // now beats optimal hash tables later.
        let mut mem_budget = opts.mem_budget.or_else(|| {
            store
                .memory_governor()
                .map(|gov| (gov.capacity() / 4).max(1))
        });
        if pressure_degraded {
            mem_budget = mem_budget.map(|b| (b / 2).max(1));
        }
        // A suspect fingerprint with no recorded overrides yet gets one
        // traced probe execution: only the per-operator trace can
        // attribute root-level drift to individual predicates.
        let probe = !opts.trace && !degraded && self.inner.feedback.wants_probe(fp.hash);
        let want_trace = opts.trace || probe;
        let mut retries_used = 0u32;
        // The root's row consumer: each result row is written once, into
        // the one `String` the output keeps, from values still borrowed
        // from the store. Tuple results project only the query's *result*
        // variables: different plans bind different auxiliary variables (a
        // materialized path object, say), and those must not leak into
        // the observable answer.
        let (scopes, result_vars) = (&entry.env.scopes, entry.result_vars);
        // The result variables' (name, column) in scope order: the root's
        // layout is the same for every row, so it is resolved once.
        let mut named = None;
        let mut render = |rows: &mut Vec<String>, row: RootRow<'_>| {
            // Rows of one query share a shape: each line starts at the
            // length of the one rendered before it instead of doubling up
            // from empty.
            let mut line = String::with_capacity(rows.last().map_or(0, String::len));
            match row {
                RootRow::Cells(cells) => {
                    for (i, v) in cells.iter().enumerate() {
                        line.push_str(if i > 0 { " | " } else { "" });
                        v.write_to(&mut line);
                    }
                }
                RootRow::Bound(cols, oids) => {
                    let named = named.get_or_insert_with(|| {
                        let result = scopes.iter().filter(|(v, _)| result_vars.contains(*v));
                        let col = |v| cols.iter().position(|&c| c == v);
                        let bound = result.filter_map(|(v, var)| Some((&*var.name, col(v)?)));
                        bound.collect::<Vec<_>>()
                    });
                    for &(name, col) in named.iter() {
                        line.push_str(if line.is_empty() { "" } else { "  " });
                        line.push_str(name);
                        line.push('=');
                        oids[col].write_to(&mut line);
                    }
                }
            }
            rows.push(line);
        };
        let (mut rows, trace, stats) = loop {
            // Sized from the root's estimate — capped, an estimate is not a
            // bound — so a large answer does not regrow row by row.
            let mut rows = Vec::with_capacity((plan.est.out_card as usize).min(4096));
            let mut ex = Executor::new(&store, &entry.env);
            ex.set_limits(RunLimits {
                deadline: exec_deadline,
                cancel: cancel.cloned(),
                row_budget: opts.row_budget,
                mem_budget,
            });
            match ex.try_run_rows(plan, want_trace, &mut |row| render(&mut rows, row)) {
                Ok(trace) => break (rows, trace, ex.stats()),
                Err(ExecError::Fault(f))
                    if f.class == FaultClass::Transient
                        && retries_used < opts.retries
                        && exec_deadline.is_none_or(|d| Instant::now() < d) =>
                {
                    retries_used += 1;
                    m.retries.inc();
                    // Exponential backoff from 100 µs, capped at 5 ms and
                    // clipped to the remaining deadline.
                    let mut backoff = Duration::from_micros(50u64 << retries_used.min(7))
                        .min(Duration::from_millis(5));
                    if let Some(d) = exec_deadline {
                        backoff = backoff.min(d.saturating_duration_since(Instant::now()));
                    }
                    thread::sleep(backoff);
                }
                Err(e) => {
                    m.errors.inc();
                    return Err(match e {
                        ExecError::Fault(f) => ServiceError::StorageFault {
                            transient: f.class == FaultClass::Transient,
                            retries: retries_used,
                        },
                        ExecError::Cancelled => ServiceError::Cancelled,
                        ExecError::DeadlineExceeded => {
                            m.timeouts.inc();
                            ServiceError::DeadlineExceeded { stage: "execute" }
                        }
                        ExecError::RowBudgetExceeded { budget } => {
                            ServiceError::RowBudgetExceeded { budget }
                        }
                        // Not retryable: the same budget would exhaust the
                        // same way. The breaker watches this error.
                        ExecError::MemoryExhausted { requested, budget } => {
                            ServiceError::MemoryExhausted { requested, budget }
                        }
                        other => ServiceError::Exec(other.to_string()),
                    });
                }
            }
        };
        stages.execute_ns = timer.lap_into(&m.stage_execute);
        m.record_exec(&stats);
        // Execute-time half of the interval audit: measured row counts
        // against the catalog-derived bounds. An escape here with a clean
        // verify pass means the statistics are stale, not the cost model.
        if let Some(t) = &trace {
            let actual_diags = oodb_core::verify::check_actual_cards(&entry.env, plan, t);
            m.actual_card_violations.add(actual_diags.len() as u64);
        }
        // Close the feedback loop on BOTH paths. The traced branch above
        // only fires under EXPLAIN ANALYZE; production executions feed
        // the drift detector through the root row-count sample the
        // executor returns for free, so stale estimates are caught even
        // with profiling off.
        let mut drift = None;
        if !degraded {
            let fb = &self.inner.feedback;
            let obs = fb.observe_root(
                fp.hash,
                epoch,
                plan.est.out_card,
                stats.root_rows,
                overlay.is_some(),
            );
            if obs != Observation::InBounds {
                drift = Some((plan.est.out_card, stats.root_rows));
                if trace.is_none() {
                    // Untraced counterpart of `check_actual_cards`: the
                    // root estimate drifted past the threshold.
                    m.actual_card_violations.inc();
                }
            }
            if obs == Observation::NewlySuspect {
                // The cached plan was chosen from estimates we now know
                // to be wrong; evict it so the next submission re-plans
                // (and, once probed, re-optimizes under the overlay).
                self.inner.cache.remove(&key);
            }
            if let Some(t) = &trace {
                if fb.observe_trace(fp.hash, epoch, &entry.env, plan, t) > 0 && overlay.is_none() {
                    // Per-predicate overrides are now recorded: retire the
                    // catalog-only plan — the next probe keys on the
                    // overlay fingerprint and re-optimizes.
                    self.inner.cache.remove(&key);
                }
            }
        }
        let sim_io_s = stats.disk.total_s;
        let row_count = rows.len();
        rows.sort_unstable();
        Ok(QueryOutput {
            rows,
            row_count,
            cache_hit,
            compile_ns: stages.parse_ns + stages.simplify_ns,
            optimize_ns: stages.fingerprint_ns + stages.cache_probe_ns + stages.optimize_ns,
            execute_ns: stages.execute_ns,
            est_cost_s: cost.total(),
            sim_io_s,
            indexes_used,
            stages,
            buffer_hits: stats.buffer_hits,
            buffer_misses: stats.buffer_misses,
            // A probe trace is feedback-internal; callers only see traces
            // they asked for.
            trace: if opts.trace { trace } else { None },
            degraded,
            retries: retries_used,
            mem_peak_bytes: stats.mem.peak_bytes,
            spill_pages: stats.mem.spill_pages_written + stats.mem.spill_pages_read,
            stats_epoch: epoch,
            config_fp,
            drift,
        })
    }
}

/// Index names a plan reads, sorted and deduplicated.
fn indexes_used(env: &QueryEnv, plan: &PhysicalPlan) -> Vec<String> {
    let ops = plan.iter_ops().into_iter();
    let mut names: Vec<String> = ops
        .filter_map(|op| match op {
            PhysicalOp::IndexScan { index, .. } => Some(env.catalog.index(*index).name.clone()),
            _ => None,
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

/// Counts the interval-cardinality findings in a verifier report (the
/// `card/interval` check), for the dedicated telemetry counter.
fn count_interval_diags(diags: &[oodb_core::verify::Diagnostic]) -> u64 {
    diags
        .iter()
        .filter(|d| d.check == oodb_core::verify::checks::CARD_INTERVAL)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb_storage::{generate_paper_db, GenConfig};

    fn small_service() -> QueryService {
        let (store, _model) = generate_paper_db(GenConfig {
            scale_div: 100,
            ..Default::default()
        });
        QueryService::new(
            store,
            CostParams::default(),
            OptimizerConfig::all_rules(),
            64,
            4,
        )
    }

    const Q_TIME: &str = "SELECT t FROM Task t IN Tasks WHERE t.time() == 100";

    /// How rows were rendered before the executor's root did it: from a
    /// collected `ExecResult`, cell by cell through `fmt`. Kept as the
    /// oracle the rendering consumer is compared against.
    fn render_rows(
        env: &oodb_algebra::QueryEnv,
        result_vars: oodb_algebra::VarSet,
        result: &oodb_exec::ExecResult,
    ) -> Vec<String> {
        use oodb_exec::ExecResult;
        use std::fmt::Write as _;
        const INFALLIBLE: &str = "writing to a String cannot fail";
        match result {
            ExecResult::Rows(rows) => rows
                .iter()
                .map(|row| {
                    let mut line = String::new();
                    for (i, v) in row.iter().enumerate() {
                        line.push_str(if i > 0 { " | " } else { "" });
                        write!(line, "{v}").expect(INFALLIBLE);
                    }
                    line
                })
                .collect(),
            ExecResult::Tuples(tuples) => tuples
                .iter()
                .map(|t| {
                    let mut line = String::new();
                    for (id, v) in env.scopes.iter() {
                        if let Some(o) = t.try_get(id).filter(|_| result_vars.contains(id)) {
                            line.push_str(if line.is_empty() { "" } else { "  " });
                            write!(line, "{}={o}", v.name).expect(INFALLIBLE);
                        }
                    }
                    line
                })
                .collect(),
        }
    }

    /// Rendered rows are the wire format and the sort key: projected cells
    /// joined by `" | "`, bindings as `name=oid` joined by two spaces —
    /// and they are what `render_rows` made of a collected result, for
    /// Q1–Q4 and Fig. 2, however the submission runs.
    #[test]
    fn rendered_rows_keep_their_format_byte_for_byte() {
        use oodb_object::Value;
        let (_store, model) = generate_paper_db(GenConfig::small());
        let env = oodb_algebra::QueryBuilder::new(model.schema, model.catalog).into_env();
        let projected = oodb_exec::ExecResult::Rows(vec![
            vec![Value::str("a b"), Value::Int(3), Value::Null],
            vec![Value::Bool(true)],
            vec![],
        ]);
        assert_eq!(
            render_rows(&env, oodb_algebra::VarSet::EMPTY, &projected),
            ["\"a b\" | 3 | null", "true", ""]
        );
        let out = small_service()
            .submit("SELECT c FROM City c IN Cities")
            .expect("runs");
        let (name, oid) = out.rows[0].split_once('=').expect("name=oid");
        assert_eq!(name, "c");
        assert!(oid.starts_with('@') && !oid.contains(' '), "{oid}");

        let texts = [
            "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
             FROM Employee e IN Employees WHERE e.dept().plant().location() == \"Dallas\"",
            "SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"",
            "SELECT Newobject(c.mayor().age(), c.name()) \
             FROM City c IN Cities WHERE c.mayor().name() == \"Joe\"",
            "SELECT t FROM Task t IN Tasks WHERE t.time() == 100 \
             && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")",
            "SELECT c FROM City c IN Cities \
             WHERE c.mayor().name() == c.country().president().name()",
            // Every Employee/Department pair: thousands of rows, a hash join.
            Q_JOIN,
        ];
        for scale_div in [10, 100] {
            let gen = GenConfig {
                scale_div,
                ..Default::default()
            };
            let service = || {
                let (params, config) = (CostParams::default(), OptimizerConfig::all_rules());
                QueryService::new(generate_paper_db(gen).0, params, config, 64, 4)
            };
            let svc = service();
            let store = svc.store();
            for text in texts {
                let ast = zql::parser::parse(text).expect("parses");
                let q = zql::simplify(&ast, store.schema(), store.catalog()).expect("compiles");
                let best = OpenOodb::new(&q.env, CostParams::default(), svc.config())
                    .optimize(&q.plan, q.result_vars)
                    .expect("plans");
                let (collected, _) = oodb_exec::execute(&store, &q.env, &best.plan);
                let mut want = render_rows(&q.env, q.result_vars, &collected);
                want.sort();

                let opts = |trace| SubmitOptions {
                    trace,
                    ..Default::default()
                };
                for trace in [false, true] {
                    let out = svc.submit_with(text, opts(trace)).expect("runs");
                    assert_eq!(out.rows, want, "{text} trace={trace}");
                    assert_eq!(out.row_count, want.len());
                }
                let (stmt, _) = svc.prepare(text).expect("prepares");
                let out = svc.submit_prepared_with(stmt.id, opts(false));
                assert_eq!(out.expect("runs").rows, want, "prepared {text}");
                if text == Q_JOIN {
                    continue; // the greedy fallback plans no explicit join
                }
                let hurried = SubmitOptions {
                    deadline: Some(Duration::from_nanos(1)),
                    ..Default::default()
                };
                let out = service().submit_with(text, hurried).expect("runs");
                assert!(out.degraded, "an expired search falls back to greedy");
                assert_eq!(out.rows, want, "degraded {text}");
            }
        }
    }

    /// An explicit equi-join over the two largest extents. Paired with
    /// [`hash_join_service`], whose config disables the pointer- and
    /// merge-join implementations, it is guaranteed to execute as a
    /// hybrid hash join — the memory-hungry operator the governor tests
    /// need.
    const Q_JOIN: &str = "SELECT Newobject(e.name(), d.name()) \
                          FROM Employee e IN Employees, Department d IN Department \
                          WHERE e.dept() == d";

    fn hash_join_service() -> QueryService {
        let (store, _model) = generate_paper_db(GenConfig {
            scale_div: 100,
            ..Default::default()
        });
        QueryService::new(
            store,
            CostParams::default(),
            OptimizerConfig::without(&[
                oodb_core::config::rule_names::POINTER_JOIN,
                oodb_core::config::rule_names::MERGE_JOIN,
            ]),
            64,
            4,
        )
    }

    /// A database whose `Employees` set is half Freds while the catalog
    /// still claims ≈1% — the estimate-drift fixture.
    fn skewed_service() -> QueryService {
        let (store, _model) = generate_paper_db(GenConfig {
            scale_div: 100,
            hot_employee_name_fraction: 0.5,
            ..Default::default()
        });
        QueryService::new(
            store,
            CostParams::default(),
            OptimizerConfig::all_rules(),
            64,
            4,
        )
    }

    const Q_FRED: &str = "SELECT e FROM Employee e IN Employees WHERE e.name() == \"Fred\"";

    /// Regression test for the headline bug: drift detection used to run
    /// only under `EXPLAIN ANALYZE` (`opts.trace`), so production
    /// executions never moved `oodb_actual_card_violations_total` and the
    /// feedback loop was silently disabled on the hot path.
    #[test]
    fn untraced_executions_feed_the_drift_detector() {
        let svc = skewed_service();
        let out = svc.submit(Q_FRED).unwrap();
        assert!(out.trace.is_none(), "no trace was requested");
        let text = svc.metrics_prometheus();
        assert!(
            text.contains("oodb_actual_card_violations_total 1"),
            "untraced drift must move the violation counter: {text}"
        );
        let stats = svc.feedback_stats();
        assert_eq!(stats.suspect, 1, "{stats:?}");
        assert!(stats.worst_drift >= 10.0, "{stats:?}");
    }

    #[test]
    fn drift_ladder_probes_then_reoptimizes_under_an_overlay() {
        let svc = skewed_service();
        // 1: miss → catalog-only plan; root sample trips the threshold,
        //    the cached plan is evicted.
        let first = svc.submit(Q_FRED).unwrap();
        assert!(!first.cache_hit);
        // 2: suspect with no overrides yet → internally-traced probe;
        //    per-operator actuals become selectivity overrides. The probe
        //    trace is not surfaced to the caller.
        let second = svc.submit(Q_FRED).unwrap();
        assert!(second.trace.is_none(), "probe traces are internal");
        assert!(
            svc.feedback_stats().overrides > 0,
            "probe must record overrides"
        );
        // 3: overlay-keyed cache miss → re-optimization under corrected
        //    selectivities.
        let third = svc.submit(Q_FRED).unwrap();
        assert!(!third.cache_hit, "overlay key must force a re-plan");
        assert_eq!(first.rows, third.rows, "plans must agree on the answer");
        let text = svc.metrics_prometheus();
        assert!(text.contains("oodb_reopt_total 1"), "{text}");
        // 4: the corrected plan is cached under the overlay key and the
        //    corrected execution does not re-trip the ladder.
        let fourth = svc.submit(Q_FRED).unwrap();
        assert!(fourth.cache_hit, "corrected plan must be served from cache");
        let text = svc.metrics_prometheus();
        assert!(
            text.contains("oodb_reopt_total 1"),
            "no re-opt loop: {text}"
        );
        assert!(
            text.contains("oodb_feedback_overrides_active"),
            "gauge must export: {text}"
        );
    }

    #[test]
    fn stats_refresh_retires_suspect_markers() {
        let svc = skewed_service();
        svc.submit(Q_FRED).unwrap();
        assert_eq!(svc.feedback_stats().suspect, 1);
        // Refreshing statistics bumps the epoch; feedback gathered under
        // the old distribution (including suspect markers) is retired.
        svc.refresh_statistics(8);
        let stats = svc.feedback_stats();
        assert_eq!(
            (stats.tracked, stats.suspect),
            (0, 0),
            "stale feedback must not survive an epoch bump: {stats:?}"
        );
    }

    /// A statistics refresh publishes a new store snapshot — new catalog,
    /// rebuilt indexes — that shares every field column with the one it
    /// replaced: no object is copied.
    #[test]
    fn a_statistics_refresh_shares_the_columns() {
        let svc = small_service();
        let before = svc.store();
        svc.refresh_statistics(8);
        let after = svc.store();
        assert!(after.catalog().stats_epoch() > before.catalog().stats_epoch());
        let schema = before.schema();
        for (ty, def) in schema.types() {
            for field in schema.fields_of(ty) {
                let old = before.try_column(ty, field).expect("in the layout");
                let new = after.try_column(ty, field).expect("in the layout");
                assert_eq!(old.len(), before.population(ty));
                assert!(std::ptr::eq(old, new), "{} was copied", def.name);
            }
        }
    }

    #[test]
    fn second_submit_hits_the_cache() {
        let svc = small_service();
        let first = svc.submit(Q_TIME).unwrap();
        assert!(!first.cache_hit);
        let second = svc.submit(Q_TIME).unwrap();
        assert!(second.cache_hit, "identical re-parse must hit");
        assert_eq!(first.rows, second.rows);
        let stats = svc.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn textual_variants_share_an_entry() {
        let svc = small_service();
        let a = svc
            .submit("SELECT t FROM Task t IN Tasks WHERE t.time() == 100")
            .unwrap();
        let b = svc
            .submit("SELECT zz FROM Task zz IN Tasks WHERE 100 == zz.time()")
            .unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit, "renamed variable + flipped Eq must collide");
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn parse_errors_surface() {
        let svc = small_service();
        assert!(matches!(
            svc.submit("SELECT FROM WHERE"),
            Err(ServiceError::Zql(_))
        ));
    }

    #[test]
    fn stage_breakdown_and_counters_populate() {
        let svc = small_service();
        svc.set_profiling(true);
        let out = svc.submit(Q_TIME).unwrap();
        assert_eq!(out.compile_ns, out.stages.parse_ns + out.stages.simplify_ns);
        assert_eq!(
            out.optimize_ns,
            out.stages.fingerprint_ns + out.stages.cache_probe_ns + out.stages.optimize_ns
        );
        assert_eq!(out.execute_ns, out.stages.execute_ns);
        let text = svc.metrics_prometheus();
        assert!(text.contains("oodb_submissions_total 1"));
        assert!(text.contains("oodb_optimizer_runs_total 1"));
        assert!(text.contains("oodb_plancache_misses_total 1"));
        assert!(text.contains(r#"oodb_stage_latency_ns_count{stage="parse"} 1"#));
    }

    #[test]
    fn traced_submit_reconciles_with_row_count() {
        let svc = small_service();
        let opts = SubmitOptions {
            trace: true,
            ..Default::default()
        };
        let out = svc.submit_with(Q_TIME, opts).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.actual_rows, out.row_count as u64);
        assert!(svc.submit(Q_TIME).unwrap().trace.is_none());
    }

    #[test]
    fn errors_are_counted() {
        let svc = small_service();
        let _ = svc.submit("SELECT FROM WHERE");
        let text = svc.metrics_prometheus();
        assert!(text.contains("oodb_submission_errors_total 1"));
    }

    #[test]
    fn prepared_statements_share_ids_and_hit_the_cache() {
        let svc = small_service();
        let (stmt, created) = svc.prepare(Q_TIME).unwrap();
        assert!(created);
        // A textual variant (renamed var, flipped Eq) collides on the
        // canonical fingerprint: same statement, not a new registration.
        let (variant, created2) = svc
            .prepare("SELECT zz FROM Task zz IN Tasks WHERE 100 == zz.time()")
            .unwrap();
        assert!(!created2);
        assert_eq!(stmt.id, variant.id);
        // First execute fills the plan cache; the second hits by id.
        let a = svc
            .submit_prepared_with(stmt.id, SubmitOptions::default())
            .unwrap();
        assert!(!a.cache_hit);
        let b = svc
            .submit_prepared_with(stmt.id, SubmitOptions::default())
            .unwrap();
        assert!(b.cache_hit, "prepared execute must hit by id");
        assert_eq!(a.rows, b.rows);
        // Ad-hoc text of the same query shares the cached plan too.
        assert!(svc.submit(Q_TIME).unwrap().cache_hit);
        assert_eq!(
            (a.stages.parse_ns, a.stages.simplify_ns),
            (0, 0),
            "prepared executions never parse"
        );
        let text = svc.metrics_prometheus();
        assert!(text.contains("oodb_prepares_total 1"), "{text}");
        assert!(text.contains("oodb_prepared_statements 1"), "{text}");
        assert!(text.contains("oodb_prepared_executes_total 2"), "{text}");
    }

    #[test]
    fn unknown_statement_is_typed_and_deallocate_unregisters() {
        let svc = small_service();
        assert_eq!(
            svc.submit_prepared_with(42, SubmitOptions::default()),
            Err(ServiceError::UnknownStatement { id: 42 })
        );
        let (stmt, _) = svc.prepare(Q_TIME).unwrap();
        assert!(svc.prepared(stmt.id).is_some());
        assert!(svc.deallocate(stmt.id));
        assert!(!svc.deallocate(stmt.id), "second deallocate is a no-op");
        assert_eq!(
            svc.submit_prepared_with(stmt.id, SubmitOptions::default()),
            Err(ServiceError::UnknownStatement { id: stmt.id })
        );
    }

    #[test]
    fn prepared_execution_survives_stats_epoch_bumps() {
        let svc = small_service();
        let (stmt, _) = svc.prepare(Q_TIME).unwrap();
        let before = svc
            .submit_prepared_with(stmt.id, SubmitOptions::default())
            .unwrap();
        // A statistics refresh bumps the epoch: the next execute misses
        // the cache (stale key) but still answers, re-optimizing from the
        // registered compiled query.
        svc.refresh_statistics(8);
        let after = svc
            .submit_prepared_with(stmt.id, SubmitOptions::default())
            .unwrap();
        assert!(!after.cache_hit, "epoch bump must invalidate by key");
        assert_eq!(before.rows, after.rows);
        assert!(after.stats_epoch > before.stats_epoch);
    }

    #[test]
    fn panicking_mutator_does_not_wedge_snapshot_state() {
        let svc = small_service();
        // Panic *inside* a snapshot update closure: the writer mutex is
        // abandoned mid-section, which is exactly the poisoning shape
        // the old RwLock design had to recover from.
        let s = svc.clone();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            s.inner.state.update(|_| -> (ServiceState, ()) {
                panic!("poison the snapshot writer lock");
            });
        }));
        // The service keeps working: the published snapshot is still the
        // intact pre-panic value, and both readers and writers recover.
        assert!(svc.submit(Q_TIME).is_ok());
        svc.set_config(OptimizerConfig::all_rules());
        svc.refresh_statistics(8);
        assert!(svc.submit(Q_TIME).is_ok());
    }

    #[test]
    fn combined_swap_is_observed_atomically() {
        let svc = small_service();
        let before = svc.snapshot_identity();
        // A combined statistics+config swap either happened entirely or
        // not at all from any reader's point of view.
        svc.refresh_statistics_with_config(
            8,
            OptimizerConfig::without(&[oodb_core::config::rule_names::MERGE_JOIN]),
        );
        let after = svc.snapshot_identity();
        assert_ne!(before, after);
        let out = svc.submit(Q_TIME).unwrap();
        assert_eq!((out.stats_epoch, out.config_fp), after);
    }

    #[test]
    fn injected_panic_is_caught_and_service_stays_healthy() {
        let svc = small_service();
        svc.attach_fault_injector(FaultInjector::new(oodb_fault::FaultConfig {
            panic_rate: 1.0,
            ..Default::default()
        }));
        svc.set_admission(AdmissionConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            ..Default::default()
        });
        let err = svc.submit(Q_TIME).unwrap_err();
        assert!(matches!(err, ServiceError::Panicked(_)), "{err:?}");
        // The panic unwound through the gate's permit: the process
        // breaker counts it like any other resource failure.
        assert_eq!(
            svc.submit(Q_TIME).unwrap_err(),
            ServiceError::Overloaded {
                reason: ShedReason::CircuitOpen
            }
        );
        assert!(svc.retry_after() > Duration::from_secs(1));
        let text = svc.metrics_prometheus();
        assert!(text.contains("oodb_submission_panics_total 1"), "{text}");
        assert!(text.contains("oodb_breaker_trips_total 1"), "{text}");
        assert!(text.contains("oodb_inflight 0"), "{text}");
        // Detach and the same service (same locks, same cache) recovers.
        svc.detach_fault_injector();
        svc.set_admission(AdmissionConfig::default());
        assert!(svc.submit(Q_TIME).is_ok());
    }

    #[test]
    fn cancelled_submission_returns_typed_error() {
        let svc = small_service();
        let cancel = CancelToken::new();
        cancel.cancel();
        assert_eq!(
            svc.submit_cancellable(Q_TIME, SubmitOptions::default(), &cancel),
            Err(ServiceError::Cancelled)
        );
        // A fresh token does not interfere.
        let fresh = CancelToken::new();
        assert!(svc
            .submit_cancellable(Q_TIME, SubmitOptions::default(), &fresh)
            .is_ok());
    }

    #[test]
    fn row_budget_zero_is_rejected_with_budget_in_error() {
        let svc = small_service();
        let opts = SubmitOptions {
            row_budget: Some(0),
            ..Default::default()
        };
        assert_eq!(
            svc.submit_with(Q_TIME, opts),
            Err(ServiceError::RowBudgetExceeded { budget: 0 })
        );
    }

    #[test]
    fn tight_memory_budget_spills_and_still_answers() {
        let svc = hash_join_service();
        svc.attach_memory_governor(MemoryGovernor::new(64 << 20));
        let free = svc
            .submit_with(
                Q_JOIN,
                SubmitOptions {
                    mem_budget: Some(64 << 20),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(free.spill_pages, 0, "a wide grant must not spill");
        assert!(free.mem_peak_bytes > 0, "a hash join must reserve memory");
        let tight = svc
            .submit_with(
                Q_JOIN,
                SubmitOptions {
                    mem_budget: Some(512),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(tight.rows, free.rows, "spilling must not change answers");
        assert!(tight.spill_pages > 0, "512 bytes must force a spill");
        assert!(tight.mem_peak_bytes <= 512, "{}", tight.mem_peak_bytes);
        let gov = svc.memory_governor().unwrap();
        assert_eq!(gov.stats().reserved, 0, "grants must drain at quiesce");
        let text = svc.metrics_prometheus();
        assert!(
            text.contains("oodb_exec_spill_pages_written_total"),
            "{text}"
        );
        assert!(text.contains("oodb_mem_capacity_bytes"), "{text}");
    }

    #[test]
    fn memory_exhausted_is_typed_and_not_retried() {
        let svc = hash_join_service();
        let err = svc
            .submit_with(
                Q_JOIN,
                SubmitOptions {
                    mem_budget: Some(0),
                    retries: 8,
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::MemoryExhausted { budget: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn pressure_ladder_degrades_then_sheds() {
        let svc = small_service();
        let gov = MemoryGovernor::new(1000);
        svc.attach_memory_governor(gov.clone());
        svc.set_admission(AdmissionConfig {
            degrade_under_pressure: true,
            ..Default::default()
        });
        // Nominal pressure: full search, not degraded.
        let calm = svc.submit(Q_TIME).unwrap();
        assert!(!calm.degraded);
        // An outside tenant pushes reservation over 90%: critical → shed.
        let hog = gov.grant(None);
        assert!(hog.try_reserve(950));
        assert_eq!(
            svc.submit(Q_TIME).unwrap_err(),
            ServiceError::Overloaded {
                reason: ShedReason::MemoryPressure
            }
        );
        // Down to high (75–90%): degrade — greedy plan, answer still right.
        hog.release(150);
        let degraded = svc.submit(Q_TIME).unwrap();
        assert!(degraded.degraded, "High pressure must degrade");
        assert_eq!(degraded.rows, calm.rows);
        assert!(!degraded.cache_hit, "degraded runs bypass the cache");
        // Released: back to the full search.
        drop(hog);
        assert!(!svc.submit(Q_TIME).unwrap().degraded);
        let text = svc.metrics_prometheus();
        assert!(
            text.contains(r#"oodb_shed_total{reason="memory_pressure"} 1"#),
            "{text}"
        );
        assert!(text.contains("oodb_pressure_degrades_total 1"), "{text}");
    }

    #[test]
    fn plancache_bytes_gauge_exports() {
        let svc = small_service();
        svc.submit(Q_TIME).unwrap();
        let text = svc.metrics_prometheus();
        let line = text
            .lines()
            .find(|l| l.starts_with("oodb_plancache_bytes "))
            .expect("gauge exported");
        let v: i64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(v > 0, "resident bytes must be positive after an insert");
    }

    #[test]
    fn transient_faults_retry_to_success_and_are_counted() {
        let svc = small_service();
        svc.attach_fault_injector(FaultInjector::new(oodb_fault::FaultConfig {
            read_fault_rate: 0.05,
            permanent_ratio: 0.0,
            ..Default::default()
        }));
        let opts = SubmitOptions {
            retries: 64,
            ..Default::default()
        };
        let out = svc.submit_with(Q_TIME, opts).expect("retries must win");
        assert!(!out.degraded);
        let inj = svc.fault_injector().unwrap();
        assert_eq!(inj.stats().permanent, 0);
        // Every injected transient fault cost exactly one retry.
        assert_eq!(out.retries as u64, inj.stats().transient);
        let text = svc.metrics_prometheus();
        assert!(
            text.contains(&format!("oodb_retries_total {}", out.retries)),
            "{text}"
        );
    }

    #[test]
    fn durable_mutations_recover_to_identical_query_results() {
        let dir = oodb_wal::ScratchDir::new("svc-durable").unwrap();
        let svc = small_service();
        svc.enable_durability(dir.path(), FlushPolicy::EveryRecord)
            .unwrap();
        // A logged mutation: bumps the epoch and refines the catalog.
        svc.refresh_statistics(24);
        let live = svc.submit(Q_TIME).expect("live query");
        let stats = svc.durability_stats().expect("durability on");
        assert_eq!(stats.records, 1);
        assert!(!stats.poisoned);
        let text = svc.metrics_prometheus();
        assert!(text.contains("oodb_wal_records_total 1"), "{text}");

        let (back, report) = QueryService::recover(
            dir.path(),
            CostParams::default(),
            OptimizerConfig::all_rules(),
            64,
            4,
            FlushPolicy::EveryRecord,
        )
        .expect("recovery");
        assert_eq!(report.replayed_records, 1);
        assert!(report.stopped.is_none());
        assert_eq!(
            oodb_wal::store_digest(&svc.store()),
            oodb_wal::store_digest(&back.store()),
            "recovered store must match the live one bit for bit"
        );
        let replayed = back.submit(Q_TIME).expect("recovered query");
        assert_eq!(live.rows, replayed.rows);
        assert_eq!(live.stats_epoch, replayed.stats_epoch);
        // The recovered service resumed logging: its session starts at
        // the recovered sequence with an empty, freshly compacted log.
        assert!(back.durability_enabled());
        let rtext = back.metrics_prometheus();
        assert!(rtext.contains("oodb_recovery_replayed_total 1"), "{rtext}");
    }
}
