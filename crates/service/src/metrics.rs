//! The service's metric handles, and the one place a failed submission
//! is counted.

use crate::{QueryService, ServiceError, ShedReason};
use oodb_exec::ExecStats;
use oodb_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Handles to every metric the service records, registered once at
/// construction so the per-submission path never takes the registry lock.
pub(crate) struct ServiceMetrics {
    pub(crate) stage_parse: Histogram,
    pub(crate) stage_simplify: Histogram,
    pub(crate) stage_fingerprint: Histogram,
    pub(crate) stage_cache_probe: Histogram,
    pub(crate) stage_optimize: Histogram,
    pub(crate) stage_execute: Histogram,
    pub(crate) submissions: Counter,
    pub(crate) errors: Counter,
    /// Prepared-statement registrations (`prepare` calls that created a
    /// new entry; re-preparing an existing statement is not counted).
    pub(crate) prepares: Counter,
    /// Executions submitted by prepared-statement id.
    pub(crate) prepared_executes: Counter,
    /// Currently registered prepared statements (refreshed at export
    /// time, like the cache mirrors).
    pub(crate) prepared_statements: Gauge,
    /// Text submissions served by the compiled-query memo and the plan
    /// cache without a compile.
    pub(crate) soft_parses: Counter,
    pub(crate) optimizer_runs: Counter,
    /// `oodb_optimizer_transform_firings_total`: dispatched firings (a
    /// rule is fired only on roots it consumes), summed over searches
    /// from `SearchStats::transform_firings` of `volcano`.
    pub(crate) transform_firings: Counter,
    pub(crate) plans_costed: Counter,
    pub(crate) exec_buffer_hits: Counter,
    pub(crate) exec_buffer_misses: Counter,
    pub(crate) exec_pages_read: Counter,
    pub(crate) exec_tuples: Counter,
    pub(crate) exec_sim_io_us: Counter,
    /// Static-verifier findings on winning plans (0 on a sound optimizer).
    pub(crate) verify_violations: Counter,
    /// Subset of `verify_violations`: cost-model estimates that escaped
    /// their sound `[lo, hi]` cardinality intervals (a cost-model bug).
    pub(crate) interval_violations: Counter,
    /// Executions whose measured row counts escaped their estimates — the
    /// stale-statistics detector. Traced runs check every operator against
    /// its catalog-derived interval; untraced runs check the root row
    /// count against the drift threshold, so the counter is live in
    /// production mode too.
    pub(crate) actual_card_violations: Counter,
    /// Feedback-driven re-optimizations: cache misses whose search ran
    /// under corrective selectivity overrides after drift marked the
    /// fingerprint suspect.
    pub(crate) reopt: Counter,
    /// Selectivity overrides currently active across all feedback entries
    /// (refreshed at export time, like the cache mirrors).
    pub(crate) feedback_overrides: Gauge,
    /// Submissions that ran out of deadline during execution.
    pub(crate) timeouts: Counter,
    /// Transient-storage-fault retries across all submissions.
    pub(crate) retries: Counter,
    /// Optimizer-deadline expiries served by the greedy fallback plan.
    pub(crate) fallback_plans: Counter,
    /// Submissions that panicked and were converted to typed errors.
    pub(crate) submission_panics: Counter,
    /// Submissions refused at admission, by reason.
    pub(crate) shed_queue_full: Counter,
    pub(crate) shed_circuit_open: Counter,
    pub(crate) shed_memory_pressure: Counter,
    /// Submissions served degraded because of memory pressure (greedy
    /// plan, halved grant).
    pub(crate) pressure_degrades: Counter,
    /// Spill pages executions wrote / read back (cumulative).
    pub(crate) exec_spill_written: Counter,
    pub(crate) exec_spill_read: Counter,
    /// Memory-grant reservations refused across executions.
    pub(crate) grant_denials: Counter,
    /// Mirrors of the memory governor's ledger, refreshed at export time.
    pub(crate) mem_reserved_bytes: Gauge,
    pub(crate) mem_capacity_bytes: Gauge,
    /// Mirror of the fault injector's total injected faults (refreshed at
    /// export time, like the cache mirrors).
    pub(crate) injected_faults: Counter,
    // Mirrors of the plan cache's own counters, refreshed at export time.
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_evictions: Counter,
    pub(crate) cache_stale_rejects: Counter,
    pub(crate) cache_verify_rejects: Counter,
    pub(crate) cache_entries: Gauge,
    pub(crate) cache_bytes: Gauge,
    // Durability mirrors (refreshed at export time from the WAL session)
    // and recovery counters (bumped once by [`QueryService::recover`]).
    pub(crate) wal_records: Counter,
    pub(crate) wal_bytes: Counter,
    pub(crate) recovery_replayed: Counter,
    pub(crate) wal_torn_tails: Counter,
}

impl ServiceMetrics {
    pub(crate) fn register(reg: &MetricsRegistry) -> Self {
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
            soft_parses: reg.counter("oodb_soft_parses_total", &[]),
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

    pub(crate) fn record_exec(&self, stats: &ExecStats) {
        self.exec_buffer_hits.add(stats.buffer_hits);
        self.exec_buffer_misses.add(stats.buffer_misses);
        self.exec_pages_read.add(stats.disk.pages());
        self.exec_tuples.add(stats.counts.tuples);
        self.exec_sim_io_us.add((stats.disk.total_s * 1e6) as u64);
        self.exec_spill_written.add(stats.mem.spill_pages_written);
        self.exec_spill_read.add(stats.mem.spill_pages_read);
        self.grant_denials.add(stats.mem.grant_denials);
    }

    /// Counts one failed request: `errors`, plus the series the variant
    /// owns. [`QueryService`]'s one exit calls this once per `Err`; inner
    /// code returns with `?` and counts nothing.
    pub(crate) fn count_error(&self, e: &ServiceError) {
        self.errors.inc();
        match e {
            ServiceError::DeadlineExceeded { .. } => self.timeouts.inc(),
            ServiceError::Panicked(_) => self.submission_panics.inc(),
            ServiceError::Overloaded { reason } => match reason {
                ShedReason::QueueFull => self.shed_queue_full.inc(),
                ShedReason::CircuitOpen => self.shed_circuit_open.inc(),
                ShedReason::MemoryPressure => self.shed_memory_pressure.inc(),
            },
            _ => {}
        }
    }
}

impl QueryService {
    /// Refreshes the plan-cache mirror metrics from the cache's own
    /// counters. Called automatically by the render method.
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
        m.prepared_statements.set(self.inner.prepared.len() as i64);
        m.feedback_overrides
            .set(self.inner.feedback.stats().overrides.min(i64::MAX as u64) as i64);
        let state = self.inner.state.load();
        if let Some(inj) = &state.injector {
            m.injected_faults.store(inj.stats().injected);
        }
        if let Some(gov) = &state.governor {
            let gs = gov.stats();
            m.mem_reserved_bytes
                .set(gs.reserved.min(i64::MAX as u64) as i64);
            m.mem_capacity_bytes
                .set(gs.capacity.min(i64::MAX as u64) as i64);
        }
        if let Some(session) = self.durability_lock().as_ref() {
            let stats = session.stats();
            m.wal_records.store(stats.records);
            m.wal_bytes.store(stats.bytes);
        }
    }

    /// Every metric in the Prometheus text exposition format (`\metrics`).
    pub fn metrics_prometheus(&self) -> String {
        self.sync_cache_metrics();
        self.inner.telemetry.render_prometheus()
    }
}
