//! A submission's path: one exit ([`QueryService::submit_guarded`]),
//! admission, then compile → plan → run → close feedback. A text seen
//! before under the same catalog skips the compile unless the plan cache
//! misses.

use crate::answer::{row_renderer, Answer};
use crate::error::panic_message;
use crate::{
    Compiled, QueryOutput, QueryService, ServiceError, ServiceState, ShedReason, StageBreakdown,
    SubmitOptions,
};
use oodb_algebra::fingerprint::fingerprint;
use oodb_algebra::fingerprint::QueryFingerprint;
use oodb_algebra::{PhysicalOp, PhysicalPlan, QueryEnv, StatsOverlay};
use oodb_core::plancache::{CacheKey, CachedBody, CachedPlan};
use oodb_core::verify::{checks, walk_actual, Diagnostic};
use oodb_core::{BoundedOutcome, CostParams, Observation, OpenOodb, OptimizerConfig};
use oodb_exec::{ExecError, ExecStats, Executor, MemoryGovernor, PressureLevel};
use oodb_fault::{CancelToken, FaultClass, RunLimits};
use oodb_telemetry::{OpTrace, StageTimer};
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use zql::SimplifiedQuery;

/// What one admitted submission carries from stage to stage. `state` is
/// the ONE snapshot load that serves the whole submission: admission
/// policy, store and config all come from the same epoch, and no stage
/// re-reads shared state mid-flight.
pub(crate) struct Request<'a> {
    pub(crate) state: Arc<ServiceState>,
    opts: SubmitOptions,
    cancel: Option<&'a CancelToken>,
    deadline: Option<Instant>,
    /// Memory pressure is High: no cache probe, the greedy plan where
    /// there is one, halved grant.
    pressure_degraded: bool,
    pub(crate) timer: StageTimer,
    pub(crate) stages: StageBreakdown,
}

/// The plan stage's result: the entry to run and how it was come by.
struct Planned {
    fp_hash: u64,
    key: CacheKey,
    entry: Arc<CachedPlan>,
    cache_hit: bool,
    /// The entry is the greedy fallback (deadline or memory pressure).
    degraded: bool,
    /// The search ran (or the hit was keyed) under feedback overrides.
    overlaid: bool,
}

/// What a cache miss searches: the environment and the query compiled in
/// it.
pub(crate) type Front<'e> = (Cow<'e, QueryEnv>, Cow<'e, Compiled>);

/// The run stage's result.
struct Ran {
    answer: Answer,
    trace: Option<OpTrace>,
    stats: ExecStats,
    retries: u32,
}

impl QueryService {
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
        self.submit_text(zql_src, opts, None)
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
        self.submit_text(zql_src, opts, Some(cancel))
    }

    /// A textual submission: the exact text memoized under the request's
    /// catalog goes straight to the plan-cache probe and compiles only on
    /// a miss; any other compiles first. Every compile refreshes the memo,
    /// and a cache miss moves the environment it made into the entry.
    fn submit_text(
        &self,
        zql_src: &str,
        opts: SubmitOptions,
        cancel: Option<&CancelToken>,
    ) -> Result<QueryOutput, ServiceError> {
        self.submit_guarded(|| {
            self.admitted(opts, cancel, |mut req| {
                let (memo, stamp) = (&self.inner.memo, req.state.stamp());
                let compile = |req: &mut Request<'_>| {
                    let (env, query) =
                        self.compile(zql_src, &req.state.store, &mut req.timer, &mut req.stages)?;
                    memo.insert(zql_src, &query.fp, stamp);
                    Ok((env, query))
                };
                let Some(fp) = memo.get(zql_src, stamp) else {
                    let (env, query) = compile(&mut req)?;
                    return self.submit_pipeline(req, &query.fp, |_| {
                        Ok((Cow::Owned(env), Cow::Borrowed(&query)))
                    });
                };
                let mut compiled = false;
                let out = self.submit_pipeline(req, &fp, |req| {
                    compiled = true;
                    let (env, query) = compile(req)?;
                    Ok((Cow::Owned(env), Cow::Owned(query)))
                });
                if !compiled {
                    self.inner.metrics.soft_parses.inc();
                }
                out
            })
        })
    }

    /// The one exit of every submission: the panic boundary — the gate's
    /// permit lives inside it, so a panic drops the permit unsettled and
    /// the breaker counts it — and the accounting boundary, where an
    /// `Err` is counted once, whatever stage returned it.
    pub(crate) fn submit_guarded(
        &self,
        submission: impl FnOnce() -> Result<QueryOutput, ServiceError>,
    ) -> Result<QueryOutput, ServiceError> {
        let result = catch_unwind(AssertUnwindSafe(submission))
            .unwrap_or_else(|payload| Err(ServiceError::Panicked(panic_message(payload.as_ref()))));
        if let Err(e) = &result {
            self.inner.metrics.count_error(e);
        }
        result
    }

    /// Admission around the pipeline: the process [`crate::Gate`]
    /// (breaker and in-flight cap), then the pressure rung beside it
    /// (degrade at High, shed at Critical) — all disabled by default
    /// ([`crate::AdmissionConfig`]).
    pub(crate) fn admitted<'a>(
        &self,
        opts: SubmitOptions,
        cancel: Option<&'a CancelToken>,
        pipeline: impl FnOnce(Request<'a>) -> Result<QueryOutput, ServiceError>,
    ) -> Result<QueryOutput, ServiceError> {
        self.inner.metrics.submissions.inc();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(ServiceError::Cancelled);
        }
        let state = self.inner.state.load();
        let adm = state.admission;
        let shed = |reason| ServiceError::Overloaded { reason };
        let permit = self.inner.gate.admit(&adm).map_err(|s| shed(s.reason))?;
        // Pressure ladder: degrade before shedding, shed before failing.
        let pressure = adm
            .degrade_under_pressure
            .then(|| state.governor.as_ref().map(MemoryGovernor::pressure))
            .flatten();
        let result = match pressure {
            Some(PressureLevel::Critical) => Err(shed(ShedReason::MemoryPressure)),
            level => pipeline(Request {
                state,
                opts,
                cancel,
                deadline: opts.deadline.map(|d| Instant::now() + d),
                pressure_degraded: level == Some(PressureLevel::High),
                timer: StageTimer::start(),
                stages: StageBreakdown::default(),
            }),
        };
        permit.settle(result.as_ref().map(|_| ()));
        result
    }

    /// Plan → run → close feedback, for a query whose fingerprint is
    /// `fp`. `compile` is called on a cache miss only, for the environment
    /// and query to search: owned when it compiled them, borrowed from the
    /// registry when a prepared statement's still apply. The entry takes
    /// the environment either way.
    pub(crate) fn submit_pipeline<'e>(
        &self,
        mut req: Request<'_>,
        fp: &QueryFingerprint,
        compile: impl FnOnce(&mut Request<'_>) -> Result<Front<'e>, ServiceError>,
    ) -> Result<QueryOutput, ServiceError> {
        let planned = self.plan(&mut req, fp, compile)?;
        let CachedBody::Static { plan, cost } = &planned.entry.body;
        let ran = self.run(&mut req, &planned, plan)?;
        let drift = self.close_feedback(&req, &planned, plan, &ran);
        let stats = &ran.stats;
        Ok(QueryOutput {
            row_count: ran.answer.len(),
            rows: ran.answer.into_sorted_rows(),
            cache_hit: planned.cache_hit,
            est_cost_s: cost.total(),
            sim_io_s: stats.disk.total_s,
            indexes_used: indexes_used(&planned.entry.env, plan),
            stages: req.stages,
            buffer_hits: stats.buffer_hits,
            buffer_misses: stats.buffer_misses,
            // A probe trace is feedback-internal; callers only see traces
            // they asked for.
            trace: if req.opts.trace { ran.trace } else { None },
            degraded: planned.degraded,
            retries: ran.retries,
            mem_peak_bytes: stats.mem.peak_bytes,
            spill_pages: stats.mem.spill_pages_written + stats.mem.spill_pages_read,
            stats_epoch: req.state.epoch(),
            config_fp: req.state.config_fp,
            drift,
        })
    }

    /// Plan stage: build the cache key, probe, and on a miss compile,
    /// search (or step down the greedy ladder) and insert.
    fn plan<'e>(
        &self,
        req: &mut Request<'_>,
        fp: &QueryFingerprint,
        compile: impl FnOnce(&mut Request<'_>) -> Result<Front<'e>, ServiceError>,
    ) -> Result<Planned, ServiceError> {
        let m = &self.inner.metrics;
        let epoch = req.state.epoch();
        // Corrective selectivity overrides recorded for this fingerprint
        // under the current epoch, if drift feedback produced any. The
        // overlay fingerprint is part of the cache key, so the corrected
        // and catalog-only worlds can never serve each other's plans.
        let overlay = self.inner.feedback.overlay_for(fp.hash, epoch);
        let overlay_fp = overlay.as_ref().map_or(0, |o| o.fingerprint());
        let key = CacheKey::static_plan(
            fp,
            req.state.config_fp,
            epoch,
            req.state.index_set,
            overlay_fp,
        );
        req.stages.fingerprint_ns = req.timer.lap_into(&m.stage_fingerprint);

        // A pressure-degraded submission skips the probe: its greedy plan
        // is not worth caching, and a hit would be wasted on a query about
        // to run with half a grant anyway.
        let probed = if req.pressure_degraded {
            None
        } else {
            self.inner.cache.get(&key, &fp.key)
        };
        req.stages.cache_probe_ns = req.timer.lap_into(&m.stage_cache_probe);
        let overlaid = overlay.is_some();
        let (entry, cache_hit, degraded) = match probed {
            Some(entry) => (entry, true, false),
            None => {
                let (env, query) = compile(req)?;
                let (body, degraded) = self.search(req, &env, &query, overlay)?;
                let entry = Arc::new(CachedPlan {
                    structural: fp.key.clone(),
                    env: env.into_owned(),
                    result_vars: query.result_vars,
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
        req.stages.optimize_ns = req.timer.lap_into(&m.stage_optimize);
        Ok(Planned {
            fp_hash: fp.hash,
            key,
            entry,
            cache_hit,
            degraded,
            overlaid,
        })
    }

    /// A cache miss: the Volcano search under the request's deadline, or
    /// the greedy rung both degradation ladders (memory pressure,
    /// optimizer deadline) step down to. Where greedy has no plan, memory
    /// pressure searches in full and an expired deadline is an error.
    /// Returns the plan and whether it is the degraded one.
    fn search(
        &self,
        req: &Request<'_>,
        env: &QueryEnv,
        query: &Compiled,
        overlay: Option<Arc<StatsOverlay>>,
    ) -> Result<(CachedBody, bool), ServiceError> {
        let m = &self.inner.metrics;
        m.optimizer_runs.inc();
        let (plan, result_vars) = (&query.plan, query.result_vars);
        // Feedback-driven re-optimization: the search runs under corrected
        // selectivities layered over the epoch snapshot — the catalog
        // itself is never mutated.
        let reopt = overlay.is_some();
        let optimizer = miss_optimizer(env, self.inner.params, &req.state.config, overlay);
        // The greedy plan is priced by the search's model and verifier-
        // linted; it is just not optimal, and there is none for a join.
        let greedy = || {
            let (plan, cost, diagnostics) =
                oodb_core::greedy_fallback(optimizer.model(), plan, result_vars)?;
            self.count_findings(&diagnostics);
            Some((CachedBody::Static { plan, cost }, true))
        };
        if req.pressure_degraded {
            m.pressure_degrades.inc();
            if let Some(found) = greedy() {
                return Ok(found);
            }
            // No greedy plan for this shape: the full search, still
            // under the halved memory grant `run` gives this request.
        }
        m.reopt.add(u64::from(reopt));
        match optimizer.optimize_within(plan, result_vars, query.order, req.deadline) {
            BoundedOutcome::Complete(out) => {
                m.transform_firings.add(out.stats.transform_firings);
                m.plans_costed.add(out.stats.plans_costed);
                self.count_findings(&out.diagnostics);
                let (plan, cost) = (out.plan, out.cost);
                Ok((CachedBody::Static { plan, cost }, false))
            }
            BoundedOutcome::DeadlineExpired => {
                let found = greedy().ok_or(ServiceError::DeadlineExceeded { stage: "optimize" })?;
                m.fallback_plans.inc();
                Ok(found)
            }
            BoundedOutcome::Infeasible => Err(ServiceError::NoPlan),
        }
    }

    /// Counts verifier findings: each in `oodb_verify_violations_total`,
    /// the cardinality-interval ones in `oodb_interval_violations_total`
    /// as well. A cache miss, its greedy rung and `EXPLAIN VERIFY` all
    /// count through here.
    pub fn count_findings(&self, diagnostics: &[Diagnostic]) {
        let m = &self.inner.metrics;
        m.verify_violations.add(diagnostics.len() as u64);
        let interval = diagnostics
            .iter()
            .filter(|d| d.check == checks::CARD_INTERVAL);
        m.interval_violations.add(interval.count() as u64);
    }

    /// Compiles `zql_src` against the current snapshot and runs `search`
    /// on it with the optimizer a cache miss would build, verifying every
    /// memo expression too if `verify`. Nothing is cached or run; the
    /// shell's `EXPLAIN` family and `\trace` go through it.
    pub fn miss_search<T>(
        &self,
        zql_src: &str,
        verify: bool,
        search: impl FnOnce(&SimplifiedQuery, &OpenOodb<'_>) -> T,
    ) -> Result<(SimplifiedQuery, T), ServiceError> {
        let (state, params) = (self.inner.state.load(), self.inner.params);
        let (schema, catalog) = (state.store.schema(), state.store.catalog());
        let q = zql::compile(zql_src, schema, catalog).map_err(ServiceError::Zql)?;
        let fp = fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref()).hash;
        let overlay = self.inner.feedback.overlay_for(fp, state.epoch());
        let mut config = (*state.config).clone();
        config.verify_search |= verify;
        let found = search(&q, &miss_optimizer(&q.env, params, &config, overlay));
        Ok((q, found))
    }

    /// Run stage: grant, execute, retry transient faults with backoff.
    fn run(
        &self,
        req: &mut Request<'_>,
        planned: &Planned,
        plan: &PhysicalPlan,
    ) -> Result<Ran, ServiceError> {
        let m = &self.inner.metrics;
        let (opts, store, entry) = (req.opts, &req.state.store, &planned.entry);
        // A degraded plan executes without the deadline: once the search
        // has already timed out, a late best-effort answer beats an error.
        let deadline = req.deadline.filter(|_| !planned.degraded);
        // Memory grant: the caller's budget, else a quarter of governor
        // capacity so four queries can always progress concurrently. A
        // pressure-degraded run gets half of either — smaller footprint
        // now beats optimal hash tables later.
        let governor = &req.state.governor;
        let mut mem_budget = opts
            .mem_budget
            .or_else(|| governor.as_ref().map(|gov| (gov.capacity() / 4).max(1)));
        if req.pressure_degraded {
            mem_budget = mem_budget.map(|b| (b / 2).max(1));
        }
        // A suspect fingerprint with no recorded overrides yet gets one
        // traced probe execution: only the per-operator trace can
        // attribute root-level drift to individual predicates.
        let want_trace =
            opts.trace || (!planned.degraded && self.inner.feedback.wants_probe(planned.fp_hash));
        let mut render = row_renderer(entry);
        // Spans sized from the root's estimate — capped, an estimate is
        // not a bound — so a large answer does not regrow row by row.
        let mut answer = Answer::with_capacity((plan.est.out_card as usize).min(4096));
        let mut retries = 0u32;
        let (trace, stats) = loop {
            // A retried fault starts an empty answer.
            answer.clear();
            let ex = Executor::new(
                store,
                &entry.env,
                RunLimits {
                    deadline,
                    cancel: req.cancel.cloned(),
                    row_budget: opts.row_budget,
                    mem_budget,
                    injector: req.state.injector.clone(),
                    governor: governor.clone(),
                },
            );
            match ex.try_run_rows(plan, want_trace, &mut |row| render(&mut answer, row)) {
                (Ok(trace), stats) => break (trace, stats),
                (Err(ExecError::Fault(f)), _)
                    if f.class == FaultClass::Transient
                        && retries < opts.retries
                        && deadline.is_none_or(|d| Instant::now() < d) =>
                {
                    retries += 1;
                    m.retries.inc();
                    // Exponential backoff from 100 µs, capped at 5 ms and
                    // clipped to the remaining deadline.
                    let mut backoff = Duration::from_micros(50u64 << retries.min(7))
                        .min(Duration::from_millis(5));
                    if let Some(d) = deadline {
                        backoff = backoff.min(d.saturating_duration_since(Instant::now()));
                    }
                    thread::sleep(backoff);
                }
                (Err(e), _) => return Err(ServiceError::from_exec(e, retries)),
            }
        };
        req.stages.execute_ns = req.timer.lap_into(&m.stage_execute);
        m.record_exec(&stats);
        Ok(Ran {
            answer,
            trace,
            stats,
            retries,
        })
    }

    /// Closes the feedback loop on a finished execution, traced or not:
    /// production executions feed the drift detector through the root
    /// row-count sample the executor returns for free. Returns the
    /// `(estimated, observed)` root rows when they drifted out of bounds.
    fn close_feedback(
        &self,
        req: &Request<'_>,
        planned: &Planned,
        plan: &PhysicalPlan,
        ran: &Ran,
    ) -> Option<(f64, u64)> {
        let m = &self.inner.metrics;
        let (fb, env, epoch) = (&self.inner.feedback, &planned.entry.env, req.state.epoch());
        let fp_hash = planned.fp_hash;
        // Execute-time half of the interval audit: measured row counts
        // against the catalog-derived bounds. An escape here with a clean
        // verify pass means the statistics are stale, not the cost model.
        let nodes = ran.trace.as_ref().map(|t| walk_actual(env, plan, t));
        if let Some(nodes) = &nodes {
            let escapes = nodes.iter().filter(|n| n.escapes()).count();
            m.actual_card_violations.add(escapes as u64);
        }
        if planned.degraded {
            return None;
        }
        let (est, rows) = (plan.est.out_card, ran.stats.root_rows);
        let obs = fb.observe_root(fp_hash, epoch, est, rows, planned.overlaid);
        if obs == Observation::NewlySuspect {
            // The cached plan was chosen from estimates we now know to be
            // wrong; evict it so the next submission re-plans (and, once
            // probed, re-optimizes under the overlay).
            self.inner.cache.remove(&planned.key);
        }
        if let Some(nodes) = &nodes {
            if fb.observe_trace(fp_hash, epoch, env, nodes) > 0 && !planned.overlaid {
                // Per-predicate overrides are now recorded: retire the
                // catalog-only plan — the next probe keys on the overlay
                // fingerprint and re-optimizes.
                self.inner.cache.remove(&planned.key);
            }
        } else if obs != Observation::InBounds {
            // Untraced counterpart of the interval escapes: the root
            // estimate drifted past the threshold.
            m.actual_card_violations.inc();
        }
        (obs != Observation::InBounds).then_some((est, rows))
    }
}

/// The one construction of the optimizer a cache miss searches with: the
/// service's cost parameters, the snapshot's configuration and the query's
/// feedback overlay.
fn miss_optimizer<'e>(
    env: &'e QueryEnv,
    params: CostParams,
    config: &OptimizerConfig,
    overlay: Option<Arc<StatsOverlay>>,
) -> OpenOodb<'e> {
    let optimizer = OpenOodb::new(env, params, config.clone());
    match overlay {
        Some(ov) => optimizer.with_overlay(ov),
        None => optimizer,
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
